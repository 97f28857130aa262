import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from precursor import synth
from precursor.corpus import DAY, HOUR, corpus_from_records
from precursor.bursts import detect_all, filter_bursts
from precursor.ngrams import build_index
from precursor.synth import (GroundTruth, InfeasibleSpec, PlantedTopic,
                             SynthSpec, blog_ids, generate,
                             leader_follower_spec, rate_asymmetry_spec,
                             write_corpus)
from precursor.topics import merge_bursts

from conftest import (JSON_ODD, json_text, reference_add_links, reference_entry_order,
                      reference_noise_tokens)


def topic(participants, leader=None, duration=6.0, words=("t000a", "t000b")):
    return PlantedTopic(words=words, start_day=2.0, duration_days=duration,
                        participants=participants, leader=leader)


def base_spec(topics, n_blogs=10, seed=0, **kw):
    return SynthSpec(n_blogs=n_blogs, window_days=30.0, base_rate=0.4,
                     topics=topics, seed=seed, **kw)


def run_topic_stages(records):
    corpus = corpus_from_records(enumerate(records, 1))
    return merge_bursts(filter_bursts(detect_all(build_index(corpus))))


class TestFeasibility:
    def test_three_participants_rejected(self):
        spec = base_spec([topic(("blog_000", "blog_001", "blog_002"))])
        with pytest.raises(InfeasibleSpec):
            generate(spec)

    def test_led_topic_needs_four_followers(self):
        spec = base_spec([topic(tuple(blog_ids(4)), leader="blog_000")])
        with pytest.raises(InfeasibleSpec):
            generate(spec)

    def test_lead_longer_than_topic_rejected(self):
        bad = PlantedTopic(words=("a", "b"), start_day=1.0, duration_days=4.0,
                           participants=tuple(blog_ids(6)), leader="blog_000",
                           lead_hours=5 * 24.0)
        with pytest.raises(InfeasibleSpec):
            generate(base_spec([bad]))

    def test_too_short_topic_rejected(self):
        with pytest.raises(InfeasibleSpec):
            generate(base_spec([topic(tuple(blog_ids(5)), duration=3.0)]))

    def test_topic_longer_than_total_burst_cap_rejected(self):
        # 31 days exceed max_total_burst_days, which filter_bursts applies
        spec = SynthSpec(n_blogs=10, window_days=40.0, base_rate=0.4,
                         topics=[topic(tuple(blog_ids(6)), duration=31.0)])
        with pytest.raises(InfeasibleSpec, match="fails the default burst"):
            generate(spec)

    def test_unknown_participant_rejected(self):
        spec = base_spec([topic(("blog_000", "blog_001", "blog_002", "ghost"))])
        with pytest.raises(InfeasibleSpec):
            generate(spec)

    def test_zero_rate_rejected(self):
        with pytest.raises(InfeasibleSpec):
            generate(SynthSpec(n_blogs=4, window_days=10, base_rate=0.0))

    @pytest.mark.parametrize("topic_kw, spec_kw, message", [
        # each would plant something other than the spec says: followers
        # before their leader, a 21st blog, a seventh participant, no
        # multiplier, a ramp of 0, one blog counted as two participants, a
        # one-word n-gram, posts past the window, a blog that never posts
        ({"lead_hours": -12.0}, {}, "lead_hours -12.0 must be >= 0"),
        ({"leader": "blog_999"}, {},
         r"unknown participants or leader \['blog_999'\]"),
        ({"leader": "blog_006"}, {},
         "topic 0: leader blog_006 is not among its participants"),
        ({}, {"rate_multipliers": {"blog_0001": 2.0}},
         r"rate multipliers of unknown blogs \['blog_0001'\]"),
        ({}, {"rate_ramp": -0.5}, "rate_ramp -0.5 is negative"),
        ({"participants": ("blog_000", "blog_001", "blog_002", "blog_003",
                           "blog_004", "blog_005", "blog_002")}, {},
         "topic 0: participant blog_002 is listed twice"),
        ({"words": ("t000a",)}, {}, "planted n-gram needs >= 2 words"),
        ({"start_day": 72.0}, {}, "outside the observation window"),
        ({}, {"rate_multipliers": {"blog_001": 0.0}},
         "rate multipliers must be positive")],
        ids=["negative-lead", "unknown-leader", "outside-leader",
             "unknown-multiplier", "negative-ramp", "participant-twice",
             "one-word", "past-the-window", "zero-multiplier"])
    def test_spec_that_plants_something_else_rejected(self, topic_kw, spec_kw,
                                                      message):
        spec = leader_follower_spec(seed=1)
        spec.topics[0] = replace(spec.topics[0], **topic_kw)
        with pytest.raises(InfeasibleSpec, match=message):
            generate(replace(spec, **spec_kw))


class TestGenerate:
    def test_deterministic_under_seed(self):
        spec = base_spec([topic(tuple(blog_ids(5)))], seed=9)
        assert generate(spec) == generate(spec)
        other = base_spec([topic(tuple(blog_ids(5)))], seed=10)
        assert generate(other)[0] != generate(spec)[0]

    def test_planted_bursts_pass_filters(self):
        records, truth = generate(base_spec([topic(tuple(blog_ids(6)),
                                                   leader="blog_000")]))
        corpus = corpus_from_records(enumerate(records, 1))
        detected = detect_all(build_index(corpus))
        kept = filter_bursts(detected)
        planted_lemmas = tuple(truth.topics[0]["words"])
        assert any(b.ngram.lemmas == planted_lemmas for b in kept)

    def test_planted_topic_recovered(self):
        records, truth = generate(base_spec([topic(tuple(blog_ids(6)),
                                                   leader="blog_000",
                                                   duration=5.0)]))
        topics = run_topic_stages(records)
        planted = truth.topics[0]
        matches = [t for t in topics
                   if any(n.lemmas == tuple(planted["words"]) for n in t.ngrams)]
        assert matches
        got = matches[0]
        overlap = min(got.end, planted["end"]) - max(got.start, planted["start"])
        assert overlap >= 0.5 * (planted["end"] - planted["start"])
        # every topic inherits the burst filter's blog minimum
        assert len(got.participations) >= 4

    def test_null_spec_produces_no_topics(self):
        for seed in (0, 1):
            records, truth = generate(SynthSpec(n_blogs=15, window_days=45,
                                                base_rate=0.6, seed=seed))
            assert truth.topics == [] and truth.pairs == []
            assert len(run_topic_stages(records)) <= 2

    @pytest.mark.parametrize("shape", [
        dict(n_blogs=200, window_days=90),  # the many_blogs benchmark corpus
        dict(n_blogs=40, window_days=60, base_rate=5.0)])  # text_heavy's
    def test_noise_alone_keeps_no_burst(self, shape):
        records, _ = generate(leader_follower_spec(n_topics=0, seed=1, **shape))
        corpus = corpus_from_records(enumerate(records, 1))
        # so merge_bursts has nothing to make a topic of
        assert filter_bursts(detect_all(build_index(corpus))) == []

    def test_leader_posts_first_with_lead(self):
        records, truth = generate(base_spec(
            [topic(tuple(blog_ids(6)), leader="blog_000")]))
        planted = [r for r in records if r["post_id"].startswith("t000")]
        planted.sort(key=lambda r: r["timestamp"])
        assert planted[0]["blog_id"] == "blog_000"
        others = [r for r in planted if r["blog_id"] != "blog_000"]
        lead = others[0]["timestamp"] - planted[0]["timestamp"]
        assert lead >= 12 * HOUR
        assert ("blog_000", "blog_001") in truth.pairs

    @settings(max_examples=100, deadline=None)
    @given(blogs=st.permutations(blog_ids(10)), others=st.integers(4, 8),
           led=st.booleans(), duration=st.floats(4.0, 20.0),
           lead_hours=st.floats(0.0, 48.0),
           multiplier=st.floats(0.2, 5.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_adjacent_slots_never_share_a_blog(self, blogs, others, led,
                                               duration, lead_hours,
                                               multiplier, seed):
        # what keeps every slot through the n-gram index's collapse of a
        # blog's consecutive occurrences; a led topic's first blog leads
        participants = tuple(blogs[:others + 1 if led else others])
        planted = PlantedTopic(("a", "b"), 1.0, duration, participants,
                               participants[0] if led else None, lead_hours)
        spec = replace(base_spec([planted]),
                       rate_multipliers={participants[1]: multiplier})
        try:
            synth._validate_topic(spec, planted)
        except InfeasibleSpec:
            assume(False)
        slots = synth._topic_schedule(spec, planted,
                                      np.random.default_rng(seed))
        assert all(a[1] != b[1] for a, b in zip(slots, slots[1:]))

    def test_rate_multiplier_scales_post_volume(self):
        spec = SynthSpec(n_blogs=6, window_days=40, base_rate=0.5,
                         rate_multipliers={"blog_000": 5.0}, seed=3)
        records, _ = generate(spec)
        counts = {}
        for r in records:
            counts[r["blog_id"]] = counts.get(r["blog_id"], 0) + 1
        others = np.mean([counts[b] for b in blog_ids(6)[1:]])
        assert counts["blog_000"] > 3 * others

    def test_rate_ramp_shifts_mass_late(self):
        spec = SynthSpec(n_blogs=4, window_days=60, base_rate=2.0,
                         rate_ramp=3.0, seed=4)
        records, _ = generate(spec)
        times = np.array([r["timestamp"] for r in records])
        mid = 30 * DAY
        assert (times > mid).sum() > 1.3 * (times <= mid).sum()

    def test_links_point_to_known_blogs(self):
        records, _ = generate(SynthSpec(n_blogs=5, window_days=20,
                                        base_rate=1.0, seed=5))
        known = set(blog_ids(5))
        for r in records:
            assert set(r["links"]) <= known - {r["blog_id"]}


class TestPresets:
    def test_leader_follower_spec_shape(self):
        spec = leader_follower_spec(n_topics=5)
        assert len(spec.topics) == 5
        for t in spec.topics:
            assert t.leader == "blog_000"
            assert "blog_001" in t.participants
            assert len(set(t.participants)) == 6

    def test_rate_asymmetry_spec_single_shared_topic(self):
        spec = rate_asymmetry_spec()
        shared = [t for t in spec.topics
                  if "blog_000" in t.participants and "blog_001" in t.participants]
        assert len(shared) == 1
        assert all(t.leader is None for t in spec.topics)
        assert spec.rate_multipliers == {"blog_000": 5.0}


def generate_recorded(spec, monkeypatch):
    """generate(spec), and the final state of each generator it made."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", recording)
        records, truth = generate(spec)
    return records, truth, [rng.bit_generator.state for rng in made]


REFERENCE_SPECS = {
    "leader_follower": lambda seed: leader_follower_spec(seed=seed),
    "rate_asymmetry": lambda seed: rate_asymmetry_spec(seed=seed),
    "rate_ramp": lambda seed: replace(leader_follower_spec(seed=seed),
                                      rate_ramp=1.5),
    "noise_vocab_3": lambda seed: replace(leader_follower_spec(seed=seed),
                                          noise_vocab=3),
}


class TestDrawsMatchReferences:
    """The CDF-lookup tag and entry draws and the index-shifted link targets
    consume the same numbers as one `choice(..., p=...)` per draw and a
    fresh list of the other blogs per linked record."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", sorted(REFERENCE_SPECS))
    def test_generate_equals_reference_draws(self, kind, seed, monkeypatch):
        spec = REFERENCE_SPECS[kind](seed)
        records, truth, states = generate_recorded(spec, monkeypatch)
        monkeypatch.setattr(synth, "_noise_tokens", reference_noise_tokens)
        monkeypatch.setattr(synth, "_entry_order", reference_entry_order)
        monkeypatch.setattr(synth, "_add_links", reference_add_links)
        assert generate_recorded(spec, monkeypatch) == (records, truth, states)
        assert len(states) == 3
        assert any(len(r["links"]) == 2 for r in records)
        if kind == "rate_asymmetry":
            assert all(t["leader"] is None for t in truth.topics)
        if kind == "noise_vocab_3":
            noise = [r for r in records if "n" in r["post_id"]]
            assert noise and all(len(r["body"]) == 6 for r in noise)


@st.composite
def synth_records(draw):
    """Records shaped as `generate` makes them, every string drawn from a
    small pool of JSON-tricky text."""
    text = st.sampled_from(draw(st.lists(json_text, min_size=1, max_size=5)))
    tokens = st.lists(st.fixed_dictionaries(
        {"l": text, "p": text, "c": st.integers(0, 3)}), max_size=4)
    return draw(st.lists(st.fixed_dictionaries(
        {"post_id": text, "blog_id": text,
         "timestamp": st.integers(-2 ** 40, 2 ** 40), "title": tokens,
         "body": tokens, "links": st.lists(text, max_size=3)}), max_size=5))


def test_written_corpus_lines_equal_json_dumps():
    covered = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"

        @settings(max_examples=200, deadline=None)
        @given(synth_records())
        def check(recs):
            write_corpus(recs, path)
            assert path.read_text(encoding="utf-8") == "".join(
                json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n"
                for r in recs)
            text = "".join(
                r["post_id"] + r["blog_id"] + "".join(r["links"]) + "".join(
                    t["l"] + t["p"] for t in r["title"] + r["body"])
                for r in recs)
            covered.update(c for c in JSON_ODD if c in text)

        check()
    assert covered == set(JSON_ODD)
