import logging
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from precursor import topics
from precursor.topics import is_generalization, merge_bursts

from conftest import brute_force_merge, burst_of, scan_merge_conflicts


class TestIsGeneralization:
    def test_subsequence_with_containing_interval(self):
        ga = burst_of(("région", "avoir", "apporter", "contribution", "débat"),
                      5, 20)
        gb = burst_of(("apporter", "contribution", "débat"), 3, 25)
        assert is_generalization(ga, gb)

    def test_word_order_matters(self):
        ga = burst_of(("apporter", "contribution", "débat"), 5, 20)
        gb = burst_of(("contribution", "apporter"), 3, 25)
        assert not is_generalization(ga, gb)

    def test_non_contiguous_subsequence_rejected(self):
        ga = burst_of(("a", "b", "c"), 5, 20)
        gb = burst_of(("a", "c"), 3, 25)
        assert not is_generalization(ga, gb)

    def test_interval_containment_required(self):
        ga = burst_of(("a", "b", "c"), 5, 20)
        gb = burst_of(("b", "c"), 6, 25)
        assert not is_generalization(ga, gb)

    def test_equal_interval_counts_as_containing(self):
        ga = burst_of(("a", "b", "c"), 5, 20)
        gb = burst_of(("b", "c"), 5, 20)
        assert is_generalization(ga, gb)


def conflicting_bursts():
    # the 4-grams are traversed first and create two separate topics; the
    # bridging 3-gram then finds generalizations in both, which forces the
    # topics to merge
    return [burst_of(("q", "q2", "a", "b"), 5, 10),
            burst_of(("r", "r2", "b", "c"), 5, 10),
            burst_of(("a", "b", "c"), 10, 20),
            burst_of(("a", "b"), 0, 30), burst_of(("b", "c"), 0, 30)]


class TestMergeBursts:
    def test_pair_merges_into_one_topic(self):
        specific = burst_of(("région", "apporter", "contribution"), 5, 20)
        general = burst_of(("apporter", "contribution"), 3, 25)
        topics = merge_bursts([specific, general])
        assert len(topics) == 1
        topic = topics[0]
        assert [n.lemmas for n in topic.ngrams] == [("apporter", "contribution")]
        assert (topic.start, topic.end) == (3, 25)

    def test_no_relations_no_topics_by_default(self):
        bursts = [burst_of(("a", "b"), 0, 10), burst_of(("c", "d"), 0, 10)]
        assert merge_bursts(bursts) == []

    def test_keep_singletons(self):
        bursts = [burst_of(("a", "b"), 0, 10), burst_of(("c", "d"), 5, 15)]
        topics = merge_bursts(bursts, keep_singletons=True)
        assert len(topics) == 2
        assert all(len(t.ngrams) == 1 for t in topics)

    def test_chain_collapses_to_single_topic(self):
        a = burst_of(("x", "y", "z", "w"), 10, 20)
        b = burst_of(("y", "z", "w"), 8, 22)
        c = burst_of(("z", "w"), 5, 25)
        topics = merge_bursts([a, b, c])
        assert len(topics) == 1
        assert {n.lemmas for n in topics[0].ngrams} == {
            ("y", "z", "w"), ("z", "w")}
        assert (topics[0].start, topics[0].end) == (5, 25)

    def test_conflicting_topics_are_merged(self):
        topics = merge_bursts(conflicting_bursts())
        assert len(topics) == 1
        assert {n.lemmas for n in topics[0].ngrams} == {("a", "b"), ("b", "c")}

    def test_merge_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG)
        merge_bursts(conflicting_bursts())
        assert caplog.records == []

    def test_topics_with_one_key_keep_the_order_of_their_first_finders(self):
        # both topics sort as (0, 5, "a b"): ab@0-4 finds ab@0-5 alone, then
        # ab@0-1 finds ab@0-2 and a@0-3, and ca@1-2 adds c@0-5 through
        # a@0-3; the second topic holds the lowest input index, a@0-3, but
        # ab@0-4 comes first in the traversal, so its topic is T0001
        bursts = [burst_of(tuple(lemmas), start, end) for lemmas, start, end in
                  (("a", 0, 3), ("ab", 0, 4), ("ab", 0, 5), ("ab", 0, 1),
                   ("ab", 0, 2), ("c", 0, 5), ("ca", 1, 2))]
        topics = merge_bursts(bursts)
        assert [(t.start, t.end, t.ngrams[0].lemmas) for t in topics] == \
            [(0, 5, ("a", "b"))] * 2
        assert [t.bursts for t in topics] == [
            (bursts[2],), (bursts[4], bursts[0], bursts[5])]
        assert topics == brute_force_merge(bursts)

    def test_each_burst_in_at_most_one_topic(self):
        bursts = [burst_of(("a", "b", "c"), 10, 20),
                  burst_of(("a", "b"), 8, 22),
                  burst_of(("b", "c"), 9, 21),
                  burst_of(("d", "e"), 0, 5)]
        topics = merge_bursts(bursts, keep_singletons=True)
        seen = []
        for topic in topics:
            for burst in topic.bursts:
                assert burst not in seen
                seen.append(burst)

    def test_participations_earliest_per_blog(self):
        general = burst_of(("a", "b"), 0, 30,
                           occurrences=[(0, "b1", "p0"), (10, "b2", "p1"),
                                        (20, "b1", "p2"), (30, "b3", "p3")])
        specific = burst_of(("q", "a", "b"), 5, 25,
                            occurrences=[(5, "b2", "p4"), (25, "b1", "p5")])
        topics = merge_bursts([specific, general])
        assert len(topics) == 1
        assert topics[0].participations == {"b1": 0, "b2": 10, "b3": 30}

    def test_topic_interval_within_member_span(self):
        general = burst_of(("a", "b"), 2, 28)
        specific = burst_of(("q", "a", "b"), 5, 25)
        topic = merge_bursts([specific, general])[0]
        assert topic.start == min(b.start for b in topic.bursts)
        assert topic.end == max(b.end for b in topic.bursts)

    def test_pairwise_minimality_without_chains(self):
        # among merged topics built from specific->general pairs only, no
        # retained member generalizes another retained member
        bursts = [burst_of(("a", "b", "c"), 10, 20),
                  burst_of(("a", "b"), 5, 25),
                  burst_of(("x", "y", "z"), 40, 50),
                  burst_of(("y", "z"), 35, 55)]
        for topic in merge_bursts(bursts):
            members = list(topic.bursts)
            for m1 in members:
                for m2 in members:
                    if m1 is not m2:
                        assert not is_generalization(m1, m2)


# (lemmas, start, length, [(offset, blog), ...]) over a three-word
# vocabulary with 1 to 7 lemmas and small integer times, so that shared and
# repeated sub-n-grams, equal starts and nested or equal intervals are common
RAW_BURST = st.tuples(
    st.text("abc", min_size=1, max_size=7), st.integers(0, 6),
    st.integers(0, 6),
    st.lists(st.tuples(st.integers(0, 6), st.sampled_from(("b1", "b2", "b3"))),
             min_size=1, max_size=3))


@st.composite
def burst_lists(draw):
    raw = draw(st.lists(RAW_BURST, max_size=12))
    if draw(st.booleans()):
        # two 4-grams open separate topics, one for x y and one for y z;
        # the 3-gram x y z, traversed later, then finds both
        x, y, z, p, q = draw(st.permutations("abcde"))
        t = draw(st.integers(0, 4))
        raw += [(p + x + y + p, t + 1, 1, [(0, "b1")]),
                (q + y + z + q, t + 1, 1, [(1, "b2")]),
                (x + y + z, t + 1, 1, [(0, "b3")]),
                (x + y, t, 3, [(0, "b1")]), (y + z, t, 3, [(3, "b2")])]
    bursts = []
    for k, (lemmas, start, length, occs) in enumerate(raw):
        end = start + length
        bursts.append(burst_of(tuple(lemmas), start, end,
                               [(min(start + dt, end), blog, f"p{k}_{m}")
                                for m, (dt, blog) in enumerate(sorted(occs))]))
    return bursts


def _pairs(bursts):
    return [(a, b) for a in bursts for b in bursts if a is not b]


# What the generated burst lists must include.
COVERAGE = {
    "repeated lemma": lambda bs: any(
        len(set(b.ngram.lemmas)) < len(b.ngram) for b in bs),
    "shared sub-n-gram": lambda bs: any(
        a.ngram != b.ngram and len(a.ngram) > 1 and len(b.ngram) > 1
        and a.ngram.lemmas[:2] == b.ngram.lemmas[-2:] for a, b in _pairs(bs)),
    "same n-gram and start": lambda bs: any(
        a.ngram == b.ngram and a.start == b.start for a, b in _pairs(bs)),
    "equal starts": lambda bs: any(
        a.ngram != b.ngram and a.start == b.start for a, b in _pairs(bs)),
    "nested intervals": lambda bs: any(
        a.start < b.start and b.end < a.end for a, b in _pairs(bs)),
    "equal intervals": lambda bs: any(
        a.ngram != b.ngram and (a.start, a.end) == (b.start, b.end)
        for a, b in _pairs(bs)),
    "generalized n-gram longer than 5": lambda bs: any(
        len(a.ngram) > 5 and is_generalization(a, b) for a, b in _pairs(bs)),
    "conflicting topics merged": lambda bs: scan_merge_conflicts(bs) > 0,
}


def test_merge_equals_brute_force_merge():
    covered = set()

    @settings(max_examples=300, deadline=None)
    @given(burst_lists(), st.booleans())
    def check(bursts, keep_singletons):
        assert merge_bursts(bursts, keep_singletons=keep_singletons) == \
            brute_force_merge(bursts, keep_singletons)
        covered.update(case for case, holds in COVERAGE.items()
                       if holds(bursts))

    check()
    assert covered == set(COVERAGE)


def test_merge_does_not_depend_on_the_input_order():
    """Bursts that share no (lemmas, start), as the bursts of one n-gram
    never do, give the same topics in any input order."""
    covered = set()

    @settings(max_examples=300, deadline=None)
    @given(burst_lists(), st.booleans(), st.data())
    def check(bursts, keep_singletons, data):
        bursts = list({(b.ngram.lemmas, b.start): b for b in bursts}.values())
        shuffled = data.draw(st.permutations(bursts))
        merged = merge_bursts(bursts, keep_singletons=keep_singletons)
        assert merge_bursts(shuffled, keep_singletons=keep_singletons) == merged
        covered.update(case for case, holds in (
            ("order changed", shuffled != bursts),
            ("multi-burst topic", any(len(t.bursts) > 1 for t in merged)),
            ("conflicting topics merged", scan_merge_conflicts(bursts) > 0))
            if holds)

    check()
    assert covered == {"order changed", "multi-burst topic",
                       "conflicting topics merged"}


def test_merge_checks_only_indexed_candidates(monkeypatch):
    """Only the bursts sharing a sub-n-gram are tested: a return to the
    scan of every later burst fails here without any timing."""
    rng = np.random.default_rng(17)
    vocab = [f"w{v}" for v in range(12)]
    bursts = []
    for _ in range(2000):
        lemmas = tuple(vocab[v] for v in rng.integers(0, 12, rng.integers(2, 6)))
        start = int(rng.integers(0, 2000))
        bursts.append(burst_of(lemmas, start, start + int(rng.integers(0, 400))))

    # later bursts with a shorter contiguous piece of the lemmas, plus the
    # pairs of bursts with the same lemmas
    count = Counter(b.ngram.lemmas for b in bursts)
    candidates = sum(m * (m - 1) // 2 for m in count.values())
    for b in bursts:
        lemmas, n = b.ngram.lemmas, len(b.ngram)
        pieces = {lemmas[i:j] for i in range(n) for j in range(i + 1, n + 1)}
        candidates += sum(count[p] for p in pieces if p != lemmas)

    checks = hits = 0
    real = topics.is_generalization

    def counting(ga, gb):
        nonlocal checks, hits
        result = real(ga, gb)
        checks += 1
        hits += result
        return result

    monkeypatch.setattr(topics, "is_generalization", counting)
    assert merge_bursts(bursts)
    assert 0 < hits <= checks <= candidates
    assert candidates * 20 < len(bursts) ** 2 / 2
