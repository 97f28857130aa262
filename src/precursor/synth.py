"""Synthetic corpora with planted ground truth.

Each planted topic schedules posts for a pair of n-grams: the general
planted n-gram g spans the whole topic interval, and an extended n-gram
(one extra lemma in front of g) occupies a strictly interior sub-interval.
`generate` raises InfeasibleSpec unless `filter_bursts` keeps both bursts
under the defaults; g's burst generalizes the extended one, so the merge
stage produces a topic carrying g over the planted interval.

When a topic has a leader, the leader posts g exactly once at the interval
start and every follower's first post comes at least the configured lead
time later.  Leaderless topics order participant entry by posting-rate
weighted sampling, so the probability that one blog enters before another
matches their relative posting volumes ("precedence by chance").

Noise posts arrive per blog as exponential inter-arrival processes over a
disjoint vocabulary.  With no planted topic, `leader_follower_spec` at seed
1 with 200 blogs over 90 days, or 40 blogs at base rate 5.0 over 60 days,
gives no kept burst and so no topic; other shapes are not checked.

Three generators, seeded [seed, 1], [seed, 2] and [seed, 3], draw the
planted schedules, the noise posts and the links.  The order of draws on
each is what makes a seed reproduce a corpus, so it is fixed:

- Topics, per topic in spec order: a led topic shuffles its followers; a
  leaderless one draws one uniform per entry position (the rate-weighted
  entry order).  Then one integer for the offset of the first interior
  slot, and one after each interior slot for the gap to the next.
- Noise, per blog in id order: all its arrival times first (an exponential
  per arrival; with rate_ramp > 0 a thinning uniform before each next
  exponential), then per noise post and per chunk (two chunks): the chunk
  length `integers(3, 6)`, its lemmas `choice(noise_vocab, length,
  replace=False)`, then one uniform per lemma for its tag.
- Links, per record in (timestamp, post_id) order: one uniform against
  link_prob; for a linked record, one uniform against 0.25 for a second
  link, then `choice(n_blogs - 1, n_links, replace=False)` over the other
  blogs in id order.

A weighted draw (a tag or an entry position) is the one uniform that
`Generator.choice(..., p=weights)` would draw, mapped through the same CDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, cycle
from operator import itemgetter
from typing import Callable

import numpy as np

from .bursts import Burst, filter_bursts
from .config import PipelineConfig
from .corpus import DAY, HOUR, write_records
from .ngrams import Ngram, Occurrence


class InfeasibleSpec(Exception):
    """The planted schedule cannot satisfy the burst filters."""


@dataclass(frozen=True)
class PlantedTopic:
    words: tuple[str, ...]
    start_day: float
    duration_days: float
    participants: tuple[str, ...]
    leader: str | None = None
    lead_hours: float = 12.0


@dataclass
class SynthSpec:
    n_blogs: int
    window_days: float
    base_rate: float  # posts per blog per day
    topics: list[PlantedTopic] = field(default_factory=list)
    rate_multipliers: dict[str, float] = field(default_factory=dict)
    noise_vocab: int = 400
    link_prob: float = 0.3
    rate_ramp: float = 0.0  # fractional rate increase across the window
    seed: int = 0


@dataclass
class GroundTruth:
    topics: list[dict]
    pairs: list[tuple[str, str]]

    def to_json(self) -> dict:
        return {"topics": self.topics,
                "pairs": [list(p) for p in self.pairs]}


def blog_ids(n: int) -> list[str]:
    return [f"blog_{i:03d}" for i in range(n)]


def _rate_of(spec: SynthSpec, blog: str) -> float:
    return spec.base_rate * spec.rate_multipliers.get(blog, 1.0)


def _validate_topic(spec: SynthSpec, topic: PlantedTopic) -> None:
    if len(topic.words) < 2:
        raise InfeasibleSpec(f"planted n-gram needs >= 2 words: {topic.words}")
    # a led topic's followers alone sustain its interior burst
    others = set(topic.participants) - {topic.leader}
    if len(others) < PipelineConfig.min_blogs:
        raise InfeasibleSpec(f"topic needs >= {PipelineConfig.min_blogs} "
                             "participants besides its leader, got "
                             f"{len(others)}")
    duration = topic.duration_days * DAY
    lead = topic.lead_hours * HOUR if topic.leader else 0.0
    if not 0.0 <= lead < duration:
        raise InfeasibleSpec(f"lead_hours {topic.lead_hours} must be >= 0 "
                             "and shorter than the topic")
    inner_span = duration - (lead + 6 * HOUR) - 12 * HOUR
    if inner_span < PipelineConfig.min_burst_days * DAY + 12 * HOUR:
        raise InfeasibleSpec(
            f"duration {topic.duration_days}d leaves no room for an interior "
            "burst of min_burst_days")
    if topic.start_day < 0 or topic.start_day + topic.duration_days > spec.window_days:
        raise InfeasibleSpec("topic interval outside the observation window")


def _cdf(p) -> np.ndarray:
    """The CDF `Generator.choice(len(p), p=p)` draws from: it maps a uniform
    u to index `cdf.searchsorted(u, side="right")`.  Drawing through it
    skips choice's validation of p, and a CDF built once serves every draw."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def _entry_order(participants: tuple[str, ...], rates: list[float],
                 rng: np.random.Generator) -> list[str]:
    """Rate-weighted sampling without replacement (Plackett-Luce order)."""
    remaining = list(participants)
    weights = list(rates)
    order = []
    while remaining:
        cdf = _cdf(np.array(weights) / sum(weights))
        idx = int(cdf.searchsorted(rng.random(), side="right"))
        order.append(remaining.pop(idx))
        weights.pop(idx)
    return order


def _topic_schedule(spec: SynthSpec, topic: PlantedTopic,
                    rng: np.random.Generator) -> list[tuple[int, str, bool]]:
    """(timestamp, blog, extended?) slots for one planted topic.

    The first and last slots sit exactly on the interval bounds, and slots
    inside the interior zone carry the extended n-gram.  The blogs take
    turns: a led topic opens with its leader and then cycles through its
    followers, a leaderless one cycles through its entry order.  The
    participants are distinct, min_blogs or more, so no two adjacent slots
    share a blog and the index's collapse of same-blog runs keeps them all.
    """
    start = int(round(topic.start_day * DAY))
    end = start + int(round(topic.duration_days * DAY))
    lead = int(round(topic.lead_hours * HOUR)) if topic.leader else 0
    inner_lo = start + lead + 6 * HOUR
    inner_hi = end - 12 * HOUR

    if topic.leader is not None:
        followers = [b for b in topic.participants if b != topic.leader]
        rng.shuffle(followers)
        turns = chain([topic.leader], cycle(followers))
    else:
        rates = [_rate_of(spec, b) for b in topic.participants]
        turns = cycle(_entry_order(topic.participants, rates, rng))

    slots: list[tuple[int, str]] = [(start, next(turns))]
    t = (start + lead + int(rng.integers(HOUR, 2 * HOUR)) if lead
         else start + int(rng.integers(2 * HOUR, 5 * HOUR)))
    while t < end - 2 * HOUR:
        slots.append((t, next(turns)))
        t += int(rng.integers(3 * HOUR, 7 * HOUR))
    slots.append((end, next(turns)))
    return [(ts, blog, inner_lo <= ts <= inner_hi) for ts, blog in slots]


def _check_planted_burst(slots: list[tuple[int, str, bool]],
                         label: str) -> None:
    """Re-check planted slots against the default burst filters."""
    burst = Burst(Ngram(()), slots[0][0], slots[-1][0],
                  tuple(Occurrence(t, b, "") for t, b, _ in slots))
    if not filter_bursts({burst.ngram: [burst]}):
        raise InfeasibleSpec(f"{label}: fails the default burst filters")


def _noise_times(rate: float, window: float, ramp: float,
                 rng: np.random.Generator) -> list[int]:
    """Exponential arrivals; with ramp > 0, thinning against the peak rate."""
    peak = rate * (1.0 + ramp)
    times = []
    t = float(rng.exponential(DAY / peak))
    while t < window:
        accept = True
        if ramp > 0:
            current = rate * (1.0 + ramp * t / window)
            accept = rng.random() < current / peak
        if accept:
            times.append(int(t))
        t += float(rng.exponential(DAY / peak))
    return times


_NOISE_TAGS = ("NOUN", "VERB", "ADJ", "NUM", "OTHER")
_NOISE_TAG_CDF = _cdf([0.55, 0.2, 0.15, 0.03, 0.07])


def _noise_tokens(vocab: list[str], rng: np.random.Generator) -> list[dict]:
    tokens = []
    for chunk in range(2):
        n = int(rng.integers(3, 6))
        lemmas = rng.choice(len(vocab), size=min(n, len(vocab)), replace=False)
        tags = _NOISE_TAG_CDF.searchsorted(rng.random(len(lemmas)), side="right")
        for li, tag in zip(lemmas.tolist(), tags.tolist()):
            tokens.append({"l": vocab[li], "p": _NOISE_TAGS[tag], "c": chunk})
    return tokens


def _add_links(records: list[dict], blogs: list[str], link_prob: float,
               rng: np.random.Generator) -> None:
    """Give each record, with probability link_prob, one or (a quarter of
    the time) two links to other blogs, drawn without replacement."""
    # index i among the other blogs is blogs[i + (i >= own)], own being the
    # index of the record's blog
    position = {blog: i for i, blog in enumerate(blogs)}
    n_others = len(blogs) - 1
    for record in records:
        if rng.random() < link_prob:
            n_links = 1 + int(rng.random() < 0.25)
            own = position[record["blog_id"]]
            chosen = rng.choice(n_others, size=min(n_links, n_others),
                                replace=False)
            record["links"] = sorted(blogs[i + (i >= own)]
                                     for i in chosen.tolist())


def generate(spec: SynthSpec) -> tuple[list[dict], GroundTruth]:
    """Build corpus records plus the planted ground truth, deterministically
    for a given spec (seed included).  Raises InfeasibleSpec when a planted
    topic cannot satisfy the burst filters, a participant, leader or rate
    multiplier names no blog of the spec, a topic lists a participant twice
    or a leader not among them, or a ramp or lead is negative.
    """
    if spec.base_rate <= 0:
        raise InfeasibleSpec("base posting rate must be positive")
    for mult in spec.rate_multipliers.values():
        if mult <= 0:
            raise InfeasibleSpec("rate multipliers must be positive")
    if spec.rate_ramp < 0:
        raise InfeasibleSpec(f"rate_ramp {spec.rate_ramp} is negative")
    blogs = blog_ids(spec.n_blogs)
    known = set(blogs)
    if unknown := set(spec.rate_multipliers) - known:
        raise InfeasibleSpec("rate multipliers of unknown blogs "
                             f"{sorted(unknown)}")
    for t_idx, topic in enumerate(spec.topics):
        if unknown := {*topic.participants, topic.leader} - known - {None}:
            raise InfeasibleSpec("unknown participants or leader "
                                 f"{sorted(unknown)}")
        for i, blog in enumerate(topic.participants):
            if blog in topic.participants[:i]:
                raise InfeasibleSpec(f"topic {t_idx}: participant {blog} is "
                                     "listed twice")
        if topic.leader not in (None, *topic.participants):
            raise InfeasibleSpec(f"topic {t_idx}: leader {topic.leader} is "
                                 "not among its participants")
        _validate_topic(spec, topic)

    rng_topics = np.random.default_rng([spec.seed, 1])
    rng_noise = np.random.default_rng([spec.seed, 2])
    rng_links = np.random.default_rng([spec.seed, 3])

    records: list[dict] = []
    truth_topics: list[dict] = []
    pairs: list[tuple[str, str]] = []

    for t_idx, topic in enumerate(spec.topics):
        slots = _topic_schedule(spec, topic, rng_topics)
        _check_planted_burst(slots, f"topic {t_idx} ({' '.join(topic.words)})")
        _check_planted_burst([s for s in slots if s[2]],
                             f"topic {t_idx} interior")
        ext_word = f"x{t_idx:03d}"
        for s_idx, (ts, blog, ext) in enumerate(slots):
            words = (ext_word,) + topic.words if ext else topic.words
            records.append({
                "post_id": f"t{t_idx:03d}s{s_idx:03d}",
                "blog_id": blog,
                "timestamp": ts,
                "title": [],
                "body": [{"l": w, "p": "NOUN", "c": 0} for w in words],
                "links": [],
            })
        truth_topics.append({
            "words": list(topic.words),
            "start": slots[0][0],
            "end": slots[-1][0],
            "participants": sorted({blog for _, blog, _ in slots}),
            "leader": topic.leader,
        })
        if topic.leader is not None:
            for follower in sorted({b for _, b, _ in slots} - {topic.leader}):
                pairs.append((topic.leader, follower))

    vocab = [f"n{i:03d}" for i in range(spec.noise_vocab)]
    window_seconds = spec.window_days * DAY
    for b_idx, blog in enumerate(blogs):
        for k, ts in enumerate(_noise_times(_rate_of(spec, blog),
                                            window_seconds, spec.rate_ramp,
                                            rng_noise)):
            records.append({
                "post_id": f"b{b_idx:03d}n{k:04d}",
                "blog_id": blog,
                "timestamp": ts,
                "title": [],
                "body": _noise_tokens(vocab, rng_noise),
                "links": [],
            })

    records.sort(key=lambda r: (r["timestamp"], r["post_id"]))
    _add_links(records, blogs, spec.link_prob, rng_links)
    return records, GroundTruth(topics=truth_topics, pairs=sorted(set(pairs)))


def write_corpus(records: list[dict], path) -> None:
    """One corpus line per record, as `json.dumps(record, sort_keys=True,
    ensure_ascii=False)` writes it."""
    token = itemgetter("l", "p", "c")
    with open(path, "w", encoding="utf-8") as fh:
        write_records(fh, ((r["blog_id"], map(token, r["body"]), r["links"],
                            r["post_id"], r["timestamp"],
                            map(token, r["title"])) for r in records))


def _planted_spec(n_blogs: int, n_topics: int, window_days: float,
                  base_rate: float, duration_days: float,
                  participants: Callable[[int], tuple[str, ...]],
                  leader: str | None = None, lead_hours: float = 12.0,
                  rate_multipliers: dict[str, float] | None = None,
                  seed: int = 0) -> SynthSpec:
    """Topic i has the words `t{i:03d}a t{i:03d}b` and the blogs
    participants(i); the starts run evenly from day 1 to the last day that
    leaves the topic a day before the window's end."""
    span = window_days - duration_days - 2.0
    topics = [PlantedTopic((f"t{i:03d}a", f"t{i:03d}b"),
                           1.0 + span * i / max(n_topics - 1, 1),
                           duration_days, participants(i), leader, lead_hours)
              for i in range(n_topics)]
    return SynthSpec(n_blogs, window_days, base_rate, topics,
                     rate_multipliers or {}, seed=seed)


def leader_follower_spec(n_blogs: int = 20, n_topics: int = 30,
                         window_days: float = 75.0, base_rate: float = 0.35,
                         lead_hours: float = 12.0, duration_days: float = 6.0,
                         leader: str = "blog_000", follower: str = "blog_001",
                         seed: int = 0) -> SynthSpec:
    """One leader with a fixed head start over a designated follower.

    The leader and the follower participate in every planted topic; four
    other blogs rotate through the remaining slots.
    """
    others = [b for b in blog_ids(n_blogs) if b not in (leader, follower)]
    return _planted_spec(
        n_blogs, n_topics, window_days, base_rate, duration_days,
        lambda i: (leader, follower,
                   *(others[(3 * i + j) % len(others)] for j in range(4))),
        leader=leader, lead_hours=lead_hours, seed=seed)


def rate_asymmetry_spec(n_blogs: int = 20, window_days: float = 60.0,
                        base_rate: float = 0.35, multiplier: float = 5.0,
                        heavy: str = "blog_000", other: str = "blog_001",
                        n_topics: int = 8, duration_days: float = 6.0,
                        seed: int = 0) -> SynthSpec:
    """A blog posting `multiplier` times more, with no planted lead.

    All planted topics are leaderless; the heavy poster and the reference
    blog co-participate in exactly one of them, so their dyad's precedence
    evidence comes purely from chance ordering.
    """
    rest = [b for b in blog_ids(n_blogs) if b not in (heavy, other)]

    def participants(i: int) -> tuple[str, ...]:
        pool = [rest[(4 * i + j) % len(rest)] for j in range(4)]
        if i == 0:
            return (heavy, other, *pool[:3])
        return (heavy if i % 2 else other, *pool)
    return _planted_spec(n_blogs, n_topics, window_days, base_rate,
                         duration_days, participants,
                         rate_multipliers={heavy: multiplier}, seed=seed)
