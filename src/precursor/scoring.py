"""Dyadic precursor scores and per-blog global precursor/laggard scores.

For an ordered blog pair (b, b2), A is the set of topics where both
participate and Y the subset where b's first participation strictly precedes
b2's.  Each topic r carries a chance probability C_r derived from relative
posting volumes during the topic interval.  The likelihood that the
precedence-relationship strength equals p sums, over every disjoint split of
Y into Z (explained by the relationship) and R (explained by chance),

    p^|Z| * (1-p)^(|A|-|Z|) * prod_{r in R} C_r * prod_{r in A\\R} (1-C_r)

which is implemented literally ("verbatim" variant).  The alternate
"partitioned" variant restricts the (1-C_r) product to A\\Y so that the
per-topic factors partition A; it exists for sensitivity analysis only.

Grouping the splits by |Z| = k makes the likelihood a polynomial in p,
L(p) = base * sum_k c_k p^k (1-p)^(n-k) with n = |A|.  The dyadic score
gamma is the posterior mean of p under a flat prior, and each term
integrates to a Beta function, so gamma is computed exactly:

    gamma = sum_k c_k B(k+2, n-k+1) / sum_k c_k B(k+1, n-k+1).

`likelihood` (split enumeration) and `likelihood_sampled` (the paper's
split-sampling estimator) evaluate L(p) itself; gamma uses neither.

The adjusted score omega multiplies gamma by the co-participation
probability Pr(H); per-blog P and L are means of outgoing and incoming omega
over all eligible dyads.

Only co-participating dyads (|A| > 0) are computed, from one pass over the
topics (`score_shared_dyads`), so the work grows with the number of such
dyads rather than with the square of the number of blogs.  Every other dyad
is fixed by definition at gamma = 0.5 (the flat prior's mean), Pr(H) = 0 and
omega = 0.  `build_dyad_context`, `pr_h` and `score_dyad` compute one dyad
at a time and serve as the reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import Corpus, post_count
from .topics import Topic

EXACT_LIMIT = 15
MIN_POSTS = 7

VARIANTS = ("verbatim", "partitioned")


class TooLargeForExact(Exception):
    """Exact likelihood enumeration refused; use the sampled estimator."""


class DegenerateLikelihood(RuntimeWarning):
    """The likelihood is zero for every p, so gamma is undefined."""


@dataclass(frozen=True)
class DyadContext:
    """Topic evidence for the ordered pair (b, b2)."""

    b: str
    b2: str
    a_topics: tuple[str, ...]
    y_topics: tuple[str, ...]
    c: Mapping[str, float]

    def __post_init__(self):
        a = set(self.a_topics)
        if not set(self.y_topics) <= a:
            raise ValueError("Y must be a subset of A")
        missing = a - set(self.c)
        if missing:
            raise ValueError(f"chance probabilities missing for {sorted(missing)}")


@dataclass(frozen=True)
class DyadScore:
    b: str
    b2: str
    a_size: int
    y_size: int
    gamma: float
    pr_h: float
    omega: float


@dataclass
class ScoringConfig:
    min_posts: int = MIN_POSTS
    variant: str = "verbatim"


def chance_prob(corpus: Corpus, b: str, b2: str, topic: Topic) -> float:
    """Probability that b precedes b2 on this topic purely by posting volume."""
    np_b = post_count(corpus, b, topic.start, topic.end)
    np_b2 = post_count(corpus, b2, topic.start, topic.end)
    if np_b == 0 and np_b2 == 0:
        return 0.5
    return np_b / (np_b + np_b2)


def _split_term(p: float, ctx: DyadContext, z_mask: int, variant: str) -> float:
    """Likelihood contribution of one split of Y (z_mask selects Z)."""
    y = ctx.y_topics
    n_z = bin(z_mask).count("1")
    term = p ** n_z * (1.0 - p) ** (len(ctx.a_topics) - n_z)
    r_topics = {y[i] for i in range(len(y)) if not (z_mask >> i) & 1}
    z_topics = {y[i] for i in range(len(y)) if (z_mask >> i) & 1}
    for r in ctx.a_topics:
        if r in r_topics:
            term *= ctx.c[r]
        elif variant == "verbatim":
            term *= 1.0 - ctx.c[r]
        elif r not in z_topics:  # partitioned: only A\Y gets the complement
            term *= 1.0 - ctx.c[r]
    return term


def _exact_sum(p: float, ctx: DyadContext, variant: str) -> float:
    return sum(_split_term(p, ctx, mask, variant)
               for mask in range(1 << len(ctx.y_topics)))


def likelihood(p: float, ctx: DyadContext, exact_limit: int = EXACT_LIMIT,
               variant: str = "verbatim") -> float:
    """Exact likelihood of gamma = p by full enumeration of splits of Y."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if len(ctx.y_topics) > exact_limit:
        raise TooLargeForExact(
            f"|Y| = {len(ctx.y_topics)} exceeds exact limit {exact_limit}")
    return _exact_sum(p, ctx, variant)


def likelihood_sampled(p: float, ctx: DyadContext, n_subsets: int, seed: int,
                       exhaustive: bool = False,
                       variant: str = "verbatim") -> float:
    """Sampled likelihood: mean split term over uniform splits, times 2^|Y|.

    With exhaustive=True every split is enumerated instead, which reproduces
    the exact likelihood regardless of |Y| (the slow path used to validate
    the estimator at the feasibility boundary).
    """
    if exhaustive:
        return _exact_sum(p, ctx, variant)
    rng = np.random.default_rng(seed)
    z_fac, r_fac, base = _variant_factors(ctx, variant)
    n_y = len(ctx.y_topics)
    bits = rng.random((n_subsets, n_y)) < 0.5
    terms = np.where(bits, p * z_fac, (1.0 - p) * r_fac).prod(axis=1)
    scale = base * (1.0 - p) ** (len(ctx.a_topics) - n_y)
    return float(terms.mean() * 2.0 ** n_y * scale)


def _variant_factors(ctx: DyadContext, variant: str):
    """Per-Y-element split factors and the common factor over A\\Y.

    Both variants factor as base * prod over Y of (z_fac*p | r_fac*(1-p)),
    with base collecting the A\\Y products excluding the (1-p) powers.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown likelihood variant {variant!r}")
    c_y = np.array([ctx.c[r] for r in ctx.y_topics], dtype=np.float64)
    if variant == "verbatim":
        z_fac = 1.0 - c_y
    else:
        z_fac = np.ones_like(c_y)
    r_fac = c_y
    base = 1.0
    in_y = set(ctx.y_topics)
    for r in ctx.a_topics:
        if r not in in_y:
            base *= 1.0 - ctx.c[r]
    return z_fac, r_fac, base


def _log_split_coefficients(ctx: DyadContext, variant: str) -> np.ndarray:
    """log c_k: the log of the sum of split factors over splits with |Z| = k.

    The common factor base is left out, since gamma does not depend on it
    (and its product underflows at large |A\\Y|).  The DP runs in log
    space: past about a thousand topics of Y the c_k span more than the
    float range, and the small ones can still carry gamma's largest weights.
    """
    z_fac, r_fac, _ = _variant_factors(ctx, variant)
    with np.errstate(divide="ignore"):
        log_z, log_r = np.log(z_fac), np.log(r_fac)
    log_c = np.zeros(1)
    for lz, lr in zip(log_z.tolist(), log_r.tolist()):
        nxt = np.empty(log_c.size + 1)
        nxt[0], nxt[-1] = log_c[0] + lr, log_c[-1] + lz
        np.logaddexp(log_c[1:] + lr, log_c[:-1] + lz, out=nxt[1:-1])
        log_c = nxt
    return log_c


def gamma(ctx: DyadContext, *, variant: str = "verbatim") -> float:
    """Exact posterior mean of the precedence strength p under a flat prior.

    B(k+2, n-k+1) = B(k+1, n-k+1) * (k+1)/(n+2), so gamma is the mean of
    (k+1)/(n+2) under weights c_k * B(k+1, n-k+1), which are taken in log
    space (lgamma) so that |A| in the thousands stays finite.
    """
    n_a = len(ctx.a_topics)
    if n_a == 0:
        return 0.5  # no shared topic: the flat prior's mean
    log_c = _log_split_coefficients(ctx, variant)
    in_y = set(ctx.y_topics)
    # base = prod_{A\Y} (1 - C_r) is zero exactly when some C_r there is 1
    if any(ctx.c[r] >= 1.0 for r in ctx.a_topics if r not in in_y) \
            or not np.isfinite(log_c).any():
        warnings.warn("likelihood vanishes for every p; returning 0.5",
                      DegenerateLikelihood)
        return 0.5
    # log B(k+1, n-k+1) up to the constant -lgamma(n+2), which cancels
    log_w = log_c + np.array([math.lgamma(k + 1) + math.lgamma(n_a - k + 1)
                              for k in range(log_c.size)])
    weights = np.exp(log_w - log_w.max())
    means = np.arange(1, log_c.size + 1) / (n_a + 2)
    return float(weights @ means / weights.sum())


def pr_h(corpus: Corpus, topics: Sequence[Topic], b: str, b2: str) -> float:
    """Fraction of b2's posts that participate in topics shared with b.

    A post participates in a topic when it appears as an occurrence in one
    of the topic's member bursts.
    """
    total = len(corpus.posts_by_blog(b2))
    if total == 0:
        return 0.0
    participating: set[str] = set()
    for topic in topics:
        if b in topic.participations and b2 in topic.participations:
            for burst in topic.bursts:
                participating.update(o.post_id for o in burst.occurrences
                                     if o.blog_id == b2)
    return len(participating) / total


def omega(gamma_value: float, pr_h_value: float) -> float:
    """Adjusted dyadic precursor score: gamma * Pr(H)."""
    return gamma_value * pr_h_value


def eligible_blogs(corpus: Corpus, min_posts: int = MIN_POSTS) -> list[str]:
    """Blogs with at least min_posts posts in the observation window."""
    return sorted(b for b in corpus.blogs
                  if len(corpus.posts_by_blog(b)) >= min_posts)


def build_dyad_context(corpus: Corpus, topics: Sequence[Topic],
                       b: str, b2: str) -> DyadContext:
    a_topics = []
    y_topics = []
    c = {}
    for topic in topics:
        first_b = topic.participations.get(b)
        first_b2 = topic.participations.get(b2)
        if first_b is None or first_b2 is None:
            continue
        a_topics.append(topic.topic_id)
        if first_b < first_b2:  # strict precedence; ties carry no direction
            y_topics.append(topic.topic_id)
        c[topic.topic_id] = chance_prob(corpus, b, b2, topic)
    return DyadContext(b=b, b2=b2, a_topics=tuple(a_topics),
                       y_topics=tuple(y_topics), c=c)


def score_dyad(corpus: Corpus, topics: Sequence[Topic], b: str, b2: str,
               config: ScoringConfig) -> DyadScore:
    ctx = build_dyad_context(corpus, topics, b, b2)
    g = gamma(ctx, variant=config.variant)
    h = pr_h(corpus, topics, b, b2)
    return DyadScore(b=b, b2=b2, a_size=len(ctx.a_topics),
                     y_size=len(ctx.y_topics), gamma=g, pr_h=h,
                     omega=omega(g, h))


def score_shared_dyads(corpus: Corpus, topics: Sequence[Topic],
                       blogs: Sequence[str],
                       config: ScoringConfig) -> list[DyadScore]:
    """Scores of the ordered pairs of `blogs` that share a topic, in (b, b2) order.

    One pass over the topics records, for each participant in `blogs`, its
    post ids in the topic's bursts (for Pr(H)), and for each co-participating
    ordered pair its shared topics in topic order.  The per-pair results
    equal those of `build_dyad_context`, `gamma` and `pr_h` exactly.
    """
    scored = set(blogs)
    post_ids: dict[tuple[str, int], set[str]] = {}
    shared: dict[tuple[str, str], list[int]] = {}
    for i, topic in enumerate(topics):
        members = [b for b in topic.participations if b in scored]
        if len(members) < 2:
            continue
        for b in members:
            post_ids[b, i] = set()
        for burst in topic.bursts:
            for occ in burst.occurrences:
                if (occ.blog_id, i) in post_ids:
                    post_ids[occ.blog_id, i].add(occ.post_id)
        for b in members:
            for b2 in members:
                if b != b2:
                    shared.setdefault((b, b2), []).append(i)

    scores = []
    for b, b2 in sorted(shared):
        a_topics, y_topics, c = [], [], {}
        participating: set[str] = set()
        for i in shared[b, b2]:
            topic = topics[i]
            a_topics.append(topic.topic_id)
            if topic.participations[b] < topic.participations[b2]:
                y_topics.append(topic.topic_id)
            c[topic.topic_id] = chance_prob(corpus, b, b2, topic)
            participating |= post_ids[b2, i]
        ctx = DyadContext(b=b, b2=b2, a_topics=tuple(a_topics),
                          y_topics=tuple(y_topics), c=c)
        g = gamma(ctx, variant=config.variant)
        total = len(corpus.posts_by_blog(b2))
        h = len(participating) / total if total else 0.0
        scores.append(DyadScore(b=b, b2=b2, a_size=len(a_topics),
                                y_size=len(y_topics), gamma=g, pr_h=h,
                                omega=omega(g, h)))
    return scores


def all_dyads(blogs: Sequence[str],
              shared: Iterable[DyadScore]) -> Iterator[DyadScore]:
    """Every ordered pair of `blogs` in (b, b2) order: the scores in `shared`,
    and the fixed no-shared-topic row (gamma 0.5, Pr(H) 0, omega 0) for
    every other pair."""
    by_pair = {(s.b, s.b2): s for s in shared}
    for b in blogs:
        for b2 in blogs:
            if b != b2:
                yield by_pair.get((b, b2)) or DyadScore(
                    b=b, b2=b2, a_size=0, y_size=0, gamma=0.5, pr_h=0.0,
                    omega=0.0)


def score_all_dyads(corpus: Corpus, topics: Sequence[Topic],
                    config: ScoringConfig | None = None) -> list[DyadScore]:
    """Score every ordered pair of eligible blogs, in (b, b2) order."""
    config = config or ScoringConfig()
    blogs = eligible_blogs(corpus, config.min_posts)
    return list(all_dyads(blogs, score_shared_dyads(corpus, topics, blogs,
                                                    config)))


def global_scores(dyad_scores: Sequence[DyadScore],
                  blogs: Sequence[str]) -> dict[str, tuple[float, float]]:
    """Per-blog precursor P (mean outgoing omega) and laggard L (incoming).

    Dyads left out of `dyad_scores` count as omega = 0, so the scores of the
    co-participating dyads alone give the same means.
    """
    n = len(blogs)
    out: dict[str, float] = {b: 0.0 for b in blogs}
    inc: dict[str, float] = {b: 0.0 for b in blogs}
    for score in dyad_scores:
        if score.b in out and score.b2 in inc:
            out[score.b] += score.omega
            inc[score.b2] += score.omega
    if n < 2:
        return {b: (0.0, 0.0) for b in blogs}
    return {b: (out[b] / (n - 1), inc[b] / (n - 1)) for b in blogs}
