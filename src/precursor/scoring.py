"""Dyadic precursor scores and per-blog global precursor/laggard scores.

For an ordered blog pair (b, b2), A is the set of topics where both
participate and Y the subset where b's first participation strictly precedes
b2's.  Each topic r carries a chance probability C_r derived from relative
posting volumes during the topic interval.  The likelihood that the
precedence-relationship strength equals p sums, over every disjoint split of
Y into Z (explained by the relationship) and R (explained by chance),

    p^|Z| * (1-p)^(|A|-|Z|) * prod_{r in R} C_r * prod_{r in A\\R} (1-C_r)

Each term has one factor per topic: (1-p) (1-C_r) on A\\Y, and on Y either
p (1-C_r) (r in Z) or (1-p) C_r (r in R).  The sum over all splits
therefore factors as

    L(p) = base * (1-p)^|A\\Y| * prod_{r in Y} (p (1-C_r) + (1-p) C_r)

with base = prod_{r in A\\Y} (1-C_r); `likelihood` evaluates this product,
and `likelihood_sampled` (the paper's split-sampling estimator) estimates
it.  Grouping the splits by |Z| = k instead makes L(p) a polynomial in p,
L(p) = base * sum_k c_k p^k (1-p)^(n-k) with n = |A|.  The dyadic score
gamma is the posterior mean of p under a flat prior, and each term
integrates to a Beta function, so gamma is computed exactly (and uses
neither likelihood function):

    gamma = sum_k c_k B(k+2, n-k+1) / sum_k c_k B(k+1, n-k+1).

The adjusted score omega multiplies gamma by the co-participation
probability Pr(H); per-blog P and L are means of outgoing and incoming omega
over all eligible dyads.

Only co-participating dyads (|A| > 0) are computed, and only they are
listed in `dyadic_scores.csv`, so the work grows with the number of such
dyads rather than with the square of the number of blogs.  Every absent
eligible pair has by definition the fixed row |A| = |Y| = 0, gamma = 0.5
(the flat prior's mean), Pr(H) = 0 and omega = 0.

`score_shared_dyads` scores them all at once:

- One pass over the topics counts each participant's posts in each topic
  interval once and lists the occurrences of the topics' bursts; array
  operations pair the participants of each topic into (b, b2, topic)
  entries in dyad order, and give each entry its C_r and precedence and
  each dyad its distinct participating posts of b2 (Pr(H)).
- `_gammas` runs the log-space split DP for every dyad together.  Dyads
  are grouped into width classes, the dyads whose |Y|+1 rounds up to the
  same power of two, and each class's DP fills one (dyads x width) buffer,
  adding one topic of Y per step to every dyad that has one left.  Each
  buffer thus holds fewer than 2 * sum(|Y|+1) floats over all classes,
  where one rectangle for all D dyads would hold D * (max|Y|+1).
- Each step does the same + and logaddexp per element, in the same order,
  as a DP over one dyad, and each dyad keeps its own lgamma weights,
  weighted mean and `DegenerateLikelihood` warning, so every gamma equals
  the one-dyad computation bit for bit.

`build_dyad_context`, `pr_h`, `score_dyad` and `gamma` (the kernel on one
dyad) compute one dyad at a time and serve as the reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import count, repeat
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .config import PipelineConfig
from .corpus import Corpus, post_count
from .ngrams import _heads
from .topics import Topic

# Unused here: perfbench/tracing.py reads it at import and labels the gamma
# calls with |Y| above it `gamma_sampled`.
EXACT_LIMIT = 15


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


def chance_prob(corpus: Corpus, b: str, b2: str, topic: Topic) -> float:
    """Probability that b precedes b2 on this topic purely by posting volume."""
    np_b = post_count(corpus, b, topic.start, topic.end)
    np_b2 = post_count(corpus, b2, topic.start, topic.end)
    if np_b == 0 and np_b2 == 0:
        return 0.5
    return np_b / (np_b + np_b2)


def likelihood(p: float, ctx: DyadContext) -> float:
    """Exact likelihood of gamma = p, from its product form over Y."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    c_y, base = _factors(ctx)
    rest = len(ctx.a_topics) - len(ctx.y_topics)
    return float(base * (1.0 - p) ** rest
                 * np.prod(p * (1.0 - c_y) + (1.0 - p) * c_y))


def likelihood_sampled(p: float, ctx: DyadContext, n_subsets: int,
                       seed: int) -> float:
    """Sampled likelihood: mean split term over uniform splits, times 2^|Y|."""
    rng = np.random.default_rng(seed)
    c_y, base = _factors(ctx)
    n_y = len(ctx.y_topics)
    bits = rng.random((n_subsets, n_y)) < 0.5
    terms = np.where(bits, p * (1.0 - c_y), (1.0 - p) * c_y).prod(axis=1)
    scale = base * (1.0 - p) ** (len(ctx.a_topics) - n_y)
    return float(terms.mean() * 2.0 ** n_y * scale)


def _factors(ctx: DyadContext):
    """C_r over Y, in Y's order, and base = prod over A\\Y of (1-C_r)."""
    c_y = np.array([ctx.c[r] for r in ctx.y_topics], dtype=np.float64)
    base = 1.0
    in_y = set(ctx.y_topics)
    for r in ctx.a_topics:
        if r not in in_y:
            base *= 1.0 - ctx.c[r]
    return c_y, base


def _gammas(a_sizes: Sequence[int], y_sizes: Sequence[int], c_y: np.ndarray,
            base_zero: Sequence[bool]) -> list[float]:
    """Exact gamma of several dyads at once.

    Dyad d has |A| = a_sizes[d] >= 1 and |Y| = y_sizes[d]; c_y holds the
    chance probabilities C_r of every dyad's Y, dyad after dyad, each in
    topic order, and base_zero[d] says whether some C_r on A\\Y is 1.

    The split coefficients come from one log-space DP per width class (the
    dyads whose |Y|+1 rounds up to the same power of two), run on all of
    the class's dyads at once: each step adds one topic of Y to every dyad
    that has one left, with the same + and logaddexp per element as a DP
    over one dyad.  The base factor prod_{A\\Y} (1-C_r) is left out, since
    gamma does not depend on it (and its product underflows at large
    |A\\Y|); the DP runs in log space because past about a thousand
    topics of Y the c_k span more than the float range, and the small ones
    can still carry gamma's largest weights.
    """
    y = np.asarray(y_sizes, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_r = np.log(c_y)
        log_z = np.log(1.0 - c_y)
    first = np.cumsum(y) - y
    width = np.array([1 << n.bit_length() for n in y.tolist()], dtype=np.int64)
    log_c: list[np.ndarray] = [None] * y.size  # each dyad's row, by dyad
    vanishes = np.zeros(y.size, dtype=bool)  # no finite log c_k
    order = np.lexsort((-y, width))  # by class, then by |Y| descending
    for group in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
        ys, steps = y[group], int(y[group[0]])
        # -inf (c_k = 0) past each row's end, so whole rows can be tested
        rows = np.full((group.size, int(width[group[0]])), -np.inf)
        rows[:, 0] = 0.0
        if steps:
            # step j's factors of each row, and the rows with a topic of Y
            # left at step j: a prefix
            at = np.minimum(first[group] + np.arange(steps)[:, None],
                            c_y.size - 1)
            lr, lz = log_r[at, None], log_z[at, None]
            running = np.searchsorted(-ys, -np.arange(steps), side="left")
            for j, n in enumerate(running.tolist()):
                c, r, z = rows[:n], lr[j, :n], lz[j, :n]
                inner = (c[:, 1:j + 1] + r, c[:, :j] + z)
                np.add(c[:, j:j + 1], z, out=c[:, j + 1:j + 2])
                c[:, :1] += r
                np.logaddexp(*inner, out=c[:, 1:j + 1])
        vanishes[group] = ~np.isfinite(rows).any(axis=1)
        for d, n_y, row in zip(group.tolist(), ys.tolist(), rows):
            log_c[d] = row[:n_y + 1]

    log_factorial = np.array([math.lgamma(k + 1)
                              for k in range(max(a_sizes, default=0) + 1)])
    terms: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    out = []
    for n_a, n_y, zero, empty, log_ck in zip(a_sizes, y.tolist(), base_zero,
                                             vanishes.tolist(), log_c):
        # base = prod_{A\Y} (1 - C_r) is zero exactly when some C_r there is 1
        if zero or empty:
            warnings.warn("likelihood vanishes for every p; returning 0.5",
                          DegenerateLikelihood)
            out.append(0.5)
            continue
        if (n_a, n_y) not in terms:
            # log B(k+1, n-k+1) up to the constant -lgamma(n+2), which
            # cancels, and the posterior means (k+1)/(n+2)
            terms[n_a, n_y] = (log_factorial[:n_y + 1]
                               + log_factorial[n_a - n_y:n_a + 1][::-1],
                               np.arange(1, n_y + 2) / (n_a + 2))
        log_beta, means = terms[n_a, n_y]
        log_w = log_ck + log_beta
        weights = np.exp(log_w - log_w.max())
        out.append(float(weights @ means / weights.sum()))
    return out


def gamma(ctx: DyadContext) -> float:
    """Exact posterior mean of the precedence strength p under a flat prior.

    B(k+2, n-k+1) = B(k+1, n-k+1) * (k+1)/(n+2), so gamma is the mean of
    (k+1)/(n+2) under weights c_k * B(k+1, n-k+1), which are taken in log
    space (lgamma) so that |A| in the thousands stays finite.  This is the
    `_gammas` kernel on one dyad.
    """
    n_a = len(ctx.a_topics)
    if n_a == 0:
        return 0.5  # no shared topic: the flat prior's mean
    in_y = set(ctx.y_topics)
    c_y = np.array([ctx.c[r] for r in ctx.y_topics], dtype=np.float64)
    zero = any(ctx.c[r] >= 1.0 for r in ctx.a_topics if r not in in_y)
    return _gammas([n_a], [len(ctx.y_topics)], c_y, [zero])[0]


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


def eligible_blogs(corpus: Corpus,
                   min_posts: int = PipelineConfig.min_posts) -> list[str]:
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


def score_dyad(corpus: Corpus, topics: Sequence[Topic], b: str,
               b2: str) -> DyadScore:
    ctx = build_dyad_context(corpus, topics, b, b2)
    g = gamma(ctx)
    h = pr_h(corpus, topics, b, b2)
    return DyadScore(b=b, b2=b2, a_size=len(ctx.a_topics),
                     y_size=len(ctx.y_topics), gamma=g, pr_h=h,
                     omega=omega(g, h))


def _expand(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions start, start+1, ..., start+length-1 of every range."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


def score_shared_dyads(corpus: Corpus, topics: Sequence[Topic],
                       blogs: Sequence[str]) -> list[DyadScore]:
    """Scores of the ordered pairs of `blogs` that share a topic, in (b, b2) order.

    A member row is one participant in `blogs` of a topic with two or more
    of them, with its post count in the topic interval and the rank of its
    first participation; member rows are in topic order.  The results equal
    those of `build_dyad_context`, `gamma` and `pr_h` exactly.
    """
    names = sorted(set(blogs))
    code = {b: j for j, b in enumerate(names)}
    m_blog, m_rank, m_posts, sizes = [], [], [], []
    occs: list = []
    occ_counts = []
    for topic in topics:
        first = topic.participations
        members = [b for b in first if b in code]
        if len(members) < 2:
            continue
        rank = {t: r for r, t in enumerate(sorted({first[b] for b in members}))}
        m_blog += [code[b] for b in members]
        m_rank += [rank[first[b]] for b in members]
        m_posts += [post_count(corpus, b, topic.start, topic.end)
                    for b in members]
        sizes.append(len(members))
        before = len(occs)
        for burst in topic.bursts:
            occs += burst.occurrences
        occ_counts.append(len(occs) - before)
    if not sizes:
        return []

    # every ordered pair of distinct members of one topic is an entry
    sizes = np.array(sizes)
    group_start = np.cumsum(sizes) - sizes
    per_row = np.repeat(sizes, sizes)
    left = np.repeat(np.arange(per_row.size), per_row)
    right = _expand(np.repeat(group_start, sizes), per_row)
    left, right = left[left != right], right[left != right]
    blog = np.array(m_blog)
    # member rows are in topic order, so this sorts by (b, b2, topic)
    order = np.lexsort((left, blog[right], blog[left]))
    left, right = left[order], right[order]
    b, b2 = blog[left], blog[right]
    head = _heads(b * len(names) + b2)
    dyad = np.cumsum(head) - 1
    n_dyads = int(dyad[-1]) + 1

    rank, posts = np.array(m_rank), np.array(m_posts)
    in_y = rank[left] < rank[right]  # strict precedence; ties carry no direction
    both = posts[left] + posts[right]
    c = np.where(both > 0, posts[left] / np.maximum(both, 1), 0.5)
    a_size = np.bincount(dyad, minlength=n_dyads).tolist()
    y_size = np.bincount(dyad[in_y], minlength=n_dyads).tolist()
    zero = np.bincount(dyad[~in_y & (c >= 1.0)], minlength=n_dyads) > 0
    gammas = _gammas(a_size, y_size, c[in_y], zero.tolist())

    # post-topic incidence: the member row and post of each occurrence by a
    # member, found by (topic group, blog)
    occ_blog = np.fromiter(map(code.get, map(itemgetter(1), occs), repeat(-1)),
                           np.int64, len(occs))
    occ_key = (np.repeat(np.arange(sizes.size), occ_counts) * len(names)
               + occ_blog)
    member_key = np.repeat(np.arange(sizes.size), sizes) * len(names) + blog
    by_key = np.argsort(member_key)
    at = np.minimum(np.searchsorted(member_key[by_key], occ_key),
                    by_key.size - 1)
    hit = (occ_blog >= 0) & (member_key[by_key[at]] == occ_key)
    post_code: dict[str, int] = {}
    post = np.fromiter(map(post_code.setdefault, map(itemgetter(2), occs),
                           count()), np.int64, len(occs))
    inc_row, inc_post = by_key[at[hit]], post[hit]
    # Pr(H): each dyad's distinct posts of b2 over the member rows of b2
    inc_post = inc_post[np.argsort(inc_row)]
    per_member = np.bincount(inc_row, minlength=per_row.size)
    n = per_member[right]
    key = (np.repeat(dyad, n) * max(len(occs), 1)
           + inc_post[_expand((np.cumsum(per_member) - per_member)[right], n)])
    key.sort()
    participating = np.bincount(key[_heads(key)] // max(len(occs), 1),
                                minlength=n_dyads).tolist()

    scores = []
    heads = np.flatnonzero(head)
    for d, (j, j2) in enumerate(zip(b[heads].tolist(), b2[heads].tolist())):
        total = len(corpus.posts_by_blog(names[j2]))
        h = participating[d] / total if total else 0.0
        g = gammas[d]
        scores.append(DyadScore(b=names[j], b2=names[j2], a_size=a_size[d],
                                y_size=y_size[d], gamma=g, pr_h=h,
                                omega=omega(g, h)))
    return scores


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
