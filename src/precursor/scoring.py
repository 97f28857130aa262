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

with base = prod_{r in A\\Y} (1-C_r), so no split needs to be sampled.
Grouping the splits by |Z| = k instead makes L(p) a polynomial in p,
L(p) = base * sum_k c_k p^k (1-p)^(n-k) with n = |A|.  The dyadic score
gamma is the posterior mean of p under a flat prior, and each term
integrates to a Beta function, so gamma is computed exactly:

    gamma = sum_k c_k B(k+2, n-k+1) / sum_k c_k B(k+1, n-k+1).

The adjusted score omega multiplies gamma by the co-participation
probability Pr(H); per-blog P and L are means of outgoing and incoming omega
over all eligible dyads.  `global_scores` takes each blog's two sums with
one `np.bincount` per direction, which adds the terms in (b, b2) order as a
loop over the dyads does, so P and L equal the loop's bit for bit.

Only co-participating dyads (|A| > 0) are computed, and only they are
listed in `dyadic_scores.csv`, so the work grows with the number of such
dyads rather than with the square of the number of blogs.  Every absent
eligible pair has by definition the fixed row |A| = |Y| = 0, gamma = 0.5
(the flat prior's mean), Pr(H) = 0 and omega = 0.

`score_shared_dyads` scores them all at once, and `gamma` scores the
`DyadContext` of one dyad, as `build_dyad_context` collects it; both run
the `_gammas` kernel, and a dyad's gamma is the same float either way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .config import PipelineConfig
from .corpus import Corpus, post_count
from .ngrams import run_heads
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
        for r in self.a_topics:
            if not 0.0 <= self.c[r] <= 1.0:  # also NaN
                raise ValueError(f"chance probability {self.c[r]} of topic "
                                 f"{r!r} lies outside [0, 1]")


class DyadScores(NamedTuple):
    """Scored dyads as columns in (b, b2) order; b and b2 index `blogs`."""

    blogs: list[str]
    b: np.ndarray
    b2: np.ndarray
    a_size: np.ndarray
    y_size: np.ndarray
    gamma: np.ndarray
    pr_h: np.ndarray
    omega: np.ndarray


def chance_prob(corpus: Corpus, b: str, b2: str, topic: Topic) -> float:
    """Probability that b precedes b2 on this topic purely by posting volume."""
    np_b = post_count(corpus, b, topic.start, topic.end)
    np_b2 = post_count(corpus, b2, topic.start, topic.end)
    if np_b == 0 and np_b2 == 0:
        return 0.5
    return np_b / (np_b + np_b2)


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
    over one dyad.  Each class fills one (dyads x width) buffer, so the
    buffers hold fewer than 2 * sum(|Y|+1) floats in all, where one
    rectangle for all D dyads would hold D * (max|Y|+1).  The base factor
    prod_{A\\Y} (1-C_r) is left out, since gamma does not depend on it (and
    its product underflows at large |A\\Y|); the DP runs in log space
    because past about a thousand topics of Y the c_k span more than the
    float range, and the small ones
    can still carry gamma's largest weights.
    """
    y = np.asarray(y_sizes, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_r = np.log(c_y)
        log_z = np.log(1.0 - c_y)
    first = np.cumsum(y) - y
    width = np.array([1 << n.bit_length() for n in y.tolist()], dtype=np.int64)
    log_c: list[np.ndarray] = [None] * y.size  # each dyad's row, by dyad
    order = np.lexsort((-y, width))  # by class, then by |Y| descending
    for group in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
        ys, steps = y[group], int(y[group[0]])
        # -inf (c_k = 0) past each row's end
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
        for d, n_y, row in zip(group.tolist(), ys.tolist(), rows):
            log_c[d] = row[:n_y + 1]

    log_factorial = np.array([math.lgamma(k + 1)
                              for k in range(max(a_sizes, default=0) + 1)])
    terms: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    out = []
    for n_a, n_y, zero, log_ck in zip(a_sizes, y.tolist(), base_zero, log_c):
        # base = prod_{A\Y} (1 - C_r) is zero exactly when some C_r there is 1;
        # the c_k are not all zero, since each C_r in [0, 1] leaves one of
        # C_r and 1 - C_r nonzero
        if zero:
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


def _expand(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions start, start+1, ..., start+length-1 of every range."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


def score_shared_dyads(corpus: Corpus, topics: Sequence[Topic],
                       blogs: Sequence[str]) -> DyadScores:
    """Scores of the ordered pairs of `blogs` that share a topic, in (b, b2) order.

    A member row is one participant in `blogs` of a topic with two or more
    of them, with its post count in the topic interval and the rank of its
    first participation; member rows are in topic order.  |A|, |Y| and
    gamma equal those of `build_dyad_context` and `gamma` exactly.  Pr(H) is
    the fraction of b2's posts that occur in a member burst of a topic that
    b and b2 share, each post counted once.
    """
    names = sorted(set(blogs))
    code = {b: j for j, b in enumerate(names)}
    m_blog, m_rank, m_posts, sizes = [], [], [], []
    # post-topic incidence: the member row and post of each occurrence by a
    # member
    inc_row, inc_post, post_code = [], [], {}
    for topic in topics:
        first = topic.participations
        members = [b for b in first if b in code]
        if len(members) < 2:
            continue
        row = {b: len(m_blog) + i for i, b in enumerate(members)}
        rank = {t: r for r, t in enumerate(sorted({first[b] for b in members}))}
        m_blog += [code[b] for b in members]
        m_rank += [rank[first[b]] for b in members]
        m_posts += [post_count(corpus, b, topic.start, topic.end)
                    for b in members]
        sizes.append(len(members))
        for burst in topic.bursts:
            for _, blog_id, post_id in burst.occurrences:
                if blog_id in row:
                    inc_row.append(row[blog_id])
                    inc_post.append(post_code.setdefault(post_id,
                                                         len(post_code)))
    if not sizes:
        ints, floats = np.zeros(0, dtype=np.int64), np.zeros(0)
        return DyadScores(names, ints, ints, ints, ints, floats, floats, floats)

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
    head = run_heads(b * len(names) + b2)
    dyad = np.cumsum(head) - 1
    n_dyads = int(dyad[-1]) + 1

    rank, posts = np.array(m_rank), np.array(m_posts)
    in_y = rank[left] < rank[right]  # strict precedence; ties carry no direction
    both = posts[left] + posts[right]
    c = np.where(both > 0, posts[left] / np.maximum(both, 1), 0.5)
    a_size = np.bincount(dyad, minlength=n_dyads)
    y_size = np.bincount(dyad[in_y], minlength=n_dyads)
    zero = np.bincount(dyad[~in_y & (c >= 1.0)], minlength=n_dyads) > 0
    gammas = np.array(_gammas(a_size.tolist(), y_size.tolist(), c[in_y],
                              zero.tolist()))

    # Pr(H): each dyad's distinct posts of b2 over the member rows of b2
    inc_row = np.array(inc_row, dtype=np.int64)
    inc_post = np.array(inc_post, dtype=np.int64)[np.argsort(inc_row)]
    per_member = np.bincount(inc_row, minlength=per_row.size)
    n = per_member[right]
    n_posts = max(len(post_code), 1)
    key = (np.repeat(dyad, n) * n_posts
           + inc_post[_expand((np.cumsum(per_member) - per_member)[right], n)])
    key.sort()
    participating = np.bincount(key[run_heads(key)] // n_posts,
                                minlength=n_dyads)
    b, b2 = b[head], b2[head]
    total = np.array([len(corpus.posts_by_blog(name)) for name in names])[b2]
    pr_h = np.where(total > 0, participating / np.maximum(total, 1), 0.0)
    return DyadScores(names, b, b2, a_size, y_size, gammas, pr_h, gammas * pr_h)


def global_scores(scores: DyadScores) -> dict[str, tuple[float, float]]:
    """Per-blog precursor P (mean outgoing omega) and laggard L (incoming)
    of every blog in `scores.blogs`.

    Dyads left out of `scores` count as omega = 0, so the scores of the
    co-participating dyads alone give the same means.
    """
    n = len(scores.blogs)  # a lone blog has no dyad: its sums are 0.0
    p, l = (np.bincount(codes, weights=scores.omega, minlength=n)
            / max(n - 1, 1) for codes in (scores.b, scores.b2))
    return dict(zip(scores.blogs, zip(p.tolist(), l.tolist())))
