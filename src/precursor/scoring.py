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
The dyadic score gamma is the posterior mean of p under a flat prior: the
integral of p L(p) over [0, 1] over that of L(p).  L is a polynomial of
degree |A|, so an m-point Gauss-Legendre rule (nodes x_j, weights w_j) with
2m - 1 >= |A| + 1 gives both exactly: gamma = sum w_j x_j L(x_j) / sum
w_j L(x_j).

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

import functools
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
        if missing := a - set(self.c):
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
    np_b, np_b2 = (post_count(corpus, blog, topic.start, topic.end)
                   for blog in (b, b2))
    return np_b / (np_b + np_b2) if np_b + np_b2 else 0.5


def _expand(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions start, start+1, ..., start+length-1 of every range."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


@functools.cache
def _nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on (0, 1): ascending nodes x = u/2
    and weights w.  Newton's method finds the roots t = 1 - u >= 0 of P_m in
    u, by Bonnet's recurrence for d_k = P_k - P_(k-1), which never rounds
    1 - u; the other nodes mirror them, so 1 - x_j is exactly x_(m-1-j)."""
    theta = np.pi * (np.arange(1, (m + 1) // 2 + 1) - 0.25) / (m + 0.5)
    u = 2.0 * np.sin(theta / 2) ** 2
    step = u
    while (np.abs(step) > 1e-14 * u).any():
        p, d = 1.0 - u, -u  # P_1 and d_1
        for k in range(1, m):
            d = (k * d - (2 * k + 1) * u * p) / (k + 1)
            p = p + d
        slope = m * (u * p - d)  # (1 - t^2) P_m'(t), and 1 - t^2 = u (2 - u)
        step = p * u * (2.0 - u) / slope
        u = u + step
    w = u * (2.0 - u) / slope ** 2  # 2 / ((1 - t^2) P_m'(t)^2), halved
    return (np.concatenate([u / 2, 1.0 - u[:m // 2][::-1] / 2]),
            np.concatenate([w, w[:m // 2][::-1]]))


def _gammas(a_sizes: Sequence[int], y_sizes: Sequence[int], c_y: np.ndarray,
            base_zero: Sequence[bool]) -> np.ndarray:
    """Exact gamma of several dyads at once.

    Dyad d has |A| = a_sizes[d] >= 0 and |Y| = y_sizes[d]; c_y holds the
    chance probabilities C_r of every dyad's Y, dyad after dyad, each in
    topic order, and base_zero[d] says whether some C_r on A\\Y is 1.

    A dyad takes `_nodes(m)` for the least power of two m with 2m - 1 >=
    |A| + 1: at |A| = 0 the one node 0.5, the flat prior's mean.  L, less
    the base factor (gamma does not depend on it), is taken in log space, as
    at thousands of topics it overflows floats.  The log factors over Y come
    in (rows x m) blocks of about 2^16 elements; no sum runs through BLAS or
    across dyads, so a dyad's gamma does not depend on the batch.
    """
    a = np.asarray(a_sizes, dtype=np.int64)
    y = np.asarray(y_sizes, dtype=np.int64)
    first = np.cumsum(y) - y
    points = np.array([1 << ((n + 1) // 2).bit_length() for n in a.tolist()])
    out = np.empty(a.size)
    for m in sorted(set(points.tolist())):
        x, w = _nodes(m)
        x_bar = x[::-1]  # 1 - x
        # log(1 - x), from whichever of x and 1 - x is exact
        log_x_bar = np.where(x < 0.5, np.log1p(-x), np.log(x_bar))
        members = np.flatnonzero(points == m)
        rows, step = np.cumsum(y[members] + 1), max((1 << 16) // m, 1)
        for group in np.split(members, np.searchsorted(
                rows, np.arange(step, rows[-1], step))):
            ys = y[group]
            log_l = np.outer(a[group] - ys, log_x_bar)
            for j in range(0, int(ys.max(initial=0)), step):
                has = np.flatnonzero(ys > j)
                n = np.minimum(ys[has] - j, step)
                c = c_y[_expand(first[group[has]] + j, n)][:, None]
                log_f = x * (1.0 - c)
                log_f += x_bar * c
                log_l[has] += np.add.reduceat(np.log(log_f, out=log_f),
                                              np.cumsum(n) - n, axis=0)
            weights = w * np.exp(log_l - log_l.max(axis=1, keepdims=True))
            out[group] = (weights * x).sum(axis=1) / weights.sum(axis=1)
    # base = prod_{A\Y} (1 - C_r) is zero exactly when some C_r there is 1;
    # each factor over Y is positive at every node
    for d in np.flatnonzero(base_zero).tolist():
        warnings.warn("likelihood vanishes for every p; returning 0.5",
                      DegenerateLikelihood)
        out[d] = 0.5
    return out


def gamma(ctx: DyadContext) -> float:
    """Exact posterior mean of p under a flat prior: `_gammas` on one dyad."""
    zero = any(ctx.c[r] >= 1.0 for r in set(ctx.a_topics) - set(ctx.y_topics))
    c_y = np.array([ctx.c[r] for r in ctx.y_topics], dtype=np.float64)
    return float(_gammas([len(ctx.a_topics)], [len(ctx.y_topics)], c_y,
                         [zero])[0])


def eligible_blogs(corpus: Corpus,
                   min_posts: int = PipelineConfig.min_posts) -> list[str]:
    """Blogs with at least min_posts posts in the observation window."""
    return sorted(b for b in corpus.blogs
                  if len(corpus.posts_by_blog(b)) >= min_posts)


def build_dyad_context(corpus: Corpus, topics: Sequence[Topic],
                       b: str, b2: str) -> DyadContext:
    shared = [t for t in topics
              if b in t.participations and b2 in t.participations]
    return DyadContext(
        b=b, b2=b2, a_topics=tuple(t.topic_id for t in shared),
        # strict precedence; ties carry no direction
        y_topics=tuple(t.topic_id for t in shared
                       if t.participations[b] < t.participations[b2]),
        c={t.topic_id: chance_prob(corpus, b, b2, t) for t in shared})


def score_shared_dyads(corpus: Corpus, topics: Sequence[Topic],
                       blogs: Sequence[str]) -> DyadScores:
    """Scores of the ordered pairs of `blogs` that share a topic, in (b, b2) order.

    A member row is one participant in `blogs` of a topic with two or more
    of them, with its post count in the topic interval and the time of its
    first participation; member rows are in topic order.  |A|, |Y| and
    gamma equal those of `build_dyad_context` and `gamma` exactly.  Pr(H) is
    the fraction of b2's posts that occur in a member burst of a topic that
    b and b2 share, each post counted once.
    """
    names = sorted(set(blogs))
    code = {b: j for j, b in enumerate(names)}
    m_blog, m_time, m_posts, sizes = [], [], [], []
    # post-topic incidence: the member row and post of each member's occurrence
    inc_row, inc_post, post_code = [], [], {}
    for topic in topics:
        first = topic.participations
        members = [b for b in first if b in code]
        if len(members) < 2:
            continue
        row = {b: len(m_blog) + i for i, b in enumerate(members)}
        m_blog += [code[b] for b in members]
        # offsets from the topic's start are >= 0, so np.array keeps them exact
        m_time += [first[b] - topic.start for b in members]
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

    time, posts = np.array(m_time), np.array(m_posts)
    in_y = time[left] < time[right]  # strict precedence; ties carry no direction
    both = posts[left] + posts[right]
    c = np.where(both > 0, posts[left] / np.maximum(both, 1), 0.5)
    a_size = np.bincount(dyad, minlength=n_dyads)
    y_size = np.bincount(dyad[in_y], minlength=n_dyads)
    zero = np.bincount(dyad[~in_y & (c >= 1.0)], minlength=n_dyads) > 0
    gammas = _gammas(a_size, y_size, c[in_y], zero)

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
