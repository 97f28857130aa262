"""Comparative analyses of precursor/laggard scores vs link metrics.

Covers the four-class partition around the score means, Wilcoxon rank-sum
comparisons with significance stars, score-binned five-number summaries,
pointy-top hexagonal binning of the (P, L) plane, and the corner lists on
log-normalized (precursor, in-degree) axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

CLASSES = ("pl", "Pl", "pL", "PL")


class DegenerateSamples(Exception):
    """Both samples are a single repeated value; the test is uninformative."""


@dataclass(frozen=True)
class ClassPartition:
    thresholds: tuple[float, float]  # (mean P, mean L)
    assignment: dict[str, str]

    def members(self, cls: str) -> list[str]:
        return sorted(b for b, c in self.assignment.items() if c == cls)


def classify(blog_scores: Mapping[str, tuple[float, float]]) -> ClassPartition:
    """Assign each blog to pl/Pl/pL/PL around the mean scores.

    Scores exactly equal to the mean count as low, so a set of identical
    blogs all land in class pl.
    """
    if not blog_scores:
        raise ValueError("need at least one scored blog")
    ps = [p for p, _ in blog_scores.values()]
    ls = [l for _, l in blog_scores.values()]
    # fsum keeps the mean exact when every score is identical, so the
    # boundary rule (equal to the mean => low) is not upset by float drift
    mean_p = math.fsum(ps) / len(ps)
    mean_l = math.fsum(ls) / len(ls)
    assignment = {}
    for blog, (p, l) in blog_scores.items():
        cls = ("P" if p > mean_p else "p") + ("L" if l > mean_l else "l")
        assignment[blog] = cls
    return ClassPartition(thresholds=(mean_p, mean_l), assignment=assignment)


def _rank_with_ties(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mid-ranks and the tie-group sizes."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    tie_sizes = []
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, np.array(tie_sizes)


def _exact_u_cdf(n1: int, n2: int) -> np.ndarray:
    """P(U <= u) for the untied null distribution, by counting.

    Standard recursion on the largest pooled rank: it is either an
    x-element (beating all m remaining y-elements, adding m to U) or a
    y-element (adding nothing): c(j, m, u) = c(j-1, m, u-m) + c(j, m-1, u).
    """
    max_u = n1 * n2
    c = np.zeros((n1 + 1, max_u + 1))
    c[:, 0] = 1.0  # m = 0: only x-elements remain, U contribution is 0
    for m in range(1, n2 + 1):
        nxt = np.zeros_like(c)
        nxt[0, 0] = 1.0
        for j in range(1, n1 + 1):
            nxt[j, m:] = nxt[j - 1, :max_u + 1 - m]
            nxt[j, :] += c[j, :]
        c = nxt
    counts = c[n1]
    return np.cumsum(counts) / counts.sum()


def wilcoxon_rank_sum(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Two-sided Wilcoxon/Mann-Whitney rank-sum test.

    Returns (U statistic of x, p-value).  The exact null distribution is
    enumerated when there are no ties and the samples are small (min size
    <= 10 or pooled size <= 30); otherwise the normal approximation with
    mid-rank tie correction and continuity correction is used.  When every
    pooled value is identical the test degenerates to p = 1.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size == 0 or ya.size == 0:
        raise ValueError("both samples must be non-empty")
    n1, n2 = xa.size, ya.size
    pooled = np.concatenate([xa, ya])
    ranks, tie_sizes = _rank_with_ties(pooled)
    u1 = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)
    u2 = n1 * n2 - u1

    if np.all(pooled == pooled[0]):
        return u1, 1.0

    no_ties = bool(np.all(tie_sizes == 1))
    if no_ties and (min(n1, n2) <= 10 or n1 + n2 <= 30):
        cdf = _exact_u_cdf(n1, n2)
        p = 2.0 * min(cdf[int(round(u1))], cdf[int(round(u2))])
        return u1, min(1.0, p)

    mu = n1 * n2 / 2.0
    n = n1 + n2
    tie_term = (tie_sizes ** 3 - tie_sizes).sum() / (n * (n - 1))
    sigma2 = n1 * n2 / 12.0 * (n + 1 - tie_term)
    if sigma2 <= 0:
        return u1, 1.0
    z = max(abs(u1 - mu) - 0.5, 0.0) / math.sqrt(sigma2)
    p = math.erfc(z / math.sqrt(2.0))
    return u1, min(1.0, p)


def stars(p_value: float) -> str:
    if p_value < 0.001:
        return "***"
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


@dataclass(frozen=True)
class BinSummary:
    lo: float
    hi: float
    count: int
    minimum: float | None
    q1: float | None
    median: float | None
    q3: float | None
    maximum: float | None
    mean: float | None


def binned_summary(scores: Mapping[str, float], metric: Mapping[str, float],
                   n_bins: int = 4, log_bins: bool = False) -> list[BinSummary]:
    """Five-number summaries of `metric` per equal-width bin of `scores`."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    keys = sorted(k for k in scores if k in metric)
    values = np.array([scores[k] for k in keys], dtype=np.float64)
    if log_bins and keys:
        values = _log_normalize(values)
    lo = float(values.min()) if keys else 0.0
    hi = float(values.max()) if keys else 1.0
    width = (hi - lo) / n_bins if hi > lo else 1.0
    buckets: list[list[float]] = [[] for _ in range(n_bins)]
    for k, v in zip(keys, values):
        idx = min(int((v - lo) / width), n_bins - 1)
        buckets[idx].append(metric[k])
    out = []
    for i, bucket in enumerate(buckets):
        b_lo = lo + i * width
        b_hi = lo + (i + 1) * width
        if not bucket:
            out.append(BinSummary(b_lo, b_hi, 0, None, None, None, None, None, None))
            continue
        arr = np.array(bucket)
        q1, med, q3 = np.percentile(arr, [25, 50, 75])  # linear interpolation
        out.append(BinSummary(b_lo, b_hi, len(bucket), float(arr.min()),
                              float(q1), float(med), float(q3),
                              float(arr.max()), float(arr.mean())))
    return out


@dataclass(frozen=True)
class HexCell:
    q: int
    r: int
    center_x: float
    center_y: float
    count: int
    mean_metric: float


def hexbin(points: Sequence[tuple[float, float, float]],
           grid_size: int = 10) -> list[HexCell]:
    """Aggregate (x, y, metric) points on a pointy-top hexagonal lattice.

    grid_size is the approximate number of hexagons spanning the x range.
    Each point lands in the cell with the nearest center; per cell the count
    and the mean metric are returned.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    if not points:
        return []
    size = hex_size_for(points, grid_size)

    cells: dict[tuple[int, int], list[float]] = {}
    for x, y, metric in points:
        q, r = _pixel_to_axial(x, y, size)
        cells.setdefault((q, r), []).append(metric)
    out = []
    for (q, r), metrics in sorted(cells.items()):
        cx, cy = _axial_to_pixel(q, r, size)
        out.append(HexCell(q=q, r=r, center_x=cx, center_y=cy,
                           count=len(metrics),
                           mean_metric=float(np.mean(metrics))))
    return out


def hex_size_for(points: Sequence[tuple[float, float, float]],
                 grid_size: int) -> float:
    xs = [p[0] for p in points]
    span = max(xs) - min(xs) if xs else 0.0
    return span / (grid_size * math.sqrt(3.0)) if span > 0 else 1.0


def _axial_to_pixel(q: int, r: int, size: float) -> tuple[float, float]:
    x = size * math.sqrt(3.0) * (q + r / 2.0)
    y = size * 1.5 * r
    return x, y


def _pixel_to_axial(x: float, y: float, size: float) -> tuple[int, int]:
    qf = (math.sqrt(3.0) / 3.0 * x - y / 3.0) / size
    rf = (2.0 / 3.0 * y) / size
    return _cube_round(qf, rf)


def _cube_round(qf: float, rf: float) -> tuple[int, int]:
    sf = -qf - rf
    q, r, s = round(qf), round(rf), round(sf)
    dq, dr, ds = abs(q - qf), abs(r - rf), abs(s - sf)
    if dq > dr and dq > ds:
        q = -r - s
    elif dr > ds:
        r = -q - s
    return int(q), int(r)


def _log_normalize(values: np.ndarray) -> np.ndarray:
    """Log10 with zeros clamped to half the smallest positive value,
    then min-max normalized to [0, 1]."""
    v = values.astype(np.float64).copy()
    positive = v[v > 0]
    if positive.size == 0:
        return np.zeros_like(v)
    floor = positive.min() / 2.0
    v = np.log10(np.maximum(v, floor))
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def corner_lists(precursor: Mapping[str, float], in_deg: Mapping[str, int],
                 k: int = 10) -> dict[str, list[tuple[str, float]]]:
    """k blogs nearest each corner of the log-normalized (P, in-degree) plane.

    Corners: ll = (0,0), lh = (0,1), hl = (1,0), hh = (1,1); the value
    attached to each blog is its Euclidean distance to the corner.
    """
    keys = sorted(b for b in precursor if b in in_deg)
    if not keys:
        return {c: [] for c in ("ll", "lh", "hl", "hh")}
    xs = _log_normalize(np.array([precursor[b] for b in keys]))
    ys = _log_normalize(np.array([float(in_deg[b]) for b in keys]))
    corners = {"ll": (0.0, 0.0), "lh": (0.0, 1.0),
               "hl": (1.0, 0.0), "hh": (1.0, 1.0)}
    out = {}
    for name, (cx, cy) in corners.items():
        dist = np.hypot(xs - cx, ys - cy)
        ranked = sorted(zip(keys, dist), key=lambda t: (t[1], t[0]))
        out[name] = [(b, float(d)) for b, d in ranked[:k]]
    return out


def significance_table(partition: ClassPartition,
                       metric: Mapping[str, float]) -> list[dict]:
    """Pairwise Wilcoxon comparison of a metric across the four classes."""
    rows = []
    samples = {cls: [metric[b] for b in partition.members(cls) if b in metric]
               for cls in CLASSES}
    means = {cls: (float(np.mean(vals)) if vals else None)
             for cls, vals in samples.items()}
    for i, c1 in enumerate(CLASSES):
        for c2 in CLASSES[i + 1:]:
            s1, s2 = samples[c1], samples[c2]
            if s1 and s2:
                stat, p = wilcoxon_rank_sum(s1, s2)
                row_stars = stars(p)
            else:
                stat, p, row_stars = None, None, ""
            rows.append({"class_a": c1, "class_b": c2,
                         "n_a": len(s1), "n_b": len(s2),
                         "mean_a": means[c1], "mean_b": means[c2],
                         "statistic": stat, "p_value": p, "stars": row_stars})
    return rows
