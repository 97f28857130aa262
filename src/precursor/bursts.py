"""Temporal burst detection by greedy burst-ratio maximization.

Occurrence times T of one n-gram are partitioned into bursts by a bit vector
theta of length |T|-1 over the inter-occurrence gaps: theta[i] = 1 means the
i-th occurrence (0-based) ends a burst, so the gap between occurrences i and
i+1 separates two bursts.  The last occurrence always terminates the final
burst and is excluded from the sums.

The burst ratio rho is the mean inter-burst gap divided by the mean
intra-burst gap.  Detection starts from a single all-inclusive burst and
greedily sets one bit per iteration: every candidate split is scored by the
rho of the trial configuration, a trial scores zero when its rho falls below
alpha or its minimum inter-burst gap falls below beta, and the best trial
(the first, when several tie) is accepted only if it strictly improves on
the current rho.  The procedure stops when no candidate qualifies.

With k bits set at gaps summing to s, and o open gaps summing to R, the
trial at open gap g has rho = ((s + g)/(k + 1)) / ((R - g)/(o - 1)), which
rises strictly with g while R - g > 0.  So the best trial is at the largest
open gap, the first of equal ones (when R - g = 0 the others are zeros,
which beta refuses), and its minimum gap is g: the greedy sets the gaps
largest first, and theta holds those of the leading run of accepted trials.
`_greedy_splits` finds that run for every n-gram of an index (`detect_all`)
or for one (`detect_bursts`) from one sort and per-n-gram prefix sums.
Occurrence times are integer seconds, so the prefix sums, which run over
the whole index, are exact in any order while below 2**53 s; and while an
n-gram spans less than 2**51 s, distinct gaps give ratios more than their
three roundings apart, so floats and choices are the stepwise greedy's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .config import PipelineConfig
from .corpus import DAY, HOUR
from .ngrams import Ngram, Occurrence


def _gaps(times) -> np.ndarray:
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need at least two occurrence times")
    g = np.diff(t)
    if np.any(g < 0):
        raise ValueError("occurrence times must be ascending")
    return g


def _theta(theta, n_gaps: int) -> np.ndarray:
    th = np.asarray(theta, dtype=np.int64)
    if th.shape != (n_gaps,):
        raise ValueError(f"theta must have length {n_gaps}")
    return th


def inter_burst_mean(times, theta) -> float:
    """Mean gap between consecutive bursts; 0 when there is a single burst."""
    g = _gaps(times)
    th = _theta(theta, g.size)
    k = int(th.sum())
    if k == 0:
        return 0.0
    return float((g * th).sum() / k)


def intra_burst_mean(times, theta) -> float:
    """Mean gap inside bursts; defined as 0 when no boundary is set."""
    g = _gaps(times)
    th = _theta(theta, g.size)
    if int(th.sum()) == 0:
        return 0.0
    m = int((1 - th).sum())
    if m == 0:
        return 0.0
    return float((g * (1 - th)).sum() / m)


def burst_ratio(times, theta) -> float:
    """rho = inter-burst mean / intra-burst mean, 0 when the latter is 0."""
    intra = intra_burst_mean(times, theta)
    if intra <= 0.0:
        return 0.0
    return inter_burst_mean(times, theta) / intra


def _check_thresholds(alpha: float, beta: float) -> None:
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")


def _greedy_splits(gaps: np.ndarray, n_gaps: np.ndarray, alpha: float,
                   beta: float) -> np.ndarray:
    """The greedy theta of every n-gram at once, over their concatenated gaps.

    gaps holds n_gaps[j] >= 1 gaps of n-gram j after those of n-grams
    0..j-1; the result is the boolean theta over the same positions, each
    n-gram's k largest gaps (the first of equal ones) for its greedy k.
    """
    theta = np.zeros(gaps.size, dtype=bool)
    if not n_gaps.size:
        return theta
    starts = np.cumsum(n_gaps) - n_gaps
    seg = np.repeat(np.arange(n_gaps.size), n_gaps)
    order = np.lexsort((-gaps, seg))
    g = gaps[order]
    # trial k of an n-gram comes after its k largest gaps are accepted
    k = np.arange(gaps.size) - starts[seg]
    prefix = np.concatenate(([0.0], np.cumsum(g)))
    s = prefix[:-1] - prefix[starts][seg]
    rest = np.add.reduceat(gaps, starts)[seg] - s
    open_gaps = n_gaps[seg] - k
    with np.errstate(divide="ignore", invalid="ignore"):
        cur_intra = rest / open_gaps
        cur_rho = np.where((k > 0) & (cur_intra > 0), (s / k) / cur_intra, 0.0)
        v_inter = (s + g) / (k + 1)
        v_intra = np.where(open_gaps > 1, (rest - g) / (open_gaps - 1), 0.0)
        rho = np.where(v_intra > 0, v_inter / v_intra, 0.0)
    accept = (rho >= alpha) & (g >= beta) & (rho > 0.0) & (rho > cur_rho)
    n_split = np.minimum.reduceat(np.where(accept, n_gaps[seg], k), starts)
    theta[order[k < n_split[seg]]] = True
    return theta


def detect_bursts(times, alpha: float = PipelineConfig.alpha,
                  beta: float = PipelineConfig.beta_days * DAY) -> np.ndarray:
    """Greedy partition of occurrence times into bursts.

    Returns the theta bit vector (length ``len(times) - 1``).  The all-zero
    vector (one single burst) is returned when no admissible split exists.
    """
    _check_thresholds(alpha, beta)
    g = _gaps(times)
    return _greedy_splits(g, np.array([g.size]), alpha, beta).astype(np.int64)


@dataclass(frozen=True)
class Burst:
    ngram: Ngram
    start: int
    end: int
    occurrences: tuple[Occurrence, ...]

    @property
    def duration(self) -> int:
        return self.end - self.start


def segment_bursts(ngram: Ngram, occurrences: list[Occurrence],
                   theta: np.ndarray) -> list[Burst]:
    """Cut an occurrence list into Burst objects along theta boundaries: a
    burst ends at each occurrence whose bit is set and at the last one."""
    bursts = []
    start = 0
    for boundary in np.flatnonzero(theta).tolist() + [len(occurrences) - 1]:
        segment = tuple(occurrences[start:boundary + 1])
        bursts.append(Burst(ngram, segment[0].timestamp, segment[-1].timestamp,
                            segment))
        start = boundary + 1
    return bursts


def burst_passes(burst: Burst, cfg: PipelineConfig) -> bool:
    """Per-burst predicates (the total-duration cap is applied per n-gram)."""
    if len({o.blog_id for o in burst.occurrences}) < cfg.min_blogs:
        return False
    if burst.duration < cfg.min_burst_days * DAY:
        return False
    times = [o.timestamp for o in burst.occurrences]
    if len(times) < 2:
        return False
    mean_gap = (times[-1] - times[0]) / (len(times) - 1)
    return (cfg.min_mean_gap_hours * HOUR <= mean_gap
            <= cfg.max_mean_gap_days * DAY)


def filter_bursts(bursts_by_ngram: dict[Ngram, list[Burst]],
                  cfg: PipelineConfig | None = None) -> list[Burst]:
    """Apply the burst acceptance criteria of `cfg` (the defaults when None).

    A burst is kept iff it has at least min_blogs participating blogs, its
    mean inter-post gap lies in [min_mean_gap_hours, max_mean_gap_days], it
    lasts at least min_burst_days, and the summed duration of *all* the
    n-gram's detected bursts stays within max_total_burst_days; when that
    cap fails every burst of the n-gram is discarded.
    """
    cfg = cfg or PipelineConfig()
    kept: list[Burst] = []
    for ngram in sorted(bursts_by_ngram, key=lambda n: n.lemmas):
        bursts = bursts_by_ngram[ngram]
        total = sum(b.duration for b in bursts)
        if total > cfg.max_total_burst_days * DAY:
            continue
        kept.extend(b for b in sorted(bursts, key=lambda b: b.start)
                    if burst_passes(b, cfg))
    return kept


def detect_all(index: dict[Ngram, list[Occurrence]],
               alpha: float = PipelineConfig.alpha,
               beta: float = PipelineConfig.beta_days * DAY
               ) -> dict[Ngram, list[Burst]]:
    """Run detection over a whole occurrence index, all n-grams in one sort."""
    _check_thresholds(alpha, beta)
    lists = list(index.values())
    sizes = np.fromiter(map(len, lists), np.int64, len(lists))
    if (sizes < 2).any():
        raise ValueError("need at least two occurrence times")
    times = np.fromiter(map(itemgetter(0), chain.from_iterable(lists)),
                        np.float64, int(sizes.sum()))
    inside = np.ones(max(times.size - 1, 0), dtype=bool)
    inside[np.cumsum(sizes)[:-1] - 1] = False  # from one n-gram to the next
    gaps = np.diff(times)[inside]
    if (gaps < 0).any():
        raise ValueError("occurrence times must be ascending")
    n_gaps = sizes - 1
    theta = _greedy_splits(gaps, n_gaps, alpha, beta)
    bounds = np.concatenate(([0], np.cumsum(n_gaps))).tolist()
    return {ngram: segment_bursts(ngram, occs, theta[lo:hi])
            for ngram, occs, lo, hi in zip(index, lists, bounds, bounds[1:])}
