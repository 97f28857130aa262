"""Exact dyadic gamma, independent of the pipeline's estimator.

For an ordered blog pair with shared topics A (n = |A|) and precedence
topics Y, the verbatim likelihood is a polynomial in p:

    L(p) = base * sum_k c_k p^k (1 - p)^(n - k)

c_k sums prod_{r in Z} (1 - C_r) * prod_{r in Y \\ Z} C_r over the splits of
Y with |Z| = k, and base = prod_{r in A \\ Y} (1 - C_r) cancels from gamma.
Integrating each term over p in [0, 1] gives Beta functions, so

    gamma = sum_k c_k B(k + 2, n - k + 1) / sum_k c_k B(k + 1, n - k + 1).

The coefficients are built in log space and the sums are taken with
log-sum-exp, so the result stays finite at |Y| in the hundreds, where the
coefficients themselves would underflow a float.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import betaln, logsumexp


def log_split_coefficients(c_y: Sequence[float]) -> np.ndarray:
    """log c_k for k = 0..|Y|, by a DP that adds one topic of Y at a time."""
    c_y = np.asarray(c_y, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_z = np.log1p(-c_y)  # the topic is explained by the relationship
        log_r = np.log(c_y)     # the topic is explained by chance
    log_c = np.zeros(1)
    for lz, lr in zip(log_z, log_r):
        nxt = np.full(log_c.size + 1, -np.inf)
        nxt[:-1] = log_c + lr
        nxt[1:] = np.logaddexp(nxt[1:], log_c + lz)
        log_c = nxt
    return log_c


def exact_gamma(n_a: int, c_y: Sequence[float]) -> float:
    """Posterior mean of p under a flat prior, for |A| = n_a and Y's C_r."""
    if len(c_y) > n_a:
        raise ValueError("Y must be a subset of A")
    log_c = log_split_coefficients(c_y)
    k = np.arange(log_c.size)
    log_den = logsumexp(log_c + betaln(k + 1, n_a - k + 1))
    if not np.isfinite(log_den):
        raise ValueError("the likelihood vanishes for every p")
    log_num = logsumexp(log_c + betaln(k + 2, n_a - k + 1))
    return float(np.exp(log_num - log_den))


def context_gamma(ctx) -> float:
    """exact_gamma for a precursor.scoring.DyadContext."""
    return exact_gamma(len(ctx.a_topics), [ctx.c[r] for r in ctx.y_topics])
