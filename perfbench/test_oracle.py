"""Checks of the exact-gamma oracle against brute force and quadrature.

Run with: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from oracle import exact_gamma, log_split_coefficients


def brute_force_likelihood(p: float, n_a: int, c_y: list[float],
                           c_rest: list[float]) -> float:
    """Verbatim likelihood by enumerating every split of Y into Z and R."""
    total = 0.0
    for in_z in itertools.product((False, True), repeat=len(c_y)):
        n_z = sum(in_z)
        term = p ** n_z * (1.0 - p) ** (n_a - n_z)
        for z, c in zip(in_z, c_y):
            term *= (1.0 - c) if z else c
        for c in c_rest:
            term *= 1.0 - c
        total += term
    return total


def _random_dyad(rng, n_a: int, n_y: int):
    c = rng.uniform(0.05, 0.95, size=n_a).tolist()
    return c[:n_y], c[n_y:]


@pytest.mark.parametrize("n_y", [0, 1, 2, 5, 8])
def test_coefficients_match_split_enumeration(n_y):
    rng = np.random.default_rng(n_y)
    c_y, _ = _random_dyad(rng, n_y, n_y)
    expected = [0.0] * (n_y + 1)
    for in_z in itertools.product((False, True), repeat=n_y):
        expected[sum(in_z)] += math.prod((1.0 - c) if z else c
                                         for z, c in zip(in_z, c_y))
    got = np.exp(log_split_coefficients(c_y))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n_a,n_y", [(1, 0), (1, 1), (3, 2), (6, 6),
                                     (10, 4), (12, 9)])
def test_gamma_matches_quadrature(n_a, n_y):
    rng = np.random.default_rng(100 * n_a + n_y)
    c_y, c_rest = _random_dyad(rng, n_a, n_y)

    def like(p: float) -> float:
        return brute_force_likelihood(p, n_a, c_y, c_rest)

    den, _ = integrate.quad(like, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
    num, _ = integrate.quad(lambda p: p * like(p), 0.0, 1.0,
                            epsabs=0.0, epsrel=1e-12)
    assert exact_gamma(n_a, c_y) == pytest.approx(num / den, rel=1e-10)


def test_gamma_without_shared_topics_is_the_prior_mean():
    assert exact_gamma(0, []) == pytest.approx(0.5, abs=1e-15)


def test_gamma_stays_finite_at_400_topics():
    rng = np.random.default_rng(400)
    c_y = rng.uniform(0.05, 0.95, size=400)
    value = exact_gamma(400, c_y)
    assert math.isfinite(value) and 0.0 < value < 1.0


def test_strong_lead_at_400_topics_approaches_one():
    # every shared topic is a precedence topic with a low chance probability
    value = exact_gamma(400, [0.3] * 400)
    assert 0.99 < value < 1.0
    assert exact_gamma(400, [0.3] * 400) > exact_gamma(150, [0.3] * 150)


def test_rejects_y_larger_than_a():
    with pytest.raises(ValueError):
        exact_gamma(1, [0.5, 0.5])
