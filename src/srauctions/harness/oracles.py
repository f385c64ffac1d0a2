"""Brute-force and quadrature oracles.

These deliberately avoid the mechanism implementations: expectations come
from exhaustive enumeration over discrete profiles (or adaptive quadrature
for the analytic families), so Monte Carlo means have something independent
to be checked against.

Quadrature is the one use of scipy in the package.  `_quad` imports
``scipy.integrate`` on its first call, so a run that never integrates
(the sampled mechanisms, the CLI, enumeration over discrete profiles) never
loads scipy.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from ..dists import DiscreteTabular, ValuationDistribution
from ..mechanisms import Environment

_MAX_PROFILES = 2_000_000


def _quad(integrand: Callable[[float], float], lo: float) -> float:
    """Integral of ``integrand`` over [lo, inf) by adaptive quadrature
    (``scipy.integrate.quad``, relative tolerance 1e-10, at most 400
    subintervals)."""
    from scipy import integrate

    val, _ = integrate.quad(integrand, lo, np.inf, epsrel=1e-10, limit=400)
    return float(val)


def enumerate_profiles(
    dists: Sequence[DiscreteTabular],
) -> Iterator[tuple[tuple[float, ...], float]]:
    """Yield every value profile with its probability."""
    total = 1
    for d in dists:
        total *= len(d.support)
        if total > _MAX_PROFILES:
            raise ValueError("profile space too large to enumerate")
    supports = [list(zip(d.support, d.pmf)) for d in dists]
    for combo in itertools.product(*supports):
        values = tuple(float(v) for v, _ in combo)
        prob = math.prod(p for _, p in combo)
        yield values, prob


def oracle_exact_expectation(
    dists: Sequence[DiscreteTabular],
    statistic: Callable[[tuple[float, ...]], float],
) -> float:
    """Exact E[statistic(values)] by full profile enumeration.

    Internal mechanism randomness must be integrated out by the caller
    (pass the per-profile conditional expectation as the statistic).
    """
    return float(
        sum(prob * statistic(values) for values, prob in enumerate_profiles(dists))
    )


def oracle_optimal_revenue_single_item(dists: Sequence[DiscreteTabular]) -> float:
    """Optimal single-item revenue: E[max(0, max_i phi_i(v_i))], exactly."""
    for d in dists:
        if not isinstance(d, DiscreteTabular):
            raise TypeError("exact enumeration needs discrete distributions")
    virtuals = [dict(zip(d.support, d.virtual_values())) for d in dists]

    def best_virtual(values: tuple[float, ...]) -> float:
        return max(0.0, max(virtuals[i][v] for i, v in enumerate(values)))

    return oracle_exact_expectation(dists, best_virtual)


def oracle_feasible_argmax(
    env: Environment, weights: Sequence[float]
) -> tuple[tuple[int, ...], float]:
    """Exhaustive best feasible set; ties go to the lexicographically
    smallest member tuple, zero-weight bidders are dropped."""
    n = env.n_bidders
    if n > 20:
        raise ValueError("exhaustive search capped at 20 bidders")
    best: tuple[float, tuple[int, ...]] | None = None
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            members = tuple(i for i in combo if weights[i] > 0.0)
            if members != combo:
                continue  # the zero-dropped variant is enumerated separately
            if not env.is_feasible(set(combo)):
                continue
            weight = float(sum(weights[i] for i in combo))
            key = (-weight, combo)
            if best is None or key < (-best[0], best[1]):
                best = (weight, combo)
    assert best is not None  # the empty set is always feasible
    return best[1], best[0]


def myerson_optimal_revenue_iid(d: ValuationDistribution, n: int) -> float:
    """Optimal revenue for ``n`` i.i.d. regular bidders, one item.

    E[max(0, phi(max of n draws))] via adaptive quadrature over the value
    axis: the integrand is phi(v) * n F(v)^(n-1) f(v) above the reserve.
    """
    if isinstance(d, DiscreteTabular):
        return oracle_optimal_revenue_single_item([d] * n)
    r = d.reserve_price

    def integrand(v: float) -> float:
        return (
            float(d.virtual_valuation(v))
            * n
            * float(d.cdf(v)) ** (n - 1)
            * float(d.density(v))
        )

    return _quad(integrand, r)


def expected_order_statistic_iid(
    d: ValuationDistribution, n: int, rank: int
) -> float:
    """E[rank-th largest of n i.i.d. draws] by quadrature (rank from 1).

    Uses E[X] = integral of the survival function of the order statistic:
    Pr[X_(rank) > v] = sum_{j=rank}^{n} C(n,j) q^j (1-q)^(n-j), q = 1-F(v).
    """
    if not 1 <= rank <= n:
        raise ValueError("rank out of range")

    def survival(v: float) -> float:
        q = float(d.quantile_of_value(v))
        return sum(
            math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(rank, n + 1)
        )

    lo = float(d.support_min())
    return lo + _quad(survival, lo)
