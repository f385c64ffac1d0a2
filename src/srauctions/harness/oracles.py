"""Brute-force and closed-form oracles.

These deliberately avoid the mechanism implementations: expectations come
from exhaustive enumeration over discrete profiles, or from closed forms for
the analytic families, so Monte Carlo means have something independent to
be checked against.  The closed forms rest on one fact: the rank-th largest
of n i.i.d. draws sits at the rank-th smallest of n uniform quantiles, which
is Beta(rank, n - rank + 1) distributed.  The tests check each form against
adaptive quadrature.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Sequence

from ..dists import DiscreteTabular, Exponential, FAlpha, ValuationDistribution
from ..mechanisms import Environment

_MAX_PROFILES = 2_000_000


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

    E[max(0, phi(V))] for V the largest of n draws: profile enumeration for
    `DiscreteTabular`, closed forms for the analytic kinds.  Their virtual
    value is a line with slope a through the reserve r (a = alpha and
    r = scale for FAlpha, a = 1 and r = 1/rate for Exponential), so the
    revenue is a E[(V - r)^+], the integral of Pr[V > v] over v >= r.
    V's quantile U is Beta(1, n) distributed, so Pr[V > v] = Pr[U < q(v)]
    = 1 - (1 - q(v))^n = q(v) sum_{i=0..n-1} (1 - q(v))^i.  Integrated over
    the quantile t = q(v) from 0 to q_r = q(r), this is

        FAlpha:       scale alpha^2 sum_{i=0..n-1} I_i,  q_r = alpha^(1/(1-alpha)),
                      I_i = integral_0^q_r t^(alpha-1) (1-t)^i dt;
        Exponential:  (1/rate) sum_{j=1..n} (1 - (1 - 1/e)^j) / j.

    The incomplete Beta integrals I_i follow from I_0 = q_r^alpha / alpha
    and (alpha + i) I_i = q_r^alpha (1 - q_r)^i + i I_{i-1}, so every term
    summed is positive.  Expanding (1 - q)^n instead gives the same values
    as alternating binomial sums, such as alpha sum_{j=1..n} C(n,j)
    (-1)^(j+1) (scale/b) c/(j - c) (1 + b)^(1 - j/c) for FAlpha with
    c = 1 - alpha and b = c/alpha, whose terms cancel as n grows.
    Any other kind raises `TypeError`.
    """
    if n < 1:
        raise ValueError(f"need at least one bidder, got n={n!r}")
    if isinstance(d, DiscreteTabular):
        return oracle_optimal_revenue_single_item([d] * n)
    if isinstance(d, FAlpha):
        a = d.alpha
        q_r = a ** (1.0 / (1.0 - a))
        head = q_r**a
        term = total = head / a
        for i in range(1, n):
            term = (head * (1.0 - q_r) ** i + i * term) / (a + i)
            total += term
        return d.scale * a * a * total
    if isinstance(d, Exponential):
        keep = 1.0 - math.exp(-1.0)
        return math.fsum((1.0 - keep**j) / j for j in range(1, n + 1)) / d.rate
    raise TypeError(f"no exact oracle for {type(d).__name__}")


def expected_order_statistic_iid(
    d: ValuationDistribution, n: int, rank: int
) -> float:
    """E[rank-th largest of n i.i.d. draws] (rank from 1), exactly.

    Profile enumeration for `DiscreteTabular`.  For the analytic kinds the
    draw's quantile U is Beta(rank, n - rank + 1) distributed, and:

    - FAlpha: the value at quantile q is (scale/b)(q^-c - 1), with
      c = 1 - alpha and b = c/alpha, and
      E[U^-c] = B(rank - c, n - rank + 1) / B(rank, n - rank + 1)
              = prod_{j=rank..n} j / (j - c),
      so the mean is (scale/b)(prod_{j=rank..n} j/(j - c) - 1), taken as
      expm1 of a sum of log1p(c/(j - c)) so that nothing cancels;
    - Exponential: the value is -log(q)/rate and E[-log U] is the digamma
      difference sum_{j=rank..n} 1/j, so the mean is
      (1/rate) sum_{j=rank..n} 1/j.

    Any other kind raises `TypeError`.
    """
    if not 1 <= rank <= n:
        raise ValueError("rank out of range")
    if isinstance(d, DiscreteTabular):
        return oracle_exact_expectation([d] * n, lambda values: sorted(values)[n - rank])
    if isinstance(d, FAlpha):
        c = 1.0 - d.alpha
        log_moment = math.fsum(math.log1p(c / (j - c)) for j in range(rank, n + 1))
        return d.scale / (c / d.alpha) * math.expm1(log_moment)
    if isinstance(d, Exponential):
        return math.fsum(1.0 / j for j in range(rank, n + 1)) / d.rate
    raise TypeError(f"no exact oracle for {type(d).__name__}")
