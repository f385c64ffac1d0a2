"""Distribution layer: closed forms, derived quantities, and the inequality
suite that every alpha-strongly-regular instance has to satisfy.

The numeric targets below were computed independently (30-digit quadrature
on the raw cdf formulas) before the implementation existed; they are frozen
here and must not be regenerated from package code.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from srauctions.dists import (
    ORDER_BLOCK,
    RUN_BLOCKS,
    DiscreteTabular,
    Exponential,
    FAlpha,
    UndefinedVirtualValueError,
    check_alpha_sr,
    dist_from_spec,
    expected_positive_part_of_virtual,
    make_discrete,
    make_exponential,
    make_falpha,
    make_random_alpha_sr_discrete,
    revenue_curve_hull,
    truncate_at,
)

ALPHAS = [0.1, 0.3, 0.5, 0.7, 0.9]


def generated_family(seed=202, count=20, alpha=None):
    """A reproducible batch of generator-made strongly regular pmfs."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    out = []
    for _ in range(count):
        a = alpha if alpha is not None else float(rng.uniform(0.05, 0.95))
        out.append((a, make_random_alpha_sr_discrete(rng, a, max_support=7)))
    return out


class TestFAlphaClosedForms:
    """Frozen values for the half-regular member of the family (scale 1)."""

    d = make_falpha(0.5, 1.0)

    def test_cdf(self):
        assert self.d.cdf(1.0) == pytest.approx(0.75, abs=1e-12)
        assert self.d.cdf(0.0) == 0.0
        assert self.d.cdf(-3.0) == 0.0

    def test_density_at_origin_is_inverse_alpha(self):
        assert self.d.density(0.0) == pytest.approx(2.0, abs=1e-12)

    def test_quantile_pair(self):
        assert self.d.quantile_of_value(1.0) == pytest.approx(0.25, abs=1e-12)
        assert self.d.quantile_of_value(-1.0) == 1.0
        assert self.d.value_of_quantile(0.25) == pytest.approx(1.0, abs=1e-10)

    def test_virtual_valuation_is_alpha_times_shift(self):
        assert self.d.virtual_valuation(3.0) == pytest.approx(1.0, abs=1e-12)

    def test_hazard_and_cumulative_hazard(self):
        assert self.d.hazard_rate(0.0) == pytest.approx(2.0, abs=1e-12)
        # independent quadrature of f/(1-F) over [0,1] gave 1.38629436112
        assert self.d.cumulative_hazard(1.0) == pytest.approx(1.38629436112, abs=1e-9)
        assert self.d.cumulative_hazard(0.0) == 0.0

    def test_reserve_price(self):
        assert self.d.reserve_price == pytest.approx(1.0, abs=1e-10)

    def test_revenue_curve(self):
        assert self.d.revenue_curve(0.25).cr == pytest.approx(0.25, abs=1e-10)
        assert self.d.revenue_curve(0.09).cr == pytest.approx(0.21, abs=1e-10)
        assert self.d.revenue_curve(0.0).cr == 0.0
        assert self.d.revenue_curve(1.0).cr == pytest.approx(0.0, abs=1e-12)

    def test_posted_price_welfare(self):
        assert self.d.posted_price_welfare(0.0) == pytest.approx(1.0, abs=1e-10)

    def test_survival_power_integrals(self):
        assert self.d.survival_power_integral(1) == pytest.approx(1.0, abs=1e-12)
        assert self.d.survival_power_integral(2) == pytest.approx(1 / 3, abs=1e-12)


class TestExponential:
    e = make_exponential(1.0)

    def test_basics(self):
        assert self.e.virtual_valuation(1.0) == pytest.approx(0.0, abs=1e-12)
        assert self.e.reserve_price == pytest.approx(1.0, abs=1e-12)
        assert self.e.posted_price_welfare(0.0) == pytest.approx(1.0, abs=1e-12)
        assert self.e.survival_power_integral(2) == pytest.approx(0.5, abs=1e-12)

    def test_regularity_margin(self):
        rep = check_alpha_sr(self.e, 0.5)
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.5, abs=1e-9)


class TestDiscreteTabular:
    d = make_discrete([1, 2], [0.5, 0.5])

    def test_virtual_values(self):
        assert self.d.virtual_valuation(1.0) == pytest.approx(0.0, abs=1e-12)
        assert self.d.virtual_valuation(2.0) == pytest.approx(2.0, abs=1e-12)

    def test_reserve(self):
        assert self.d.reserve_price == 1.0

    def test_value_of_quantile_steps(self):
        assert self.d.value_of_quantile(0.5) == 2.0
        assert self.d.value_of_quantile(0.500001) == 1.0
        assert self.d.value_of_quantile(1.0) == 1.0
        assert self.d.value_of_quantile(0.1) == 2.0

    def test_sale_probability_vs_quantile(self):
        assert self.d.sale_probability(1.0) == 1.0
        assert self.d.quantile_of_value(1.0) == 0.5
        assert self.d.sale_probability(2.0) == 0.5
        assert self.d.quantile_of_value(2.0) == 0.0
        lo, hi = self.d.quantile_interval(np.array([0.5, 1.0, 1.5, 2.0, 3.0]))
        assert lo.tolist() == [1.0, 0.5, 0.5, 0.0, 0.0]
        assert hi.tolist() == [1.0, 1.0, 0.5, 0.5, 0.0]

    def test_hull_through_vertices(self):
        assert revenue_curve_hull(self.d, 0.5) == pytest.approx(1.0)
        assert revenue_curve_hull(self.d, 1.0) == pytest.approx(1.0)
        assert revenue_curve_hull(self.d, 0.75) == pytest.approx(1.0)
        assert revenue_curve_hull(self.d, 0.25) == pytest.approx(0.5)

    def test_welfare_and_survival_integral(self):
        assert self.d.posted_price_welfare(2.0) == pytest.approx(1.0)
        assert self.d.posted_price_welfare(2.5) == 0.0
        # integral of survival: 1 on [0,1), 0.5 on [1,2)
        assert self.d.survival_power_integral(1) == pytest.approx(1.5)
        assert self.d.survival_power_integral(2) == pytest.approx(1.25)

    def test_point_mass_survival_integral_is_zero(self):
        assert make_discrete([0.0], [1.0]).survival_power_integral(3) == 0.0

    def test_optimal_single_bidder_revenue(self):
        assert expected_positive_part_of_virtual(self.d) == pytest.approx(1.0)


class TestErrors:
    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            make_falpha(0.0)
        with pytest.raises(ValueError):
            make_falpha(1.0)
        with pytest.raises(ValueError):
            make_falpha(0.5, scale=0.0)

    def test_quantile_domain(self):
        d = make_falpha(0.5)
        with pytest.raises(ValueError):
            d.value_of_quantile(0.0)
        with pytest.raises(ValueError):
            d.value_of_quantile(-0.2)

    def test_virtual_off_support(self):
        with pytest.raises(UndefinedVirtualValueError):
            make_discrete([1, 2], [0.5, 0.5]).virtual_valuation(1.5)
        with pytest.raises(UndefinedVirtualValueError):
            make_falpha(0.5).virtual_valuation(-1.0)

    def test_truncate_below_support(self):
        with pytest.raises(ValueError):
            truncate_at(make_discrete([2, 3], [0.5, 0.5]), 1.0)

    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            make_discrete([1, 2], [0.7, 0.7])
        with pytest.raises(ValueError):
            make_discrete([2, 1], [0.5, 0.5])


class TestTruncation:
    def test_discrete_fold_up(self):
        t = truncate_at(make_discrete([1, 2, 3], [0.2, 0.3, 0.5]), 2.0)
        assert t.support.tolist() == [1.0, 2.0]
        assert t.pmf.tolist() == pytest.approx([0.2, 0.8])

    def test_no_op_when_support_below_cap(self):
        d = make_discrete([1, 2], [0.5, 0.5])
        assert truncate_at(d, 5.0) is d

    def test_continuous_collapses_to_point_mass_on_singleton_grid(self):
        t = truncate_at(make_falpha(0.5), 1.0, grid=[1.0])
        assert t.support.tolist() == [1.0]
        assert t.pmf.tolist() == [1.0]

    def test_continuous_grid_masses_match_cdf_increments(self):
        d = make_falpha(0.5)
        t = truncate_at(d, 2.0, grid=[1.0, 2.0])
        assert t.pmf[0] == pytest.approx(d.cdf(1.0))
        assert t.pmf[1] == pytest.approx(1.0 - d.cdf(1.0))


class TestUnitOfValue:
    """Scaling values by c = 2**e scales the welfare of a posted price and
    the atoms of a truncation by c.  Multiplying by a power of two is exact,
    so the scaled results must be equal bit for bit: the comparisons of
    values against a price or a truncation point carry no slack in the unit
    of value (an absolute 1e-12 used to merge atoms closer than that)."""

    SUPPORT, PMF = np.array([1.0, 2.0, 3.0, 4.0]), [0.4, 0.3, 0.2, 0.1]

    def test_posted_price_welfare_scales(self):
        d = make_discrete(self.SUPPORT, self.PMF)
        for e in range(-45, 31):
            c = 2.0**e
            scaled = make_discrete(c * self.SUPPORT, self.PMF)
            for t in (0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
                assert scaled.posted_price_welfare(c * t) == c * d.posted_price_welfare(t)

    def test_scale_values_keeps_the_pmf(self):
        # renormalizing the pmf would move its last bits, and with them the
        # welfare of posting 0
        d = make_discrete(self.SUPPORT, self.PMF)
        for e in range(-45, 31):
            c = 2.0**e
            scaled = d.scale_values(c)
            assert scaled.pmf.tobytes() == d.pmf.tobytes()
            assert scaled.support.tobytes() == (c * d.support).tobytes()
            for t in (0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
                assert scaled.posted_price_welfare(c * t) == c * d.posted_price_welfare(t)

    def test_discrete_truncation_scales(self):
        d = make_discrete(self.SUPPORT, self.PMF)
        for e in range(-45, 31):
            c = 2.0**e
            scaled = make_discrete(c * self.SUPPORT, self.PMF)
            for B in (1.0, 2.0, 2.5, 3.0):
                unit, t = truncate_at(d, B), truncate_at(scaled, c * B)
                assert t.support.tolist() == (c * unit.support).tolist()
                assert t.pmf.tolist() == unit.pmf.tolist()

    def test_continuous_truncation_scales(self):
        d = make_falpha(0.5)
        for e in range(-45, 31):
            c = 2.0**e
            scaled = make_falpha(0.5, c)
            for grid in ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]):
                unit = truncate_at(d, 4.0, grid=grid)
                t = truncate_at(scaled, c * 4.0, grid=[c * g for g in grid])
                assert t.support.tolist() == [c * v for v in (1.0, 2.0, 3.0, 4.0)]
                assert t.pmf.tolist() == unit.pmf.tolist()
            with pytest.raises(ValueError, match="must not exceed"):
                truncate_at(scaled, c * 4.0, grid=[c, c * 5.0])


class TestRegularityChecker:
    def test_family_member_margin_is_zero(self):
        rep = check_alpha_sr(make_falpha(0.5), 0.5)
        assert abs(rep.margin) <= 1e-9
        assert rep.satisfied

    def test_stronger_alpha_fails(self):
        rep = check_alpha_sr(make_falpha(0.5), 0.7)
        assert rep.margin < -0.19
        assert not rep.satisfied

    def test_discrete_consecutive_pairs(self):
        rep = check_alpha_sr(make_discrete([1, 2], [0.5, 0.5]), 1.0)
        assert rep.pairs_checked == 1
        assert rep.margin == pytest.approx(1.0)  # slope (2-0)/(2-1) minus 1


# ---------------------------------------------------------------------------
# Inequality suite for strongly regular distributions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", ALPHAS)
def test_survival_at_reserve_is_exactly_alpha_power(alpha):
    d = make_falpha(alpha)
    assert d.quantile_of_value(d.reserve_price) == pytest.approx(
        alpha ** (1 / (1 - alpha)), abs=1e-9
    )


def test_survival_at_reserve_lower_bound_on_generated_family():
    for a, d in generated_family():
        bound = a ** (1 / (1 - a))
        assert float(d.sale_probability(d.reserve_price)) >= bound - 1e-9


@pytest.mark.parametrize("alpha", ALPHAS)
def test_survival_square_integral_ratio(alpha):
    d = make_falpha(alpha)
    assert d.survival_power_integral(2) / d.survival_power_integral(1) == pytest.approx(
        alpha / (1 + alpha), abs=1e-9
    )


def test_survival_square_inequality_on_generated_family():
    for a, d in generated_family():
        i1, i2 = d.survival_power_integral(1), d.survival_power_integral(2)
        assert a / (1 + a) * i1 <= i2 + 1e-9


@pytest.mark.parametrize("alpha", ALPHAS)
def test_max_to_min_expectation_ratio_of_two_draws(alpha):
    d = make_falpha(alpha)
    i1, i2 = d.survival_power_integral(1), d.survival_power_integral(2)
    emax, emin = 2 * i1 - i2, i2
    assert emax / emin == pytest.approx((2 + alpha) / alpha, abs=1e-6)


def test_max_to_min_inequality_on_generated_family():
    for a, d in generated_family():
        i1, i2 = d.survival_power_integral(1), d.survival_power_integral(2)
        assert 2 * i1 - i2 <= (2 + a) / a * i2 + 1e-9


def test_conditioned_max_bounded_by_virtual_of_max():
    """E[max | max >= t] <= (2+a)/a * E[phi(max) | max >= t], Monte Carlo.

    Checked through the paired-sample mean of max - C*phi(max), whose
    conditional expectation must be <= 0 up to four standard errors.
    """
    d = make_falpha(0.5)
    c = (2 + 0.5) / 0.5
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    pairs = d.sample(rng, 2_000_000).reshape(-1, 2)
    mx = pairs.max(axis=1)
    for t in [0.0, 0.5, 1.0, 2.0]:
        sel = mx[mx >= t]
        diff = sel - c * d.virtual_valuation(sel)
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert diff.mean() <= 4 * se


@pytest.mark.parametrize("dist", [make_falpha(a) for a in ALPHAS] + [make_exponential(1.0)])
def test_density_ratio_power_bound(dist):
    """f(v(q)) >= f(v(q0)) * (q/q0)^(2-a) for q <= q0 (continuous kinds)."""
    alpha = getattr(dist, "alpha", 1.0)
    qs = np.linspace(0.02, 0.99, 30)
    f_at = np.asarray(dist.density(np.asarray(dist.value_of_quantile(qs))))
    for i, q in enumerate(qs):
        for j, q0 in enumerate(qs):
            if q > q0:
                continue
            assert f_at[i] - f_at[j] * (q / q0) ** (2 - alpha) >= -1e-8


def test_value_bounded_by_reserve_plus_virtual_over_alpha():
    for a, d in list(generated_family()) + [(a, make_falpha(a)) for a in ALPHAS]:
        r = d.reserve_price
        if isinstance(d, DiscreteTabular):
            grid = d.support[d.support >= r]
        else:
            grid = np.linspace(r, 50 * r, 40)
        phi = np.asarray(d.virtual_valuation(grid))
        assert np.all(grid <= r + phi / a + 1e-9)


@pytest.mark.parametrize("dist,alpha", [(make_falpha(a), a) for a in ALPHAS] + [(make_exponential(2.0), 1.0)])
def test_inverse_hazard_growth_bounds(dist, alpha):
    """1/h grows at most (1-a) per unit of value, and the reciprocal form."""
    vs = np.linspace(0.0, 25.0, 60)
    h = np.asarray(dist.hazard_rate(vs))
    for i in range(len(vs)):
        for j in range(i, len(vs)):
            gap = vs[j] - vs[i]
            assert 1 / h[j] <= 1 / h[i] + (1 - alpha) * gap + 1e-9
            assert h[j] >= h[i] / (1 + (1 - alpha) * h[i] * gap) - 1e-9


def test_alpha_power_dominates_linear_ratio():
    for a in np.linspace(0.01, 0.99, 99):
        assert (a + 1) / a <= a ** (-1 / (1 - a)) + 1e-9


def test_probability_virtual_exceeds_half_value():
    # continuous: the threshold is exactly twice the scale, mass 1/9 beyond it
    d = make_falpha(0.5)
    assert d.virtual_valuation(2.0) == pytest.approx(0.5 * 2.0 / 2, abs=1e-12)
    assert d.quantile_of_value(2.0) == pytest.approx(1 / 9, abs=1e-12)
    # discrete: exact enumeration on the generated family
    for a, dd in generated_family():
        phi = dd.virtual_values()
        pr = float(np.sum(dd.pmf[phi > a * dd.support / 2]))
        assert pr >= (a / (2 - a)) ** (1 / (1 - a)) - 1e-9


def _reserveb_envelope_margin(d, a):
    """Min slack of CR(q) <= CR(q(r)) * ((q/q(r))^a - a q/q(r)) / (1-a)."""
    r = d.reserve_price
    qr = float(d.quantile_of_value(r))
    if qr <= 0:
        return math.inf  # reserve at the top of the support: empty range
    crr = float(revenue_curve_hull(d, qr))
    qs = np.linspace(1e-9, qr, 50)
    lhs = np.asarray(revenue_curve_hull(d, qs))
    rhs = crr * ((qs / qr) ** a - a * qs / qr) / (1 - a)
    return float(np.min(rhs - lhs))


def test_revenue_curve_power_envelope_below_reserve_quantile():
    # exact equality along the extremal family ...
    for a in ALPHAS:
        d = make_falpha(a)
        assert abs(_reserveb_envelope_margin(d, a)) <= 1e-9
    # ... and a one-sided bound elsewhere
    for a, d in generated_family():
        assert _reserveb_envelope_margin(d, a) >= -1e-9


def test_posted_revenue_at_reserve_covers_welfare_fraction():
    """p * Pr[sale at p] with p = max(t, r) earns at least a^(1/(1-a)) of V(t)."""
    for a, d in list(generated_family(count=10)) + [(a, make_falpha(a)) for a in ALPHAS]:
        bound = a ** (1 / (1 - a))
        top = d.support_max() if isinstance(d, DiscreteTabular) else 8.0
        for t in np.linspace(0.0, top, 50):
            p = max(t, d.reserve_price)
            sale = (
                float(d.sale_probability(p))
                if isinstance(d, DiscreteTabular)
                else float(d.quantile_of_value(p))
            )
            assert p * sale >= bound * d.posted_price_welfare(t) - 1e-6


def test_welfare_fraction_tight_at_zero_for_family():
    for a in ALPHAS:
        d = make_falpha(a)
        r = d.reserve_price
        lhs = r * d.quantile_of_value(r)
        assert lhs == pytest.approx(a ** (1 / (1 - a)) * d.posted_price_welfare(0.0), abs=1e-6)


def test_survival_equals_exponential_of_cumulative_hazard():
    for d in [make_falpha(a) for a in ALPHAS] + [make_exponential(0.7)]:
        vs = np.linspace(0.0, 40.0, 200)
        surv = np.asarray(d.quantile_of_value(vs))
        assert np.max(np.abs(np.exp(-np.asarray(d.cumulative_hazard(vs))) - surv)) <= 1e-6


@pytest.mark.parametrize("dist", [make_falpha(0.5, 2.0), make_exponential(0.7)])
def test_quantile_interval_collapses_off_atoms(dist):
    vs = np.linspace(0.0, 30.0, 61)
    lo, hi = dist.quantile_interval(vs)
    assert lo.tobytes() == hi.tobytes() == np.asarray(dist.sale_probability(vs)).tobytes()


def test_reserve_scales_with_value_axis():
    assert make_falpha(0.3, scale=7.5).reserve_price == pytest.approx(7.5, rel=1e-9)
    # Discrete kinds: the revenue-maximizing support price is the quantity
    # that scales (the pointwise-phi reserve is tied to unit-spaced supports).
    for a, d in generated_family(count=5):
        best = d.support[np.argmax(d.support * d._sale)]
        scaled = d.scale_values(3.0)
        best_scaled = scaled.support[np.argmax(scaled.support * scaled._sale)]
        assert best_scaled == pytest.approx(3.0 * best, rel=1e-9)


# ---------------------------------------------------------------------------
# generator, sampling, serialization
# ---------------------------------------------------------------------------


def test_generator_output_is_strongly_regular_with_contiguous_support():
    for a, d in generated_family(seed=55, count=30):
        assert d.support.tolist() == list(range(1, len(d.support) + 1))
        assert np.all(d.pmf > 0)
        assert d.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        rep = check_alpha_sr(d, a)
        assert rep.satisfied, (a, d)


def test_sampling_is_reproducible_and_unbiased():
    d = make_falpha(0.5)
    rng1 = np.random.Generator(np.random.Philox(key=[1, 0]))
    rng2 = np.random.Generator(np.random.Philox(key=[1, 0]))
    s1, s2 = d.sample(rng1, 1_000_000), d.sample(rng2, 1_000_000)
    assert np.array_equal(s1, s2)
    se = s1.std(ddof=1) / math.sqrt(len(s1))
    assert abs(s1.mean() - 1.0) <= 3 * se


def test_sampling_corner_cases():
    rng = np.random.Generator(np.random.Philox(key=[2, 0]))
    assert make_falpha(0.5).sample(rng, 0).size == 0
    assert make_discrete([5.0], [1.0]).sample(rng, 3).tolist() == [5.0, 5.0, 5.0]


class _FixedUniforms:
    """A generator stub whose ``random(n)`` returns the given n doubles."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def _cell_count(atoms: int) -> int:
    """The smallest power of two at or above 64 per atom, in [64, 2**16]."""
    return min(max(64, 1 << (64 * atoms - 1).bit_length()), 2**16)


def _assert_draws_equal_the_search(d: DiscreteTabular, seed: int, n: int = 4_000):
    """``d.sample`` equals the inverse-cdf binary search on a Philox stream
    and on hand-picked u: 0, every cell edge k/G and the double below it,
    every cdf entry below 1 and the double below it, and 1 - 2**-53."""
    cdf = d._cdf
    G = _cell_count(len(d.support))
    edges = np.arange(G) / G
    below = cdf[cdf < 1.0]
    picked = np.concatenate(
        (
            [0.0, 1.0 - 2.0**-53],
            edges,
            np.nextafter(edges[1:], 0.0),
            below,
            np.nextafter(below, 0.0),
        )
    )
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    u = np.random.Generator(np.random.Philox(key=[seed, 0])).random(n)
    for source, u in ((rng, u), (_FixedUniforms(picked), picked)):
        want = d.support[np.searchsorted(cdf, u, side="right")]
        assert d.sample(source, u.size).tobytes() == want.tobytes()
    assert d._cells[0] == G


_masses = st.one_of(
    st.floats(1e-6, 1.0),
    st.sampled_from([0.0, 1e-17, 1e-300, 0.5, 0.25]),  # zero and vanishing atoms
)


@settings(max_examples=60, deadline=None)
@given(masses=st.lists(_masses, min_size=1, max_size=300), seed=st.integers(0, 2**32 - 1))
def test_discrete_draws_equal_the_binary_search(masses, seed):
    # zero-mass atoms are dropped; vanishing ones push the rounded cumsum to
    # 1.0 before the last atom, so the cdf ends in a run of 1.0 entries
    pmf = np.asarray(masses)
    if pmf.sum() == 0.0:
        pmf[-1] = 1.0
    d = DiscreteTabular(np.arange(1, pmf.size + 1, dtype=float), pmf / pmf.sum())
    _assert_draws_equal_the_search(d, seed)


@pytest.mark.parametrize(
    "d",
    [
        make_discrete([5.0], [1.0]),
        make_discrete([1.0, 2.0, 3.0, 4.0], [0.25] * 4),  # cdf entries on cell edges
        truncate_at(make_falpha(0.5), 4.0, grid=[1.0, 2.0, 3.0, 4.0]),  # the criterion prior
        make_discrete(  # 5,000 atoms: 64 per atom would exceed the 2**16 cap
            np.arange(5_000, dtype=float),
            np.random.Generator(np.random.Philox(key=[3, 0])).dirichlet(np.ones(5_000)),
        ),
    ],
    ids=["one-atom", "quarters", "criterion", "5000-atoms"],
)
def test_discrete_cell_table_is_exact_and_lazy(d):
    # the table is built on the first draw, not by the constructor
    assert "_cells" not in vars(d)
    _assert_draws_equal_the_search(d, seed=len(d.support))


@pytest.mark.parametrize("d", [make_falpha(0.5), make_falpha(0.3, 7.0), make_exponential(2.0)], ids=repr)
def test_in_place_sampling_is_byte_equal_to_the_formula(d):
    # sample() computes in place, in the same operation order as the plain
    # formula, so its draws are byte-equal on the same stream
    for n in (1, 7, 100_003):
        draws = d.sample(np.random.Generator(np.random.Philox(key=[5, n])), n)
        q = 1.0 - np.random.Generator(np.random.Philox(key=[5, n])).random(n)
        if isinstance(d, FAlpha):
            plain = d.scale * (q ** (-(1.0 - d.alpha)) - 1.0) / ((1.0 - d.alpha) / d.alpha)
        else:
            plain = -np.log(q) / d.rate
        assert draws.tobytes() == plain.tobytes()
        assert draws.tobytes() == np.asarray(d.value_of_quantile(q)).tobytes()
    for outside in (np.array([0.5, 0.0]), np.array([1.5]), 0.0, -0.25):
        with pytest.raises(ValueError):
            d.value_of_quantile(outside)
    q = np.array([0.25, 0.5])
    d.value_of_quantile(q)
    assert q.tolist() == [0.25, 0.5]  # the caller's array is not overwritten


CONTINUOUS_KINDS = [make_falpha(0.5), make_falpha(0.3, 7.0), make_exponential(2.0)]
DISCRETE_KINDS = [
    truncate_at(make_falpha(0.5), 4.0, grid=[1.0, 2.0, 3.0, 4.0]),  # the criterion prior
    make_discrete([0.5, 1.25, 2.0, 6.0, 9.5], [0.1, 0.35, 0.3, 0.2, 0.05]),
]


def _sorted_draws(d, n, reps, seed):
    """``reps`` draws of ``d.sorted_sample(rng, n)`` on one seeded stream,
    as the rows of one array."""
    rng = np.random.Generator(np.random.Philox(key=[seed, n]))
    return np.array([d.sorted_sample(rng, n) for _ in range(reps)])


class _ZeroLeadingExponentials:
    """A generator stub for the block-wise draw: seeded block sums, and
    seeded uniforms whose first ``zeros`` are 0, each of which gives an
    exponential -log1p(-u) of 0 at the head of block 0.  It has no
    word-addressed bit generator, so the uniforms are drawn up front."""

    bit_generator = None

    def __init__(self, zeros):
        self.zeros = zeros
        self._rng = np.random.Generator(np.random.Philox(key=[44, zeros]))

    def standard_gamma(self, shape):
        return self._rng.standard_gamma(shape)

    def random(self, n):
        u = self._rng.random(n)
        u[: self.zeros] = 0.0
        return u


def _pcg(seed):
    return np.random.Generator(np.random.PCG64DXSM(seed))


class TestSortedSample:
    """``sorted_sample`` draws the order statistics of n i.i.d. values
    directly; its law is that of a sorted ``sample``."""

    @pytest.mark.parametrize("n", [5, 40])
    @pytest.mark.parametrize("d", CONTINUOUS_KINDS, ids=repr)
    def test_each_rank_has_the_beta_law(self, d, n):
        # the k-th largest value sits at the k-th smallest of n uniform
        # quantiles, which is Beta(k, n + 1 - k)
        q = d.quantile_of_value(_sorted_draws(d, n, 2_000, 41))
        pvalues = [stats.kstest(q[:, k - 1], stats.beta(k, n + 1 - k).cdf).pvalue for k in range(1, n + 1)]
        assert min(pvalues) > 1e-4

    @pytest.mark.parametrize("n", [5, 40])
    @pytest.mark.parametrize("d", DISCRETE_KINDS, ids=repr)
    def test_discrete_counts_follow_the_pmf(self, d, n):
        reps = 2_000
        draws = _sorted_draws(d, n, reps, 42)
        counts = (draws[:, :, None] == d.support).sum(axis=1)
        assert np.all(counts.sum(axis=1) == n)
        # pooled, the counts are one multinomial draw of n * reps
        assert stats.chisquare(counts.sum(axis=0), n * reps * d.pmf).pvalue > 1e-4
        # per draw, each atom's count is binomial, not a fixed allotment
        np.testing.assert_allclose(counts.var(axis=0, ddof=1), n * d.pmf * (1 - d.pmf), rtol=0.2)

    @pytest.mark.parametrize("d", CONTINUOUS_KINDS + DISCRETE_KINDS, ids=repr)
    def test_draws_are_nonincreasing_finite_and_seeded(self, d):
        for n in (0, 1, 5, 40, 100_003):
            a, b = (d.sorted_sample(np.random.Generator(np.random.Philox(key=[43, n])), n) for _ in range(2))
            assert a.shape == (n,) and a.flags.c_contiguous
            assert np.all(np.isfinite(a)) and np.all(a[:-1] >= a[1:])
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("zeros", [1, 2])
    @pytest.mark.parametrize("d", [make_falpha(0.5), make_falpha(0.05), make_exponential(2.0)], ids=repr)
    def test_zero_exponentials_give_a_finite_top_value(self, d, zeros):
        # a zero exponential at the head of the partial sums would put a
        # draw at quantile 0, whose value is infinite
        a = d.sorted_sample(_ZeroLeadingExponentials(zeros), 40)
        top = d.value_of_quantile(np.finfo(float).tiny)
        assert math.isfinite(top)
        assert a[:zeros].tolist() == [top] * zeros
        assert a[zeros] < top
        assert np.all(np.isfinite(a)) and np.all(a[:-1] >= a[1:])

    @pytest.mark.parametrize("d", CONTINUOUS_KINDS + DISCRETE_KINDS, ids=repr)
    def test_a_lazy_draw_reads_the_same_values(self, d):
        # sorted_sample reads every block of sorted_draw; a draw that reads
        # a few blocks, in any order, gets the same bytes, and leaves its
        # stream where sorted_sample does
        for n in (0, 1, 1023, 1024, 1025, 5_000):
            full_rng, lazy_rng = _pcg(n), _pcg(n)
            full = d.sorted_sample(full_rng, n)
            draw = d.sorted_draw(lazy_rng, n)
            assert draw.n == n and draw.blocks == -(-n // ORDER_BLOCK)
            last = np.minimum(np.arange(1, draw.blocks + 1) * ORDER_BLOCK, n) - 1
            assert draw.ends.tobytes() == full[last].tobytes()
            for k in sorted(range(draw.blocks), key=lambda k: (k * 7) % 3):
                assert draw.block(k).tobytes() == full[k * ORDER_BLOCK : (k + 1) * ORDER_BLOCK].tobytes()
            assert draw.blocks_read == draw.blocks
            assert draw.values().tobytes() == full.tobytes()
            assert full_rng.random(3).tobytes() == lazy_rng.random(3).tobytes()

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 5_000])
    @pytest.mark.parametrize("d", [make_falpha(0.5), make_exponential(2.0)], ids=repr)
    def test_ranks_at_block_boundaries_have_the_beta_law(self, d, n):
        # the k-th largest value sits at the k-th smallest of n uniform
        # quantiles, Beta(k, n + 1 - k), on both sides of every block end:
        # ranks are read from the lazy draw's blocks, and from its ends
        reps = 2_000
        ranks = sorted({1, 2, n - 1, n} | {r for b in range(ORDER_BLOCK, n, ORDER_BLOCK) for r in (b - 1, b, b + 1)})
        rng = _pcg(46)
        ends = [i for i, r in enumerate(ranks) if r % ORDER_BLOCK == 0 or r == n]
        rows = []
        for _ in range(reps):
            draw = d.sorted_draw(rng, n)
            rows.append([draw.block((r - 1) // ORDER_BLOCK)[(r - 1) % ORDER_BLOCK] for r in ranks])
            assert [rows[-1][i] for i in ends] == [draw.ends[(ranks[i] - 1) // ORDER_BLOCK] for i in ends]
        q = d.quantile_of_value(np.array(rows))
        pvalues = [stats.kstest(q[:, i], stats.beta(r, n + 1 - r).cdf).pvalue for i, r in enumerate(ranks)]
        assert min(pvalues) > 1e-4 / len(ranks), dict(zip(ranks, pvalues))

    @pytest.mark.parametrize("n", [1025, 3_000, 5_000])
    @pytest.mark.parametrize("d", [make_falpha(0.3, 7.0), make_exponential(2.0)], ids=repr)
    def test_sorted_draws_match_sorted_samples(self, d, n):
        # two-sample KS of the drawn sort against np.sort(sample): each
        # rank's value, and the gap across the first block boundary, whose
        # two sides come from different blocks
        reps = 1_500
        rng = _pcg(47)
        drawn = np.array([d.sorted_sample(rng, n) for _ in range(reps)])
        sorted_iid = -np.sort(-np.array([d.sample(rng, n) for _ in range(reps)]), axis=1)
        ranks = [1, 2, n // 3, ORDER_BLOCK - 1, ORDER_BLOCK, ORDER_BLOCK + 1, n]

        def statistics(a):
            return [a[:, r - 1] for r in ranks] + [a[:, ORDER_BLOCK - 1] - a[:, ORDER_BLOCK]]

        pvalues = [stats.ks_2samp(x, y).pvalue for x, y in zip(statistics(drawn), statistics(sorted_iid))]
        assert min(pvalues) > 1e-4 / len(pvalues), pvalues


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=[seed, 7]))


def _block_by_block(d, rng, n):
    """``d.sorted_sample(rng, n)`` with every block read on its own: a
    transcription of the block reader that the run reader replaced, kept as
    the reference for its bytes.  A PCG64DXSM stream's uniforms are read at
    each block's word offset, any other stream's up front."""
    tiny = np.finfo(float).tiny
    nb = -(-n // ORDER_BLOCK)
    shape = np.full(nb + 1, float(ORDER_BLOCK))
    shape[nb - 1 : nb] = n - (nb - 1) * ORDER_BLOCK
    shape[nb] = 1.0
    sums = rng.standard_gamma(shape)
    cum = np.cumsum(sums)
    ends = d._values_in_place(np.maximum(cum[:-1] / cum[-1], tiny))
    if isinstance(rng.bit_generator, np.random.PCG64DXSM):
        state = rng.bit_generator.state
        rng.bit_generator.advance(n)

        def uniforms(word, out):
            gen = np.random.Generator(np.random.PCG64DXSM(0))
            gen.bit_generator.state = state
            gen.bit_generator.advance(word)
            gen.random(out=out)

    else:
        u = rng.random(n)

        def uniforms(word, out):
            out[:] = u[word : word + len(out)]

    values = np.empty(n)
    for k in range(nb):
        out = np.empty(min(ORDER_BLOCK, n - k * ORDER_BLOCK))
        uniforms(k * ORDER_BLOCK, out)
        np.negative(out, out=out)
        np.log1p(out, out=out)
        np.add.accumulate(out, out=out)
        if out[-1] < 0.0:
            out /= out[-1]
        else:
            out.fill(1.0)
        out *= sums[k]
        if k:
            out += cum[k - 1]
        out /= cum[-1]
        np.maximum(out, tiny, out=out)
        d._values_in_place(out)
        out[-1] = ends[k]
        values[k * ORDER_BLOCK : (k + 1) * ORDER_BLOCK] = out
    return values


class TestRunReads:
    """A drawn sort reads its blocks in runs of up to `RUN_BLOCKS`, one
    pass of array operations a run; every block has the bytes it has when
    read on its own (`_block_by_block`), whatever run it is read in, with
    or without numpy's AVX-512 loops."""

    @staticmethod
    def _check(d, gen, n):
        ref_rng = gen(n)
        ref = _block_by_block(d, ref_rng, n)
        rng = gen(n)
        assert d.sorted_sample(rng, n).tobytes() == ref.tobytes()
        assert rng.random(3).tobytes() == ref_rng.random(3).tobytes()
        for length in range(1, 2 * RUN_BLOCKS + 2):
            # runs of `length` blocks with gaps between them, then the rest,
            # whose runs are read around the blocks read before
            draw = d.sorted_draw(gen(n), n)
            ks = [k for k in range(draw.blocks) if k // length % 2 == 0]
            for k, vals in draw.runs(ks):
                assert vals.tobytes() == ref[k * ORDER_BLOCK :][: len(vals)].tobytes(), (length, k)
            assert draw.blocks_read == len(ks)
            assert draw.values().tobytes() == ref.tobytes(), length
            assert draw.blocks_read == draw.blocks

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 5_000, 1_107_402])
    @pytest.mark.parametrize("gen", [_pcg, _philox], ids=["pcg64dxsm", "philox"])
    @pytest.mark.parametrize("d", [make_falpha(0.5), make_exponential(2.0)], ids=repr)
    def test_runs_read_the_bytes_of_single_blocks(self, d, gen, n):
        self._check(d, gen, n)

    @pytest.mark.parametrize("zeros, flat", [(1, 0), (ORDER_BLOCK, 1), (2 * ORDER_BLOCK + 5, 2)])
    @pytest.mark.parametrize("d", [make_falpha(0.5), make_exponential(2.0)], ids=repr)
    def test_an_all_zero_row_reads_as_alone(self, d, zeros, flat):
        # the first `flat` blocks' uniforms are all 0: their rows take the
        # fill branch, each at one value, beside rows that do not
        self._check(d, lambda n: _ZeroLeadingExponentials(zeros), 5_000)
        draw = d.sorted_draw(_ZeroLeadingExponentials(zeros), 5_000)
        assert [np.unique(draw.block(k)).size == 1 for k in range(flat + 1)] == [True] * flat + [False]


@pytest.mark.parametrize(
    "d",
    [make_falpha(0.5), make_falpha(0.1, 1e-6), make_falpha(0.9, 1e6), make_exponential(3.0)],
    ids=repr,
)
def test_quantile_interval_is_monotone_within_its_contract(d):
    # the contract the coverage check's block certificates rest on: each end
    # is nonincreasing in v up to 2**-50
    scale = getattr(d, "scale", 1.0)
    v = np.sort(np.random.default_rng(8).exponential(3.0 * scale, 200_000))
    v = np.concatenate((v, np.nextafter(v, np.inf), [-1.0, 0.0]))
    v.sort()
    for end in d.quantile_interval(v):
        assert np.all(np.diff(end) <= 2.0**-50)


def test_discrete_tables_are_exactly_monotone():
    # a cumulative mass that rounds above 1 before its last atom is clipped,
    # so both ends of quantile_interval are exactly nonincreasing.  A last
    # atom of negligible mass lets the running sum reach 1 + ulps before it
    # in several of these pmfs.
    for k, seed in itertools.product((2, 50, 500), range(10)):
        pmf = np.random.default_rng(seed).dirichlet(np.full(k, 0.05))
        pmf[-1] = 1e-300
        d = DiscreteTabular(np.arange(1, k + 1), pmf / pmf.sum())
        assert np.all(np.diff(d._cdf) >= 0.0) and d._cdf[-1] == 1.0
        v = np.linspace(0.0, k + 1.0, 4 * k + 7)
        for end in d.quantile_interval(v):
            assert np.all(np.diff(end) <= 0.0)


def test_json_spec_round_trip():
    for d in [make_falpha(0.4, 2.0), make_exponential(3.0), make_discrete([1, 2], [0.25, 0.75])]:
        clone = dist_from_spec(json.dumps(d.to_spec()))
        assert type(clone) is type(d)
        assert clone.to_spec() == d.to_spec()
    with pytest.raises(ValueError):
        dist_from_spec({"kind": "cauchy"})


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.05, 0.95),
    scale=st.floats(0.1, 10.0),
    q=st.floats(1e-6, 1.0),
)
def test_quantile_inversion_round_trip(alpha, scale, q):
    d = FAlpha(alpha, scale)
    v = d.value_of_quantile(q)
    assert d.quantile_of_value(v) == pytest.approx(q, rel=1e-8, abs=1e-10)
    assert d.value_of_quantile(d.quantile_of_value(v)) == pytest.approx(v, rel=1e-8, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_discrete_hull_dominates_raw_revenue_curve(seed):
    rng = np.random.Generator(np.random.Philox(key=[seed, 3]))
    a = float(rng.uniform(0.05, 0.95))
    d = make_random_alpha_sr_discrete(rng, a)
    qs = np.linspace(1e-6, 1.0, 50)
    raw = qs * np.asarray(d.value_of_quantile(qs))
    hull = np.asarray(revenue_curve_hull(d, qs))
    assert np.all(hull >= raw - 1e-12)
    # hull slopes nonincreasing (concavity) for regular pmfs
    verts_q = np.concatenate(([0.0], d._sale[::-1]))
    verts_cr = np.concatenate(([0.0], (d._sale * d.support)[::-1]))
    slopes = np.diff(verts_cr) / np.diff(verts_q)
    assert np.all(np.diff(slopes) <= 1e-9)
