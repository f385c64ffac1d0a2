"""Tests for the sample-based empirical model.

Hand-worked fixtures: the three-sample build {5,3,1} at xi=0.4 (hull and
slopes computed on paper), the single-sample curve, and the sample-count
gate at (gamma, xi, delta) = (0.2, 0.1, 0.1) whose theorem-grade bound is
ceil(1800 * 5.49306...) = 9888.  Conditional-accuracy checks condition on
the quantile-bracketing event and use the closed-form revenue curve of the
alpha-power family as ground truth.
"""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srauctions import empirical, make_falpha, truncate_at
from srauctions.dists import ORDER_BLOCK, DiscreteTabular, Exponential, FAlpha, SortedDraw
from srauctions.empirical import (
    _FINE_BLOCK,
    _GRID_CHUNK,
    _PRUNE_BLOCK,
    _SCORE_CHUNK,
    _bracketed,
    _far_points,
    _hull_prune,
    _pop_slack,
    _run_ends,
    EmpiricalModel,
    InsufficientSamplesError,
    SampleCountWarning,
    SampleParams,
    build_empirical,
    concave_envelope,
    lemma_grade_threshold,
    reserve_and_coverage,
    theorem_grade_threshold,
    validate_params,
)
from srauctions.harness import criterion_instance


def quiet_build(samples, p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleCountWarning)
        return build_empirical(samples, p)


def tabular_prior():
    """Power-tail prior truncated to {1, 2, 3, 4}: samples are mostly ties."""
    return truncate_at(make_falpha(0.5, 1.0), 4.0, grid=[1.0, 2.0, 3.0, 4.0])


def random_tabular(rng, max_atoms, scale=1.0):
    """2 to max_atoms atoms on a 0.01 grid in (0, 10), times scale; Dirichlet pmf."""
    k = int(rng.integers(2, max_atoms + 1))
    support = np.sort(rng.choice(np.arange(1, 1000), size=k, replace=False)) / 100 * scale
    return DiscreteTabular(support, rng.dirichlet(np.ones(k)))


def hull_reserve(em):
    """The reserve read off the hull of every revenue point, apart from the
    build: the hull's first argmax, then R/q, or the point mass value at
    q = 0."""
    hull = concave_envelope(em.revenue_points)
    i = int(np.argmax(hull[:, 1]))
    q, r = hull[i]
    return em.point_mass_value if q <= 0 else float(r / q)


def leftmost_quantile_reference(em, u):
    """Brute force: the grid point of u's first occurrence, clipped at xi_bar."""
    kept = em.retained_values()
    return max(em.retained_quantiles()[np.flatnonzero(kept == u)[0]], em.xi_bar)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


class TestValidateParams:
    def test_required_m_frozen(self):
        rep = validate_params(SampleParams(0.2, 0.1, 0.1))
        assert rep.required_m == 9888

    def test_required_m_is_theorem_threshold_ceiling(self):
        p = SampleParams(0.2, 0.1, 0.1)
        assert rep_ceil(p) == 9888

    def test_gamma_too_large(self):
        rep = validate_params(SampleParams(0.3, 0.1, 0.1, m=10**9))
        assert not rep.lemma_grade and not rep.theorem_grade
        assert any("1.69" in msg for msg in rep.messages)

    def test_side_condition_product(self):
        rep = validate_params(SampleParams(0.2, 0.1, 0.1, m=100))
        assert not rep.lemma_grade and not rep.theorem_grade
        assert any("below 4" in msg for msg in rep.messages)

    def test_m_at_threshold_passes_both_gates(self):
        rep = validate_params(SampleParams(0.2, 0.1, 0.1, m=9888))
        assert rep.lemma_grade and rep.theorem_grade

    def test_lemma_grade_below_theorem_grade(self):
        # lemma constant 3/(g^2 (1+g) xi) is smaller than 6(1+g)/(g^2 xi)
        p = SampleParams(0.2, 0.1, 0.1)
        lemma_m = math.ceil(lemma_grade_threshold(p))
        assert lemma_m < 9888
        rep = validate_params(SampleParams(0.2, 0.1, 0.1, m=lemma_m))
        assert rep.lemma_grade and not rep.theorem_grade

    def test_missing_m_reports_false_gates(self):
        rep = validate_params(SampleParams(0.2, 0.1, 0.1))
        assert not rep.lemma_grade and not rep.theorem_grade
        assert any("no sample count" in msg for msg in rep.messages)

    def test_param_domain(self):
        with pytest.raises(ValueError):
            SampleParams(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            SampleParams(0.2, 1.0, 0.1)
        with pytest.raises(ValueError):
            SampleParams(0.2, 0.1, 0.1, m=0)


def rep_ceil(p):
    val = theorem_grade_threshold(p)
    return max(math.ceil(val), math.ceil(4.0 / (p.gamma * p.xi)))


# ---------------------------------------------------------------------------
# construction: quantiles, revenue points, discards
# ---------------------------------------------------------------------------


class TestBuild:
    def test_three_sample_quantile_points(self):
        em = quiet_build([5, 3, 1], SampleParams(0.2, 0.4, 0.1))
        assert em.quantile_points.tolist() == [
            [pytest.approx(1 / 6), 5.0],
            [0.5, 3.0],
            [pytest.approx(5 / 6), 1.0],
        ]

    def test_three_sample_revenue_point(self):
        em = quiet_build([5, 3, 1], SampleParams(0.2, 0.4, 0.1))
        rows = {tuple(r) for r in np.round(em.revenue_points, 12)}
        assert (0.5, 1.5) in rows
        assert (0.0, 0.0) in rows and (1.0, 0.0) in rows

    def test_input_order_irrelevant(self):
        a = quiet_build([1, 5, 3], SampleParams(0.2, 0.4, 0.1))
        b = quiet_build([5, 3, 1], SampleParams(0.2, 0.4, 0.1))
        np.testing.assert_array_equal(a.revenue_points, b.revenue_points)

    @pytest.mark.parametrize("prior", ["falpha", "tabular"])
    def test_shuffled_copy_builds_identical_model(self, prior):
        d = make_falpha(0.5, 1.0) if prior == "falpha" else tabular_prior()
        rng = np.random.Generator(np.random.Philox(key=[15, 0]))
        samples = d.sample(rng, 5000)
        p = SampleParams(0.2, 0.05, 0.1)
        a = quiet_build(samples, p)
        b = quiet_build(rng.permutation(samples), p)
        for name in ("sorted_samples", "quantile_points", "revenue_points", "envelope"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert (a.xi_bar, a.point_mass_value) == (b.xi_bar, b.point_mass_value)

    def test_single_sample_curve(self):
        em = quiet_build([7], SampleParams(0.2, 0.1, 0.1))
        assert em.revenue_at(0.5) == pytest.approx(3.5)
        assert em.empirical_reserve() == pytest.approx(7.0)

    def test_discard_count(self):
        # m=30, xi=0.2 -> kept_from = 6, so 5 samples dropped, 25 retained
        em = quiet_build(np.arange(30, 0, -1.0), SampleParams(0.2, 0.2, 0.1))
        assert em.kept_from == 6
        assert len(em.retained_values()) == 25
        assert em.retained_values()[0] == 25.0
        assert em.retained_quantiles()[0] == pytest.approx(11 / 60)

    def test_no_discard_when_floor_small(self):
        em = quiet_build([5, 3, 1], SampleParams(0.2, 0.3, 0.1))  # floor(0.9)=0
        assert em.kept_from == 1
        assert len(em.retained_values()) == 3

    def test_empty_samples_error(self):
        with pytest.raises(InsufficientSamplesError):
            build_empirical([], SampleParams(0.2, 0.1, 0.1))

    def test_warns_below_lemma_grade(self):
        with pytest.warns(SampleCountWarning):
            build_empirical([5, 3, 1], SampleParams(0.2, 0.4, 0.1))

    def test_no_warning_at_grade(self):
        rng = np.random.Generator(np.random.Philox(key=[5, 0]))
        samples = rng.random(9888) * 4
        with warnings.catch_warnings():
            warnings.simplefilter("error", SampleCountWarning)
            build_empirical(samples, SampleParams(0.2, 0.1, 0.1))

    def test_determinism(self):
        rng = np.random.Generator(np.random.Philox(key=[6, 0]))
        samples = rng.random(500)
        a = quiet_build(samples, SampleParams(0.2, 0.1, 0.1))
        b = quiet_build(samples, SampleParams(0.2, 0.1, 0.1))
        np.testing.assert_array_equal(a.envelope, b.envelope)
        assert a.xi_bar == b.xi_bar
        assert a.empirical_reserve() == b.empirical_reserve()


def assembly_reference(samples, p):
    """The build's fields from the plain formulas: an integer grid j, t_j =
    (2j - 1) / (2m), stacked columns, and np.interp over the whole curve."""
    m = len(samples)
    desc = np.sort(np.asarray(samples, dtype=float))[::-1]
    kept_from = max(math.floor(p.xi * m), 1)
    j = np.arange(kept_from, m + 1)
    t = (2 * j - 1) / (2 * m)
    kept = desc[kept_from - 1 :]
    quantile_points = np.column_stack((t, kept))
    revenue_points = np.vstack(([0.0, 0.0], np.column_stack((t, t * kept)), [1.0, 0.0]))
    xi_bar = max((math.floor(2 * p.xi * m) - 1) / (2 * m), float(t[0]))
    raw = float(np.interp(xi_bar, revenue_points[:, 0], revenue_points[:, 1]))
    return kept_from, quantile_points, revenue_points, xi_bar, raw / xi_bar


class TestAssembly:
    @pytest.mark.parametrize("prior", ["falpha", "tabular"])
    def test_fields_equal_the_plain_formulas(self, prior):
        rng = np.random.Generator(np.random.Philox(key=[21, 0]))
        seen = set()
        for m in (1, 2, 3, 7, 30, 101, 9888, 200_000):
            for xi in (0.01, 0.05, 0.1, 0.2, 0.225, 0.4):
                d = make_falpha(0.5, 1.0) if prior == "falpha" else random_tabular(rng, 30)
                samples = d.sample(rng, m)
                p = SampleParams(0.2, xi, 0.1)
                em = quiet_build(samples, p)
                kept_from, qp, rp, xi_bar, pmv = assembly_reference(samples, p)
                assert em.kept_from == kept_from
                assert em.quantile_points.shape == qp.shape and em.quantile_points.tobytes() == qp.tobytes()
                assert em.revenue_points.shape == rp.shape and em.revenue_points.tobytes() == rp.tobytes()
                assert em.xi_bar == xi_bar and em.point_mass_value == pmv
                seen.add(("kept_from=1", kept_from == 1))
                seen.add(("on grid", xi_bar in qp[:, 0]))
        # both sides of each boundary case were built
        assert len(seen) == 4

    @pytest.mark.parametrize("prior", ["falpha", "tabular"])
    def test_distinct_retained_are_first_occurrences(self, prior):
        # a tie-free build returns a view of the sort; grid points are read
        # by index, byte-equal to the derived quantile column
        rng = np.random.Generator(np.random.Philox(key=[22, 0]))
        d = make_falpha(0.5, 1.0) if prior == "falpha" else tabular_prior()
        em = quiet_build(d.sample(rng, 9888), SampleParams(0.2, 0.1, 0.1))
        first, _ = _run_ends(em.retained_values())
        values, grid = em._distinct_retained()
        t = grid(np.arange(len(values)))
        assert "quantile_points" not in em.__dict__ and "revenue_points" not in em.__dict__
        assert values.tolist() == em.retained_values()[first].tolist()
        assert t.tobytes() == em.retained_quantiles()[first].tobytes()
        if prior == "falpha":
            assert first.all() and np.shares_memory(values, em.sorted_samples)
        else:
            assert len(values) < 5


def retained_count_m(n, xi):
    """The least m whose build at xi retains exactly n samples."""
    m = n
    while m - max(math.floor(xi * m), 1) + 1 < n:
        m += 1
    assert m - max(math.floor(xi * m), 1) + 1 == n
    return m


class TestLeanModel:
    """A model stores the sort and the reserve; the hull and the quantile
    and revenue columns are derived on first access, and neither the
    build, the reserve nor the coverage check asks for them."""

    @pytest.mark.parametrize("prior", ["falpha", "tabular"])
    def test_build_reserve_and_coverage_leave_no_derived_arrays(self, prior):
        d = make_falpha(0.5, 1.0) if prior == "falpha" else tabular_prior()
        rng = np.random.Generator(np.random.Philox(key=[24, 0]))
        em = quiet_build(d.sample(rng, 5 * _PRUNE_BLOCK), SampleParams(0.2, 0.05, 0.1))
        derived = {"envelope", "quantile_points", "revenue_points"}
        em.empirical_reserve()
        assert not derived & set(em.__dict__)
        em.coverage_event_holds(d)
        assert not derived & set(em.__dict__)
        # first access computes and caches; the attributes stay read-only
        rp = em.revenue_points
        assert em.revenue_points is rp and em.quantile_points is em.quantile_points
        assert em.value_at_quantile(0.5) == float(em.revenue_at(0.5)) / 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            em.revenue_points = rp

    @pytest.mark.parametrize("prior", ["falpha", "tabular"])
    def test_the_envelope_is_hulled_once_on_first_read(self, prior, monkeypatch):
        d = make_falpha(0.5, 1.0) if prior == "falpha" else tabular_prior()
        rng = np.random.Generator(np.random.Philox(key=[37, 0]))
        em = quiet_build(d.sample(rng, 5 * _PRUNE_BLOCK), SampleParams(0.2, 0.05, 0.1))
        assert em.tie_free == (prior == "falpha") and "envelope" not in em.__dict__
        calls = []
        hull = empirical.concave_envelope
        monkeypatch.setattr(empirical, "concave_envelope", lambda *a, **k: calls.append(1) or hull(*a, **k))
        envelope = em.envelope
        assert em.envelope is envelope and len(calls) == 1
        assert em.empirical_virtual(0.5) == em.empirical_virtual(0.5) and len(calls) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            em.envelope = envelope

    @pytest.mark.parametrize("m", [3000, 20_000])
    def test_coverage_reuses_the_build_tie_check(self, m, monkeypatch):
        # a tie-free build's coverage check reads the sort as it is, without
        # scanning the values for ties a second time
        d = make_falpha(0.5, 1.0)
        em = quiet_build(d.sample(np.random.Generator(np.random.Philox(key=[31, m])), m), SampleParams(0.2, 0.05, 0.1))

        def no_scan(vals):
            raise AssertionError("the retained values were scanned for ties again")

        monkeypatch.setattr(empirical, "_run_ends", no_scan)
        assert em.coverage_event_holds(d, gamma=1.0)

    def test_model_keeps_one_copy_of_its_sample(self):
        m = 2**18
        d = make_falpha(0.5, 1.0)
        samples = d.sample(np.random.Generator(np.random.Philox(key=[25, 0])), m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            em = quiet_build(samples, SampleParams(0.05, 0.05, 0.05))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert em.m == m and len(em.envelope) > 2
        assert kept <= 8 * m + 64 * 1024, kept

    def test_a_tie_free_build_writes_no_revenue_points(self):
        # the anchored revenue points alone would be 16 bytes per sample; a
        # tie-free build holds its sort (8) and temporaries for the blocks
        # that do not drop whole, plus about 1 MiB of chunk buffers
        m = 2**18
        samples = make_falpha(0.5, 1.0).sample(np.random.Generator(np.random.Philox(key=[32, 0])), m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            em = quiet_build(samples, SampleParams(0.05, 0.05, 0.05))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert em.tie_free and "revenue_points" not in em.__dict__
        assert peak <= 16 * m + 2 * 1024 * 1024, peak

    @pytest.mark.parametrize("n_distinct", [_PRUNE_BLOCK - 1, _PRUNE_BLOCK, _PRUNE_BLOCK + 1, 4 * _PRUNE_BLOCK + 1])
    def test_index_reads_match_the_per_value_check_on_full_arrays(self, n_distinct):
        # FAlpha builds with and without discards, and tie-heavy builds of a
        # DiscreteTabular whose every atom is drawn; each checked at gammas
        # from failing to holding, against `_bracketed` over the distinct
        # values and the materialized quantile column
        rng = np.random.Generator(np.random.Philox(key=[26, n_distinct]))
        falpha = make_falpha(0.5, 1.0)
        builds = []
        for xi in (1e-5, 0.05):
            m = retained_count_m(n_distinct, xi)
            builds += [(falpha, quiet_build(falpha.sample(rng, m), SampleParams(0.2, xi, 0.1))) for _ in range(3)]
        for _ in range(3):
            support = np.sort(rng.choice(np.arange(1, 100_000), size=n_distinct, replace=False)) / 100
            tab = DiscreteTabular(support, rng.dirichlet(np.ones(n_distinct)))
            samples = np.concatenate((support, tab.sample(rng, 4 * n_distinct)))
            builds.append((tab, quiet_build(rng.permutation(samples), SampleParams(0.2, 1e-5, 0.1))))
        outcomes = set()
        for d, em in builds:
            for g in (0.01, 0.05, 0.2, 1.0):
                verdict = em.coverage_event_holds(d, gamma=g)
                assert "quantile_points" not in em.__dict__
                first, _ = _run_ends(em.retained_values())
                assert first.sum() == n_distinct
                values, t = em.retained_values()[first], em.quantile_points[first, 0]
                assert verdict == _bracketed(d, values, t, em.xi_bar, (1 + g) ** 2), g
                read_values, grid = em._distinct_retained()
                assert read_values.tobytes() == values.tobytes()
                assert grid(np.arange(n_distinct)).tobytes() == t.tobytes()
                em.__dict__.pop("quantile_points")
                em.__dict__.pop("revenue_points")
                outcomes.add(verdict)
        assert outcomes == {True, False}


class TestStoredReserve:
    """The build stores the reserve, R/t at the revenue grid's first
    argmax; it equals the reserve read off the full-point hull
    (`hull_reserve`).  The EDGE_COUNTS FAlpha shapes are checked in
    `TestGridHull` and `TestPresortedBuild`."""

    def test_criterion_draws(self):
        rng = np.random.Generator(np.random.Philox(key=[38, 0]))
        p = SampleParams(0.2, 0.1, 0.1, m=9888)
        for _ in range(3):
            for _i, _j, d in criterion_instance().pairs():
                em = quiet_build(d.sample(rng, p.m), p)
                assert not em.tie_free and em.empirical_reserve() == hull_reserve(em)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_random_tabular_priors(self, scale):
        rng = np.random.Generator(np.random.Philox(key=[39, int(math.log10(scale)) + 6]))
        for _ in range(40):
            d = random_tabular(rng, 200, scale)
            em = quiet_build(
                d.sample(rng, int(rng.integers(50, 4000))),
                SampleParams(0.2, float(rng.choice([0.01, 0.05, 0.1])), 0.1),
            )
            assert em.empirical_reserve() == hull_reserve(em)

    @pytest.mark.parametrize("kind", ["negative", "zero", "convex-negative", "negative-ties"])
    @pytest.mark.parametrize("n", [1, 2, _PRUNE_BLOCK - 1, 5 * _PRUNE_BLOCK])
    def test_no_positive_revenue_gives_the_point_mass_value(self, kind, n):
        # every R = t * v is at most 0, so the anchor (0, 0) is the first
        # argmax of the grid and of the hull
        rng = np.random.Generator(np.random.Philox(key=[40, n]))
        m = retained_count_m(n, 0.05)
        draws = {
            "negative": lambda: -make_falpha(0.5, 1.0).sample(rng, m),
            "zero": lambda: np.zeros(m),
            "convex-negative": lambda: rng.random(m) - 1.0,
            "negative-ties": lambda: -rng.integers(1, 4, m).astype(float),
        }[kind]
        em = quiet_build(draws(), SampleParams(0.2, 0.05, 0.1))
        assert em.empirical_reserve() == em.point_mass_value == hull_reserve(em)
        assert em.envelope[np.argmax(em.envelope[:, 1])].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", [4 * _FINE_BLOCK - 1, 8 * _PRUNE_BLOCK - 1])
    def test_convex_grids(self, n):
        # U**2 puts a convex revenue curve under the last third of the
        # quantiles, and U - 0.75 most of it below zero; a single positive
        # value on a negative grid puts the argmax at the first retained row
        rng = np.random.Generator(np.random.Philox(key=[41, n]))
        m = retained_count_m(n, 0.05)
        p = SampleParams(0.2, 0.05, 0.1)
        tail = -rng.random(m)
        tail[0] = 2.0
        for samples in (rng.random(m) ** 2, rng.random(m) - 0.75, tail):
            em = quiet_build(samples, p)
            assert em.empirical_reserve() == hull_reserve(em)

    @pytest.mark.parametrize("scale", [2.0**-30, 1.0, 3.0, 2.0**30])
    def test_two_exactly_equal_maxima_pick_the_smaller_quantile(self, scale):
        # m = 1,024 puts every t_j = (2j - 1)/2048 on a dyadic float, so
        # v_1 = 5c and v_3 = c give R_1 = R_3 = 5c/2048 exactly; v_2 = 1.5c
        # and v_j = 4c/(2j - 1) for j >= 4 stay below it
        m, c = 1024, scale
        j = np.arange(1, m + 1)
        v = 4 * c / (2 * j - 1)
        v[:3] = 5 * c, 1.5 * c, c
        em = quiet_build(np.random.default_rng(0).permutation(v), SampleParams(0.2, 1e-4, 0.1))
        rp = em.revenue_points
        assert em.kept_from == 1 and rp[1, 1] == rp[3, 1] == rp[:, 1].max()
        assert em.empirical_reserve() == 5 * c == hull_reserve(em)


class TestXiBar:
    def test_equals_first_retained_quantile_on_even_fraction(self):
        # m=30, xi=0.2: floor(2*xi*m)=12 -> (12-1)/60 = t_6
        em = quiet_build(np.arange(30, 0, -1.0), SampleParams(0.2, 0.2, 0.1))
        assert em.xi_bar == pytest.approx(11 / 60)
        assert em.xi_bar == pytest.approx(em.retained_quantiles()[0])

    def test_half_step_above_on_odd_fraction(self):
        # m=30, xi=0.225: kept_from=6, floor(13.5)=13 -> 12/60 = t_6 + 1/60
        em = quiet_build(np.arange(30, 0, -1.0), SampleParams(0.2, 0.225, 0.1))
        assert em.kept_from == 6
        assert em.xi_bar == pytest.approx(12 / 60)

    def test_lower_bound_invariant(self):
        for m, xi in [(3, 0.4), (30, 0.2), (7, 0.05), (1, 0.9), (100, 0.123)]:
            em = quiet_build(np.arange(m, 0, -1.0), SampleParams(0.2, xi, 0.1))
            assert em.xi_bar >= xi - 1.0 / m - 1e-12

    def test_degenerate_small_xi_clamps_to_first_quantile(self):
        # xi*m < 1/2 makes the raw formula nonpositive; clamp to t_1
        em = quiet_build([7], SampleParams(0.2, 0.1, 0.1))
        assert em.xi_bar == pytest.approx(0.5)
        assert em.point_mass_value == pytest.approx(7.0)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


class TestEnvelope:
    def test_three_sample_hull_vertices_and_slopes(self):
        em = quiet_build([5, 3, 1], SampleParams(0.2, 0.4, 0.1))
        expected = np.array(
            [[0, 0], [1 / 6, 5 / 6], [1 / 2, 3 / 2], [5 / 6, 5 / 6], [1, 0]]
        )
        np.testing.assert_allclose(em.envelope, expected, atol=1e-12)
        slopes = np.diff(em.envelope[:, 1]) / np.diff(em.envelope[:, 0])
        np.testing.assert_allclose(slopes, [5, 2, -2, -5], atol=1e-12)

    def test_single_point_triangle(self):
        hull = concave_envelope([(0, 0), (0.5, 2.2), (1, 0)])
        np.testing.assert_allclose(hull, [[0, 0], [0.5, 2.2], [1, 0]])

    def test_collinear_points_absorbed(self):
        hull = concave_envelope([(0, 0), (0.25, 1), (0.5, 2), (0.75, 1), (1, 0)])
        assert len(hull) == 3
        np.testing.assert_allclose(hull, [[0, 0], [0.5, 2], [1, 0]])

    def test_equal_samples_collapse_to_triangle(self):
        em = quiet_build([2.0] * 4, SampleParams(0.2, 0.1, 0.1))
        assert len(em.envelope) == 3  # origin, last sample point, right anchor

    def test_dominates_revenue_curve(self):
        rng = np.random.Generator(np.random.Philox(key=[7, 0]))
        em = quiet_build(rng.pareto(2.5, 400), SampleParams(0.2, 0.1, 0.1))
        grid = np.linspace(0, 1, 1001)
        assert np.all(em.envelope_at(grid) >= em.revenue_at(grid) - 1e-12)

    def test_slopes_nonincreasing(self):
        rng = np.random.Generator(np.random.Philox(key=[8, 0]))
        em = quiet_build(rng.exponential(1.0, 350), SampleParams(0.2, 0.05, 0.1))
        slopes = np.diff(em.envelope[:, 1]) / np.diff(em.envelope[:, 0])
        assert np.all(np.diff(slopes) < 0)

    def test_vertices_are_input_points(self):
        rng = np.random.Generator(np.random.Philox(key=[9, 0]))
        em = quiet_build(rng.pareto(3.0, 200), SampleParams(0.2, 0.1, 0.1))
        rows = {tuple(r) for r in em.revenue_points}
        assert all(tuple(v) in rows for v in em.envelope)

    def test_respects_anchors(self):
        rng = np.random.Generator(np.random.Philox(key=[10, 0]))
        em = quiet_build(rng.random(50) * 9, SampleParams(0.2, 0.1, 0.1))
        assert tuple(em.envelope[0]) == (0.0, 0.0)
        assert tuple(em.envelope[-1]) == (1.0, 0.0)

    @pytest.mark.parametrize("prior", ["falpha", "tabular"])
    def test_shuffled_points_give_the_presorted_hull(self, prior):
        d = make_falpha(0.5, 1.0) if prior == "falpha" else tabular_prior()
        rng = np.random.Generator(np.random.Philox(key=[16, 0]))
        pts = quiet_build(d.sample(rng, 20000), SampleParams(0.2, 0.01, 0.1)).revenue_points
        expected = concave_envelope(pts)
        assert len(expected) > 2
        shuffled = concave_envelope(rng.permutation(pts))
        assert shuffled.tobytes() == expected.tobytes()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            concave_envelope([(0, 0, 1), (1, 2, 3)])
        with pytest.raises(ValueError):
            concave_envelope(np.empty((0, 2)))

    @pytest.mark.parametrize("prior", ["criterion", "tabular", "falpha"])
    def test_run_end_hull_equals_full_point_hull(self, prior):
        # the build hulls only the ends of tie runs; at unit scale that is
        # the full-point hull byte for byte
        rng = np.random.Generator(np.random.Philox(key=[19, 0]))
        if prior == "criterion":
            p = SampleParams(0.2, 0.1, 0.1, m=9888)
            builds = [
                quiet_build(d.sample(rng, p.m), p)
                for _ in range(4)
                for _i, _j, d in criterion_instance().pairs()
            ]
        elif prior == "tabular":
            builds = [
                quiet_build(
                    random_tabular(rng, 200).sample(rng, int(rng.integers(50, 4000))),
                    SampleParams(0.2, float(rng.choice([0.01, 0.05, 0.1])), 0.1),
                )
                for _ in range(60)
            ]
        else:
            d = make_falpha(0.5, 1.0)
            builds = [quiet_build(d.sample(rng, 20000), SampleParams(0.2, 0.01, 0.1)) for _ in range(4)]
        for em in builds:
            full = reference_hull if em.tie_free else concave_envelope
            assert em.envelope.tobytes() == full(em.revenue_points).tobytes()
            assert em.empirical_reserve() == hull_reserve(em)

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_no_hull_vertex_inside_a_tie_run(self, scale):
        # rounding in t * v can lift interior points of a tie run off the
        # ray R = v * q; the build hulls only the ends of each run
        rng = np.random.Generator(np.random.Philox(key=[20, 0]))
        for _ in range(100):
            d = random_tabular(rng, 20, scale)
            em = quiet_build(d.sample(rng, 2000), SampleParams(0.2, 0.05, 0.1))
            t, kept = em.retained_quantiles(), em.retained_values()
            inside = np.zeros(len(kept), dtype=bool)
            inside[1:-1] = (kept[1:-1] == kept[:-2]) & (kept[1:-1] == kept[2:])
            rows = np.searchsorted(t, em.envelope[1:-1, 0])
            assert np.array_equal(t[rows], em.envelope[1:-1, 0])
            assert not inside[rows].any()
            assert em.empirical_reserve() == hull_reserve(em)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_hull_property_random(self, values):
        em = quiet_build(values, SampleParams(0.2, 0.1, 0.1))
        grid = np.linspace(0, 1, 101)
        assert np.all(em.envelope_at(grid) >= em.revenue_at(grid) - 1e-9)
        slopes = np.diff(em.envelope[:, 1]) / np.diff(em.envelope[:, 0])
        assert np.all(np.diff(slopes) <= 1e-9)


# ---------------------------------------------------------------------------
# the hull prune
# ---------------------------------------------------------------------------


def reference_hull(points, slack=None):
    """Monotone-chain scan over every point, with `concave_envelope`'s pop
    test.  The default slack is 1e-15 times 2**(ex + ey), with ex and ey the
    binary exponents of max|x| and max|y| (0 for an all-zero column);
    ``slack=0`` gives the scan without slack."""
    pts = np.asarray(points, dtype=float)
    pts = pts[np.argsort(pts[:, 0], kind="stable")]
    if slack is None:
        ex, ey = (math.frexp(float(np.abs(col).max()))[1] for col in pts.T)
        slack = math.ldexp(1e-15, ex + ey)
    hx, hy = [], []
    for x, y in pts.tolist():
        if hx and x == hx[-1]:
            # of two points at one x only the higher can be a vertex
            if y <= hy[-1]:
                continue
            hx.pop()
            hy.pop()
        while len(hx) >= 2 and not (
            (hy[-1] - hy[-2]) * (x - hx[-1]) > (y - hy[-1]) * (hx[-1] - hx[-2]) + slack
        ):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return np.column_stack((hx, hy))


HULL_FAMILIES = ("noisy", "on_curve", "near_collinear", "duplicate_x")


def hull_family(kind, seed):
    """4-12 prune blocks of x-sorted points on x in [0, 1]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4 * _PRUNE_BLOCK + 1, 12 * _PRUNE_BLOCK))
    x = np.sort(rng.uniform(0.0, 1.0, n))
    if kind == "duplicate_x":
        x = np.round(x, 3)
    a = rng.uniform(0.2, 0.9)
    y = x**a * (1.0 - x)
    if kind in ("noisy", "duplicate_x"):
        y -= rng.exponential(rng.choice([1e-6, 1e-3, 1e-1]), n)
    elif kind == "near_collinear":
        # a concave polyline of five straight runs, each point moved by up
        # to three ulps
        knots = np.sort(rng.uniform(0.0, 1.0, 4))
        slopes = np.sort(rng.uniform(-3.0, 3.0, 5))[::-1]
        y = 1.0 + slopes[0] * x
        for k, bend in zip(knots, np.diff(slopes)):
            y += bend * np.maximum(x - k, 0.0)
        y += rng.integers(-3, 4, n) * np.spacing(y)
    return np.column_stack((x, y))


def pop_slack(pts):
    """`concave_envelope`'s pop slack for x-sorted points."""
    return _pop_slack(max(abs(pts[0, 0]), abs(pts[-1, 0])), float(np.abs(pts[:, 1]).max()))


def hull_prune(pts, slack):
    """The first prune level, `_PRUNE_BLOCK` points a block."""
    return _hull_prune(pts, _PRUNE_BLOCK, slack)


def per_point_prune(pts, slack):
    """`_hull_prune` with the per-point test on every point: each block's
    point farthest above its chord and the two end points are scanned into a
    small hull, whose vertices are lowered by 1e-12 times the largest |y|
    among each and its neighbours, and a point stays if it is at or above
    the lowered hull as `np.interp` evaluates it."""
    n = len(pts)
    nb = n // _PRUNE_BLOCK
    x, y = pts[:, 0], pts[:, 1]
    bx = x[: nb * _PRUNE_BLOCK].reshape(nb, _PRUNE_BLOCK)
    by = y[: nb * _PRUNE_BLOCK].reshape(nb, _PRUNE_BLOCK)
    score = by * (bx[:, -1:] - bx[:, :1]) - bx * (by[:, -1:] - by[:, :1])
    far = score.argmax(axis=1) + np.arange(0, nb * _PRUNE_BLOCK, _PRUNE_BLOCK)
    small = reference_hull(pts[np.concatenate(([0], far, [n - 1]))], slack)
    mag = np.pad(np.abs(small[:, 1]), 1)
    lowered = small[:, 1] - 1e-12 * np.maximum(np.maximum(mag[:-2], mag[1:-1]), mag[2:])
    return pts[y >= np.interp(x, small[:, 0], lowered)], small[:, 0], lowered


class TestHullPrune:
    """`concave_envelope` prunes inputs of more than four blocks before its
    scan.  The scan's pop slack is relative to the input's binary scale, so
    the result is the same at every value scale: byte identity with the
    unpruned scan and the prune's own guarantee, that it drops no vertex of
    the slack-free scan, are asserted at scales 1e-9 to 1e9, and scaling an
    axis by a power of two scales the hull exactly."""

    @pytest.mark.parametrize("kind", HULL_FAMILIES)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-9, 9),
        shuffle=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_equals_unpruned_scan(self, kind, seed, exponent, shuffle):
        pts = hull_family(kind, seed) * [1.0, 10.0**exponent]
        if shuffle:
            pts = np.random.default_rng(seed).permutation(pts)
        assert concave_envelope(pts).tobytes() == reference_hull(pts).tobytes()

    @pytest.mark.parametrize("kind", HULL_FAMILIES)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-9, 9))
    @settings(max_examples=25, deadline=None)
    def test_keeps_every_vertex_at_every_scale(self, kind, seed, exponent):
        pts = hull_family(kind, seed) * [1.0, 10.0**exponent]
        kept = hull_prune(pts, pop_slack(pts))
        if kind == "on_curve":
            assert len(kept) == len(pts)
        rows = {tuple(r) for r in kept.tolist()}
        assert all(tuple(v) in rows for v in reference_hull(pts, slack=0.0).tolist())

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_vertex_ulps_above_a_small_hull_chord_survives(self, scale):
        # the middle point of each block sits on the line y = c - x and every
        # other point 1e-3 below it, so the small hull runs along the line.
        # Point i lies three ulps above the exact chord of two block middles,
        # near where the line crosses zero: np.interp's rounding there scales
        # with the chord's ends, not with the point.
        n = 8 * _PRUNE_BLOCK
        x = np.arange(n) / n
        middles = np.arange(_PRUNE_BLOCK // 2, n, _PRUNE_BLOCK)
        i = middles[6] + 300
        c = x[i] + 1e-7
        y = (c - x - np.where(np.isin(np.arange(n), middles), 0.0, 1e-3)) * scale
        (xl, yl), (xr, yr) = [(Fraction(x[k]), Fraction(y[k])) for k in middles[6:8]]
        chord = yl + (yr - yl) * (Fraction(x[i]) - xl) / (xr - xl)
        y[i] = float(chord)
        for _ in range(3 if Fraction(y[i]) > chord else 4):
            y[i] = np.nextafter(y[i], np.inf)
        pts = np.column_stack((x, y))
        assert tuple(pts[i]) in {tuple(r) for r in hull_prune(pts, pop_slack(pts)).tolist()}
        assert concave_envelope(pts).tobytes() == reference_hull(pts).tobytes()

    @pytest.mark.parametrize("kind", HULL_FAMILIES)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-9, 9),
        jx=st.integers(-30, 30),
        ky=st.integers(-60, 60),
    )
    @settings(max_examples=25, deadline=None)
    def test_power_of_two_scaling_is_exact(self, kind, seed, exponent, jx, ky):
        pts = hull_family(kind, seed) * [1.0, 10.0**exponent]
        scale = np.array([2.0**jx, 2.0**ky])
        assert (
            concave_envelope(pts * scale).tobytes()
            == (concave_envelope(pts) * scale).tobytes()
        )

    @pytest.mark.parametrize("kind", HULL_FAMILIES)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-9, 9))
    @settings(max_examples=25, deadline=None)
    def test_block_drop_equals_per_point_prune(self, kind, seed, exponent):
        pts = hull_family(kind, seed) * [1.0, 10.0**exponent]
        slack = pop_slack(pts)
        assert hull_prune(pts, slack).tobytes() == per_point_prune(pts, slack)[0].tobytes()

    @pytest.mark.parametrize("seed", range(60))
    def test_block_at_a_zero_crossing_keeps_a_point_on_the_hull(self, seed):
        # every block's middle point sits on a line through zero and the
        # rest 1e-3 below it.  Block 5 is squeezed into a window 1e-9 wide
        # where the line crosses zero, and its middle point p is then put on
        # the lowered small hull as np.interp evaluates it, up to three ulps
        # above.  The line through p parallel to the block's chord then
        # meets the hull within rounding at the block's ends, where both are
        # near zero while the terms that make them (s_far/dx, x*dy/dx and the
        # hull's vertices) are not: a guard relative to the values rather
        # than to those terms lets rounding drop the block, p with it, on
        # about one seed in six.
        rng = np.random.default_rng(seed)
        n = 8 * _PRUNE_BLOCK
        x = np.sort(rng.uniform(0.0, 1.0, n))
        i = 5 * _PRUNE_BLOCK + _PRUNE_BLOCK // 2
        x[5 * _PRUNE_BLOCK : 6 * _PRUNE_BLOCK] = x[i] + np.sort(rng.uniform(-5e-10, 5e-10, _PRUNE_BLOCK))
        middles = np.arange(_PRUNE_BLOCK // 2, n, _PRUNE_BLOCK)
        below = np.where(np.isin(np.arange(n), middles), 0.0, 1e-3)
        zero = x[i] + rng.uniform(-3e-10, 3e-10)
        y = rng.uniform(0.3, 3.0) * (zero - x - below) * 10.0 ** rng.integers(-9, 10)
        pts = np.column_stack((x, y))
        slack = pop_slack(pts)
        _, hx, hy = per_point_prune(pts, slack)
        pts[i, 1] = np.interp(x[i], hx, hy)
        for _ in range(rng.integers(0, 4)):
            pts[i, 1] = np.nextafter(pts[i, 1], np.inf)
        kept, hx_after, _ = per_point_prune(pts, slack)
        assert hx_after.tobytes() == hx.tobytes()  # p is not a small-hull vertex
        assert tuple(pts[i]) in {tuple(r) for r in kept.tolist()}
        assert hull_prune(pts, slack).tobytes() == kept.tobytes()

    def test_prune_certifies_most_blocks_of_a_theorem_grade_build(self, monkeypatch):
        # a silent fallback to the per-point test would keep the output and
        # lose the speed: in an FAlpha build at m = 1,107,402, at least half
        # the first level's blocks must be dropped whole, and a quarter of
        # the second level's, which must leave the scan at most a quarter of
        # the first level's survivors
        p = SampleParams(0.05, 0.05, 0.05).with_required_m()
        assert p.m == 1_107_402 and validate_params(p).theorem_grade
        d = make_falpha(0.5, 1.0)
        samples = d.sample(np.random.Generator(np.random.Philox(key=[3, 0])), p.m)
        dropped, survivors = [], []
        blocks_below, hull_prune_level = empirical._blocks_below, empirical._hull_prune

        def spy_blocks(*args):
            out = blocks_below(*args)
            dropped.append(out.mean())
            return out

        def spy_level(*args):
            out = hull_prune_level(*args)
            survivors.append(len(out))
            return out

        monkeypatch.setattr(empirical, "_blocks_below", spy_blocks)
        monkeypatch.setattr(empirical, "_hull_prune", spy_level)
        em = build_empirical(samples, p)
        assert not dropped and not survivors
        em.envelope
        assert len(dropped) == 2 and dropped[0] >= 0.5 and dropped[1] >= 0.25
        assert 4 * survivors[1] <= survivors[0]

    @pytest.mark.parametrize("nb", [1, _SCORE_CHUNK - 1, _SCORE_CHUNK, 2 * _SCORE_CHUNK + 5, 5 * _SCORE_CHUNK + 37])
    def test_blocked_score_pass_equals_one_shot(self, nb):
        # rows of points on concave curves at scales 1e-9 to 1e9, some with
        # all-equal scores, scored a chunk at a time and in one pass
        rng = np.random.default_rng(nb)
        x = np.sort(rng.uniform(0.0, 1.0, (nb, _PRUNE_BLOCK)), axis=1)
        y = x ** rng.uniform(0.2, 0.9, (nb, 1)) * (1.0 - x) - rng.exponential(1e-3, x.shape)
        y *= 10.0 ** rng.integers(-9, 10, (nb, 1))
        y[::7] = 0.0
        score = y * (x[:, -1:] - x[:, :1]) - x * (y[:, -1:] - y[:, :1])
        best = score.argmax(axis=1)
        s_far = score[np.arange(nb), best]
        got_best, got_s_far = _far_points(x, y)
        assert got_best.tobytes() == best.astype(np.intp).tobytes()
        assert got_s_far.tobytes() == s_far.tobytes()

    def test_the_highest_of_equal_abscissae_stays(self):
        # four blocks, so the scan takes them whole.  Seven points share
        # x = 0.977, the highest first; the sixth lies 6e-13 below it, a gap
        # that times the step from the chain's previous point is within the
        # pop slack, so a pop test run before the equal-x check pops the
        # highest point and keeps the sixth
        pts = hull_family("duplicate_x", 2134095)[2832 : 2832 + 4 * _PRUNE_BLOCK]
        at = pts[pts[:, 0] == 0.977, 1]
        assert len(at) == 7 and at[0] == at.max()
        hull = concave_envelope(pts)
        assert hull[hull[:, 0] == 0.977, 1].tolist() == [at[0]]
        assert hull.tobytes() == reference_hull(pts).tobytes()

    def test_all_zero_y(self):
        # max|y| = 0 has binary exponent 0: the slack stays finite and the
        # flat line keeps only its two ends
        x = np.arange(5 * _PRUNE_BLOCK) / (5 * _PRUNE_BLOCK)
        pts = np.column_stack((x, np.zeros_like(x)))
        hull = concave_envelope(pts)
        assert hull.tolist() == [[0.0, 0.0], [x[-1], 0.0]]
        assert hull.tobytes() == reference_hull(pts).tobytes()


#: Retained counts n (n + 2 anchored rows) at the edges of the block
#: layout: grids of less than one block (all rows tail), at and one row over
#: the size above which the second prune level runs, four blocks exactly and
#: one row over, a retained count that is a multiple of a block, tails of 0,
#: 1 and 1,023 rows, and a grid of several `_scan_grid` chunks ending one
#: row into a chunk.
EDGE_COUNTS = [
    1,
    2,
    4 * _FINE_BLOCK - 2,
    4 * _FINE_BLOCK - 1,
    _PRUNE_BLOCK - 2,
    _PRUNE_BLOCK - 1,
    4 * _PRUNE_BLOCK - 2,
    4 * _PRUNE_BLOCK - 1,
    4 * _PRUNE_BLOCK + 1,
    8 * _PRUNE_BLOCK,
    8 * _PRUNE_BLOCK - 2,
    8 * _PRUNE_BLOCK - 1,
    8 * _PRUNE_BLOCK + _PRUNE_BLOCK - 3,
    3 * _GRID_CHUNK * _PRUNE_BLOCK - 1,
]


class TestGridHull:
    """A tie-free build, whatever its size, hulls its revenue points, in two
    prune levels when there are more than four blocks of them; a build with
    ties hulls the ends of its tie runs.  Either way the envelope is the
    unpruned scan of every revenue point (`reference_hull`), byte for byte,
    and the model is the same."""

    @pytest.mark.parametrize("n", EDGE_COUNTS)
    @pytest.mark.parametrize("xi", [1e-5, 0.05])
    def test_edge_shapes_match_the_full_point_hull(self, n, xi):
        rng = np.random.Generator(np.random.Philox(key=[27, n]))
        m = retained_count_m(n, xi)
        builds = [quiet_build(make_falpha(0.5, 1.0).sample(rng, m), SampleParams(0.2, xi, 0.1)) for _ in range(3)]
        for em in builds:
            assert len(em.retained_values()) == n
            assert em.envelope.tobytes() == reference_hull(em.revenue_points).tobytes()
            assert em.empirical_reserve() == hull_reserve(em)

    @pytest.mark.parametrize("n", [n for n in EDGE_COUNTS if n + 2 <= 4 * _PRUNE_BLOCK])
    @pytest.mark.parametrize("kind", ["uniform-squared", "negative"])
    def test_small_convex_and_negative_builds_match_the_full_point_hull(self, n, kind):
        # `concave_envelope` scans the revenue points of a build of at most
        # four blocks whole, without a prune: on a convex tail, and on
        # values whose R = t * v falls below the anchors' line, where the
        # prune drops rows
        rng = np.random.Generator(np.random.Philox(key=[36, n]))
        m = retained_count_m(n, 0.05)
        draws = {"uniform-squared": lambda: rng.random(m) ** 2, "negative": lambda: rng.random(m) - 0.75}[kind]
        builds = [quiet_build(draws(), SampleParams(0.2, 0.05, 0.1)) for _ in range(3)]
        for em in builds:
            assert em.tie_free and len(em.retained_values()) == n
            assert em.envelope.tobytes() == reference_hull(em.revenue_points).tobytes()
            assert em.empirical_reserve() == hull_reserve(em)

    def test_convex_tail_whose_far_row_is_the_end_anchor(self):
        # on samples U**2 the revenue curve q (1 - q)**2 is convex for
        # q > 2/3, so the last block's far row is one of its ends; when the
        # block ends at the (1, 0) anchor, rounding can pick that anchor,
        # and the small hull reads the anchor row twice
        builds = []
        for n in (5 * _PRUNE_BLOCK - 2, 8 * _PRUNE_BLOCK - 2):
            m = retained_count_m(n, 0.05)
            for seed in range(4):
                rng = np.random.Generator(np.random.Philox(key=[31, seed]))
                builds.append(quiet_build(rng.random(m) ** 2, SampleParams(0.2, 0.05, 0.1)))
        for em in builds:
            assert em.envelope.tobytes() == reference_hull(em.revenue_points).tobytes()
            assert em.envelope[-1].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("where", ["first", "chunk-edge", "last"])
    def test_one_tie_among_a_million_values_takes_the_run_end_path(self, where):
        p = SampleParams(0.1, 0.05, 0.1)
        rng = np.random.Generator(np.random.Philox(key=[28, 0]))
        values = np.sort(make_falpha(0.5, 1.0).sample(rng, 1_000_000))[::-1].copy()
        kept_from = math.floor(p.xi * len(values))
        n = len(values) - kept_from + 1
        # the tie (i, i + 1) among the retained values; chunk-edge pairs the
        # last value of the grid's first chunk with the first of its second
        i = {"first": 0, "chunk-edge": _GRID_CHUNK * _PRUNE_BLOCK - 2, "last": n - 2}[where]
        values[kept_from + i] = values[kept_from - 1 + i]
        em = quiet_build(rng.permutation(values), p)
        assert not em.tie_free
        assert len(em._distinct_retained()[0]) == n - 1
        assert em.envelope.tobytes() == concave_envelope(em.revenue_points).tobytes()
        assert em.empirical_reserve() == hull_reserve(em)

    def test_all_values_equal(self):
        em = quiet_build(np.full(20_000, 2.5), SampleParams(0.2, 0.05, 0.1))
        assert em.envelope.tobytes() == concave_envelope(em.revenue_points).tobytes()
        assert em.empirical_reserve() == 2.5 == hull_reserve(em)

    @pytest.mark.parametrize("kind", ["mixed", "negative", "on-curve"])
    def test_negative_values(self, kind):
        # R = t * v is most negative where no hull vertex lies, so the
        # survivors' max|R| is not the grid's, and the scan must pop with
        # the grid's slack.  The on-curve values v = 1/2 - t put the grid
        # on R = t (1/2 - t), where each point turns down from its
        # neighbours by 2/m**3: at m = 150,000 that lies between the pop
        # slack of the survivors and that of the grid, so the survivors' own
        # slack would keep about twice as many vertices
        rng = np.random.Generator(np.random.Philox(key=[29, 0]))
        if kind == "on-curve":
            m = 150_000
            samples = [0.5 - (2 * np.arange(1, m + 1) - 1) / (2 * m)]
        else:
            draws = [make_falpha(0.5, 1.0).sample(rng, 200_000) for _ in range(3)]
            samples = [v - 100.0 if kind == "mixed" else -v for v in draws]
        builds = [quiet_build(rng.permutation(v), SampleParams(0.2, 0.01, 0.1)) for v in samples]
        for em in builds:
            assert pop_slack(em.envelope) < pop_slack(em.revenue_points)
            assert em.envelope.tobytes() == reference_hull(em.revenue_points).tobytes()
            assert em.empirical_reserve() == hull_reserve(em)

    @pytest.mark.parametrize("kind", ["tie-free", "ties"])
    @given(e=st.integers(-40, 30), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_power_of_two_scaling_scales_the_model_exactly(self, kind, e, seed):
        # scaling every sample by 2**e scales the envelope's R column, the
        # reserve and the point mass value bit for bit, and moves no
        # quantile: on tie-free builds through both prune levels, and on
        # tie-heavy builds through the run-end path
        rng = np.random.Generator(np.random.Philox(key=[30, seed]))
        if kind == "tie-free":
            samples = make_falpha(0.5, 1.0).sample(rng, 40_000)
        else:
            samples = random_tabular(rng, 40).sample(rng, 20_000)
        p = SampleParams(0.2, 0.01, 0.1)
        levels = []
        hull_prune_level = empirical._hull_prune
        try:
            empirical._hull_prune = lambda *args: levels.append(1) or hull_prune_level(*args)
            base = quiet_build(samples, p)
            base.envelope
        finally:
            empirical._hull_prune = hull_prune_level
        assert len(levels) == (2 if kind == "tie-free" else 0)
        c = 2.0**e
        scaled = quiet_build(samples * c, p)
        assert scaled.envelope[:, 0].tobytes() == base.envelope[:, 0].tobytes()
        assert scaled.envelope[:, 1].tobytes() == (base.envelope[:, 1] * c).tobytes()
        assert scaled.empirical_reserve() == base.empirical_reserve() * c
        assert scaled.point_mass_value == base.point_mass_value * c
        assert scaled.xi_bar == base.xi_bar


class TestPresortedBuild:
    """A nonincreasing input, such as a drawn sort (`sorted_sample`), is the
    build's sort: one O(n) check, and no copy of a contiguous one.  Any
    other input is sorted, so a presorted array and a shuffle of it give
    the same model, and every model's sort is one contiguous, descending
    array, whatever the input's layout in memory."""

    @pytest.mark.parametrize("kind", ["tie-free", "ties"])
    def test_a_presorted_input_and_its_shuffle_give_the_same_model(self, kind):
        rng = np.random.Generator(np.random.Philox(key=[33, 0]))
        p = SampleParams(0.2, 0.05, 0.1)
        if kind == "tie-free":
            # more than four blocks, over several `_scan_grid` chunks
            d, m = make_falpha(0.5, 1.0), 5 * _GRID_CHUNK * _PRUNE_BLOCK
        else:
            d, m = random_tabular(rng, 40), 20_000
        desc = d.sorted_sample(rng, m)
        shuffled = rng.permutation(desc)
        others = {
            "shuffle": shuffled,
            "ascending": desc[::-1].copy(),
            # nonincreasing views: ascending in memory, and strided
            "ascending-in-memory": desc[::-1].copy()[::-1],
            "strided": np.repeat(desc, 3)[1::3],
            "strided-shuffle": np.column_stack((shuffled, shuffled))[:, 1],
        }
        em = quiet_build(desc, p)
        assert np.shares_memory(em.sorted_samples, desc)
        for name, other in others.items():
            o = quiet_build(other, p)
            assert o.sorted_samples.flags.c_contiguous and not np.shares_memory(o.sorted_samples, other), name
            assert o.sorted_samples.tobytes() == em.sorted_samples.tobytes()
            assert o.envelope.tobytes() == em.envelope.tobytes()
            assert o.empirical_reserve() == em.empirical_reserve()
            assert o.xi_bar == em.xi_bar and o.point_mass_value == em.point_mass_value
            assert o.tie_free == em.tie_free == (kind == "tie-free")
        full = reference_hull if em.tie_free else concave_envelope
        assert em.envelope.tobytes() == full(em.revenue_points).tobytes()
        assert em.empirical_reserve() == hull_reserve(em)

    @pytest.mark.parametrize("n", EDGE_COUNTS)
    def test_edge_shapes_of_a_drawn_sort(self, n):
        # a drawn sort's tie check and reads at the block and chunk edges,
        # against the full-point hull and a shuffle's build
        rng = np.random.Generator(np.random.Philox(key=[35, n]))
        m = retained_count_m(n, 0.05)
        p = SampleParams(0.2, 0.05, 0.1)
        builds = [quiet_build(make_falpha(0.5, 1.0).sorted_sample(rng, m), p) for _ in range(3)]
        for em in builds:
            assert len(em.retained_values()) == n and em.sorted_samples.flags.c_contiguous
            assert em.envelope.tobytes() == reference_hull(em.revenue_points).tobytes()
            shuffled = quiet_build(rng.permutation(em.sorted_samples), p)
            assert em.envelope.tobytes() == shuffled.envelope.tobytes()
            assert em.empirical_reserve() == shuffled.empirical_reserve() == hull_reserve(em)

    def test_a_presorted_build_makes_no_second_copy(self):
        # at lottery-samp's theorem-grade m the build's peak above its
        # input stays below one m-float array; sorting a shuffle takes one
        m = 1_107_402
        rng = np.random.Generator(np.random.Philox(key=[34, 0]))
        desc = make_falpha(0.5, 1.0).sorted_sample(rng, m)
        peaks = []
        for samples in (desc, rng.permutation(desc)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                quiet_build(samples, SampleParams(0.05, 0.05, 0.05))
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 8 * m <= peaks[1], peaks


class _Coarse(Exponential):
    """Exponential values rounded down to multiples of ``step``: long runs of
    equal values, many across block boundaries, and all zeros at a step
    far above the values."""

    def __init__(self, rate, step):
        super().__init__(rate)
        self.step = step

    def _values_in_place(self, q):
        super()._values_in_place(q)
        q /= self.step
        np.floor(q, out=q)
        q *= self.step
        return q


def _pcg(seed):
    return np.random.Generator(np.random.PCG64DXSM(seed))


SWEEP_KINDS = [
    make_falpha(0.5, 1e-6),
    make_falpha(0.3, 1.0),
    make_falpha(0.9, 1e9),
    Exponential(2.0),
    Exponential(1e-8),
]


class TestLazyReserveAndCoverage:
    """`reserve_and_coverage` answers from a drawn sort's block ends and the
    blocks it must read; its reserve and coverage verdict equal the full
    build's (`build_empirical` of the whole sort, then
    `coverage_event_holds`) bit for bit."""

    @staticmethod
    def _check(d, seed, m, xi, gammas, cover=None):
        """Both answers at each gamma, from one full build and one lazy
        draw of the same stream; coverage is checked against ``cover``
        (default ``d``)."""
        cover = cover or d
        ps = [SampleParams(g, xi, 0.1) for g in gammas]
        em = quiet_build(d.sorted_sample(_pcg(seed), m), ps[0])
        full = [(em.empirical_reserve().hex(), em.coverage_event_holds(cover, g)) for g in gammas]
        draw = d.sorted_draw(_pcg(seed), m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountWarning)
            lazy = [reserve_and_coverage(draw, q, cover) for q in ps]
        assert [(r.hex(), covered) for r, covered in lazy] == full, (d, seed, m, xi)
        return full, draw

    @pytest.mark.parametrize("m", [1, 2, 3, 1023, 1024, 1025, 4097, 60_000, 1_000_000])
    def test_sweep_equals_the_full_build(self, m):
        # coverage fails at gamma 0.01 and holds at 0.3 at the larger m
        seed = 0
        for d in SWEEP_KINDS:
            for xi in (1e-5, 0.05, 0.3):
                seed += 1
                self._check(d, 1000 * m + seed, m, xi, (0.01, 0.3))

    def test_many_seeds(self):
        outcomes = set()
        for seed in range(60):
            d = SWEEP_KINDS[seed % len(SWEEP_KINDS)]
            xi = (1e-5, 0.05, 0.3)[seed % 3]
            m = (5_000, 20_000, 2_049)[seed % 3]
            full, _ = self._check(d, seed, m, xi, (0.01, 0.04, 0.3))
            outcomes.update(covered for _, covered in full)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", range(6))
    def test_discrete_sorts_with_ties_at_every_boundary(self, seed):
        # a DiscreteTabular draw is served from the sort in memory; its runs
        # of equal values span many blocks
        rng = np.random.Generator(np.random.Philox(key=[50, seed]))
        d = random_tabular(rng, 12, scale=10.0 ** (3 * seed - 6))
        self._check(d, seed, 30_000, (1e-5, 0.05, 0.3)[seed % 3], (0.01, 0.1, 0.3))

    @pytest.mark.parametrize("seed", range(4))
    def test_runs_across_block_boundaries(self, seed):
        # coarse continuous values: blocks that do not certify are read, and
        # some open on the value that ended the block before, which the
        # full build counts as no new distinct value
        d = _Coarse(1.0, 0.125)
        outcomes = set()
        crossed = 0
        for xi in (1e-5, 0.05):
            full, draw = self._check(d, seed, 50_000, xi, (0.02, 0.1, 0.3), cover=Exponential(1.0))
            outcomes.update(covered for _, covered in full)
            crossed += sum(k > 0 and draw.block(k)[0] == draw.ends[k - 1] for k in list(draw._blocks))
        assert crossed > 0
        assert outcomes == {True, False}

    def test_a_run_across_a_block_boundary_counts_once(self):
        # values at Exponential(1)'s exact grid quantiles, but for a run of
        # equal values from the last position of block 0 into block 1.
        # Block 1 cannot certify and is read; its first value continues the
        # run, so, as in the full build, it is no distinct value of its own,
        # though checked at its own grid point it would fail the bracket
        m, gamma = 4 * ORDER_BLOCK, 2e-4
        t = (2 * np.arange(m) + 1) / (2 * m)
        values = -np.log(t)
        values[ORDER_BLOCK - 1 : ORDER_BLOCK + 77] = values[ORDER_BLOCK - 1]
        p, d = SampleParams(gamma, 1e-5, 0.1), Exponential(1.0)
        em = quiet_build(values, p)
        draw = SortedDraw.of(values)
        with pytest.warns(SampleCountWarning):
            assert reserve_and_coverage(draw, p, d) == (em.empirical_reserve(), True)
        assert em.coverage_event_holds(d)
        assert 1 in draw._blocks
        own = slice(ORDER_BLOCK, ORDER_BLOCK + 1)
        assert not _bracketed(d, values[own], t[own], em.xi_bar, (1 + gamma) ** 2)

    def test_no_positive_revenue_falls_back_to_the_full_build(self):
        # every value rounds to 0: no grid row has R > 0, so the reserve is
        # the point mass value, which the full build computes
        d = _Coarse(1e3, 1.0)
        full, draw = self._check(d, 5, 3_000, 0.05, (0.1,), cover=Exponential(1e3))
        assert full == [((0.0).hex(), False)]
        assert draw.blocks_read == draw.blocks

    def test_a_theorem_grade_build_reads_few_blocks(self):
        p = SampleParams(0.05, 0.05, 0.05).with_required_m()
        d = make_falpha(0.5, 1.0)
        draw = d.sorted_draw(_pcg(9), p.m)
        reserve, covered = reserve_and_coverage(draw, p, d)
        assert draw.blocks_read < draw.blocks // 8
        em = build_empirical(d.sorted_sample(_pcg(9), p.m), p)
        assert (reserve, covered) == (em.empirical_reserve(), em.coverage_event_holds(d))
        assert reserve_and_coverage(d.sorted_draw(_pcg(9), p.m), p) == (reserve, None)

    def test_bad_inputs_raise_as_the_build_does(self):
        p = SampleParams(0.2, 0.5, 0.1)
        with pytest.raises(InsufficientSamplesError):
            reserve_and_coverage(make_falpha(0.5).sorted_draw(_pcg(1), 0), p)
        with pytest.warns(SampleCountWarning):
            reserve_and_coverage(make_falpha(0.5).sorted_draw(_pcg(1), 10), p)


class TestNonFiniteSamples:
    """A NaN or infinite sample is refused at the build, wherever it lies:
    NaN fails the order check and sorts last, so the sort's ends show it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["top", "middle", "bottom"])
    @pytest.mark.parametrize("order", ["presorted", "shuffled"])
    def test_a_non_finite_sample_raises(self, bad, where, order):
        rng = np.random.Generator(np.random.Philox(key=[37, 0]))
        samples = make_falpha(0.5, 1.0).sorted_sample(rng, 5000)
        samples[{"top": 0, "middle": 2500, "bottom": -1}[where]] = bad
        if order == "shuffled":
            samples = rng.permutation(samples)
        with pytest.raises(ValueError, match="samples must be finite"):
            quiet_build(samples, SampleParams(0.2, 0.05, 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_single_non_finite_sample_raises(self, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            quiet_build([bad], SampleParams(0.2, 0.05, 0.1))


# ---------------------------------------------------------------------------
# value/quantile maps, virtual values, reserve
# ---------------------------------------------------------------------------


class TestLookups:
    @pytest.fixture()
    def em(self):
        return quiet_build([5, 3, 1], SampleParams(0.2, 0.4, 0.1))

    def test_value_at_half(self, em):
        assert em.value_at_quantile(0.5) == pytest.approx(3.0)

    def test_value_at_sample_quantiles(self, em):
        for t, v in [(1 / 6, 5.0), (0.5, 3.0), (5 / 6, 1.0)]:
            assert em.value_at_quantile(t) == pytest.approx(v)

    def test_round_trip(self, em):
        for t, v in [(1 / 6, 5.0), (0.5, 3.0), (5 / 6, 1.0)]:
            assert em.quantile_of_value(v) == pytest.approx(t)

    def test_round_trip_random_build(self):
        rng = np.random.Generator(np.random.Philox(key=[11, 0]))
        em = quiet_build(rng.pareto(2.0, 120) + 0.1, SampleParams(0.2, 0.1, 0.1))
        t = em.retained_quantiles()
        v = em.retained_values()
        keep = t >= em.xi_bar
        np.testing.assert_allclose(em.quantile_of_value(v[keep]), t[keep], atol=1e-12)

    def test_duplicate_values_map_to_first_quantile(self):
        em = quiet_build([4, 4, 2], SampleParams(0.2, 0.1, 0.1))
        assert em.quantile_of_value(4.0) == pytest.approx(1 / 6)

    def test_tied_values_map_to_their_leftmost_quantile(self):
        # R/q ratios recomputed from the revenue points wobble by an ulp
        # inside a run of ties; the lookup must still land on the run's start
        d = tabular_prior()
        p = SampleParams(0.2, 0.01, 0.1)
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(key=[seed, 17]))
            em = quiet_build(d.sample(rng, 9888), p)
            distinct = np.unique(em.retained_values())
            expected = [leftmost_quantile_reference(em, u) for u in distinct]
            np.testing.assert_array_equal(em.quantile_of_value(distinct), expected)

    def test_point_mass_clipping(self, em):
        assert em.value_at_quantile(0.01) == pytest.approx(5.0)
        assert em.quantile_of_value(100.0) == pytest.approx(em.xi_bar)

    @pytest.mark.parametrize("kind", ["tie-free", "ties"])
    def test_power_of_two_scaling_moves_no_quantile(self, kind):
        # scaling the samples and the looked-up values by 2**e leaves every
        # quantile bit for bit, values just above the point mass included:
        # they clip to xi_bar at every scale, with no slack in the unit of
        # value
        rng = np.random.Generator(np.random.Philox(key=[14, 0]))
        d = make_falpha(0.5, 1.0) if kind == "tie-free" else random_tabular(rng, 12)
        samples = d.sample(rng, 3000)
        p = SampleParams(0.2, 0.05, 0.1)
        base = quiet_build(samples, p)
        pmv, kept = base.point_mass_value, base.retained_values()
        above = [np.nextafter(pmv, np.inf), pmv * (1 + 2**-40), pmv * 1.5, 2 * kept[0]]
        probes = np.concatenate(
            (above, [pmv, np.nextafter(pmv, -np.inf), 0.0, kept[-1] / 2], kept[:50], (kept[1:50] + kept[:49]) / 2)
        )
        want = base.quantile_of_value(probes)
        assert np.all(want[: len(above)] == base.xi_bar)
        for e in range(-40, 31):
            c = 2.0**e
            scaled = quiet_build(samples * c, p)
            assert scaled.point_mass_value == pmv * c
            assert scaled.quantile_of_value(probes * c).tobytes() == want.tobytes()

    def test_quantile_of_zero_is_one(self, em):
        assert em.quantile_of_value(0.0) == pytest.approx(1.0)

    def test_interior_value_crosses_between_samples(self, em):
        # between v=3 at q=1/2 and v=1 at q=5/6 the map solves R(q) = v q
        q = em.quantile_of_value(2.0)
        assert 0.5 < q < 5 / 6
        assert em.value_at_quantile(q) == pytest.approx(2.0)

    def test_monotone_value_curve(self):
        rng = np.random.Generator(np.random.Philox(key=[12, 0]))
        em = quiet_build(rng.exponential(2.0, 300), SampleParams(0.2, 0.1, 0.1))
        grid = np.linspace(em.xi_bar, 1.0, 500)
        vals = np.array([em.value_at_quantile(q) for q in grid])
        assert np.all(np.diff(vals) <= 1e-12)

    def test_virtual_value_slopes(self, em):
        assert em.empirical_virtual(0.3) == pytest.approx(2.0)
        assert em.empirical_virtual(0.7) == pytest.approx(-2.0)
        assert em.empirical_virtual(0.05) == pytest.approx(5.0)
        assert em.empirical_virtual(0.95) == pytest.approx(-5.0)

    def test_virtual_nonincreasing(self):
        rng = np.random.Generator(np.random.Philox(key=[13, 0]))
        em = quiet_build(rng.pareto(2.2, 250), SampleParams(0.2, 0.1, 0.1))
        grid = np.linspace(0.01, 0.99, 200)
        vv = [em.empirical_virtual(q) for q in grid]
        assert np.all(np.diff(vv) <= 1e-12)

    def test_reserve_three_samples(self, em):
        assert em.empirical_reserve() == pytest.approx(3.0)

    def test_reserve_tie_prefers_smaller_quantile(self):
        # two hull maxima of equal height: value 6 at q=1/6 and 2 at q=1/2
        em = quiet_build([6, 2, 0.1], SampleParams(0.2, 0.1, 0.1))
        assert em.envelope_at(1 / 6) == pytest.approx(1.0)
        assert em.envelope_at(1 / 2) == pytest.approx(1.0)
        assert em.empirical_reserve() == pytest.approx(6.0)

    def test_json_export_keys(self, em):
        d = em.to_json_dict()
        assert set(d) == {"quantiles", "values", "hull_vertices", "reserve", "xi_bar"}
        assert d["reserve"] == pytest.approx(3.0)
        assert d["xi_bar"] == pytest.approx(1 / 6)


# ---------------------------------------------------------------------------
# coverage event
# ---------------------------------------------------------------------------


def grid_samples(d, m):
    """Samples placed exactly at their empirical quantiles."""
    t = (2 * np.arange(1, m + 1) - 1) / (2 * m)
    return d.value_of_quantile(t)


def brute_force_coverage(em, d, gamma=None):
    """The coverage event over np.unique's distinct retained values, with
    each value's leftmost quantile taken from its first occurrence."""
    factor = (1 + (em.params.gamma if gamma is None else gamma)) ** 2
    values, first = np.unique(em.retained_values(), return_index=True)
    qbar = np.maximum(em.retained_quantiles()[first], em.xi_bar)
    lo, hi = d.quantile_interval(values)
    return bool(np.all(lo <= qbar * factor + 1e-15) and np.all(hi >= qbar / factor - 1e-15))


class WobblingFAlpha(FAlpha):
    """FAlpha(1/2) whose two quantile ends each move by -2 to +2 ulps, as
    chosen by the bits of v."""

    def __init__(self):
        super().__init__(0.5, 1.0)

    def quantile_interval(self, v):
        v = np.asarray(v, dtype=float)
        q = self.quantile_of_value(v)
        bits = v.view(np.int64)
        return wobble(q, bits % 5 - 2), wobble(q, (bits // 5) % 5 - 2)


class LookupPrior:
    """A prior known only at the given descending values: the true quantile
    of ``values[k]`` is ``quantiles[k]``."""

    def __init__(self, values, quantiles):
        self.values, self.quantiles = values, quantiles

    def quantile_interval(self, v):
        q = self.quantiles[np.searchsorted(-self.values, -np.asarray(v))]
        return q, q


def count_evaluations(d):
    """From now on, record in the returned list how many values each call
    of ``d.quantile_interval`` evaluates."""
    evaluated = []
    interval = d.quantile_interval

    def counted(v):
        evaluated.append(len(v))
        return interval(v)

    d.quantile_interval = counted
    return evaluated


def wobble(q, ulps):
    """q moved by ``ulps`` (-2 to 2) ulps, element by element."""
    q = q.copy()
    for step in (1, 2):
        q = np.where(ulps >= step, np.nextafter(q, np.inf), q)
        q = np.where(ulps <= -step, np.nextafter(q, -np.inf), q)
    return q


class TestCoverage:
    def test_exact_grid_is_covered(self):
        d = make_falpha(0.5, 1.0)
        em = quiet_build(grid_samples(d, 200), SampleParams(0.1, 0.02, 0.1))
        assert em.coverage_event_holds(d)

    def test_displaced_sample_breaks_coverage(self):
        # xi small enough that nothing is discarded, so the displaced top
        # sample stays in the model; its true quantile sits a factor
        # (1+gamma)^3 > (1+gamma)^2 away from its empirical slot
        d = make_falpha(0.5, 1.0)
        samples = np.sort(grid_samples(d, 200))[::-1]
        samples[0] = d.value_of_quantile((1 / 400) * 1.1**3)
        em = quiet_build(samples, SampleParams(0.1, 0.002, 0.1))
        assert not em.coverage_event_holds(d)

    def test_gamma_override(self):
        d = make_falpha(0.5, 1.0)
        samples = np.sort(grid_samples(d, 200))[::-1]
        samples[0] = d.value_of_quantile((1 / 400) * 1.1**3)
        em = quiet_build(samples, SampleParams(0.1, 0.002, 0.1))
        # a looser gamma absorbs the same displacement
        assert em.coverage_event_holds(d, gamma=0.4)

    @pytest.mark.parametrize(
        "prior, gamma, xi, m",
        [
            ("falpha", 0.05, 0.05, 2000),  # some builds fail coverage here
            ("tabular", 0.05, 0.05, 2000),
            ("falpha", 0.2, 0.1, 2000),
            ("tabular", 0.2, 0.01, 9888),
        ],
    )
    def test_matches_brute_force_reference(self, prior, gamma, xi, m):
        d = make_falpha(0.5, 1.0) if prior == "falpha" else tabular_prior()
        p = SampleParams(gamma, xi, 0.1)
        factor = (1 + gamma) ** 2
        outcomes = []
        for seed in range(30):
            rng = np.random.Generator(np.random.Philox(key=[seed, 18]))
            em = quiet_build(d.sample(rng, m), p)
            expected = True
            for u in np.unique(em.retained_values()):
                qbar = leftmost_quantile_reference(em, u)
                lo, hi = d.quantile_of_value(u), d.sale_probability(u)
                if not (lo <= qbar * factor + 1e-15 and hi >= qbar / factor - 1e-15):
                    expected = False
                    break
            assert em.coverage_event_holds(d) == expected, seed
            outcomes.append(expected)
        if gamma == 0.05:
            assert 0 < sum(outcomes) < len(outcomes)

    @pytest.mark.parametrize("m", [1, 2, 3, 30, _PRUNE_BLOCK, _PRUNE_BLOCK + 1])
    def test_one_block_or_less_matches_brute_force(self, m):
        # a build of at most two blocks: one or two certificates, or the
        # per-value check of the whole block
        d = make_falpha(0.5, 1.0)
        outcomes = set()
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(key=[seed, 23]))
            em = quiet_build(d.sample(rng, m), SampleParams(0.05, 1e-5, 0.1))
            for g in (0.05, 0.5, 5.0):
                expected = brute_force_coverage(em, d, g)
                assert em.coverage_event_holds(d, gamma=g) == expected, (seed, g)
                outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "prior, gamma, xi, m",
        [
            ("falpha", 0.01, 0.05, 60_000),  # some builds fail coverage here
            ("falpha", 0.02, 0.02, 60_000),  # and here
            ("falpha", 0.2, 0.1, 50_000),
            ("exponential", 0.01, 0.05, 60_000),
            ("exponential", 0.02, 0.02, 60_000),
            ("exponential", 0.2, 0.1, 50_000),
        ],
    )
    def test_block_certificates_match_brute_force(self, prior, gamma, xi, m):
        # about m distinct values, so the check runs on block certificates
        d = make_falpha(0.5, 1.0) if prior == "falpha" else Exponential(3.0)
        p = SampleParams(gamma, xi, 0.1)
        outcomes = []
        for seed in range(12):
            rng = np.random.Generator(np.random.Philox(key=[seed, 19]))
            em = quiet_build(d.sample(rng, m), p)
            assert len(np.unique(em.retained_values())) > 4 * _PRUNE_BLOCK
            for g in (gamma, 2 * gamma):
                expected = brute_force_coverage(em, d, g)
                assert em.coverage_event_holds(d, gamma=g) == expected, (seed, g)
                outcomes.append(expected)
        if gamma < 0.2:
            assert 0 < sum(outcomes) < len(outcomes)

    @pytest.mark.parametrize("where", ["mid-block", "block-end", "block-start", "none"])
    def test_displaced_atom_is_found_inside_a_block(self, where):
        # one sample at each of 16 blocks' worth of atoms, each sample at
        # the middle of its atom's quantile interval, except that the atom
        # above the displaced one takes mass from below it: the displaced
        # atom's interval starts past (1+gamma)^2 times its empirical
        # quantile, while its neighbours' intervals still meet their
        # brackets.  Only the per-value check of an uncertified block finds it.
        m = 16 * _PRUNE_BLOCK
        f = 1.2**2
        t = (2 * np.arange(1, m + 1) - 1) / (2 * m)
        above = np.arange(m + 1) / m  # Pr[value > k-th largest atom], k = 0..m
        j = {"mid-block": 8 * _PRUNE_BLOCK + 511, "block-end": 9 * _PRUNE_BLOCK - 1,
             "block-start": 8 * _PRUNE_BLOCK, "none": None}[where]
        if j is not None:
            above[j] = f * t[j] + 1e-9
            above[j + 1] = above[j] + 0.1 / m
            above[j + 2 :] = np.linspace(above[j + 1], 1.0, m - j)[1:]
        masses = np.diff(above)  # largest atom first
        d = DiscreteTabular(np.arange(1.0, m + 1), masses[::-1] / masses.sum())
        em = quiet_build(np.arange(1.0, m + 1), SampleParams(0.2, 1e-5, 0.1))
        expected = brute_force_coverage(em, d)
        evaluated = count_evaluations(d)
        assert em.coverage_event_holds(d) == expected == (j is None)
        # the first four blocks and the displaced atom's block are checked
        # per value, every other block from its ends
        assert 2 * 16 < sum(evaluated) < 6 * _PRUNE_BLOCK + 2 * 16 + 1

    @pytest.mark.parametrize("where", ["mid-block", "block-end", "block-start"])
    def test_value_below_its_bracket_is_found_inside_a_block(self, where):
        # a lookup prior with each value's quantile at its empirical one,
        # except that one value's quantile drops just below (1+gamma)^-2
        # times its empirical one, and the values above it that would then
        # exceed it share it; only the dropped value leaves its bracket
        m = 16 * _PRUNE_BLOCK
        factor = (1 + 0.2) ** 2
        t = (2 * np.arange(1, m + 1) - 1) / (2 * m)
        j = {"mid-block": 8 * _PRUNE_BLOCK + 511, "block-end": 9 * _PRUNE_BLOCK - 1,
             "block-start": 8 * _PRUNE_BLOCK}[where]
        q = t.copy()
        q[j] = (t[j] - 0.3 / m) / factor
        q[:j] = np.minimum(q[:j], q[j])
        values = np.arange(m, 0, -1, dtype=float)
        em = quiet_build(values, SampleParams(0.2, 1e-5, 0.1))
        prior = LookupPrior(values, q)
        outside = (q > t * factor + 1e-15) | (q < t / factor - 1e-15)
        assert np.flatnonzero(outside).tolist() == [j]
        assert not brute_force_coverage(em, prior)
        assert not em.coverage_event_holds(prior)

    def test_wobbling_quantile_matches_brute_force(self):
        # a prior whose quantile_interval ends are each moved by -2 to +2
        # ulps, by the bits of v: monotone only up to a few ulps.  Samples
        # placed where their true quantile is exactly the upper bracket
        # bound put the verdict in the ulps; random builds mix outcomes.
        d = WobblingFAlpha()
        m = 12 * _PRUNE_BLOCK
        t = (2 * np.arange(1, m + 1) - 1) / (2 * m)
        outcomes = []
        for gamma in (0.01, 0.1, 0.2):
            f = (1 + gamma) ** 2
            on_edge = d.value_of_quantile(np.minimum(t * f + 1e-15, 1.0))
            em = quiet_build(on_edge, SampleParams(gamma, 1e-5, 0.1))
            assert em.coverage_event_holds(d) == brute_force_coverage(em, d)
        for seed in range(12):
            rng = np.random.Generator(np.random.Philox(key=[seed, 20]))
            em = quiet_build(d.sample(rng, 60_000), SampleParams(0.01, 0.05, 0.1))
            expected = brute_force_coverage(em, d)
            assert em.coverage_event_holds(d) == expected, seed
            outcomes.append(expected)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_theorem_grade_build_reads_only_block_ends(self):
        p = SampleParams(0.05, 0.05, 0.05).with_required_m()
        d = make_falpha(0.5, 1.0)
        em = build_empirical(d.sample(np.random.Generator(np.random.Philox(key=[4, 0])), p.m), p)
        evaluated = count_evaluations(d)
        verdict = em.coverage_event_holds(d)
        nb = -(-(p.m - em.kept_from + 1) // _PRUNE_BLOCK)
        assert evaluated[0] == 2 * nb and sum(evaluated) < p.m // 10
        assert verdict == brute_force_coverage(em, d)

    def test_margin_covers_a_block_end_reversed_by_two_ulps(self):
        # a lookup prior, monotone up to two ulps.  The last block holds two
        # values; the smaller one's quantile sits an ulp below its lower
        # bracket bound, so coverage fails, and the larger one's an ulp
        # above that bound.  Read without the margin, the larger value's
        # quantile would certify the block.
        m = 5 * _PRUNE_BLOCK + 2
        factor = (1 + 0.2) ** 2
        t = (2 * np.arange(1, m + 1) - 1) / (2 * m)
        values = np.arange(m, 0, -1, dtype=float)
        q = t / factor * (1 + 1e-8)
        bound = t[-1] / factor - 1e-15
        q[-2], q[-1] = np.nextafter(bound, np.inf), np.nextafter(bound, -np.inf)
        prior = LookupPrior(values, q)
        em = quiet_build(values, SampleParams(0.2, 1e-5, 0.1))
        assert not brute_force_coverage(em, prior)
        assert not em.coverage_event_holds(prior)

    def test_coverage_rate_at_theorem_grade(self):
        # 200 independent builds at m=9888; the guarantee is >= 1-delta
        # coverage; check the 95% Wilson upper limit clears 0.9
        d = make_falpha(0.5, 1.0)
        p = SampleParams(0.2, 0.1, 0.1, m=9888)
        assert validate_params(p).theorem_grade
        rng = np.random.Generator(np.random.Philox(key=[14, 0]))
        hits = sum(
            build_empirical(d.sample(rng, 9888), p).coverage_event_holds(d)
            for _ in range(200)
        )
        frac = hits / 200
        z = 1.959963984540054
        denom = 1 + z**2 / 200
        center = (frac + z**2 / 400) / denom
        half = z * math.sqrt(frac * (1 - frac) / 200 + z**2 / (4 * 200**2)) / denom
        assert center + half >= 1 - 0.1, f"coverage {frac} too low"


# ---------------------------------------------------------------------------
# conditional accuracy (checked only on covered builds)
# ---------------------------------------------------------------------------


def true_curve_at_quantile(d, q):
    """q * v(q) for q in [0,1]; zero outside."""
    q = np.asarray(q, dtype=float)
    safe = np.clip(q, 1e-300, 1.0)
    return np.where((q > 0) & (q <= 1.0), q * d.value_of_quantile(safe), 0.0)


def covered_builds(d, p, m, n_builds, seed):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    out = []
    for _ in range(n_builds):
        em = quiet_build(d.sample(rng, m), SampleParams(p.gamma, p.xi, p.delta, m))
        if em.coverage_event_holds(d):
            out.append(em)
    assert out, "no covered builds; cannot exercise conditional lemmas"
    return out


class TestConditionalAccuracy:
    def test_reserve_revenue_approximation(self):
        d = make_falpha(0.5, 1.0)
        g = 0.2
        r = d.reserve_price
        cr_r = r * d.quantile_of_value(r)
        for em in covered_builds(d, SampleParams(g, 0.1, 0.1), 9888, 25, 21):
            rbar = em.empirical_reserve()
            lhs = rbar * d.quantile_of_value(rbar)
            rhs = (1 - em.xi_bar * (1 + g) ** 2) / (1 + g) ** 4 * cr_r
            assert lhs >= rhs - 1e-9

    def test_envelope_brackets_true_curve(self):
        d = make_falpha(0.5, 1.0)
        g = 0.2
        for em in covered_builds(d, SampleParams(g, 0.1, 0.1), 9888, 10, 22):
            t = em.retained_quantiles()
            t = t[t >= em.xi_bar - 1e-15]
            crbar = em.envelope_at(t)
            lo = true_curve_at_quantile(d, t * (1 + g) ** 2) / (1 + g) ** 3
            hi = (1 + g) ** 2 * true_curve_at_quantile(d, t / (1 + g) ** 2)
            assert np.all(crbar >= lo - 1e-9)
            assert np.all(crbar <= hi + 1e-9)

    def test_reserve_quantile_lower_bound(self):
        # needs 8*gamma/alpha < 1 for the bound to bite: gamma=0.05, alpha=0.5
        d = make_falpha(0.5, 1.0)
        g = 0.05
        q_r = d.quantile_of_value(d.reserve_price)
        factor = 1 - math.sqrt(8 * g / 0.5)
        for em in covered_builds(d, SampleParams(g, 0.1, 0.1), 60000, 8, 23):
            q_rbar = d.quantile_of_value(em.empirical_reserve())
            assert q_rbar >= factor * q_r - 1e-9

    def test_alpha_point_three_scenario(self):
        d = make_falpha(0.3, 2.0)
        g = 0.05
        q_r = d.quantile_of_value(d.reserve_price)
        factor = 1 - math.sqrt(8 * g / 0.3)
        for em in covered_builds(d, SampleParams(g, 0.05, 0.1), 120000, 4, 24):
            q_rbar = d.quantile_of_value(em.empirical_reserve())
            assert q_rbar >= factor * q_r - 1e-9
            rbar = em.empirical_reserve()
            lhs = rbar * d.quantile_of_value(rbar)
            r = d.reserve_price
            rhs = (
                (1 - em.xi_bar * (1 + g) ** 2)
                / (1 + g) ** 4
                * (r * d.quantile_of_value(r))
            )
            assert lhs >= rhs - 1e-9
