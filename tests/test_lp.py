"""Tests for the allocation LPs: construction, the simplex solver against a
brute-force vertex enumerator, quantile aggregation, and the posted-price
plan with its feasibility witness."""

import dataclasses
import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srauctions.dists import (
    DiscreteTabular,
    make_falpha,
    make_random_alpha_sr_discrete,
    revenue_curve_hull,
    truncate_at,
)
from srauctions.empirical import SampleCountWarning, SampleParams, build_empirical
from srauctions.lp import (
    LpProblem,
    LpSolution,
    MultiItemInstance,
    NumericalFailureError,
    QuantileSolution,
    aggregate,
    build_lp2,
    build_lp3,
    check_lp2_feasible,
    decompose_quantile,
    discretize_model,
    make_pricing_plan,
    mirror_below_reserve,
    solve,
    threshold_fill,
)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def unit_coin():
    return DiscreteTabular((1.0, 2.0), (0.5, 0.5))


def unit_instance():
    return MultiItemInstance(budgets=(10.0,), item_limits=(1,), dists=((unit_coin(),),))


def quiet_build(samples, p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleCountWarning)
        return build_empirical(samples, p)


def brute_force_optimum(c, A, b, tol=1e-7):
    """Enumerate every basic point of {Ax <= b, 0 <= x <= 1} and return the
    best feasible objective.  Independent of the simplex implementation."""
    n = len(c)
    rows = np.vstack([np.asarray(A, dtype=float), np.eye(n), np.eye(n)])
    rhs = np.concatenate([np.asarray(b, dtype=float), np.ones(n), np.zeros(n)])
    combos = np.asarray(list(itertools.combinations(range(len(rhs)), n)))
    mats = rows[combos]
    dets = np.linalg.det(mats)
    keep = np.abs(dets) > 1e-10
    pts = np.linalg.solve(mats[keep], rhs[combos][keep][..., None])[..., 0]
    feas = (
        np.all(pts >= -tol, axis=1)
        & np.all(pts <= 1.0 + tol, axis=1)
        & np.all(pts @ np.asarray(A, dtype=float).T <= np.asarray(b) + tol, axis=1)
    )
    best = 0.0  # x = 0 is always feasible here (b >= 0)
    if np.any(feas):
        best = max(best, float(np.max(pts[feas] @ np.asarray(c, dtype=float))))
    return best


def random_small_instance(rng):
    """An instance whose LP has at most 6 variables."""
    layout = int(rng.integers(0, 3))
    if layout == 0:
        n_i, n_j, sup = 1, 1, int(rng.integers(3, 7))
    elif layout == 1:
        n_i, n_j, sup = 2, 1, 3
    else:
        n_i, n_j, sup = 1, 2, 3
    grid = tuple(
        tuple(
            make_random_alpha_sr_discrete(rng, alpha=0.5, max_support=sup, min_support=sup)
            for _ in range(n_j)
        )
        for _ in range(n_i)
    )
    budgets = tuple(sup + float(rng.uniform(0.0, 3.0)) for _ in range(n_i))
    limits = tuple(int(rng.integers(0, 3)) for _ in range(n_i))
    return MultiItemInstance(budgets=budgets, item_limits=limits, dists=grid)


def synthetic_problem(rng, n, m_rows):
    c = rng.uniform(-1.0, 1.0, n)
    return LpProblem(
        tag="LP2",
        var_keys=tuple((0, 0, float(k + 1)) for k in range(n)),
        c=c,
        A=rng.uniform(-0.5, 1.0, (m_rows, n)),
        b=rng.uniform(0.2, 2.0, m_rows),
        row_labels=tuple(f"row[{r}]" for r in range(m_rows)),
        f_var=np.ones(n),
        value_var=np.arange(1.0, n + 1.0),
        phi_var=c.copy(),
    )


def pair_objective(d, fill_desc):
    f_desc = d.pmf[::-1]
    phi_desc = d.virtual_values()[::-1]
    return float((f_desc * phi_desc) @ fill_desc)


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------


class TestInstance:
    def test_roundtrip_through_spec(self):
        inst = unit_instance()
        again = MultiItemInstance.from_spec(inst.to_spec())
        assert again.budgets == inst.budgets
        assert again.item_limits == inst.item_limits
        np.testing.assert_allclose(again.dists[0][0].pmf, inst.dists[0][0].pmf)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="budget"):
            MultiItemInstance(budgets=(0.0,), item_limits=(1,), dists=((unit_coin(),),))

    def test_rejects_fractional_item_limit(self):
        with pytest.raises(ValueError, match="item limit"):
            MultiItemInstance(budgets=(10.0,), item_limits=(1.5,), dists=((unit_coin(),),))

    def test_allows_zero_item_limit(self):
        inst = MultiItemInstance(budgets=(10.0,), item_limits=(0,), dists=((unit_coin(),),))
        assert inst.item_limits == (0,)

    def test_rejects_support_above_budget(self):
        with pytest.raises(ValueError, match="truncate first"):
            MultiItemInstance(budgets=(1.5,), item_limits=(1,), dists=((unit_coin(),),))

    def test_rejects_irregular_prior(self):
        bad = DiscreteTabular((1.0, 2.0, 3.0), (0.5, 0.1, 0.4))  # phi dips at 2
        with pytest.raises(ValueError, match="not regular"):
            MultiItemInstance(budgets=(10.0,), item_limits=(1,), dists=((bad,),))

    def test_rejects_ragged_grid(self):
        with pytest.raises(ValueError, match="ragged"):
            MultiItemInstance(
                budgets=(10.0, 10.0),
                item_limits=(1, 1),
                dists=((unit_coin(),), (unit_coin(), unit_coin())),
            )

    def test_empty_support_rejected_at_distribution_level(self):
        with pytest.raises(ValueError, match="nonempty"):
            DiscreteTabular((), ())


# ---------------------------------------------------------------------------
# LP construction
# ---------------------------------------------------------------------------


class TestBuildLp2:
    def test_objective_coefficients_of_unit_instance(self):
        lp = build_lp2(unit_instance())
        # phi(1) = 0, phi(2) = 2, each with mass one half
        np.testing.assert_allclose(lp.c, [0.0, 1.0])
        assert lp.var_keys == ((0, 0, 1.0), (0, 0, 2.0))
        assert lp.tag == "LP2"

    def test_coefficients_are_mass_times_virtual(self):
        rng = np.random.default_rng(np.random.Philox(key=[11, 0]))
        for _ in range(5):
            lp = build_lp2(random_small_instance(rng))
            np.testing.assert_allclose(lp.c, lp.f_var * lp.phi_var, atol=1e-14)

    def test_row_families_of_unit_instance(self):
        lp = build_lp2(unit_instance())
        assert lp.row_labels == ("count[0]", "budget[0]", "supply[0]")
        np.testing.assert_allclose(lp.A[0], [0.5, 0.5])       # count: f
        np.testing.assert_allclose(lp.A[1], [0.0, 1.0])       # budget: f*phi
        np.testing.assert_allclose(lp.A[2], [0.5, 0.5])       # supply: f
        np.testing.assert_allclose(lp.b, [1.0, 10.0, 1.0])

    def test_identical_bidders_couple_through_supply_row(self):
        inst = MultiItemInstance(
            budgets=(10.0, 10.0),
            item_limits=(1, 1),
            dists=((unit_coin(),), (unit_coin(),)),
        )
        lp = build_lp2(inst)
        supply = lp.A[4]
        np.testing.assert_allclose(supply, [0.5, 0.5, 0.5, 0.5])
        # count rows stay per-bidder
        np.testing.assert_allclose(lp.A[0], [0.5, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(lp.A[1], [0.0, 0.0, 0.5, 0.5])

    def test_lp3_shares_the_row_structure(self):
        inst, models, p = _criterion_models(np.random.default_rng(np.random.Philox(key=[21, 0])))
        lp2 = build_lp2(inst)
        lp3 = build_lp3(inst, models, p)
        assert lp3.tag == "LP3"
        assert lp3.row_labels == lp2.row_labels
        np.testing.assert_allclose(lp3.b, lp2.b)
        np.testing.assert_allclose(lp3.c, lp3.f_var * lp3.phi_var, atol=1e-14)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


class TestSolve:
    def test_unit_instance_optimum(self):
        lp = build_lp2(unit_instance())
        sol = solve(lp)
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-12)
        # the all-ones point is another optimum of the same program
        ones = np.ones(2)
        assert float(lp.c @ ones) == pytest.approx(sol.objective, abs=1e-12)
        assert np.all(lp.A @ ones <= lp.b + 1e-12)

    def test_binding_budget_row(self):
        lp = build_lp2(unit_instance())
        tight = dataclasses.replace(lp, b=np.array([1.0, 0.4, 1.0]))
        sol = solve(tight)
        assert sol.objective == pytest.approx(0.4, abs=1e-12)

    def test_all_nonpositive_objective_stays_at_zero(self):
        lp = build_lp2(unit_instance())
        clamped = dataclasses.replace(lp, c=np.array([-0.5, -1.0]))
        sol = solve(clamped)
        assert sol.objective == 0.0
        np.testing.assert_allclose(sol.x, 0.0, atol=1e-14)

    def test_zero_item_limit_forces_zero(self):
        inst = MultiItemInstance(budgets=(10.0,), item_limits=(0,), dists=((unit_coin(),),))
        sol = solve(build_lp2(inst))
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.x, 0.0, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(np.random.Philox(key=[12, 0]))
        lp = build_lp2(random_small_instance(rng))
        a, b = solve(lp), solve(lp)
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.x, b.x)

    def test_iteration_cap_signals_numerical_failure(self):
        lp = build_lp2(unit_instance())
        with pytest.raises(NumericalFailureError, match="exceeded"):
            solve(lp, max_iterations=0)

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(np.random.Philox(key=[4242, 0]))
        for trial in range(30):
            inst = random_small_instance(rng)
            lp = build_lp2(inst)
            got = solve(lp).objective
            want = brute_force_optimum(lp.c, lp.A, lp.b)
            assert got == pytest.approx(want, abs=1e-8), f"trial {trial}"

    def test_matches_enumeration_on_synthetic_problems(self):
        rng = np.random.default_rng(np.random.Philox(key=[4243, 0]))
        for trial in range(20):
            n = int(rng.integers(2, 7))
            m_rows = int(rng.integers(1, 5))
            lp = synthetic_problem(rng, n, m_rows)
            got = solve(lp).objective
            want = brute_force_optimum(lp.c, lp.A, lp.b)
            assert got == pytest.approx(want, abs=1e-8), f"trial {trial}"


# ---------------------------------------------------------------------------
# aggregation and the objective/quantile identity
# ---------------------------------------------------------------------------


class TestAggregate:
    def test_top_atom_solution_maps_to_its_sale_quantile(self):
        lp = build_lp2(unit_instance())
        sol = LpSolution(x=np.array([0.0, 1.0]), objective=1.0, iterations=0)
        qsol = aggregate(sol, lp, unit_instance())
        assert qsol.x_star[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert qsol.objective == pytest.approx(1.0, abs=1e-12)
        assert qsol.thresholds[(0, 0)] == (2.0, 1.0)

    def test_zero_solution(self):
        lp = build_lp2(unit_instance())
        sol = LpSolution(x=np.zeros(2), objective=0.0, iterations=0)
        qsol = aggregate(sol, lp, unit_instance())
        assert qsol.x_star[0, 0] == 0.0
        assert qsol.objective == 0.0

    def test_solver_optimum_aggregates_to_full_quantile(self):
        qsol = aggregate(solve(build_lp2(unit_instance())), build_lp2(unit_instance()), unit_instance())
        # optimum 1.0 is reached on the whole quantile range: CR(1) = 1
        assert qsol.objective == pytest.approx(1.0, abs=1e-12)

    def test_threshold_identity_against_revenue_curve(self):
        rng = np.random.default_rng(np.random.Philox(key=[13, 0]))
        for _ in range(6):
            d = make_random_alpha_sr_discrete(rng, alpha=0.5)
            for q in np.linspace(0.0, 1.0, 23):
                fill = threshold_fill(d.pmf[::-1], float(q))
                assert pair_objective(d, fill) == pytest.approx(
                    float(revenue_curve_hull(d, q)), abs=1e-12
                )

    def test_identity_is_exact_in_rational_arithmetic(self):
        d = unit_coin()
        # masses and virtuals are dyadic: the fill at q = 3/4 is [1, 1/2]
        fill = threshold_fill(d.pmf[::-1], 0.75)
        np.testing.assert_allclose(fill, [1.0, 0.5], atol=0)
        exact = Fraction(1, 2) * Fraction(2) * 1 + Fraction(1, 2) * Fraction(0) * Fraction(1, 2)
        assert pair_objective(d, fill) == float(exact) == float(revenue_curve_hull(d, 0.75))

    def test_aggregate_never_loses_objective(self):
        rng = np.random.default_rng(np.random.Philox(key=[14, 0]))
        for _ in range(10):
            inst = random_small_instance(rng)
            lp = build_lp2(inst)
            sol = solve(lp)
            qsol = aggregate(sol, lp, inst)
            assert qsol.objective >= sol.objective - 1e-10
            for i, j, d in inst.pairs():
                cols = [k for k, (a, bb, _) in enumerate(lp.var_keys) if (a, bb) == (i, j)]
                direct = float(lp.f_var[cols] @ sol.x[cols])
                assert qsol.x_star[i, j] == pytest.approx(direct, abs=1e-12)

    def test_optimal_quantile_stops_at_the_reserve(self):
        d = DiscreteTabular((1.0, 2.0, 3.0, 4.0), (0.3, 0.45, 0.15, 0.1))
        inst = MultiItemInstance(budgets=(10.0,), item_limits=(1,), dists=((d,),))
        lp = build_lp2(inst)
        qsol = aggregate(solve(lp), lp, inst)
        # reserve price 2 has sale probability 0.7 = the revenue-curve peak
        assert d.reserve_price == 2.0
        assert qsol.x_star[0, 0] == pytest.approx(0.7, abs=1e-12)


class TestThresholdFill:
    def test_exact_prefix(self):
        fill = threshold_fill(np.array([0.1, 0.15, 0.45, 0.3]), 0.25)
        np.testing.assert_allclose(fill, [1.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_fractional_boundary_atom(self):
        fill = threshold_fill(np.array([0.1, 0.15, 0.45, 0.3]), 0.2)
        np.testing.assert_allclose(fill, [1.0, 2.0 / 3.0, 0.0, 0.0], atol=1e-15)

    def test_target_beyond_total_mass_caps_at_ones(self):
        fill = threshold_fill(np.array([0.4, 0.6]), 2.0)
        np.testing.assert_allclose(fill, [1.0, 1.0])

    @given(
        masses=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_fill_properties(self, masses, frac):
        m = np.asarray(masses)
        target = frac * float(m.sum())
        fill = threshold_fill(m, target)
        assert np.all(fill >= 0.0) and np.all(fill <= 1.0)
        assert float(fill @ m) == pytest.approx(target, abs=1e-9)
        open_atoms = np.where(fill < 1.0 - 1e-12)[0]
        if len(open_atoms):
            assert np.all(fill[open_atoms[0] + 1 :] <= 1e-12)


class TestDecompose:
    def test_interior_value(self):
        assert decompose_quantile(1.25) == (1, pytest.approx(0.75))

    def test_integral_value(self):
        assert decompose_quantile(3.0) == (3, 1.0)

    def test_upper_integer_tie_goes_to_the_integer_itself(self):
        r, w = decompose_quantile(4.0)  # exactly r+1 for r=3
        assert (r, w) == (4, 1.0)

    def test_below_one_clamps(self):
        assert decompose_quantile(0.4) == (1, 1.0)

    @given(v=st.floats(1.0, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction(self, v):
        r, w = decompose_quantile(v)
        assert 0.0 <= w <= 1.0
        assert isinstance(r, int) and r >= 1
        assert w * r + (1 - w) * (r + 1) == pytest.approx(v, abs=2e-9)


class TestMirror:
    def test_two_point_example(self):
        d = DiscreteTabular((1.0, 2.0), (0.4, 0.6))
        q = mirror_below_reserve(d, 0.9)
        assert q == pytest.approx(0.525, abs=1e-12)
        assert revenue_curve_hull(d, q) == pytest.approx(revenue_curve_hull(d, 0.9), abs=1e-12)

    def test_mirror_preserves_threshold_objective(self):
        d = DiscreteTabular((1.0, 2.0), (0.4, 0.6))
        hi = pair_objective(d, threshold_fill(d.pmf[::-1], 0.9))
        lo = pair_objective(d, threshold_fill(d.pmf[::-1], 0.525))
        assert hi == pytest.approx(1.05, abs=1e-12)
        assert lo == pytest.approx(1.05, abs=1e-12)

    def test_quantile_below_peak_is_unchanged(self):
        d = DiscreteTabular((1.0, 2.0), (0.4, 0.6))
        assert mirror_below_reserve(d, 0.3) == 0.3

    def test_four_atom_interior_peak(self):
        d = DiscreteTabular((1.0, 2.0, 3.0, 4.0), (0.3, 0.45, 0.15, 0.1))
        q = mirror_below_reserve(d, 0.95)
        assert q == pytest.approx(61.0 / 130.0, abs=1e-12)
        assert q <= 0.7
        assert revenue_curve_hull(d, q) == pytest.approx(
            revenue_curve_hull(d, 0.95), abs=1e-12
        )


# ---------------------------------------------------------------------------
# empirical discretization
# ---------------------------------------------------------------------------


def _truncated_prior():
    return truncate_at(make_falpha(0.5, 1.0), 4.0, grid=[1.0, 2.0, 3.0, 4.0])


def _criterion_params():
    return SampleParams(gamma=0.2, xi=0.1, delta=0.1, m=9888)


def _criterion_instance():
    tr = _truncated_prior()
    return MultiItemInstance(budgets=(4.0, 4.0), item_limits=(2, 2), dists=((tr, tr), (tr, tr)))


def _criterion_models(rng):
    inst = _criterion_instance()
    p = _criterion_params()
    models = {
        (i, j): quiet_build(d.sample(rng, p.m), p) for i, j, d in inst.pairs()
    }
    return inst, models, p


class TestDiscretize:
    def test_atoms_form_a_probability_vector(self):
        rng = np.random.default_rng(np.random.Philox(key=[31, 0]))
        _, models, _ = _criterion_models(rng)
        for em in models.values():
            atoms = discretize_model(em)
            assert np.all(atoms.masses > 0)
            assert float(atoms.masses.sum()) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(atoms.values) < 0)  # strictly descending
            assert atoms.values[0] == em.point_mass_value
            assert np.all(np.diff(atoms.virtuals) <= 1e-12)  # nonincreasing

    def test_inner_atom_masses_are_tie_counts(self):
        # at xi = 0.01 the point mass sits on the top value 4, leaving 3 and 2
        # as inner atoms; the last atom ends at 1, not at a grid point
        p = SampleParams(gamma=0.2, xi=0.01, delta=0.1)
        inner = 0
        for seed in range(20):
            rng = np.random.default_rng(np.random.Philox(key=[seed, 34]))
            em = quiet_build(_truncated_prior().sample(rng, 9888), p)
            atoms = discretize_model(em)
            kept = em.retained_values()
            for value, mass in zip(atoms.values[1:-1], atoms.masses[1:-1]):
                assert mass == pytest.approx(np.count_nonzero(kept == value) / em.m, abs=1e-12)
                inner += 1
        assert inner > 0

    def test_atoms_scale_with_the_unit_of_value(self):
        # the point mass used to be told from the atoms below it by an
        # absolute 1e-12, which dropped the atom 2 at a scale of 2**-40 and
        # both inner atoms at 2**-45.  Multiplying by a power of two is
        # exact, so the scaled atoms must be equal bit for bit
        rng = np.random.default_rng(np.random.Philox(key=[35, 0]))
        draws = _truncated_prior().sorted_sample(rng, 9888)
        p = _criterion_params()
        unit = discretize_model(quiet_build(draws, p))
        assert len(unit.values) == 3  # the point mass and two inner atoms
        for e in range(-45, 31):
            c = 2.0**e
            scaled = discretize_model(quiet_build(c * draws, p))
            assert scaled.values.tolist() == (c * unit.values).tolist()
            assert scaled.virtuals.tolist() == (c * unit.virtuals).tolist()
            assert scaled.masses.tolist() == unit.masses.tolist()
            assert scaled.boundaries.tolist() == unit.boundaries.tolist()

    def test_implied_curve_matches_the_envelope_at_boundaries(self):
        rng = np.random.default_rng(np.random.Philox(key=[32, 0]))
        _, models, _ = _criterion_models(rng)
        em = models[(0, 0)]
        atoms = discretize_model(em)
        np.testing.assert_allclose(
            atoms.cr(atoms.boundaries), em.envelope_at(atoms.boundaries), atol=1e-14
        )
        # total virtual mass anchors at zero: CR(1) = 0
        assert float(atoms.masses @ atoms.virtuals) == pytest.approx(0.0, abs=1e-12)

    def test_budget_bounds_the_empirical_curve_slope(self):
        rng = np.random.default_rng(np.random.Philox(key=[33, 0]))
        inst, models, _ = _criterion_models(rng)
        grid = np.linspace(0.0, 1.0, 201)
        for (i, j), em in models.items():
            atoms = discretize_model(em)
            assert np.all(atoms.cr(grid) <= inst.budgets[i] * grid + 1e-12)
            assert np.all(em.envelope_at(grid) <= inst.budgets[i] * grid + 1e-12)


# ---------------------------------------------------------------------------
# pricing plan
# ---------------------------------------------------------------------------


class TestPricingPlan:
    def test_zero_aggregate_clamps_to_the_quantile_floor(self):
        rng = np.random.default_rng(np.random.Philox(key=[41, 0]))
        inst, models, p = _criterion_models(rng)
        qsol = QuantileSolution(x_star=np.zeros((2, 2)), thresholds={}, objective=0.0, tag="LP3")
        plan = make_pricing_plan(qsol, inst, models, p)
        floor = plan.xi_bar * (1 + p.gamma) ** 2
        np.testing.assert_allclose(plan.z_star, floor, atol=1e-15)

    def test_scaling_constants_on_a_two_by_two_instance(self):
        coin = unit_coin()
        inst = MultiItemInstance(
            budgets=(10.0, 10.0),
            item_limits=(1, 1),
            dists=((coin, coin), (coin, coin)),
        )
        p = SampleParams(gamma=0.1, xi=0.0018, delta=0.1, m=1000)
        rng = np.random.default_rng(np.random.Philox(key=[42, 0]))
        models = {(i, j): quiet_build(d.sample(rng, p.m), p) for i, j, d in inst.pairs()}
        qsol = QuantileSolution(x_star=np.zeros((2, 2)), thresholds={}, objective=0.0, tag="LP3")
        plan = make_pricing_plan(qsol, inst, models, p)
        assert plan.xi_bar == pytest.approx(0.001, rel=1e-15)
        assert plan.c == pytest.approx(2.9282, rel=1e-12)
        assert plan.c_prime == pytest.approx(2.42, rel=1e-12)
        assert plan.p_offer == pytest.approx(0.206048, abs=1e-4)
        exact = (1 - plan.c * plan.xi_bar) / (4 * (1 + p.gamma) ** 2)
        assert plan.p_offer == pytest.approx(exact, rel=1e-12)

    def test_offer_probability_approaches_one_quarter(self):
        coin = unit_coin()
        inst = MultiItemInstance(budgets=(10.0,), item_limits=(1,), dists=((coin,),))
        p = SampleParams(gamma=1e-3, xi=5e-4, delta=0.1, m=1000)
        rng = np.random.default_rng(np.random.Philox(key=[43, 0]))
        models = {(0, 0): quiet_build(coin.sample(rng, p.m), p)}
        qsol = QuantileSolution(x_star=np.zeros((1, 1)), thresholds={}, objective=0.0, tag="LP3")
        plan = make_pricing_plan(qsol, inst, models, p)
        assert plan.p_offer == pytest.approx(0.25, abs=2e-3)

    def test_price_mixture_is_a_convex_combination_in_the_support(self):
        rng = np.random.default_rng(np.random.Philox(key=[44, 0]))
        inst, models, p = _criterion_models(rng)
        lp3 = build_lp3(inst, models, p)
        qsol = aggregate(solve(lp3), lp3, inst)
        plan = make_pricing_plan(qsol, inst, models, p)
        for i, j, d in inst.pairs():
            r, w = int(plan.r_bar[i, j]), float(plan.w_bar[i, j])
            assert r in {1, 2, 3, 4}
            assert 0.0 <= w <= 1.0
            em = models[(i, j)]
            v = em.value_at_quantile(float(plan.z_star[i, j]))
            assert plan.expected_price(i, j) == pytest.approx(max(v, 1.0), abs=2e-9)

    def test_witness_vector_lives_in_lp2_coordinates(self):
        rng = np.random.default_rng(np.random.Philox(key=[45, 0]))
        inst, models, p = _criterion_models(rng)
        lp3 = build_lp3(inst, models, p)
        qsol = aggregate(solve(lp3), lp3, inst)
        plan = make_pricing_plan(qsol, inst, models, p)
        lp2 = build_lp2(inst)
        assert plan.y_bar_keys == lp2.var_keys
        cap = (1 - plan.c * plan.xi_bar) / (1 + p.gamma) ** 2
        assert np.all(plan.y_bar >= 0.0)
        assert np.all(plan.y_bar <= cap + 1e-15)


# ---------------------------------------------------------------------------
# feasibility reporting
# ---------------------------------------------------------------------------


class TestFeasibility:
    def test_origin_slacks_equal_the_rhs(self):
        rep = check_lp2_feasible(np.zeros(2), unit_instance())
        assert rep.feasible
        assert rep.slacks == {"count[0]": 1.0, "budget[0]": 10.0, "supply[0]": 1.0}
        assert rep.box_slack == 0.0

    def test_all_ones_is_feasible_with_a_large_budget(self):
        rep = check_lp2_feasible(np.ones(2), unit_instance())
        assert rep.feasible
        assert rep.slacks["count[0]"] == pytest.approx(0.0, abs=1e-15)
        assert rep.slacks["budget[0]"] == pytest.approx(9.0, abs=1e-15)

    def test_negative_slack_is_reported(self):
        d = DiscreteTabular((1.0, 2.0, 3.0, 4.0, 5.0), (0.2, 0.2, 0.2, 0.2, 0.2))
        inst = MultiItemInstance(budgets=(5.0,), item_limits=(1,), dists=((d,),))
        rep = check_lp2_feasible(np.full(5, 6.0), inst)
        assert not rep.feasible
        assert rep.slacks["budget[0]"] == pytest.approx(-1.0, abs=1e-12)
        assert rep.box_slack == pytest.approx(-5.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            check_lp2_feasible(np.zeros(3), unit_instance())


# ---------------------------------------------------------------------------
# the two conditional guarantees on covered builds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def covered_plans():
    """Builds at the reference configuration whose coverage event holds for
    all four pairs, solved through the sample-based program."""
    inst = _criterion_instance()
    p = _criterion_params()
    rng = np.random.default_rng(np.random.Philox(key=[314, 0]))
    out = []
    attempts = 0
    for _ in range(10):
        attempts += 1
        models = {(i, j): quiet_build(d.sample(rng, p.m), p) for i, j, d in inst.pairs()}
        if not all(models[(i, j)].coverage_event_holds(d) for i, j, d in inst.pairs()):
            continue
        lp3 = build_lp3(inst, models, p)
        sol3 = solve(lp3)
        qsol = aggregate(sol3, lp3, inst)
        plan = make_pricing_plan(qsol, inst, models, p)
        out.append((models, sol3, qsol, plan))
    return inst, p, out, attempts


class TestConditionalGuarantees:
    def test_exact_program_optimum_is_eight_thirds(self):
        sol = solve(build_lp2(_criterion_instance()))
        assert sol.objective == pytest.approx(8.0 / 3.0, abs=1e-10)

    def test_most_builds_are_covered(self, covered_plans):
        _, _, plans, attempts = covered_plans
        assert attempts == 10
        assert len(plans) >= 8

    def test_witness_point_is_feasible_for_the_exact_program(self, covered_plans):
        inst, _, plans, _ = covered_plans
        for _, _, _, plan in plans:
            rep = check_lp2_feasible(plan.y_bar, inst)
            assert rep.worst() >= -1e-9

    def test_sample_program_value_bound(self, covered_plans):
        inst, p, plans, _ = covered_plans
        g = p.gamma
        v2 = 8.0 / 3.0
        for models, _, _, plan in plans:
            xb = plan.xi_bar
            factor = (
                (1 - plan.c * xb)
                * (1 - plan.c_prime * xb)
                * (1 - xb * (1 + g) ** 2)
                * (1 - xb * (1 + g) ** 3)
                / (1 + g) ** 9
            )
            v3 = 0.0
            for k, (i, j, r) in enumerate(plan.y_bar_keys):
                d = inst.dists[i][j]
                idx = int(np.searchsorted(d.support, r))
                em = models[(i, j)]
                phi_bar = em.empirical_virtual(float(em.quantile_of_value(r)))
                v3 += float(d.pmf[idx]) * phi_bar * float(plan.y_bar[k])
            assert v3 >= factor * v2 - 1e-9

    def test_sample_program_aggregate_identity(self, covered_plans):
        _, _, plans, _ = covered_plans
        for _, sol3, qsol, _ in plans:
            assert qsol.objective == pytest.approx(sol3.objective, abs=1e-10)

    def test_quantile_floor_respected(self, covered_plans):
        _, p, plans, _ = covered_plans
        for _, _, _, plan in plans:
            floor = plan.xi_bar * (1 + p.gamma) ** 2
            assert np.all(plan.z_star >= floor - 1e-15)


class TestDump:
    def test_mentions_every_row_and_the_box(self):
        text = build_lp2(unit_instance()).dump()
        for token in ("LP2", "count[0]", "budget[0]", "supply[0]", "<=", "0 <= x <= 1"):
            assert token in text
