"""Monte Carlo engine, oracles, experiment registry, and CLI.

The oracles here are the independent side of every simulation claim, so
their own tests pin them to hand-derived constants before anything else is
allowed to trust them.  The vectorized experiment runners are checked for
exact agreement with the per-auction mechanism functions on shared draws.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from srauctions.dists import (
    DiscreteTabular,
    make_falpha,
    make_random_alpha_sr_discrete,
)
from srauctions.harness import (
    CSV_COLUMNS,
    EXPERIMENTS,
    Accumulator,
    ExperimentConfig,
    MetricSummary,
    Report,
    UnknownExperimentError,
    META_STREAM_BASE,
    criterion_instance,
    exact_pricing_plan,
    expected_order_statistic_iid,
    lazy_vcg_k_uniform,
    lottery_k_uniform,
    meta_stream,
    monte_carlo,
    myerson_optimal_revenue_iid,
    oracle_exact_expectation,
    oracle_feasible_argmax,
    oracle_optimal_revenue_single_item,
    posted_price_runs,
    render_csv,
    run_experiment,
    second_price_of_pooled,
    stream,
    two_mech_k_uniform,
    wilson_interval,
)
from srauctions.harness.cli import main as cli_main
from srauctions.harness.experiments import DEFAULT_SEED, _two_mech_setup
from srauctions.lp import PricingPlan
from srauctions.mechanisms import (
    ExplicitFeasibleSets,
    KUniformMatroid,
    lottery_mechanism,
    myerson_single_item,
    posted_price_mechanism,
    two_mech_budget,
    vcg,
    vcg_lazy,
    vcg_with_duplicates,
)

COIN = DiscreteTabular((1.0, 2.0), (0.5, 0.5))  # phi = (0, 2)


def single_item(n):
    return KUniformMatroid(1, n)


class FixedUniform:
    """Stands in for a Generator whose every ``random()`` draw is ``u``."""

    def __init__(self, u):
        self.u = float(u)

    def random(self):
        return self.u


class TestRngStreams:
    def test_same_key_same_draws(self):
        a = stream(5, 3).random(4)
        b = stream(5, 3).random(4)
        assert np.array_equal(a, b)

    def test_distinct_indices_diverge(self):
        assert not np.array_equal(stream(5, 0).random(4), stream(5, 1).random(4))

    def test_distinct_seeds_diverge(self):
        assert not np.array_equal(stream(5, 0).random(4), stream(6, 0).random(4))

    def test_meta_stream_offset(self):
        assert META_STREAM_BASE == 1 << 62
        a = meta_stream(9, 2).random(4)
        b = stream(9, META_STREAM_BASE + 2).random(4)
        assert np.array_equal(a, b)

    def test_meta_stream_rejects_negative_slot(self):
        with pytest.raises(ValueError):
            meta_stream(9, -1)


class TestAccumulator:
    def test_known_moments(self):
        acc = Accumulator()
        for x in (1.0, 2.0, 3.0, 4.0):
            acc.add(x)
        assert acc.mean == pytest.approx(2.5)
        # sample variance 5/3, stderr sqrt((5/3)/4)
        assert acc.stderr == pytest.approx(math.sqrt(5.0 / 12.0), rel=1e-12)

    def test_batch_matches_scalar(self):
        xs = stream(0, 0).random(257)
        a, b = Accumulator(), Accumulator()
        for x in xs:
            a.add(float(x))
        b.add_batch(xs)
        assert b.count == a.count == 257
        assert b.mean == pytest.approx(a.mean, rel=1e-12)
        assert b.stderr == pytest.approx(a.stderr, rel=1e-12)

    def test_merge(self):
        xs = stream(1, 0).random(100)
        whole, left, right = Accumulator(), Accumulator(), Accumulator()
        whole.add_batch(xs)
        left.add_batch(xs[:37])
        right.add_batch(xs[37:])
        merged = left.merge(right)
        assert merged.count == 100
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.stderr == pytest.approx(whole.stderr, rel=1e-12)

    def test_empty_and_singleton(self):
        acc = Accumulator()
        assert math.isnan(acc.mean)
        acc.add(3.0)
        assert acc.mean == 3.0
        assert acc.stderr == 0.0


class TestMonteCarlo:
    def test_deterministic_trial_has_zero_stderr(self):
        rep = monte_carlo(lambda rng: 7.0, trials=25, master_seed=1)
        m = rep.metric("value")
        assert m.value == 7.0
        assert m.stderr == 0.0
        assert (m.ci_lo, m.ci_hi) == (7.0, 7.0)

    def test_coin_revenue_near_one(self):
        rep = monte_carlo(
            lambda rng: 2.0 * (rng.random() < 0.5), trials=4000, master_seed=2
        )
        m = rep.metric("value")
        assert abs(m.value - 1.0) <= 4 * m.stderr
        assert m.ci_lo < 1.0 < m.ci_hi

    def test_mapping_trials_split_into_metrics(self):
        rep = monte_carlo(
            lambda rng: {"revenue": 1.0, "welfare": 2.0}, trials=10, master_seed=3
        )
        assert rep.metric("revenue").value == 1.0
        assert rep.metric("welfare").value == 2.0
        with pytest.raises(KeyError):
            rep.metric("nope")

    def test_same_seed_is_bit_identical(self):
        def trial(rng):
            return {"x": rng.random(), "y": rng.normal()}

        a = monte_carlo(trial, trials=50, master_seed=11)
        b = monte_carlo(trial, trials=50, master_seed=11)
        assert render_csv(a) == render_csv(b)
        c = monte_carlo(trial, trials=50, master_seed=12)
        assert render_csv(a) != render_csv(c)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            monte_carlo(lambda rng: 0.0, trials=0, master_seed=1)


class TestConfidenceIntervals:
    def test_ci_covers_known_mean(self):
        # Bernoulli(0.3): the 95% interval should cover the truth in roughly
        # 95 of 100 independent repetitions; with these fixed seeds the count
        # is deterministic, and anything below 88 would flag a broken CI.
        covered = 0
        for i in range(100):
            rep = monte_carlo(
                lambda rng: float(rng.random() < 0.3),
                trials=400,
                master_seed=1000 + i,
            )
            m = rep.metric("value")
            covered += m.ci_lo <= 0.3 <= m.ci_hi
        assert covered >= 88

    def test_wilson_interval_frozen(self):
        # hand-computed for 8 successes out of 10 at z = 1.95996...
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.490164, abs=1e-4)
        assert hi == pytest.approx(0.943320, abs=1e-4)

    def test_wilson_interval_edges(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0
        assert 0.0 < hi < 0.2
        lo, hi = wilson_interval(20, 20)
        assert 0.8 < lo < 1.0
        assert hi == 1.0
        with pytest.raises(ValueError):
            wilson_interval(1, 0)


class TestOracles:
    def test_single_coin_optimal_revenue(self):
        # phi(1) = 0, phi(2) = 2  ->  E[max(0, phi)] = 0.5 * 2 = 1
        assert oracle_optimal_revenue_single_item([COIN]) == pytest.approx(1.0)

    def test_two_coin_optimal_revenue(self):
        # only the (1,1) profile earns 0; the rest earn 2
        assert oracle_optimal_revenue_single_item([COIN, COIN]) == pytest.approx(1.5)

    def test_exact_expectation_of_max(self):
        val = oracle_exact_expectation([COIN, COIN], lambda v: max(v))
        assert val == pytest.approx(1.75)

    def test_myerson_revenue_continuous_one_bidder(self):
        d = make_falpha(0.5, 1.0)
        assert myerson_optimal_revenue_iid(d, 1) == pytest.approx(0.25, abs=1e-8)

    def test_myerson_revenue_continuous_two_bidders(self):
        d = make_falpha(0.5, 1.0)
        assert myerson_optimal_revenue_iid(d, 2) == pytest.approx(
            23.0 / 48.0, abs=1e-8
        )

    def test_myerson_revenue_discrete_delegates_to_enumeration(self):
        assert myerson_optimal_revenue_iid(COIN, 2) == pytest.approx(1.5)

    def test_order_statistics(self):
        d = make_falpha(0.5, 1.0)
        emax = expected_order_statistic_iid(d, 2, 1)
        emin = expected_order_statistic_iid(d, 2, 2)
        assert emax == pytest.approx(5.0 / 3.0, abs=1e-8)
        assert emin == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert emax / emin == pytest.approx(5.0, abs=1e-6)
        assert expected_order_statistic_iid(d, 4, 2) == pytest.approx(
            29.0 / 35.0, abs=1e-8
        )

    def test_order_statistic_rank_range(self):
        with pytest.raises(ValueError):
            expected_order_statistic_iid(COIN, 2, 3)

    def test_feasible_argmax_single_item(self):
        members, weight = oracle_feasible_argmax(single_item(2), [3.0, 2.0])
        assert members == (0,)
        assert weight == 3.0

    def test_feasible_argmax_drops_zeros(self):
        members, weight = oracle_feasible_argmax(single_item(3), [0.0, 0.0, 0.0])
        assert members == ()
        assert weight == 0.0

    def test_feasible_argmax_explicit_family(self):
        env = ExplicitFeasibleSets(2, [set(), {0}, {1}, {0, 1}])
        members, weight = oracle_feasible_argmax(env, [1.0, 1.0])
        assert members == (0, 1)
        assert weight == 2.0

    def test_feasible_argmax_tie_prefers_small_index(self):
        members, _ = oracle_feasible_argmax(single_item(2), [2.0, 2.0])
        assert members == (0,)


class TestOracleAgreement:
    """Monte Carlo means must land on the enumeration oracles."""

    def _mc_vs_oracle(self, dists, statistic, trials=4000, seed=21):
        def trial(rng):
            values = tuple(float(d.sample(rng, 1)[0]) for d in dists)
            return statistic(values)

        rep = monte_carlo(trial, trials=trials, master_seed=seed)
        m = rep.metric("value")
        exact = oracle_exact_expectation(dists, statistic)
        assert abs(m.value - exact) <= 4 * m.stderr + 1e-9

    def test_vcg_revenue_two_coins(self):
        env = single_item(2)
        self._mc_vs_oracle(
            [COIN, COIN], lambda v: vcg(env, list(v)).revenue
        )

    def test_vcg_revenue_random_discrete(self):
        rng = stream(77, 0)
        dists = [make_random_alpha_sr_discrete(rng, 0.5) for _ in range(3)]
        env = single_item(3)
        self._mc_vs_oracle(
            dists, lambda v: vcg(env, list(v)).revenue, trials=6000, seed=22
        )

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
    def test_two_mech_experiment_matches_enumeration(self, seed):
        # every profile and both coins through the per-auction mechanism
        rep = run_experiment(
            "two-mech", ExperimentConfig(experiment_id="two-mech", master_seed=seed)
        )
        env, dists, budgets = _two_mech_setup(seed)
        for name in ("welfare", "revenue"):

            def coin_mean(v):
                return 0.5 * sum(
                    getattr(two_mech_budget(env, dists, list(v), budgets, coin), name)
                    for coin in (1, 2)
                )

            exact = oracle_exact_expectation(dists, coin_mean)
            m = rep.metric(name)
            assert abs(m.value - exact) <= 4 * m.stderr

    def test_myerson_revenue_random_discrete(self):
        rng = stream(78, 0)
        dists = [make_random_alpha_sr_discrete(rng, 0.4) for _ in range(2)]
        self._mc_vs_oracle(
            dists,
            lambda v: myerson_single_item(dists, list(v)).revenue,
            trials=6000,
            seed=23,
        )


class TestVectorizedRunners:
    """The chunked fast paths must agree with the per-auction functions."""

    def test_second_price_matches_duplicate_auction(self):
        rng = stream(31, 0)
        for n in (1, 2, 3):
            values = make_falpha(0.5, 1.0).sample(rng, 200 * n).reshape(200, n)
            dups = make_falpha(0.5, 1.0).sample(rng, 200 * n).reshape(200, n)
            pooled = np.concatenate([values, dups], axis=1)
            fast = second_price_of_pooled(pooled)
            env = single_item(n)
            for t in range(200):
                out = vcg_with_duplicates(env, values[t], dups[t])
                assert fast[t] == pytest.approx(out.revenue, abs=1e-12)

    def test_lazy_vcg_matches_mechanism(self):
        rng = stream(32, 0)
        n, k = 4, 2
        reserves = np.array([0.8, 1.0, 1.2, 0.9])
        values = make_falpha(0.5, 1.0).sample(rng, 300 * n).reshape(300, n)
        # exact ties must break toward the smaller index on both routes
        values[0] = [2.0, 2.0, 2.0, 0.5]
        values[1] = [1.0, 1.0, 1.0, 1.0]
        revenue, welfare = lazy_vcg_k_uniform(values, k, reserves)
        env = KUniformMatroid(k, n)
        top_k = np.sort(values, axis=1)[:, -k:].sum(axis=1)
        assert np.allclose(welfare, top_k, atol=1e-12)
        for t in range(300):
            out = vcg_lazy(env, values[t], reserves)
            assert revenue[t] == pytest.approx(out.revenue, abs=1e-12)

    def test_lazy_vcg_single_bidder(self):
        values = np.array([[2.0], [0.5]])
        revenue, welfare = lazy_vcg_k_uniform(values, 1, np.array([1.0]))
        assert revenue.tolist() == [1.0, 0.0]
        assert welfare.tolist() == [2.0, 0.5]

    def test_two_mech_matches_mechanism(self):
        rng = stream(37, 0)
        coin = DiscreteTabular((1.0, 2.0), (0.5, 0.5))  # phi(1) is exactly 0
        rand = [make_random_alpha_sr_discrete(rng, 0.5) for _ in range(2)]
        cases = (
            ([coin, coin, rand[0]], (1.5, 2.5, 2.5)),
            ([rand[0], rand[1], rand[0]], (1.5, 2.5, 4.0)),  # same-prior ties
            ([rand[1], coin, rand[1], coin], (2.5, 1.5, 9.0, 9.0)),
        )
        for priors, budgets in cases:
            n = len(priors)
            values = np.column_stack([d.sample(rng, 300) for d in priors])
            values[:20] = values[:20, :1]  # equal values, so equal virtual values
            coins = rng.integers(1, 3, 300)
            for k in (0, 1, 2, n):
                env = KUniformMatroid(k, n)
                revenue, welfare = two_mech_k_uniform(values, budgets, coins, priors, k)
                for t in range(300):
                    out = two_mech_budget(env, priors, values[t], budgets, int(coins[t]))
                    assert revenue[t] == pytest.approx(out.revenue, abs=1e-12)
                    assert welfare[t] == pytest.approx(out.welfare, abs=1e-12)

    def test_two_mech_rejects_bad_input(self):
        values = np.ones((2, 2))
        with pytest.raises(ValueError, match="coins"):
            two_mech_k_uniform(values, (1.0, 1.0), np.array([1, 3]), [COIN, COIN], 1)
        with pytest.raises(TypeError):
            two_mech_k_uniform(
                values, (1.0, 1.0), np.array([1, 2]), [COIN, make_falpha(0.5, 1.0)], 1
            )

    def test_lottery_matches_mechanism(self):
        rng = stream(38, 0)
        d = make_falpha(0.5, 1.0)
        n, rows = 3, 400
        # small anchors post prices, large ones open menus; low budgets
        # leave menus unaffordable, and shared budgets tie capped weights.
        # The last three rows put a value on its posted price, a uniform on
        # its win probability (a = 0 when everyone is a member), and, in the
        # last case, the cheapest ticket of the tie winner 3.6e-15 above
        # its budget.
        tight = 21.429957571017287
        edge_values = [(2.0, 2.0, 0.1), (0.1, 0.1, 0.1), (30.0, 30.0, 0.1)]
        edge_budgets = [(3.0, 3.0, 3.0), (math.inf,) * 3, (tight,) * 3]
        edge_uniforms = [0.5, 1.0 / 3.0, 0.0]
        cases = (
            (1.0, 1.0, 1.0),
            (4.0, 6.0, 0.5),
            (0.0, 9.0, 3.0),
            (81.00969298941001, 81.00969298941001, 1.0),
        )
        for reserves in cases:
            values = d.sample(rng, rows * n).reshape(rows, n)
            budgets = rng.choice([0.2, 0.75, 3.0, math.inf], size=(rows, n))
            uniforms = np.repeat(rng.random((rows, 1)), n, axis=1)
            values[-3:], budgets[-3:] = edge_values, edge_budgets
            uniforms[-3:] = np.array(edge_uniforms)[:, None]
            for k in (0, 1, 2, n):
                env = KUniformMatroid(k, n)
                revenue, welfare = lottery_k_uniform(
                    values, budgets, uniforms, reserves, k
                )
                for t in range(rows):
                    out = lottery_mechanism(
                        env,
                        [d] * n,
                        values[t],
                        budgets[t],
                        FixedUniform(uniforms[t, 0]),
                        reserves=reserves,
                    )
                    assert revenue[t] == pytest.approx(out.revenue, abs=1e-12)
                    assert welfare[t] == pytest.approx(out.welfare, abs=1e-12)

    def test_posted_price_single_row_reproduces_scalar(self):
        inst = criterion_instance()
        plan, _ = exact_pricing_plan(inst)
        for t in range(30):
            values = np.empty((1, inst.n_bidders, inst.n_items))
            draw_rng = stream(33, t)
            for i, j, d in inst.pairs():
                values[0, i, j] = d.sample(draw_rng, 1)[0]
            out = posted_price_mechanism(inst, plan, values[0], stream(34, t))
            revenue, welfare, alloc = posted_price_runs(
                inst, plan, values, stream(34, t)
            )
            assert revenue[0] == pytest.approx(out.revenue, abs=1e-12)
            assert welfare[0] == pytest.approx(out.welfare, abs=1e-12)
            pairs = tuple(zip(*np.nonzero(alloc[0])))
            assert pairs == out.winners

    def test_posted_price_budget_gate_matches_scalar(self):
        # price 3 against budget 4: the second purchase must be refused by
        # both routes for lack of funds
        inst = criterion_instance()
        plan = PricingPlan(
            z_star=np.full((2, 2), 0.5),
            r_bar=np.full((2, 2), 3),
            w_bar=np.ones((2, 2)),
            p_offer=1.0,
            c=1.0,
            c_prime=1.0,
            gamma=0.1,
            xi_bar=0.01,
        )
        values = np.full((1, 2, 2), 4.0)
        out = posted_price_mechanism(inst, plan, values[0], stream(35, 0))
        revenue, welfare, alloc = posted_price_runs(inst, plan, values, stream(35, 0))
        assert out.revenue == 6.0  # one item each, never two
        assert revenue[0] == pytest.approx(out.revenue, abs=1e-12)
        assert int(alloc[0].sum()) == 2

    def test_posted_price_shape_check(self):
        inst = criterion_instance()
        plan, _ = exact_pricing_plan(inst)
        with pytest.raises(ValueError, match="shape"):
            posted_price_runs(inst, plan, np.zeros((3, 1, 2)), stream(36, 0))


class TestExperimentRegistry:
    def test_registry_ids(self):
        assert set(EXPERIMENTS) == {
            "vcg-duplicates",
            "vcgl",
            "vcgl-samp",
            "two-mech",
            "lottery",
            "lottery-samp",
            "posted-lp",
            "posted-lp-samp",
            "lemma-square",
        }

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(UnknownExperimentError) as exc:
            run_experiment("nope")
        assert "lemma-square" in str(exc.value)
        assert "posted-lp" in str(exc.value)

    def test_config_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment_id="vcgl", trials=0)

    def test_config_from_json_dict(self):
        cfg = ExperimentConfig.from_json_dict(
            "vcgl",
            {
                "trials": 500,
                "seed": 99,
                "sample_params": {"gamma": 0.2, "xi": 0.1, "delta": 0.1, "m": 64},
                "out": "r.csv",
            },
        )
        assert cfg.trials == 500
        assert cfg.master_seed == 99
        assert cfg.sample_params.m == 64
        assert cfg.out == "r.csv"

    def test_experiment_is_deterministic(self):
        a = run_experiment(
            "lemma-square", ExperimentConfig(experiment_id="lemma-square")
        )
        b = run_experiment(
            "lemma-square", ExperimentConfig(experiment_id="lemma-square")
        )
        assert render_csv(a) == render_csv(b)
        assert a.verdict

    def test_seed_changes_report(self):
        mk = lambda seed: run_experiment(
            "vcgl",
            ExperimentConfig(experiment_id="vcgl", trials=400, master_seed=seed),
        )
        assert render_csv(mk(1)) != render_csv(mk(2))


class TestReportCsv:
    def test_header_and_rows(self, tmp_path):
        rep = Report(
            experiment_id="demo",
            metrics=(
                MetricSummary.exact("v2", 8.0 / 3.0),
                MetricSummary("margin", 0.5, 0.1, 0.3, 0.7, target=2.0, passed=True),
            ),
            seed=7,
            trials=10,
            runtime_seconds=0.0,
        )
        path = tmp_path / "out.csv"
        text = render_csv(rep, str(path))
        assert path.read_text() == text
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1].startswith("demo,v2,2.66666666667,0,")
        assert lines[2].endswith(",2,pass,7,10")

    def test_verdict_logic(self):
        ok = MetricSummary("a", 1, 0, 1, 1, target=1.0, passed=True)
        bad = MetricSummary("b", 1, 0, 1, 1, target=1.0, passed=False)
        info = MetricSummary("c", 1, 0, 1, 1)
        mk = lambda *ms: Report("x", tuple(ms), 0, 1, 0.0)
        assert mk(ok, info).verdict
        assert not mk(ok, bad).verdict
        assert mk(info).verdict  # nothing bound-carrying -> vacuously true


FALPHA_SPEC = '{"kind": "falpha", "alpha": 0.5, "scale": 1.0}'


class TestCli:
    def test_dist_eval_frozen_values(self, capsys):
        cases = {
            "reserve": 1.0,
            "cdf": 0.75,  # 1 - (1+1)^-2
            "phi": 0.0,
            "welfare": 0.75,  # E[v; v >= 1] for the half-regular family
        }
        for what, expected in cases.items():
            rc = cli_main(
                ["dist", "eval", "--spec", FALPHA_SPEC, "--v", "1.0", "--what", what]
            )
            assert rc == 0
            out = capsys.readouterr().out.strip()
            assert float(out) == pytest.approx(expected, abs=1e-9)

    def test_dist_eval_revenue_curve(self, capsys):
        # the hulled revenue curve at quantile 1/4 is (1/4) * v(1/4) = 1/4
        rc = cli_main(
            ["dist", "eval", "--spec", FALPHA_SPEC, "--v", "0.25", "--what", "cr"]
        )
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.25, abs=1e-9)

    def test_sample_then_build_roundtrip(self, tmp_path, capsys):
        csv_path = tmp_path / "draws.csv"
        rc = cli_main(
            ["sample", "--spec", FALPHA_SPEC, "--m", "300", "--seed", "3",
             "--out", str(csv_path)]
        )
        assert rc == 0
        header, *rows = csv_path.read_text().strip().split("\n")
        assert header == "value"
        assert len(rows) == 300
        assert all(float(r) >= 0.0 for r in rows)

        report_path = tmp_path / "model.json"
        rc = cli_main(
            ["empirical", "build", "--in", str(csv_path), "--m", "300",
             "--gamma", "0.3", "--xi", "0.15", "--delta", "0.1",
             "--report", str(report_path)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "warning" in captured.err  # 300 draws is below grade
        report = json.loads(report_path.read_text())
        assert set(report) == {
            "model", "params", "validity", "empirical_reserve", "xi_bar"
        }
        assert report["validity"]["required_m"] > 300
        assert not report["validity"]["lemma_grade"]
        assert report["empirical_reserve"] > 0.0

    def test_build_needs_enough_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "short.csv"
        cli_main(["sample", "--spec", FALPHA_SPEC, "--m", "10", "--seed", "1",
                  "--out", str(csv_path)])
        rc = cli_main(
            ["empirical", "build", "--in", str(csv_path), "--m", "50",
             "--gamma", "0.3", "--xi", "0.15", "--delta", "0.1",
             "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert "need --m" in capsys.readouterr().err

    def test_sample_rejects_nonpositive_m(self, tmp_path, capsys):
        rc = cli_main(["sample", "--spec", FALPHA_SPEC, "--m", "0", "--seed", "1",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        capsys.readouterr()

    def test_mech_run_matches_oracle(self, tmp_path):
        config = {
            "env": {"kind": "k-uniform", "k": 1, "n": 2},
            "dists": [
                {"kind": "discrete", "support": [1, 2], "pmf": [0.5, 0.5]},
                {"kind": "discrete", "support": [1, 2], "pmf": [0.5, 0.5]},
            ],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "mech.csv"
        rc = cli_main(
            ["mech", "run", "--mech", "vcg", "--config", str(cfg_path),
             "--trials", "800", "--seed", "7", "--out", str(out_path)]
        )
        assert rc == 0
        rows = out_path.read_text().strip().split("\n")
        assert rows[0] == ",".join(CSV_COLUMNS)
        by_metric = {}
        for row in rows[1:]:
            cells = row.split(",")
            by_metric[cells[1]] = (float(cells[2]), float(cells[3]))
        mean, stderr = by_metric["revenue"]
        # E[min of two fair {1,2} coins] = 1.25
        assert abs(mean - 1.25) <= 4 * stderr

    def test_experiment_to_file(self, tmp_path):
        out_path = tmp_path / "lemma.csv"
        rc = cli_main(["experiment", "lemma-square", "--out", str(out_path)])
        assert rc == 0
        text = out_path.read_text()
        assert text.startswith(",".join(CSV_COLUMNS))
        assert ",fail," not in text

    def test_experiment_to_stdout(self, capsys):
        rc = cli_main(["experiment", "lemma-square"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith(",".join(CSV_COLUMNS))

    def test_experiment_unknown_id(self, capsys):
        rc = cli_main(["experiment", "not-an-experiment"])
        assert rc == 2
        assert "valid ids" in capsys.readouterr().err

    def test_experiment_config_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 300, "seed": 41}))
        out_path = tmp_path / "vcgl.csv"
        rc = cli_main(
            ["experiment", "vcgl", "--config", str(cfg_path), "--out", str(out_path)]
        )
        assert rc == 0
        assert ",41," in out_path.read_text()

    def test_console_script_is_wired(self):
        proc = subprocess.run(
            [sys.executable, "-m", "srauctions.harness.cli", "dist", "eval",
             "--spec", FALPHA_SPEC, "--v", "1.0", "--what", "reserve"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(1.0)
