"""Monte Carlo engine, oracles, experiment registry, and CLI.

The oracles here are the independent side of every simulation claim, so
their own tests pin them to hand-derived constants before anything else is
allowed to trust them.  The vectorized experiment runners, and ``mech
run``'s use of them, are checked for exact agreement with the per-auction
mechanism functions on shared draws.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import srauctions
from srauctions.dists import (
    DiscreteTabular,
    Exponential,
    make_falpha,
    make_random_alpha_sr_discrete,
)
from srauctions.empirical import SampleCountWarning, SampleParams
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
    myerson_optimal_revenue_iid,
    oracle_exact_expectation,
    oracle_feasible_argmax,
    oracle_optimal_revenue_single_item,
    posted_price_runs,
    render_csv,
    run_batched,
    run_experiment,
    second_price_of_pooled,
    stream,
    two_mech_k_uniform,
    wilson_interval,
)
from srauctions.harness import experiments, montecarlo
from srauctions.harness import rng as rng_module
from srauctions.harness.cli import MECH_CHOICES, mech_rows
from srauctions.harness.cli import main as cli_main
from srauctions.harness.experiments import (
    DEFAULT_SEED,
    _first_loser,
    _place_sum,
    _two_mech_setup,
)
from srauctions.harness.montecarlo import _CHUNK, _SUB_BLOCK
from srauctions.lp import PricingPlan
from srauctions.mechanisms import (
    ExplicitFeasibleSets,
    KUniformMatroid,
    lottery_bidder_choice,
    lottery_mechanism,
    lottery_offer,
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
        assert stream(5, 3).bit_generator.state == stream(5, 3).bit_generator.state

    def test_first_doubles_are_pinned(self):
        # Every report digest rests on these bits.  If this fails, numpy's
        # SeedSequence or PCG64DXSM changed, not the stream layout.
        assert stream(1, 0).random(3).tolist() == [
            0.025065769332332066,
            0.7533664606775434,
            0.7917972681977082,
        ]

    def test_stream_is_the_seed_sequence_child(self):
        child = np.random.SeedSequence(7).spawn(4)[3]
        expected = np.random.Generator(np.random.PCG64DXSM(child)).random(4)
        assert np.array_equal(stream(7, 3).random(4), expected)

    def test_word_boundary_pairs_diverge(self):
        # the same 32-bit words split differently between seed and index
        a = stream(1 + 5 * 2**32, 7).random(4)
        b = stream(1, 5 + 7 * 2**32).random(4)
        assert not np.array_equal(a, b)

    def test_block_and_meta_streams_diverge(self):
        a = rng_module.block_stream(9, 0, 0).random(4)
        b = meta_stream(9, 0).random(4)
        assert not np.array_equal(a, b)

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

    def test_boolean_batch_adds_what_its_floats_add(self):
        hits = stream(2, 0).random((1000, 3)) < 0.3
        for xs in (hits, hits[:, 1], hits[::7, 2], np.zeros(5, dtype=bool)):
            as_bool, as_float = Accumulator(), Accumulator()
            as_bool.add_batch(xs)
            as_float.add_batch(xs.astype(float))
            for attr in ("count", "total", "total_sq", "mean", "stderr"):
                assert repr(getattr(as_bool, attr)) == repr(getattr(as_float, attr))

    def test_empty_and_singleton(self):
        acc = Accumulator()
        assert math.isnan(acc.mean)
        acc.add(3.0)
        assert acc.mean == 3.0
        assert acc.stderr == 0.0


def batched_report(batch_fn, trials, master_seed):
    accs = run_batched(batch_fn, trials, master_seed)
    metrics = tuple(MetricSummary.from_accumulator(k, acc) for k, acc in accs.items())
    return Report("monte-carlo", metrics, master_seed, trials, 0.0)


class TestMonteCarlo:
    def test_deterministic_trial_has_zero_stderr(self):
        rep = batched_report(lambda rng, rows: {"value": np.full(rows, 7.0)}, 25, 1)
        m = rep.metric("value")
        assert m.value == 7.0
        assert m.stderr == 0.0
        assert (m.ci_lo, m.ci_hi) == (7.0, 7.0)

    def test_coin_revenue_near_one(self):
        rep = batched_report(
            lambda draws, rows: {"value": 2.0 * (draws.section(1).random(rows) < 0.5)}, 4000, 2
        )
        m = rep.metric("value")
        assert abs(m.value - 1.0) <= 4 * m.stderr
        assert m.ci_lo < 1.0 < m.ci_hi

    def test_mapping_trials_split_into_metrics(self):
        rep = batched_report(
            lambda rng, rows: {"revenue": np.ones(rows), "welfare": np.full(rows, 2.0)},
            10,
            3,
        )
        assert rep.metric("revenue").value == 1.0
        assert rep.metric("welfare").value == 2.0
        with pytest.raises(KeyError):
            rep.metric("nope")

    def test_same_seed_is_bit_identical(self):
        def batch(draws, rows):
            return {"x": draws.section(1).random(rows), "y": draws.rest().normal(size=rows)}

        a = batched_report(batch, 50, 11)
        b = batched_report(batch, 50, 11)
        assert render_csv(a) == render_csv(b)
        c = batched_report(batch, 50, 12)
        assert render_csv(a) != render_csv(c)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_batched(lambda rng, rows: {"value": np.zeros(rows)}, 0, 1)

    def test_block_c_draws_from_stream_c(self, monkeypatch):
        # the engine looks stream up on the rng module at call time, so a
        # wrapper installed there sees every block, once whatever its
        # sub-blocks; a one-section batch reads its block stream from word 0
        calls = []

        def counted(seed, index):
            calls.append((seed, index))
            return stream(seed, index)

        monkeypatch.setattr(rng_module, "stream", counted)
        seen = []

        def batch(draws, rows):
            seen.append(draws.section(1).random(rows))
            return {"value": np.zeros(rows)}

        accs = run_batched(batch, 2 * _CHUNK + 3, 9)
        assert accs["value"].count == 2 * _CHUNK + 3
        assert calls == [(9, 0), (9, 1), (9, 2)]
        assert len(seen) == 2 * -(-_CHUNK // _SUB_BLOCK) + 1
        expected = [stream(9, c).random(r) for c, r in enumerate((_CHUNK, _CHUNK, 3))]
        assert np.array_equal(np.concatenate(seen), np.concatenate(expected))
        # block c of case s draws from stream (s << 32) | c
        calls.clear()
        seen.clear()
        run_batched(batch, _CHUNK + 1, 9, case=5)
        assert calls == [(9, 5 << 32), (9, (5 << 32) | 1)]
        expected = [stream(9, 5 << 32).random(_CHUNK), stream(9, (5 << 32) | 1).random(1)]
        assert np.array_equal(np.concatenate(seen), np.concatenate(expected))

    @pytest.mark.parametrize("case", [-1, 1 << 30, 1 << 40])
    def test_case_outside_its_range_raises(self, case):
        # every trial stream index stays below META_STREAM_BASE
        with pytest.raises(ValueError, match="case must lie in"):
            run_batched(lambda rng, rows: {"value": np.zeros(rows)}, 3, 9, case=case)
        assert ((((1 << 30) - 1) << 32) | ((1 << 32) - 1)) < META_STREAM_BASE


def draws_of(gen, rows):
    """The draws of a one-block run of ``rows`` rows from ``gen``'s stream,
    whose sections lie back to back from ``gen``'s position."""
    return montecarlo.Draws(montecarlo._Block(gen, rows), 0, rows)


def sub_blocks(trials, chunk, sub):
    """(block, first row, rows) of every sub-block of a run, in run order."""
    out = []
    for c, start in enumerate(range(0, trials, chunk)):
        rows = min(chunk, trials - start)
        out += [(c, a, min(sub, rows - a)) for a in range(0, rows, sub)]
    return out


class TestDraws:
    """A sub-block's ``section(w)`` holds its rows of a section laid out
    row-major after the earlier sections' ``rows * w`` words of the block
    stream, and ``rest()`` continues after them all."""

    @pytest.mark.parametrize("trial", range(12))
    def test_sections_are_slices_of_the_block_stream(self, monkeypatch, trial):
        gen = np.random.default_rng(trial)
        chunk = int(gen.integers(1, 60))
        sub = int(gen.integers(1, 2 * chunk))  # some blocks are shorter than a sub-block
        trials = int(gen.integers(1, 4 * chunk))
        widths = gen.integers(0, 4, size=gen.integers(1, 5)).tolist()
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        monkeypatch.setattr(montecarlo, "_SUB_BLOCK", sub)
        seen = []

        def batch(draws, rows):
            assert draws.rows == rows
            sections = [draws.section(w).random((rows, w)) for w in widths]
            seen.append((rows, sections, draws.rest().random(3)))
            return {"value": np.zeros(rows)}

        case, seed = trial % 3, 100 + trial
        assert run_batched(batch, trials, seed, case)["value"].count == trials
        layout = sub_blocks(trials, chunk, sub)
        assert [rows for rows, _, _ in seen] == [rows for _, _, rows in layout]
        for c in range(layout[-1][0] + 1):
            mine = [(a, got) for (b, a, _), got in zip(layout, seen) if b == c]
            block_rows = sum(rows for _, (rows, _, _) in mine)
            words = block_rows * sum(widths)
            stream_c = rng_module.block_stream(seed, case, c).random(words + 3 * len(mine))
            for j, (a, (rows, sections, rest)) in enumerate(mine):
                base = 0
                for w, got in zip(widths, sections):
                    want = stream_c[base + a * w : base + (a + rows) * w].reshape(rows, w)
                    assert np.array_equal(got, want)
                    base += block_rows * w
                assert np.array_equal(rest, stream_c[words + 3 * j : words + 3 * j + 3])

    @pytest.mark.parametrize(
        "asks, message",
        [
            ([(1, 2), (2, 1)], "section 0 has width 1, asked for 2"),
            ([(1, 2), (1,)], "sub-block 0 asked for 2 sections, this one for 1"),
            ([(1, 2), (1, 2, 3)], "sub-block 0 asked for 2 sections, this one for more"),
            ([(1,), ()], "sub-block 0 asked for 1 sections, this one for 0"),
        ],
        ids=["out-of-order", "fewer", "more", "none"],
    )
    def test_a_sub_block_that_asks_otherwise_raises(self, monkeypatch, asks, message):
        monkeypatch.setattr(montecarlo, "_SUB_BLOCK", 4)
        calls = iter(asks)

        def batch(draws, rows):
            for w in next(calls):
                draws.section(w).random((rows, w))
            return {"value": np.zeros(rows)}

        with pytest.raises(ValueError, match=re.escape(message)):
            run_batched(batch, 8, 1)

    @pytest.mark.parametrize("sub", [4, 8])
    def test_a_section_after_rest_raises(self, monkeypatch, sub):
        monkeypatch.setattr(montecarlo, "_SUB_BLOCK", sub)

        def batch(draws, rows):
            draws.rest()
            return {"value": draws.section(1).random(rows)}

        with pytest.raises(ValueError, match=re.escape("a section was asked for after rest()")):
            run_batched(batch, 8, 1)

    def test_sub_blocks_with_other_metrics_raise(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_SUB_BLOCK", 4)
        names = iter(["a", "b"])

        def batch(draws, rows):
            return {next(names): np.zeros(rows)}

        with pytest.raises(ValueError, match="sub-block metrics"):
            run_batched(batch, 8, 1)

    @pytest.mark.parametrize("sub", [1, 7, 64, 1000, _CHUNK])
    def test_the_sub_block_size_changes_no_byte(self, monkeypatch, sub):
        # every batch kind of the experiments and of mech run, its scalar
        # rows reading rest() for draws of variable count included
        inst = criterion_instance()
        plan, _ = exact_pricing_plan(inst)
        d = make_falpha(0.5, 1.0)
        explicit = mech_rows("lottery", dict(MECH_CONFIG, env=EXPLICIT_ENV), seed=1)
        batches = {
            "posted": (experiments._posted_batch(inst, plan), 700),
            "vcgl": (experiments._lazy_vcg_batch(d, 3, 2, np.ones(3)), 700),
            "two-mech": (mech_rows("two-mech", MECH_CONFIG, seed=1).batch, 700),
            "lottery-explicit": (explicit.batch, 150),
        }

        def sums(fn, trials):
            accs = run_batched(fn, trials, 4, case=2)
            return {k: (a.count, a.total, a.total_sq) for k, a in accs.items()}

        whole = {name: sums(fn, trials) for name, (fn, trials) in batches.items()}
        monkeypatch.setattr(montecarlo, "_SUB_BLOCK", sub)
        for name, (fn, trials) in batches.items():
            assert sums(fn, trials) == whole[name], name


#: the small sampled configs of test_criterion_11_determinism
SAMPLED_SMALL = {
    "vcgl-samp": dict(trials=2_000, sample_params=SampleParams(gamma=0.1, xi=0.01, delta=0.01, m=20_000)),
    "lottery-samp": dict(trials=2_000, sample_params=SampleParams(gamma=0.05, xi=0.05, delta=0.05, m=40_000)),
}


@pytest.mark.parametrize("experiment_id", sorted(SAMPLED_SMALL))
def test_sampled_experiments_start_no_thread(experiment_id, monkeypatch):
    """The sampled experiments run on the calling thread: with every thread
    start raising, they give an unpatched run's report.  Metrics are
    compared as floats too, since the CSV's 12 digits would hide a last-bit
    change in a sum."""
    cfg = ExperimentConfig(experiment_id=experiment_id, master_seed=4242, **SAMPLED_SMALL[experiment_id])

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountWarning)
            report = run_experiment(experiment_id, cfg)
        return render_csv(report), report.metrics, report.notes

    unpatched = run()

    def no_start(thread):
        raise AssertionError(f"{experiment_id} started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    assert run() == unpatched


@pytest.mark.parametrize("experiment_id", sorted(set(EXPERIMENTS) - set(SAMPLED_SMALL)))
def test_experiment_starts_no_thread(experiment_id, monkeypatch):
    """Every other experiment runs on the calling thread too, and gives the
    same report with every thread start raising."""
    cfg = ExperimentConfig(experiment_id=experiment_id, trials=200)

    def run():
        report = run_experiment(experiment_id, cfg)
        return render_csv(report), report.metrics, report.notes

    unpatched = run()

    def no_start(thread):
        raise AssertionError(f"{experiment_id} started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    assert run() == unpatched


def test_library_neither_threads_nor_reads_the_cpu_count():
    """No library module imports threading or asks how many CPUs it may
    use, so a run's work and its peak memory do not depend on the host."""
    package = Path(srauctions.__file__).resolve().parent
    pattern = re.compile(r"threading|map_independent|sched_getaffinity|cpu_count")
    hits = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_vcgl_samp_resample_t_builds_from_meta_stream_t_and_runs_case_t(monkeypatch):
    """Resample t draws its two sorts from meta stream t and its auctions
    from case t's block streams, each once; the auctions run in t order,
    so the merged sums are those of a run in any build order."""
    builds, cases = [], []
    meta, batched = experiments.meta_stream, experiments.run_batched

    def logged_meta(seed, index):
        builds.append((seed, index))
        return meta(seed, index)

    def logged_batched(batch_fn, trials, seed, case=0):
        cases.append((trials, seed, case))
        return batched(batch_fn, trials, seed, case)

    monkeypatch.setattr(experiments, "meta_stream", logged_meta)
    monkeypatch.setattr(experiments, "run_batched", logged_batched)
    cfg = ExperimentConfig(experiment_id="vcgl-samp", master_seed=77, **SAMPLED_SMALL["vcgl-samp"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleCountWarning)
        report = run_experiment("vcgl-samp", cfg)
    assert builds == [(77, t) for t in range(100)]
    assert cases == [(2_000, 77, t) for t in range(100)]
    assert "resamples=100" in report.notes


class TestConfidenceIntervals:
    def test_ci_covers_known_mean(self):
        # Bernoulli(0.3): the 95% interval should cover the truth in roughly
        # 95 of 100 independent repetitions; with these fixed seeds the count
        # is deterministic, and anything below 88 would flag a broken CI.
        covered = 0
        for i in range(100):
            rep = batched_report(
                lambda draws, rows: {"value": (draws.section(1).random(rows) < 0.3).astype(float)},
                400,
                1000 + i,
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
        def batch(draws, rows):
            values = np.column_stack([d.sample(draws.section(1), rows) for d in dists])
            return {"value": np.array([statistic(tuple(v)) for v in values.tolist()])}

        acc = run_batched(batch, trials, seed)["value"]
        exact = oracle_exact_expectation(dists, statistic)
        assert abs(acc.mean - exact) <= 4 * acc.stderr + 1e-9

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


def argsort_lazy_vcg(values, k, reserves):
    """``lazy_vcg_k_uniform`` written with a stable row argsort and row
    sums: the column runner must equal it bit for bit."""
    order = np.argsort(-values, axis=1, kind="stable")
    top_vals = np.take_along_axis(values, order[:, :k], axis=1)
    if values.shape[1] > k:
        base = np.take_along_axis(values, order[:, k : k + 1], axis=1)
    else:
        base = np.zeros((values.shape[0], 1))
    res = np.asarray(reserves, dtype=float)[order[:, :k]]
    keep = top_vals >= res
    revenue = (keep * np.maximum(res, base)).sum(axis=1)
    return revenue, top_vals.sum(axis=1), (keep * top_vals).sum(axis=1)


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
        revenue, welfare, realized = lazy_vcg_k_uniform(values, k, reserves)
        env = KUniformMatroid(k, n)
        top_k = np.sort(values, axis=1)[:, -k:].sum(axis=1)
        assert np.allclose(welfare, top_k, atol=1e-12)
        assert (realized < welfare).any()  # some winner misses its reserve
        for t in range(300):
            out = vcg_lazy(env, values[t], reserves)
            assert revenue[t] == pytest.approx(out.revenue, abs=1e-12)
            assert realized[t] == pytest.approx(out.welfare, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lazy_vcg_dense_ties_match_mechanism(self, n):
        # values and reserves on a half-unit grid, so that most rows tie
        rng = stream(39, n)
        rows = 200
        values = np.round(make_falpha(0.5, 1.0).sample(rng, rows * n).reshape(rows, n) * 2) / 2
        reserves = np.round(rng.random(n) * 4) / 2
        for k in range(n + 2):
            revenue, welfare, realized = lazy_vcg_k_uniform(values, k, reserves)
            reference = argsort_lazy_vcg(values, k, reserves)
            assert [a.tobytes() for a in (revenue, welfare, realized)] == [
                a.tobytes() for a in reference
            ]
            top_k = -np.sort(-values, axis=1)[:, :k].sum(axis=1)
            np.testing.assert_allclose(welfare, top_k, rtol=0, atol=1e-12)
            env = KUniformMatroid(k, n)
            for t in range(rows):
                out = vcg_lazy(env, values[t], reserves)
                assert revenue[t] == pytest.approx(out.revenue, abs=1e-12)
                assert realized[t] == pytest.approx(out.welfare, abs=1e-12)

    def test_lazy_vcg_many_winners_equal_row_sorts(self):
        # eight or more winners sum in numpy's pairwise order
        rng = stream(46, 0)
        values = make_falpha(0.5, 1.0).sample(rng, 300 * 12).reshape(300, 12)
        reserves = rng.random(12) * 3.0
        for k in (7, 8, 9, 11, 12, 13):
            fast = lazy_vcg_k_uniform(values, k, reserves)
            reference = argsort_lazy_vcg(values, k, reserves)
            assert [a.tobytes() for a in fast] == [a.tobytes() for a in reference]

    @pytest.mark.parametrize("places", [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 40, 128, 129, 300])
    def test_place_sums_equal_row_sums_bit_for_bit(self, places):
        rows = 64
        x = stream(42, places).random((rows, places)) * 10.0 ** stream(43, places).integers(-8, 8, (rows, places))
        x[::5] = -x[::5]
        columns = [x[:, p] for p in range(places)]
        assert _place_sum(columns, rows).tobytes() == x.sum(axis=1).tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_second_price_is_the_second_largest(self, n):
        rng = stream(44, n)
        values = make_falpha(0.5, 1.0).sample(rng, 500 * n).reshape(500, n)
        values[::3] = np.round(values[::3])  # ties, the top two among them
        fast = second_price_of_pooled(values)
        assert fast.tobytes() == np.sort(values, axis=1)[:, -2].tobytes()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_loser_matches_a_stable_argsort(self, n):
        rng = stream(45, n)
        weights = rng.integers(0, 3, (400, n)).astype(float)
        weights[rng.random((400, n)) < 0.25] = -np.inf
        weights[0] = -np.inf
        for k in range(n + 2):
            bar, rival = _first_loser(weights, k)
            if k >= n:
                expected_bar, expected_rival = np.zeros((400, 1)), np.full((400, 1), n)
            else:
                order = np.argsort(-weights, axis=1, kind="stable")[:, k : k + 1]
                expected_bar, expected_rival = np.take_along_axis(weights, order, axis=1), order
            assert bar.shape == rival.shape == (400, 1)
            assert bar.tobytes() == expected_bar.tobytes()
            assert np.array_equal(rival, expected_rival)

    def test_lazy_vcg_single_bidder(self):
        values = np.array([[2.0], [0.5]])
        revenue, welfare, realized = lazy_vcg_k_uniform(values, 1, np.array([1.0]))
        assert revenue.tolist() == [1.0, 0.0]
        assert welfare.tolist() == [2.0, 0.5]
        assert realized.tolist() == [2.0, 0.0]

    def test_lazy_vcg_k_outside_one_to_n(self):
        # k = 0 sells nothing; k > n sells to every bidder at its reserve
        values = np.array([[2.0, 0.5], [3.0, 1.5]])
        reserves = np.array([1.0, 1.0])
        assert [a.tolist() for a in lazy_vcg_k_uniform(values, 0, reserves)] == [[0.0, 0.0]] * 3
        for k in (2, 5):
            env = KUniformMatroid(k, 2)
            revenue, _, realized = lazy_vcg_k_uniform(values, k, reserves)
            for t in range(2):
                out = vcg_lazy(env, values[t], reserves)
                assert (revenue[t], realized[t]) == (out.revenue, out.welfare)

    def test_two_mech_matches_mechanism(self):
        # bit for bit, on discrete, continuous and mixed prior sets
        rng = stream(37, 0)
        coin = DiscreteTabular((1.0, 2.0), (0.5, 0.5))  # phi(1) is exactly 0
        rand = [make_random_alpha_sr_discrete(rng, 0.5) for _ in range(2)]
        falpha, expo = make_falpha(0.5, 1.5), Exponential(0.8)
        cases = (
            ([coin, coin, rand[0]], (1.5, 2.5, 2.5)),
            ([rand[0], rand[1], rand[0]], (1.5, 2.5, 4.0)),  # same-prior ties
            ([rand[1], coin, rand[1], coin], (2.5, 1.5, 9.0, 9.0)),
            ([falpha, falpha, expo], (2.0, 3.0, math.inf)),
            ([expo, falpha, coin, rand[0]], (1.5, 2.5, 1.5, 2.5)),
            ([falpha], (2.5,)),
            ([expo], (1.5,)),
        )
        for priors, budgets in cases:
            n = len(priors)
            values = np.column_stack([d.sample(rng, 300) for d in priors])
            values[:20] = values[:20, :1]  # equal values, so equal virtual values
            assert (values > budgets).any()
            coins = rng.integers(1, 3, 300)
            for k in sorted({0, 1, 2, n}):
                env = KUniformMatroid(k, n)
                revenue, welfare = two_mech_k_uniform(values, budgets, coins, priors, k)
                outs = [two_mech_budget(env, priors, values[t], budgets, int(coins[t])) for t in range(300)]
                assert revenue.tobytes() == np.array([out.revenue for out in outs]).tobytes()
                assert welfare.tobytes() == np.array([out.welfare for out in outs]).tobytes()
                assert (revenue > 0.0).any() == (k > 0)

    def test_two_mech_steps_to_exact_atoms(self):
        # atoms 1e-13 apart, the 1e-13 image of (1, 2, 3): phi is -1e-13,
        # 1e-13 and 3e-13, so the reserve is the middle atom.  A value
        # capped on an atom takes that atom's virtual value, and a winner
        # pays the middle atom.
        prior = DiscreteTabular((1e-13, 2e-13, 3e-13), (1 / 3, 1 / 3, 1 / 3))
        values = np.array([[3e-13], [3e-13], [2e-13]])
        budgets = np.array([[1e-13], [3e-13], [math.inf]])
        expected_revenue = [0.0, 2e-13, 2e-13]
        expected_welfare = [0.0, 3e-13, 2e-13]
        revenue, welfare = two_mech_k_uniform(values, budgets, np.full(3, 2), [prior], 1)
        assert revenue.tolist() == expected_revenue
        assert welfare.tolist() == expected_welfare
        env = KUniformMatroid(1, 1)
        for t in range(3):
            out = two_mech_budget(env, [prior], values[t], budgets[t], 2)
            assert (out.revenue, out.welfare) == (expected_revenue[t], expected_welfare[t])

    def test_two_mech_tie_pays_at_most_the_capped_value(self):
        # two equal capped values tie, and the first bidder wins at the
        # other's virtual value; inverting it rounds 1.72 up by one ulp, so
        # only the cap keeps the payment within the budget
        d = make_falpha(0.7, 1.0)
        assert d.value_of_virtual(d.virtual_valuation(1.72)) > 1.72
        values = np.array([[1.72, 1.72], [9.0, 1.72]])
        revenue, _ = two_mech_k_uniform(values, (1.72, 1.72), np.full(2, 2), [d, d], 1)
        assert revenue.tolist() == [1.72, 1.72]
        out = two_mech_budget(KUniformMatroid(1, 2), [d, d], values[0], (1.72, 1.72), 2)
        assert out.payments == {0: 1.72}

    def test_two_mech_rejects_bad_input(self):
        values = np.ones((2, 2))
        with pytest.raises(ValueError, match="coins"):
            two_mech_k_uniform(values, (1.0, 1.0), np.array([1, 3]), [COIN, COIN], 1)
        with pytest.raises(ValueError, match="one prior per bidder"):
            two_mech_k_uniform(values, (1.0, 1.0), np.array([1, 2]), [COIN], 1)

    def test_lottery_matches_mechanism(self):
        rng = stream(38, 0)
        d = make_falpha(0.5, 1.0)
        n, rows = 3, 400
        # small anchors post prices, large ones open menus; low budgets
        # leave menus unaffordable, and shared budgets tie capped weights.
        # The last three rows put a value on its posted price, a uniform on
        # its win probability (a = 0 when everyone is a member), and, in the
        # last case, the tie winner's budget on its threshold, where
        # a_min * pprime / 2 rounds 3.6e-15 above it.
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

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e3, 1e9])
    def test_budget_on_threshold_buys_cheapest_ticket(self, scale):
        # two bidders capped at one shared budget tie; bidder 0 wins the tie,
        # so its threshold is its own budget.  The budget is the first one
        # near 21.43 (times scale) whose cheapest ticket, a_min * pprime / 2,
        # rounds above it, as 21.429957571017287 does at unit scale.
        reserve = 81.00969298941001 * scale
        candidates = (21.43 * scale * (1.0 + i * 1e-13) for i in range(1000))
        budget = next(b for b in candidates if 2.0 * b / reserve * reserve / 2.0 > b)
        values = np.array([[30.0, 30.0]]) * scale
        budgets = np.array([[budget, budget]])
        env = KUniformMatroid(1, 2)
        offer = lottery_offer(env.inclusion_threshold(np.minimum(values[0], budget), 0), reserve)
        assert offer.mode == "menu" and offer.p == budget
        choice = lottery_bidder_choice(offer, values[0, 0], budget, FixedUniform(0.0))
        assert choice.bought and choice.a == offer.a_min
        assert choice.price <= budget
        assert choice.price == pytest.approx(budget, rel=1e-15)
        out = lottery_mechanism(env, [None] * 2, values[0], budgets[0], FixedUniform(0.0), reserves=[reserve] * 2)
        assert out.winners == (0,) and out.payments[0] == choice.price
        revenue, welfare = lottery_k_uniform(values, budgets, np.zeros((1, 2)), [reserve] * 2, 1)
        assert revenue[0] == out.revenue and welfare[0] == out.welfare

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
                inst, plan, values, draws_of(stream(34, t), 1)
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
        revenue, welfare, alloc = posted_price_runs(inst, plan, values, draws_of(stream(35, 0), 1))
        assert out.revenue == 6.0  # one item each, never two
        assert revenue[0] == pytest.approx(out.revenue, abs=1e-12)
        assert int(alloc[0].sum()) == 2

    def test_posted_price_shape_check(self):
        inst = criterion_instance()
        plan, _ = exact_pricing_plan(inst)
        with pytest.raises(ValueError, match="shape"):
            posted_price_runs(inst, plan, np.zeros((3, 1, 2)), draws_of(stream(36, 0), 3))


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

    @pytest.mark.parametrize("trials", [1.5, 300.0, True, False, "300", np.float64(3)])
    def test_config_trials_must_be_an_integer(self, trials):
        # the Python API used to take trials=1.5 and fail deep in the run
        with pytest.raises(ValueError, match="trials must be an integer, got"):
            ExperimentConfig(experiment_id="vcgl", trials=trials)

    @pytest.mark.parametrize("seed", [1.9, True, "1", None])
    def test_config_seed_must_be_an_integer(self, seed):
        # a float seed used to fail deep inside rng.stream with a TypeError
        with pytest.raises(ValueError, match="master_seed must be an integer, got"):
            ExperimentConfig(experiment_id="lemma-square", master_seed=seed, trials=3)

    def test_lottery_samp_rejects_a_large_gamma_at_construction(self):
        # erosion max(sqrt(8 gamma / alpha), 4 gamma + xi gamma) at alpha = 1/2
        # is exactly 1 at gamma = 1/16: the factor then has no bound
        for gamma in (0.2, 0.0625):
            bad = SampleParams(gamma=gamma, xi=0.1, delta=0.1)
            with pytest.raises(ValueError, match="reserve-accuracy erosion .* reaches 1"):
                ExperimentConfig(experiment_id="lottery-samp", sample_params=bad)
            # the bound is lottery-samp's own: posted-lp-samp runs at gamma 0.2
            ExperimentConfig(experiment_id="posted-lp-samp", sample_params=bad)
        ExperimentConfig(
            experiment_id="lottery-samp", sample_params=SampleParams(gamma=0.0624, xi=0.1, delta=0.1)
        )

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

    @pytest.mark.parametrize("seed", [1.9, 1.0, -0.5, True, False, "1", None, [1]])
    def test_config_seed_must_be_a_json_integer(self, seed):
        # a float seed used to be truncated by int(): {"seed": 1.9} ran seed 1
        with pytest.raises(ValueError, match="seed must be a JSON integer"):
            ExperimentConfig.from_json_dict("vcgl", {"seed": seed})
        assert ExperimentConfig.from_json_dict("vcgl", {"seed": 2**70}).master_seed == 2**70

    @pytest.mark.parametrize("trials", [1.5, 300.0, True, "300", None, [300]])
    def test_config_trials_must_be_a_json_integer(self, trials):
        # {"trials": 1.5} used to fail deep in a run, {"trials": true} to run one trial
        with pytest.raises(ValueError, match="trials must be a JSON integer"):
            ExperimentConfig.from_json_dict("vcgl", {"trials": trials})
        assert ExperimentConfig.from_json_dict("vcgl", {"trials": 300}).trials == 300
        assert ExperimentConfig.from_json_dict("vcgl", {}).trials is None

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


#: sha256 of ``srauctions sample`` of the criterion prior on {1, 2, 3, 4},
#: 200,000 draws at seed 1
CRITERION_SAMPLE_SHA256 = "c6b8894092aa8ae206e39d5160cbd2b76f4f97ee977a228130b9ede4794066c8"


#: sha256 of ``render_csv`` per registered experiment at the default seed
#: and these trial counts, which span two ``_CHUNK`` blocks of every Monte
#: Carlo case.  Every draw comes from an ``rng.stream`` (PCG64DXSM, spawn
#: key = stream index; ``TestRngStreams`` pins its first doubles).  Every
#: experiment but lemma-square draws its trials from ``run_batched``'s
#: block streams (``rng.block_stream``), and a run with one case is case 0.
#: lottery-samp, posted-lp-samp and vcgl-samp draw each build's samples as
#: order statistics from meta streams: posted-lp-samp whole
#: (``sorted_sample``), lottery-samp and vcgl-samp block by block
#: (``sorted_draw``), reading only the blocks that their reserve and
#: coverage need (``reserve_and_coverage``); a block's values are those of
#: ``sorted_sample`` on the same stream.  vcgl-samp makes 100 resamples of
#: two builds at m = 725,085 whatever its trial count.
REPORT_SHA256 = {
    "vcg-duplicates": (300_000, "b01264c258ea88eb66370b893e681a71667e28eb94beb29a0434586dcb3a249e"),
    "vcgl": (300_000, "239afc4277c5cb05e5efcf67ddcea6ea7b7a13df437a27554925fdef9aedab40"),
    "posted-lp": (300_000, "b97b5e166706b40b7b5b9788e18bbf4beab55840fd219df45bb60691d01cb2b8"),
    "two-mech": (260_000, "c77049a3a34a0e848a10692bcf471e84afbc57a39ec5ff75b08f362a3aac797e"),
    "lottery": (260_000, "7723718621a00d841049f4186ccbb1776c7e661b2475a68817538a6f73e272ab"),
    "lottery-samp": (260_000, "258681dcf0a15fa4cbd2d9c87da85b59558305b42cb3b880270a0b0d031f2708"),
    "posted-lp-samp": (260_000, "91286fb41b99284c450ad270c2bb998401183977c9d4fcfa3b8117e661a9a2ef"),
    "lemma-square": (20, "7052e82cb3f76bd3288d618d0b3cfec6a1866d2037726eb0f89f417915d117ae"),
    # 200 theorem-grade builds (m = 725,085) and 1,000 auctions per resample
    "vcgl-samp": (1_000, "f25c4e8f82bc687bf0dd66964ba0957d206db650c36d0c7be0e6adae85b5b3a5"),
}


class TestReportBytes:
    """The report bytes of every experiment are pinned, so a rewrite of a
    runner or of the engine must reproduce them exactly.  Values are
    written to 12 significant digits, so a last-ulp difference in a
    platform's float64 ``power`` or ``log`` rarely shows; a change in how
    rows are ranked, summed or drawn does."""

    def test_every_experiment_is_pinned(self):
        assert set(REPORT_SHA256) == set(EXPERIMENTS)

    @pytest.mark.parametrize("experiment_id", sorted(REPORT_SHA256))
    def test_report_bytes_are_pinned(self, experiment_id):
        trials, digest = REPORT_SHA256[experiment_id]
        cfg = ExperimentConfig(experiment_id=experiment_id, trials=trials)
        report = run_experiment(experiment_id, cfg)
        assert report.verdict
        assert hashlib.sha256(render_csv(report).encode()).hexdigest() == digest


class TestSampledReservesSkipTheHull:
    """lottery-samp and vcgl-samp read only each build's reserve and
    coverage, which `reserve_and_coverage` computes from a few blocks of
    the drawn sort, with no hull and no build of the whole sort: a run
    passes with `concave_envelope`, the hull's one entry point, and
    `build_empirical` made to raise.  Its notes count the blocks read,
    pinned at the default seed, so a reader that reads ahead shows."""

    @pytest.mark.parametrize(
        "experiment_id, trials, blocks_read",
        [
            pytest.param("lottery-samp", 200, "130/2164", id="lottery-samp-200"),
            pytest.param("vcgl-samp", 100, "10469/141800", id="vcgl-samp-100"),
        ],
    )
    def test_no_build_is_hulled(self, experiment_id, trials, blocks_read, monkeypatch):
        from srauctions import empirical

        def no_hull(*args, **kwargs):
            raise AssertionError("an empirical build was hulled")

        def no_build(*args, **kwargs):
            raise AssertionError("the whole sort was built")

        monkeypatch.setattr(empirical, "concave_envelope", no_hull)
        monkeypatch.setattr(empirical, "build_empirical", no_build)
        monkeypatch.setattr(experiments, "build_empirical", no_build)
        report = run_experiment(experiment_id, ExperimentConfig(experiment_id=experiment_id, trials=trials))
        assert report.verdict
        (note,) = [n for n in report.notes if n.startswith("blocks_read=")]
        assert note == f"blocks_read={blocks_read}"
        assert note not in render_csv(report)


#: run in a fresh interpreter: prints the scipy modules loaded after the
#: imports, after six experiments that do not integrate, and after vcgl
SCIPY_PROBE = """
import json, sys
import srauctions, srauctions.harness, srauctions.harness.cli
from srauctions.harness import ExperimentConfig, run_experiment

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = [scipy_modules()]
for eid in ("lottery-samp", "two-mech", "lottery", "posted-lp", "posted-lp-samp", "lemma-square"):
    assert run_experiment(eid, ExperimentConfig(experiment_id=eid, trials=200)).verdict
loaded.append(scipy_modules())
assert run_experiment("vcgl", ExperimentConfig(experiment_id="vcgl", trials=200)).verdict
loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


class TestScipyOnlyForQuadrature:
    """scipy is imported by the first quadrature call (`oracles._quad`),
    not by importing the package: the library, the CLI and every
    experiment whose exact values need no quadrature run without it."""

    def test_scipy_is_loaded_by_the_first_quadrature(self):
        src = str(Path(srauctions.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        after_import, after_six, after_vcgl = json.loads(proc.stdout)
        assert after_import == []
        assert after_six == []
        assert "scipy.integrate" in after_vcgl


class TestExperimentsOnTheEngine:
    @pytest.mark.parametrize("experiment_id", ["vcg-duplicates", "vcgl"])
    def test_factor_margins_carry_the_revenue_stderr(self, experiment_id):
        # only revenue goes under the 4-stderr rule; vcgl's margins used to
        # carry the stderr of revenue - ratio * welfare, whose variance is
        # infinite at alpha = 1/2
        report = run_experiment(
            experiment_id, ExperimentConfig(experiment_id=experiment_id, trials=20_000)
        )
        margins = [m for m in report.metrics if m.name.startswith("factor_margin[")]
        assert len(margins) == {"vcg-duplicates": 2, "vcgl": 3}[experiment_id]
        for m in margins:
            revenue = report.metric(m.name.replace("factor_margin", "revenue", 1))
            assert m.stderr == revenue.stderr > 0.0

    def test_vcgl_checks_revenue_against_the_exact_welfare(self):
        report = run_experiment("vcgl", ExperimentConfig(experiment_id="vcgl", trials=20_000))
        # E[welfare] at alpha = 1/2: E[X] = 1, E[max of 2] = 5/3, and the top
        # two of 3 sum to 2.8; one bidder's revenue is r q(r) = 1 * 1/4
        for label, welfare in (("single[n=1]", 1.0), ("single[n=2]", 5.0 / 3.0), ("matroid[n=3,k=2]", 2.8)):
            assert report.metric(f"expected_welfare[{label}]").value == pytest.approx(welfare, rel=1e-9)
            rev = report.metric(f"revenue[{label}]")
            margin = report.metric(f"factor_margin[{label}]")
            assert margin.value == pytest.approx(rev.value - 0.25 * welfare + 4.0 * rev.stderr, abs=1e-12)
        gap = report.metric("equality_gap[single[n=1]]")
        assert gap.value == pytest.approx(report.metric("revenue[single[n=1]]").value - 0.25, abs=1e-15)

    def test_posted_lp_rows_equal_mech_run_posted(self):
        # one batch builder: values, then the mechanism's coins, from the
        # block streams of case 0, as mech run --mech posted draws them
        trials, seed = 2 * _CHUNK + 7, 13
        report = run_experiment(
            "posted-lp", ExperimentConfig(experiment_id="posted-lp", trials=trials, master_seed=seed)
        )
        rows = mech_rows("posted", {"instance": criterion_instance().to_spec()}, seed)
        accs = run_batched(rows.batch, trials, seed)
        for name in ("revenue", "welfare"):
            assert report.metric(name) == MetricSummary.from_accumulator(name, accs[name])


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

PRIOR_124 = {"kind": "discrete", "support": [1, 2, 4], "pmf": [0.5, 0.3, 0.2]}
PRIOR_13 = {"kind": "discrete", "support": [1, 3], "pmf": [0.6, 0.4]}
PRIOR_1234 = {"kind": "discrete", "support": [1, 2, 3, 4], "pmf": [0.4, 0.3, 0.2, 0.1]}

#: one config that every ``--mech`` choice can read: three discrete bidders
#: under a two-winner cap (``instance`` for the posted-price mechanisms).
#: The reserves drop some efficient winners, so ``vcgl``'s realized welfare
#: differs from the efficient welfare.
MECH_CONFIG = {
    "env": {"kind": "k-uniform", "k": 2, "n": 3},
    "dists": [PRIOR_124, PRIOR_124, PRIOR_13],
    "reserves": [2.5, 1.5, 2.0],
    "budget_dist": {"p_hi": 0.5, "hi": 3.0, "lo": 1.5},
    "sample_params": {"gamma": 0.2, "xi": 0.1, "delta": 0.1, "m": 9888},
    "instance": {
        "budgets": [4.0, 4.0],
        "item_limits": [2, 2],
        "dists": [[PRIOR_1234, PRIOR_1234], [PRIOR_1234, PRIOR_1234]],
    },
}

#: ``MECH_CONFIG``'s bidders, without budgets
MECH_BIDDERS = {"env": MECH_CONFIG["env"], "dists": MECH_CONFIG["dists"]}

#: single item over three bidders, listed set by set
EXPLICIT_ENV = {"kind": "explicit", "n": 3, "sets": [[0], [1], [2]]}

#: the mechanisms that ``mech run`` prices with a vectorized runner on
#: ``MECH_CONFIG``
RUNNER_MECHS = ("vcg", "vcgl", "vcgl-emp", "two-mech", "lottery", "posted", "posted-emp")

#: two FAlpha bidders and an exponential one at the scale of 1e8 under a
#: two-winner cap, with budgets that cap about half the values
CONTINUOUS_CONFIG = {
    "env": {"kind": "k-uniform", "k": 2, "n": 3},
    "dists": [
        {"kind": "falpha", "alpha": 0.5, "scale": 1e8},
        {"kind": "falpha", "alpha": 0.5, "scale": 1e8},
        {"kind": "exponential", "rate": 1e-8},
    ],
    "budget_dist": {"p_hi": 0.5, "hi": 3e8, "lo": 1.5e8},
}


#: sha256 of the ``mech run`` CSV over ``MECH_CONFIG`` at seed 3, per
#: mechanism and path: (mech, env kind, trials, digest).  The vectorized
#: runners run one block and 7 rows of a second; the scalar rows (myerson,
#: vcg-dup, and lottery on an explicit environment, whose rows draw a
#: variable number of uniforms from ``rest()``) run one 32,768-row sub-block
#: and 7 rows of a second.
MECH_RUN_SHA256 = (
    ("vcg", "k-uniform", 250_007, "78b0832d7dfa5cc7da54459d0ffa88ab77b188e924a3aaa44ca9b953f077fb75"),
    ("vcgl", "k-uniform", 250_007, "0a05c142be2151ee1f5171df3b38befe76ed56b3661fc2830d563e4a6dacaa09"),
    ("two-mech", "k-uniform", 250_007, "2e55606ec694bbc586d05e7f40b30218453c0d23b4ef3f7de82202b13539d8d5"),
    ("lottery", "k-uniform", 250_007, "dccfa7a63021cfcaa0dfe03dc01b4222c694e256f618fb81d3e7bbe46e31099f"),
    ("posted", "k-uniform", 250_007, "779f17a2faa8e13492dc7508f61f320d069ce1d662893832cfe2bbd93864ff5a"),
    ("myerson", "k-uniform", 32_775, "b03d193474051b6d0a869efc9b0ba559f83f1e8d333174a5820beea2e52a3a6f"),
    ("vcg-dup", "k-uniform", 32_775, "aba77eae26962e2f61418e9052d688aff832b3d0168a309974ee63c3dacb89f8"),
    ("lottery", "explicit", 32_775, "f0b265196250085f6634225bb16aff5c222a510615e91d5ad7ca64ca100ac9c6"),
)


class BlockUniforms:
    """Stands in for the Draws of a block, each of whose sections is a
    Generator whose ``random((rows, n))`` repeats row t's uniform ``u[t]``
    across the row."""

    def __init__(self, u):
        self.u = u

    def section(self, width):
        return self

    def random(self, size):
        return np.repeat(self.u[:, None], size[1], axis=1)


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

    def test_sample_bytes_of_the_criterion_prior(self, tmp_path):
        # pins the discrete draws (CI checks the same hash on every Python)
        spec = json.dumps(criterion_instance().dists[0][0].to_spec())
        out = tmp_path / "draws.csv"
        argv = ["sample", "--spec", spec, "--m", "200000", "--seed", "1", "--out", str(out)]
        assert cli_main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CRITERION_SAMPLE_SHA256

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

    @pytest.mark.parametrize(
        "rows, flags, message",
        [
            (["1.5", "inf", "0.5"], [], "samples must be finite"),
            (["1.5", "nan", "0.5"], [], "samples must be finite"),
            (["-inf", "1.5", "0.5"], [], "samples must be finite"),
            (["1.5", "1.0", "0.5"], ["--gamma", "2"], "gamma must lie in (0,1)"),
            (["1.5", "1.0", "0.5"], ["--m", "0"], "m must be a positive integer"),
            (None, [], "No such file or directory"),
            (["1.5", "1,5", "0.5"], [], "line 3: expected one number, got '1,5'"),
            (["1.5", "abc", "0.5", "2.0"], [], "line 3: expected one number, got 'abc'"),
            (["value", "1.5", "1.0", "0.5"], [], "line 2: expected one number, got 'value'"),
        ],
        ids=["inf", "nan", "minus-inf", "gamma-2", "m-0", "missing-file", "decimal-comma", "stray-text", "second-header"],
    )
    def test_bad_build_input_exits_2_with_one_line(self, tmp_path, capsys, rows, flags, message):
        csv_path = tmp_path / "values.csv"
        if rows is not None:
            csv_path.write_text("\n".join(["value", *rows]) + "\n")
        report = tmp_path / "r.json"
        args = {"--m": "3", "--gamma": "0.3", "--xi": "0.15", "--delta": "0.1"}
        args.update(zip(flags[::2], flags[1::2]))
        argv = ["empirical", "build", "--in", str(csv_path), "--report", str(report)]
        assert cli_main(argv + [x for kv in args.items() for x in kv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("srauctions empirical build: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert not report.exists()

    def test_report_in_a_missing_directory_exits_2_with_one_line(self, tmp_path, capsys):
        csv_path = tmp_path / "values.csv"
        csv_path.write_text("value\n1.5\n1.0\n0.5\n")
        report = tmp_path / "nodir" / "r.json"
        argv = ["empirical", "build", "--in", str(csv_path), "--m", "3", "--gamma", "0.3",
                "--xi", "0.15", "--delta", "0.1", "--report", str(report)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("srauctions empirical build: ") and "No such file or directory" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("header", [[], ["value"]], ids=["no-header", "header"])
    def test_a_one_column_csv_builds_with_or_without_a_header(self, tmp_path, header):
        csv_path = tmp_path / "values.csv"
        csv_path.write_text("\n".join([*header, "1.5", "", "1.0", "0.5"]) + "\n")
        report = tmp_path / "r.json"
        argv = ["empirical", "build", "--in", str(csv_path), "--m", "3", "--gamma", "0.3",
                "--xi", "0.15", "--delta", "0.1", "--report", str(report)]
        assert cli_main(argv) == 0
        assert json.loads(report.read_text())["model"]["values"] == [1.5, 1.0, 0.5]

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("[1]", "distribution spec must be a JSON object, got list"),
            ('{"kind": "cauchy"}', "unknown distribution kind 'cauchy'"),
            ('{"kind": "falpha", "alpha": 0.5, "rate": 1}', "unknown falpha distribution key 'rate'"),
            ('{"kind": "falpha"', "Expecting"),
        ],
        ids=["not-an-object", "unknown-kind", "unknown-key", "not-json"],
    )
    @pytest.mark.parametrize("command", ["dist eval", "sample"])
    def test_bad_spec_exits_2_with_one_line(self, tmp_path, capsys, command, spec, message):
        out = tmp_path / "x.csv"
        if command == "sample":
            argv = ["sample", "--spec", spec, "--m", "3", "--seed", "1", "--out", str(out)]
        else:
            argv = ["dist", "eval", "--spec", spec, "--v", "1.0", "--what", "cdf"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"srauctions {command}: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

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

    def _mech_run(self, tmp_path, mech, config, seed, trials=300):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / f"{mech}-{seed}.csv"
        rc = cli_main(
            ["mech", "run", "--mech", mech, "--config", str(cfg_path),
             "--trials", str(trials), "--seed", str(seed), "--out", str(out_path)]
        )
        return rc, out_path.read_text()

    @pytest.mark.parametrize(
        "mech, env",
        [(mech, "k-uniform") for mech in MECH_CHOICES]
        + [(mech, "explicit") for mech in ("vcg", "vcgl", "two-mech", "lottery")],
    )
    def test_mech_run_is_seeded(self, tmp_path, mech, env):
        config = dict(MECH_CONFIG)
        if env == "explicit":
            config["env"] = EXPLICIT_ENV
        rc, first = self._mech_run(tmp_path, mech, config, seed=5)
        assert rc == 0
        assert first.startswith(",".join(CSV_COLUMNS))
        assert f"mech:{mech},welfare," in first
        assert self._mech_run(tmp_path, mech, config, seed=5) == (0, first)
        assert self._mech_run(tmp_path, mech, config, seed=6)[1] != first

    @pytest.mark.parametrize(
        "mech, config",
        [pytest.param(mech, MECH_CONFIG, id=mech) for mech in RUNNER_MECHS]
        + [pytest.param("two-mech", CONTINUOUS_CONFIG, id="two-mech-continuous")],
    )
    def test_mech_runner_matches_row_adapter(self, mech, config):
        rows = mech_rows(mech, config, seed=5)
        assert rows.vector is not None
        n_rows = 400
        arrays = rows.draw(draws_of(stream(40, 0), n_rows), n_rows)
        if mech == "lottery":
            # one uniform per row, as test_lottery_matches_mechanism feeds it
            u = stream(41, 0).random(n_rows)
            revenue, welfare = rows.vector(BlockUniforms(u), *arrays)
            outs = [
                rows.scalar(FixedUniform(u[t]), *(a[t] for a in arrays))
                for t in range(n_rows)
            ]
        elif mech.startswith("posted"):
            # the runner reproduces the per-auction sale draw for draw on
            # one row at a time
            pairs = [
                rows.vector(draws_of(stream(41, t), 1), *(a[t : t + 1] for a in arrays))
                for t in range(n_rows)
            ]
            revenue = np.concatenate([r for r, _ in pairs])
            welfare = np.concatenate([w for _, w in pairs])
            outs = [
                rows.scalar(stream(41, t), *(a[t] for a in arrays)) for t in range(n_rows)
            ]
        else:
            revenue, welfare = rows.vector(None, *arrays)
            outs = [rows.scalar(None, *(a[t] for a in arrays)) for t in range(n_rows)]
        np.testing.assert_allclose(revenue, [o.revenue for o in outs], rtol=0, atol=1e-12)
        np.testing.assert_allclose(welfare, [o.welfare for o in outs], rtol=0, atol=1e-12)
        assert np.ptp(revenue) > 0.0 and np.ptp(welfare) > 0.0
        if mech == "vcgl":
            # realized welfare: the winners below their reserve count for nothing
            efficient = np.sort(arrays[0], axis=1)[:, -2:].sum(axis=1)
            assert (welfare < efficient).any()

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("mech", MECH_CONFIG, "--trials must be positive"),
            ("mech", dict(MECH_CONFIG, dists=[PRIOR_124] * 2), "environment size"),
            ("mech", dict(MECH_CONFIG, env={"kind": "graphic", "n": 3}), "unknown environment kind"),
            ("mech", dict(MECH_CONFIG, dists=[{"kind": "cauchy"}] * 3), "unknown distribution kind"),
            ("mech", {"env": MECH_CONFIG["env"]}, "missing config key 'dists'"),
            ("experiment", {"trials": 0}, "trials must be >= 1"),
            ("experiment", {"trails": 3}, "unknown config key 'trails'"),
            ("mech", dict(MECH_CONFIG, reserve=[1.0] * 3), "unknown config key 'reserve'"),
            ("experiment", [{"trials": 3}], "config must be a JSON object"),
            ("experiment", {"seed": 1.9}, "seed must be a JSON integer, got 1.9"),
            ("experiment", {"seed": 2.0}, "seed must be a JSON integer, got 2.0"),
            ("experiment", {"seed": True}, "seed must be a JSON integer, got True"),
            ("experiment", {"seed": "7"}, "seed must be a JSON integer, got '7'"),
            ("mech", dict(MECH_CONFIG, env=dict(MECH_CONFIG["env"], kk=2)),
             "unknown k-uniform environment key 'kk'"),
            ("mech", dict(MECH_CONFIG, dists=[dict(PRIOR_124, scale=10)] * 3),
             "unknown discrete distribution key 'scale'"),
            ("experiment", {"instance": dict(MECH_CONFIG["instance"], limits=[1, 1])},
             "unknown instance key 'limits'"),
            ("experiment", {"trials": 1.5}, "trials must be a JSON integer, got 1.5"),
            ("experiment", {"trials": True}, "trials must be a JSON integer, got True"),
            ("experiment", {"trials": "300"}, "trials must be a JSON integer, got '300'"),
            ("experiment", {"trials": None}, "trials must be a JSON integer, got None"),
            ("mech", dict(MECH_CONFIG, dists=[1, 1]), "distribution spec must be a JSON object, got int"),
            ("mech", dict(MECH_CONFIG, env=[3, 1]), "env must be a JSON object, got list"),
            ("experiment", {"instance": [[1, 1]]}, "instance must be a JSON object, got list"),
            ("mech two-mech", {"dists": [json.loads(FALPHA_SPEC)] * 2, "budgets": [-1, 2]},
             "budgets must be numbers >= 0 or inf, got [-1.0, 2.0]"),
            ("mech two-mech", MECH_BIDDERS | {"budgets": [-1, 2, 2]}, "budgets must be numbers >= 0"),
            ("mech lottery", MECH_BIDDERS | {"budgets": [-1, 2, 2]}, "budgets must be numbers >= 0"),
            ("mech lottery", MECH_BIDDERS | {"budgets": [math.nan, 2, 2]}, "got [nan, 2.0, 2.0]"),
            ("mech two-mech", MECH_BIDDERS | {"budget_dist": {"p_hi": 7, "hi": -3, "lo": "nan"}},
             "budgets must be numbers >= 0 or inf, got [-3.0, nan]"),
            ("mech lottery", MECH_BIDDERS | {"budget_dist": {"p_hi": 7, "hi": 3, "lo": 1}},
             "budget_dist p_hi must lie in [0, 1], got 7.0"),
            ("mech two-mech", MECH_BIDDERS | {"budget_dist": {"p_hi": math.nan, "hi": 3, "lo": 1}},
             "budget_dist p_hi must lie in [0, 1], got nan"),
            ("mech two-mech", MECH_BIDDERS | {"budgets": [2, 2]},
             "budgets must hold one number per bidder, 3 in all, got [2.0, 2.0]"),
            ("mech lottery", MECH_BIDDERS | {"budgets": 2}, "budgets must hold one number per bidder"),
            # every mechanism checks the budget keys, though only two read them
            ("mech vcg", MECH_BIDDERS | {"budgets": [-1, "nan", 3]},
             "budgets must be numbers >= 0 or inf, got [-1.0, nan, 3.0]"),
            ("mech myerson", MECH_BIDDERS | {"budgets": [2, 2]}, "budgets must hold one number per bidder"),
            ("mech vcg-dup", MECH_BIDDERS | {"budget_dist": {"p_hi": 2, "hi": 3, "lo": 1}},
             "budget_dist p_hi must lie in [0, 1], got 2.0"),
            ("mech posted", {"instance": MECH_CONFIG["instance"], "budgets": [1, math.nan]},
             "budgets must be numbers >= 0 or inf, got [1.0, nan]"),
            ("mech two-mech", MECH_BIDDERS | {"budget_dist": MECH_CONFIG["budget_dist"], "budgets": [-1, 2, 2]},
             "budgets must be numbers >= 0 or inf, got [-1.0, 2.0, 2.0]"),
        ],
        ids=[
            "trials-0", "env-size", "env-kind", "dist-kind", "missing-key", "experiment-trials-0",
            "experiment-misspelt-key", "mech-misspelt-key", "experiment-not-an-object",
            "experiment-seed-float", "experiment-seed-integral-float", "experiment-seed-bool",
            "experiment-seed-string", "env-misspelt-key", "dist-misspelt-key", "instance-misspelt-key",
            "experiment-trials-float", "experiment-trials-bool", "experiment-trials-string",
            "experiment-trials-null", "dist-not-an-object", "env-not-an-object",
            "instance-not-an-object", "negative-budget-falpha", "negative-budget-discrete",
            "negative-budget-lottery", "nan-budget", "budget-dist-negative-and-nan", "budget-dist-p-hi",
            "budget-dist-p-hi-nan", "budgets-one-short", "budgets-scalar", "vcg-budgets",
            "myerson-budgets-one-short", "vcg-dup-budget-dist", "posted-budgets", "both-budget-keys",
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, command, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        command, _, mech = command.partition(" ")
        if command == "mech":
            trials = "0" if message.startswith("--trials") else "10"
            argv = ["mech", "run", "--mech", mech or "vcg", "--config", str(cfg_path),
                    "--trials", trials, "--seed", "1", "--out", str(tmp_path / "x.csv")]
        else:
            argv = ["experiment", "vcgl", "--config", str(cfg_path)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("mech, env, trials", [(m, e, t) for m, e, t, _ in MECH_RUN_SHA256])
    def test_mech_run_bytes_are_pinned(self, tmp_path, mech, env, trials):
        # vectorized rows cross a block boundary, scalar rows a sub-block one
        assert trials == (_CHUNK + 7 if mech in RUNNER_MECHS and env == "k-uniform" else 32_775)
        assert trials > _SUB_BLOCK
        config = dict(MECH_CONFIG, env=EXPLICIT_ENV) if env == "explicit" else MECH_CONFIG
        rc, text = self._mech_run(tmp_path, mech, config, seed=3, trials=trials)
        assert rc == 0
        digest = {(m, e): h for m, e, _, h in MECH_RUN_SHA256}[mech, env]
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("mech", ["two-mech", "lottery"])
    def test_inf_budget_means_unbudgeted(self, tmp_path, mech):
        # fixed budgets draw nothing, so only the cap could tell them apart
        inf = self._mech_run(tmp_path, mech, MECH_BIDDERS | {"budgets": [math.inf] * 3}, seed=5)
        assert inf == self._mech_run(tmp_path, mech, MECH_BIDDERS | {"budgets": [1e300] * 3}, seed=5)
        assert inf[0] == 0

    def test_lottery_samp_large_gamma_exits_2_before_it_runs(self, tmp_path, capsys):
        # this config used to exit 1, the code of a failed verdict, with a traceback
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"sample_params": {"gamma": 0.2, "xi": 0.1, "delta": 0.1}, "trials": 300})
        )
        assert cli_main(["experiment", "lottery-samp", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gamma too large for lottery-samp" in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize(
        "mech, config, message",
        [
            ("lottery", dict(MECH_CONFIG, budget_dist=dict(MECH_CONFIG["budget_dist"], p_high=0.5)),
             "unknown budget_dist key 'p_high'"),
            ("vcg", dict(MECH_CONFIG, env=dict(EXPLICIT_ENV, k=1)), "unknown explicit environment key 'k'"),
            ("vcg", dict(MECH_CONFIG, dists=[{"kind": "exponential", "rate": 1.0, "alpha": 0.5}] * 3),
             "unknown exponential distribution key 'alpha'"),
            ("vcg", dict(MECH_CONFIG, dists=[{"kind": "falpha", "alpha": 0.5, "rate": 1.0}] * 3),
             "unknown falpha distribution key 'rate'"),
            ("posted", dict(MECH_CONFIG, instance=dict(MECH_CONFIG["instance"], budget=[4.0, 4.0])),
             "unknown instance key 'budget'"),
            ("lottery", dict(MECH_CONFIG, budget_dist=[0.5, 3.0, 0.75]),
             "budget_dist must be a JSON object, got list"),
            ("posted", dict(MECH_CONFIG, instance="two by two"), "instance must be a JSON object, got str"),
            ("posted", dict(MECH_CONFIG, instance=dict(MECH_CONFIG["instance"], dists=[[1, 1], [1, 1]])),
             "distribution spec must be a JSON object, got int"),
        ],
        ids=["budget-dist", "explicit-env", "exponential", "falpha", "instance", "budget-dist-list",
             "instance-str", "instance-dist-int"],
    )
    def test_nested_spec_rejects_unknown_keys(self, mech, config, message):
        with pytest.raises(ValueError, match=message):
            mech_rows(mech, config, seed=1)

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
