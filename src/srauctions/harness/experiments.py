"""Desk-scale experiments, one per revenue/welfare guarantee.

Each experiment draws seeded Monte Carlo trials of a mechanism, compares
the estimate against its proved factor (with a 4-standard-error allowance
on the sampling noise), and returns a Report whose bound-carrying metrics
hold the margin and verdict.  Heavy loops are vectorized over trials; the
vectorized paths are cross-checked against the per-auction mechanism
functions in the test suite.

Benchmarks:

* single-item optimal revenue comes from exact enumeration (discrete) or
  quadrature (analytic families);
* the budgeted-welfare experiment compares against the unconstrained
  efficient welfare E[max feasible sum of values], a strict upper bound on
  any budget-feasible benchmark, so its verdict is conservative;
* the private-budget lottery compares against E[max(0, max_i min-capped
  virtual value)], the optimal revenue of the value-capped instance.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..dists import (
    DiscreteTabular,
    ValuationDistribution,
    make_falpha,
    make_random_alpha_sr_discrete,
    truncate_at,
)
from ..empirical import (
    EmpiricalModel,
    SampleCountWarning,
    SampleParams,
    build_empirical,
    validate_params,
)
from ..lp import (
    MultiItemInstance,
    PricingPlan,
    aggregate,
    build_lp2,
    build_lp3,
    decompose_quantile,
    make_pricing_plan,
    solve,
)
# two_mech_budget and lottery_mechanism are not called here: they are the
# row-by-row references for the vectorized runners below, and stay bound in
# this module because bench/tracer.py counts their calls here.
from ..mechanisms import (  # noqa: F401
    KUniformMatroid,
    lottery_mechanism,
    two_mech_budget,
)
from .montecarlo import Accumulator, MetricSummary, Report
from .oracles import myerson_optimal_revenue_iid, oracle_exact_expectation
from .rng import meta_stream, stream

DEFAULT_SEED = 20260819

_CHUNK = 250_000


class UnknownExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    trials: int | None = None  # None -> the experiment's default scale
    master_seed: int = DEFAULT_SEED
    sample_params: SampleParams | None = None
    instance: MultiItemInstance | None = None
    out: str | None = None

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")

    @classmethod
    def from_json_dict(cls, experiment_id: str, data: Mapping) -> "ExperimentConfig":
        sp = data.get("sample_params")
        inst = data.get("instance")
        return cls(
            experiment_id=experiment_id,
            trials=data.get("trials"),
            master_seed=int(data.get("seed", DEFAULT_SEED)),
            sample_params=SampleParams(**sp) if sp else None,
            instance=MultiItemInstance.from_spec(inst) if inst else None,
            out=data.get("out"),
        )


# ---------------------------------------------------------------------------
# vectorized mechanism runners
# ---------------------------------------------------------------------------


def second_price_of_pooled(values: np.ndarray) -> np.ndarray:
    """Revenue of efficient single-item sale over pooled bids, per row."""
    part = np.partition(values, values.shape[1] - 2, axis=1)
    return part[:, -2]


def lazy_vcg_k_uniform(
    values: np.ndarray, k: int, reserves: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reserve-gated efficient auction on a k-winner cap, vectorized.

    Returns (revenue, efficient welfare) per row of ``values`` (T, n).
    Ties rank toward the smaller bidder index, matching the per-auction
    implementation.
    """
    n = values.shape[1]
    if not 1 <= k < n + 1:
        raise ValueError("k out of range")
    order = np.argsort(-values, axis=1, kind="stable")
    top = order[:, :k]
    top_vals = np.take_along_axis(values, top, axis=1)
    welfare = top_vals.sum(axis=1)
    if n > k:
        base = np.take_along_axis(values, order[:, k : k + 1], axis=1)
    else:
        base = np.zeros((values.shape[0], 1))
    res = np.asarray(reserves, dtype=float)[top]
    keep = top_vals >= res
    pay = np.maximum(res, base)
    revenue = (keep * pay).sum(axis=1)
    return revenue, welfare


def _first_loser(weights: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight and index of the strongest bidder a k-winner cap leaves out.

    Rows of ``weights`` are ranked as ``KUniformMatroid.best_set`` ranks
    them (larger weight first, ties to the smaller index); the entry at
    place k is returned as (T, 1) columns, or (0, n) when n <= k.
    """
    T, n = weights.shape
    if k >= n:
        return np.zeros((T, 1)), np.full((T, 1), n)
    place = np.argsort(-weights, axis=1, kind="stable")[:, k : k + 1]
    return np.take_along_axis(weights, place, axis=1), place


def _beats(weight, index, bar: np.ndarray, rival: np.ndarray) -> np.ndarray:
    """Whether bidder ``index`` at ``weight`` takes a place from the first
    loser (bar, rival): a positive weight ranked ahead of it."""
    return (weight > 0.0) & ((weight > bar) | ((weight == bar) & (index < rival)))


def _step_virtual_values(prior: DiscreteTabular, x: np.ndarray) -> np.ndarray:
    """Virtual value of the largest atom at or below each x; -inf below the
    least atom (the step extension of ``mechanisms._virtual_step``)."""
    idx = np.searchsorted(prior.support, x + 1e-12) - 1
    return np.where(idx >= 0, prior.virtual_values()[np.maximum(idx, 0)], -np.inf)


def two_mech_k_uniform(
    values: np.ndarray,
    budgets,
    coins: np.ndarray,
    priors,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The coin-flip budgeted mechanism on a k-winner cap, vectorized.

    ``values`` is (T, n), ``budgets`` broadcasts against it, ``coins`` holds
    1 or 2 per row and ``priors`` one DiscreteTabular per bidder.  Coin 1
    gives the k largest reserve prices away for free; coin 2 runs the
    virtual-surplus auction on the budget-capped profile, where a winner
    pays the least support atom whose virtual value is positive and beats
    the k-th competitor (ties to the smaller index).  Returns (revenue,
    welfare) per row, matching ``two_mech_budget`` row by row.
    """
    T, n = values.shape
    if len(priors) != n or not all(isinstance(d, DiscreteTabular) for d in priors):
        raise TypeError("need one DiscreteTabular prior per bidder")
    if not np.isin(coins, (1, 2)).all():
        raise ValueError("coins must be 1 or 2")
    capped = np.minimum(values, budgets)
    eligible = np.column_stack(
        [_step_virtual_values(d, capped[:, i]) for i, d in enumerate(priors)]
    )
    eligible = np.maximum(eligible, 0.0)
    bar, rival = _first_loser(eligible, k)
    won = _beats(eligible, np.arange(n), bar, rival)
    # a winner's own atom beats the bar, so the least atom that does lies
    # at or below its capped value
    payments = np.zeros((T, n))
    for i, d in enumerate(priors):
        beats = _beats(d.virtual_values(), i, bar, rival)
        least = d.support[np.argmax(beats, axis=1)]
        payments[:, i] = np.where(won[:, i], least, 0.0)
    reserves = np.array([[float(d.reserve_price) for d in priors]])
    free = _beats(reserves, np.arange(n), *_first_loser(reserves, k))
    coin_one = (coins == 1)[:, None]
    winners = np.where(coin_one, free, won)
    revenue = np.where(coin_one, 0.0, payments).sum(axis=1)
    welfare = np.where(winners, values, 0.0).sum(axis=1)
    return revenue, welfare


def lottery_k_uniform(
    values: np.ndarray,
    budgets: np.ndarray,
    uniforms: np.ndarray,
    reserves,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The threshold lottery on a k-winner cap, vectorized.

    All arrays are (T, n) except ``reserves`` (n,), the menu anchors r_i.
    Members of each row's budget-capped welfare set face the offer
    ``lottery_offer(T_i, r_i)`` and respond as ``lottery_bidder_choice``
    does; a menu ticket wins when the cell's uniform falls below its win
    probability.  Returns (revenue, welfare) per row, matching
    ``lottery_mechanism`` fed the same uniform.
    """
    v = np.asarray(values, dtype=float)
    b = np.asarray(budgets, dtype=float)
    r = np.asarray(reserves, dtype=float)
    weights = np.minimum(v, b)
    bar, rival = _first_loser(weights, k)
    member = _beats(weights, np.arange(v.shape[1]), bar, rival)
    # KUniformMatroid.inclusion_threshold: for a member, the k-th largest
    # positive competing weight is the first loser's (0 if not positive)
    p = np.maximum(bar, 0.0)
    posted = p >= r / 3.0
    finite = np.isfinite(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        # menu cells have r > 3p >= 0; posted cells discard these values
        a_min = 2.0 * p / r
        unaffordable = finite & (b < a_min * r / 2.0 - 1e-15)
        a_cap = np.where(finite, np.minimum(2.0 / 3.0, 2.0 * b / r), 2.0 / 3.0)
        a = np.minimum(np.maximum(v / r - 1.0 / 6.0, a_min), a_cap)
        price = a * r / 2.0
        utility = (1.0 / 3.0 + a) * (v - price)
    menu_buy = ~unaffordable & (utility >= 0.0) & (uniforms < 1.0 / 3.0 + a)
    bought = member & np.where(posted, (v >= p) & (b >= p), menu_buy)
    revenue = np.where(bought, np.where(posted, p, price), 0.0).sum(axis=1)
    welfare = np.where(bought, v, 0.0).sum(axis=1)
    return revenue, welfare


def posted_price_runs(
    inst: MultiItemInstance,
    plan: PricingPlan,
    values: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized sequential posted-price runs.

    ``values`` has shape (T, I, J).  Returns (revenue, welfare, alloc) with
    alloc a boolean (T, I, J) allocation indicator.  Consumes the RNG in the
    same order as the per-auction function (price mixture first, then offer
    coins), so a one-row call reproduces it draw for draw.
    """
    T = values.shape[0]
    n_i, n_j = inst.n_bidders, inst.n_items
    if values.shape != (T, n_i, n_j):
        raise ValueError("values must have shape (T, n_bidders, n_items)")
    price_mix = rng.random((T, n_i, n_j))
    prices = np.where(price_mix < plan.w_bar, plan.r_bar, plan.r_bar + 1).astype(float)
    offered = rng.random((T, n_i, n_j)) < plan.p_offer

    sold = np.zeros((T, n_j), dtype=bool)
    held = np.zeros((T, n_i), dtype=np.int64)
    budget_left = np.tile(np.asarray(inst.budgets, dtype=float), (T, 1))
    alloc = np.zeros((T, n_i, n_j), dtype=bool)
    revenue = np.zeros(T)
    welfare = np.zeros(T)
    for i in range(n_i):
        for j in range(n_j):
            p = prices[:, i, j]
            buy = (
                (held[:, i] < inst.item_limits[i])
                & ~sold[:, j]
                & offered[:, i, j]
                & (values[:, i, j] >= p)
                & (budget_left[:, i] >= p)
            )
            sold[:, j] |= buy
            held[:, i] += buy
            budget_left[:, i] -= np.where(buy, p, 0.0)
            alloc[:, i, j] = buy
            revenue += np.where(buy, p, 0.0)
            welfare += np.where(buy, values[:, i, j], 0.0)
    return revenue, welfare, alloc


def _chunks(total: int, chunk: int = _CHUNK):
    done = 0
    while done < total:
        step = min(chunk, total - done)
        yield done, step
        done += step


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------


def _finish(
    experiment_id: str,
    metrics: list[MetricSummary],
    cfg: ExperimentConfig,
    trials: int,
    started: float,
    notes: tuple[str, ...] = (),
) -> Report:
    return Report(
        experiment_id=experiment_id,
        metrics=tuple(metrics),
        seed=cfg.master_seed,
        trials=trials,
        runtime_seconds=time.perf_counter() - started,
        notes=notes,
    )


def _bound_metric(
    name: str, acc: Accumulator, threshold: float, target: float
) -> MetricSummary:
    """Metric for a one-sided bound mean >= threshold - 4*stderr."""
    margin = acc.mean - threshold + 4.0 * acc.stderr
    return MetricSummary(
        name=name,
        value=margin,
        stderr=acc.stderr,
        ci_lo=margin,
        ci_hi=margin,
        target=target,
        passed=margin >= 0.0,
    )


def run_vcg_duplicates(cfg: ExperimentConfig) -> Report:
    """Efficient sale against duplicate competitors vs the optimal revenue.

    For n i.i.d. bidders plus one duplicate each, revenue is the second
    highest of the 2n pooled draws; the factor bounds OPT / revenue by
    (2 + alpha) / alpha.
    """
    started = time.perf_counter()
    trials = cfg.trials or 1_000_000
    alpha = 0.5
    d = make_falpha(alpha, 1.0)
    factor = (2.0 + alpha) / alpha
    metrics: list[MetricSummary] = []
    for slot, n in enumerate((1, 2)):
        opt = myerson_optimal_revenue_iid(d, n)
        rng = meta_stream(cfg.master_seed, slot)
        acc = Accumulator()
        for _, step in _chunks(trials):
            draws = d.sample(rng, step * 2 * n).reshape(step, 2 * n)
            acc.add_batch(factor * second_price_of_pooled(draws))
        metrics.append(MetricSummary.exact(f"opt[n={n}]", opt))
        rev = Accumulator()
        rev.count, rev.total, rev.total_sq = (
            acc.count,
            acc.total / factor,
            acc.total_sq / factor**2,
        )
        metrics.append(MetricSummary.from_accumulator(f"revenue[n={n}]", rev))
        metrics.append(_bound_metric(f"factor_margin[n={n}]", acc, opt, factor))
    return _finish("vcg-duplicates", metrics, cfg, trials, started)


def run_vcgl(cfg: ExperimentConfig) -> Report:
    """Reserve-gated efficient auction revenue vs efficient welfare.

    Bound: revenue >= alpha^(1/(1-alpha)) * welfare; at one bidder the two
    sides agree exactly, which is checked as a two-sided gap.
    """
    started = time.perf_counter()
    trials = cfg.trials or 1_000_000
    alpha = 0.5
    d = make_falpha(alpha, 1.0)
    ratio = alpha ** (1.0 / (1.0 - alpha))
    cases = (("single[n=1]", 1, 1), ("single[n=2]", 2, 1), ("matroid[n=3,k=2]", 3, 2))
    metrics: list[MetricSummary] = []
    for slot, (label, n, k) in enumerate(cases):
        rng = meta_stream(cfg.master_seed, slot)
        reserves = np.full(n, d.reserve_price)
        gap = Accumulator()
        rev = Accumulator()
        welf = Accumulator()
        for _, step in _chunks(trials):
            draws = d.sample(rng, step * n).reshape(step, n)
            revenue, welfare = lazy_vcg_k_uniform(draws, k, reserves)
            gap.add_batch(revenue - ratio * welfare)
            rev.add_batch(revenue)
            welf.add_batch(welfare)
        metrics.append(MetricSummary.from_accumulator(f"revenue[{label}]", rev))
        metrics.append(MetricSummary.from_accumulator(f"welfare[{label}]", welf))
        metrics.append(_bound_metric(f"factor_margin[{label}]", gap, 0.0, ratio))
        if n == 1:
            equal = abs(gap.mean) <= 4.0 * gap.stderr
            metrics.append(
                MetricSummary(
                    name=f"equality_gap[{label}]",
                    value=gap.mean,
                    stderr=gap.stderr,
                    ci_lo=gap.mean - 4.0 * gap.stderr,
                    ci_hi=gap.mean + 4.0 * gap.stderr,
                    target=0.0,
                    passed=equal,
                )
            )
    return _finish("vcgl", metrics, cfg, trials, started)


def run_vcgl_samp(cfg: ExperimentConfig) -> Report:
    """Reserve-gated auction run from sample-estimated reserves.

    100 independent model builds at theorem-grade sample counts, each
    followed by a block of auctions; the revenue/welfare bound carries the
    (1 - xi(1+gamma)^2)(1 - k*delta) / (1+gamma)^4 haircut.
    """
    started = time.perf_counter()
    block = cfg.trials or 100_000
    resamples = 100
    p = cfg.sample_params or SampleParams(gamma=0.1, xi=0.01, delta=0.01)
    if p.m is None:
        p = dataclasses.replace(p, m=validate_params(p).required_m)
    alpha = 0.5
    n = k = 2
    d = make_falpha(alpha, 1.0)
    ratio = alpha ** (1.0 / (1.0 - alpha))
    haircut = (
        (1.0 - p.xi * (1.0 + p.gamma) ** 2)
        * (1.0 - n * p.delta)
        / (1.0 + p.gamma) ** 4
    )
    threshold = ratio * haircut
    per_resample = Accumulator()
    rev_all = Accumulator()
    welf_all = Accumulator()
    for t in range(resamples):
        build_rng = meta_stream(cfg.master_seed, t)
        reserves = np.array(
            [
                build_empirical(d.sample(build_rng, p.m), p).empirical_reserve()
                for _ in range(n)
            ]
        )
        mc_rng = stream(cfg.master_seed, t)
        draws = d.sample(mc_rng, block * n).reshape(block, n)
        revenue, welfare = lazy_vcg_k_uniform(draws, 1, reserves)
        per_resample.add(float(revenue.mean() - threshold * welfare.mean()))
        rev_all.add_batch(revenue)
        welf_all.add_batch(welfare)
    metrics = [
        MetricSummary.from_accumulator("revenue", rev_all),
        MetricSummary.from_accumulator("welfare", welf_all),
        MetricSummary.exact("haircut_factor", threshold),
        _bound_metric("factor_margin", per_resample, 0.0, threshold),
    ]
    notes = (f"m={p.m}", f"resamples={resamples}", f"block={block}")
    return _finish("vcgl-samp", metrics, cfg, resamples * block, started, notes)


def _two_mech_setup(seed: int):
    rng = meta_stream(seed, 0)
    dists = [make_random_alpha_sr_discrete(rng, 0.5) for _ in range(3)]
    env = KUniformMatroid(1, 3)
    budgets = (1.5, 2.5, 4.0)
    return env, dists, budgets


def run_two_mech(cfg: ExperimentConfig) -> Report:
    """Coin-flip budgeted mechanism welfare vs unconstrained welfare.

    Benchmark is E[max feasible sum of values] -- an upper bound on the
    welfare of every budget-feasible mechanism, so the factor test is
    conservative.  Factor: 4/alpha + 2(alpha+1)/alpha^((2-alpha)/(1-alpha)).
    """
    started = time.perf_counter()
    trials = cfg.trials or 200_000
    alpha = 0.5
    env, dists, budgets = _two_mech_setup(cfg.master_seed)
    factor = 4.0 / alpha + 2.0 * (alpha + 1.0) / alpha ** (
        (2.0 - alpha) / (1.0 - alpha)
    )
    upper = oracle_exact_expectation(dists, lambda values: max(values))
    welf = Accumulator()
    rev = Accumulator()
    for chunk, (_, step) in enumerate(_chunks(trials)):
        rng = stream(cfg.master_seed, chunk)
        values = np.column_stack([d.sample(rng, step) for d in dists])
        coins = np.where(rng.random(step) < 0.5, 1, 2)
        revenue, welfare = two_mech_k_uniform(values, budgets, coins, dists, env.k)
        welf.add_batch(welfare)
        rev.add_batch(revenue)
    metrics = [
        MetricSummary.exact("welfare_upper_bound", upper),
        MetricSummary.from_accumulator("welfare", welf),
        MetricSummary.from_accumulator("revenue", rev),
        _bound_metric("factor_margin", welf, upper / factor, factor),
    ]
    notes = ("benchmark=unconstrained efficient welfare (conservative)",)
    return _finish("two-mech", metrics, cfg, trials, started, notes)


_BUDGET_LO, _BUDGET_HI = 0.75, 3.0


def _lottery_metrics(
    seed: int, trials: int, d: ValuationDistribution, reserves, factor: float
) -> tuple[MetricSummary, MetricSummary, MetricSummary]:
    """Revenue, benchmark and factor margin of the single-item lottery.

    Each row draws two bidders' values from ``d`` and private budgets; its
    benchmark is max(0, max_i capped virtual value).
    """
    rev = Accumulator()
    upper = Accumulator()
    gap = Accumulator()
    for chunk, (_, step) in enumerate(_chunks(trials)):
        rng = stream(seed, chunk)
        values = d.sample(rng, 2 * step).reshape(step, 2)
        budgets = np.where(rng.random((step, 2)) < 0.5, _BUDGET_HI, _BUDGET_LO)
        uniforms = rng.random((step, 2))
        capped_virtual = np.where(
            values < budgets, d.virtual_valuation(values), budgets
        )
        ub = np.maximum(capped_virtual.max(axis=1), 0.0)
        revenue, _ = lottery_k_uniform(values, budgets, uniforms, reserves, 1)
        rev.add_batch(revenue)
        upper.add_batch(ub)
        gap.add_batch(revenue - ub / factor)
    return (
        MetricSummary.from_accumulator("revenue", rev),
        MetricSummary.from_accumulator("opt_upper_bound", upper),
        _bound_metric("factor_margin", gap, 0.0, factor),
    )


def run_lottery(cfg: ExperimentConfig) -> Report:
    """Threshold-lottery revenue vs the capped-value optimal revenue.

    Budgets are private two-point draws; the benchmark per trial is
    max(0, max_i capped virtual value), whose mean is the optimal revenue
    of the min(v, B)-capped instance.  Factor: 3(1 + alpha^(-1/(1-alpha))).
    """
    started = time.perf_counter()
    trials = cfg.trials or 200_000
    alpha = 0.5
    d = make_falpha(alpha, 1.0)
    factor = 3.0 * (1.0 + alpha ** (-1.0 / (1.0 - alpha)))
    reserves = [d.reserve_price] * 2
    metrics = _lottery_metrics(cfg.master_seed, trials, d, reserves, factor)
    return _finish("lottery", list(metrics), cfg, trials, started)


def run_lottery_samp(cfg: ExperimentConfig) -> Report:
    """Threshold lottery with sample-estimated reserves.

    Factor: 3/(1-k*delta) * (1 + 1/(alpha^(1/(1-alpha)) *
    (1 - max(sqrt(8*gamma/alpha), 4*gamma + xi*gamma)))).
    """
    started = time.perf_counter()
    trials = cfg.trials or 100_000
    alpha = 0.5
    p = cfg.sample_params or SampleParams(gamma=0.05, xi=0.05, delta=0.05)
    if p.m is None:
        p = dataclasses.replace(p, m=validate_params(p).required_m)
    erosion = max(math.sqrt(8.0 * p.gamma / alpha), 4.0 * p.gamma + p.xi * p.gamma)
    if erosion >= 1.0:
        raise ValueError("gamma too large: reserve-accuracy erosion reaches 1")
    k = 2
    factor = (
        3.0
        / (1.0 - k * p.delta)
        * (1.0 + 1.0 / (alpha ** (1.0 / (1.0 - alpha)) * (1.0 - erosion)))
    )
    d = make_falpha(alpha, 1.0)
    models = [
        build_empirical(d.sample(meta_stream(cfg.master_seed, slot), p.m), p)
        for slot in range(k)
    ]
    reserves = [m.empirical_reserve() for m in models]
    covered = sum(m.coverage_event_holds(d) for m in models)
    revenue, upper, margin = _lottery_metrics(
        cfg.master_seed, trials, d, reserves, factor
    )
    metrics = [
        revenue,
        upper,
        MetricSummary.exact("empirical_reserve[0]", reserves[0]),
        MetricSummary.exact("empirical_reserve[1]", reserves[1]),
        margin,
    ]
    notes = (f"m={p.m}", f"models_covered={covered}/{k}")
    return _finish("lottery-samp", metrics, cfg, trials, started, notes)


# --- sequential posted prices over the two-bidder two-item instance --------


def criterion_instance() -> MultiItemInstance:
    """Two bidders x two items, truncated power-tail prior on {1,2,3,4}."""
    tr = truncate_at(make_falpha(0.5, 1.0), 4.0, grid=[1.0, 2.0, 3.0, 4.0])
    return MultiItemInstance(
        budgets=(4.0, 4.0), item_limits=(2, 2), dists=((tr, tr), (tr, tr))
    )


def exact_pricing_plan(inst: MultiItemInstance) -> tuple[PricingPlan, float]:
    """Posted-price plan from the exact program: offer chance 1/4, prices
    decomposed from the optimal threshold values.  Returns (plan, V2)."""
    lp2 = build_lp2(inst)
    qsol = aggregate(solve(lp2), lp2, inst)
    n_i, n_j = inst.n_bidders, inst.n_items
    r_bar = np.zeros((n_i, n_j), dtype=int)
    w_bar = np.zeros((n_i, n_j))
    for (i, j), (value, _level) in qsol.thresholds.items():
        r_bar[i, j], w_bar[i, j] = decompose_quantile(value)
    plan = PricingPlan(
        z_star=qsol.x_star.copy(),
        r_bar=r_bar,
        w_bar=w_bar,
        p_offer=0.25,
        c=0.0,
        c_prime=0.0,
        gamma=0.0,
        xi_bar=0.0,
    )
    return plan, float(qsol.objective)


def _sample_value_grid(
    inst: MultiItemInstance, rng: np.random.Generator, t: int
) -> np.ndarray:
    values = np.empty((t, inst.n_bidders, inst.n_items))
    for i, j, d in inst.pairs():
        values[:, i, j] = d.sample(rng, t)
    return values


def run_posted_lp(cfg: ExperimentConfig) -> Report:
    """Sequential posted prices from the exact program.

    Bound: expected revenue >= V2 / 24, and each pair is allocated with
    frequency >= (1/6) * (x*_ij / 4).
    """
    started = time.perf_counter()
    trials = cfg.trials or 1_000_000
    inst = cfg.instance or criterion_instance()
    plan, v2 = exact_pricing_plan(inst)
    n_i, n_j = inst.n_bidders, inst.n_items
    rev = Accumulator()
    welf = Accumulator()
    alloc_accs = [[Accumulator() for _ in range(n_j)] for _ in range(n_i)]
    values_rng = meta_stream(cfg.master_seed, 0)
    mech_rng = meta_stream(cfg.master_seed, 1)
    for _, step in _chunks(trials):
        values = _sample_value_grid(inst, values_rng, step)
        revenue, welfare, alloc = posted_price_runs(inst, plan, values, mech_rng)
        rev.add_batch(revenue)
        welf.add_batch(welfare)
        for i in range(n_i):
            for j in range(n_j):
                alloc_accs[i][j].add_batch(alloc[:, i, j].astype(float))
    metrics = [
        MetricSummary.exact("v2", v2),
        MetricSummary.from_accumulator("revenue", rev),
        MetricSummary.from_accumulator("welfare", welf),
        _bound_metric("revenue_margin", rev, v2 / 24.0, 24.0),
    ]
    for i in range(n_i):
        for j in range(n_j):
            target = (plan.z_star[i, j] / 4.0) / 6.0
            metrics.append(
                _bound_metric(f"alloc_margin[{i},{j}]", alloc_accs[i][j], target, target)
            )
    return _finish("posted-lp", metrics, cfg, trials, started)


def run_posted_lp_samp(cfg: ExperimentConfig) -> Report:
    """Sequential posted prices from the sample-estimated program.

    Uses the first three model builds whose retained quantiles bracket the
    prior for every pair; each covered build must clear the revenue bound
    V2/24 scaled by (1-c xi)(1-c' xi)(1-xi(1+g)^3)^2/(1+g)^9 and the
    per-pair frequency bound (1/6)(ybar*_ij / 4) with
    ybar*_ij = (1-c xi)/(1+g)^2 * x*_ij from its own program.
    """
    started = time.perf_counter()
    block = cfg.trials or 200_000
    inst = cfg.instance or criterion_instance()
    p = cfg.sample_params or SampleParams(gamma=0.2, xi=0.1, delta=0.1, m=9888)
    if p.m is None:
        p = dataclasses.replace(p, m=validate_params(p).required_m)
    _, v2 = exact_pricing_plan(inst)
    n_i, n_j = inst.n_bidders, inst.n_items
    wanted, attempts_cap = 3, 25
    covered_builds: list[tuple[int, dict, PricingPlan, np.ndarray]] = []
    attempts = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleCountWarning)
        while len(covered_builds) < wanted and attempts < attempts_cap:
            build_rng = meta_stream(cfg.master_seed, 10 + attempts)
            models = {
                (i, j): build_empirical(d.sample(build_rng, p.m), p)
                for i, j, d in inst.pairs()
            }
            attempts += 1
            if not all(
                models[(i, j)].coverage_event_holds(d) for i, j, d in inst.pairs()
            ):
                continue
            lp3 = build_lp3(inst, models, p)
            qsol3 = aggregate(solve(lp3), lp3, inst)
            plan = make_pricing_plan(qsol3, inst, models, p)
            covered_builds.append((attempts - 1, models, plan, qsol3.x_star))
    if not covered_builds:
        raise RuntimeError("no covered model build found within the attempt cap")
    g = p.gamma
    metrics = [MetricSummary.exact("v2", v2)]
    mech_slot = 1000
    for b, (build_idx, _models, plan, x_star) in enumerate(covered_builds):
        cv = plan.c * plan.xi_bar
        cpv = plan.c_prime * plan.xi_bar
        product = (
            (1.0 - cv)
            * (1.0 - cpv)
            * (1.0 - plan.xi_bar * (1.0 + g) ** 3) ** 2
            / (1.0 + g) ** 9
        )
        target_rev = v2 / 24.0 * product
        rev = Accumulator()
        alloc_accs = [[Accumulator() for _ in range(n_j)] for _ in range(n_i)]
        values_rng = meta_stream(cfg.master_seed, mech_slot + 2 * b)
        mech_rng = meta_stream(cfg.master_seed, mech_slot + 2 * b + 1)
        for _, step in _chunks(block):
            values = _sample_value_grid(inst, values_rng, step)
            revenue, _welfare, alloc = posted_price_runs(inst, plan, values, mech_rng)
            rev.add_batch(revenue)
            for i in range(n_i):
                for j in range(n_j):
                    alloc_accs[i][j].add_batch(alloc[:, i, j].astype(float))
        metrics.append(MetricSummary.from_accumulator(f"revenue[build={build_idx}]", rev))
        metrics.append(
            _bound_metric(f"revenue_margin[build={build_idx}]", rev, target_rev, target_rev)
        )
        y_scale = (1.0 - cv) / (1.0 + g) ** 2
        worst_name, worst_margin, worst_acc, worst_target = None, np.inf, None, 0.0
        for i in range(n_i):
            for j in range(n_j):
                target = (y_scale * x_star[i, j] / 4.0) / 6.0
                acc = alloc_accs[i][j]
                margin = acc.mean - target + 4.0 * acc.stderr
                if margin < worst_margin:
                    worst_name = f"alloc_margin[build={build_idx},{i},{j}]"
                    worst_margin, worst_acc, worst_target = margin, acc, target
        metrics.append(_bound_metric(worst_name, worst_acc, worst_target, worst_target))
    notes = (
        f"m={p.m}",
        f"covered_builds={len(covered_builds)}/{attempts} attempts",
    )
    return _finish(
        "posted-lp-samp", metrics, cfg, len(covered_builds) * block, started, notes
    )


def run_lemma_square(cfg: ExperimentConfig) -> Report:
    """Survival-square inequality margins across the alpha-SR family.

    integral (1-F)^2 >= alpha/(1+alpha) * integral (1-F), with equality on
    the power-tail family; checked on the analytic grid and on
    generator-produced discrete distributions.
    """
    started = time.perf_counter()
    n_random = cfg.trials or 20
    rng = meta_stream(cfg.master_seed, 0)
    worst_margin = np.inf
    max_gap = 0.0
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        d = make_falpha(alpha, 1.0)
        s1 = d.survival_power_integral(1)
        s2 = d.survival_power_integral(2)
        gap = abs(s2 / s1 - alpha / (1.0 + alpha))
        max_gap = max(max_gap, gap)
    alpha = 0.5
    for _ in range(n_random):
        d = make_random_alpha_sr_discrete(rng, alpha)
        s1 = d.survival_power_integral(1)
        s2 = d.survival_power_integral(2)
        worst_margin = min(worst_margin, s2 - alpha / (1.0 + alpha) * s1)
    metrics = [
        MetricSummary(
            name="tightness_gap_analytic",
            value=max_gap,
            stderr=0.0,
            ci_lo=max_gap,
            ci_hi=max_gap,
            target=1e-6,
            passed=max_gap <= 1e-6,
        ),
        MetricSummary(
            name="min_margin_discrete",
            value=worst_margin,
            stderr=0.0,
            ci_lo=worst_margin,
            ci_hi=worst_margin,
            target=-1e-9,
            passed=worst_margin >= -1e-9,
        ),
    ]
    return _finish("lemma-square", metrics, cfg, n_random, started)


EXPERIMENTS: dict[str, Callable[[ExperimentConfig], Report]] = {
    "vcg-duplicates": run_vcg_duplicates,
    "vcgl": run_vcgl,
    "vcgl-samp": run_vcgl_samp,
    "two-mech": run_two_mech,
    "lottery": run_lottery,
    "lottery-samp": run_lottery_samp,
    "posted-lp": run_posted_lp,
    "posted-lp-samp": run_posted_lp_samp,
    "lemma-square": run_lemma_square,
}


def run_experiment(
    experiment_id: str, config: ExperimentConfig | None = None
) -> Report:
    """Run a registered experiment; unknown ids list the valid ones."""
    if experiment_id not in EXPERIMENTS:
        raise UnknownExperimentError(
            f"unknown experiment '{experiment_id}'; valid ids: "
            + ", ".join(sorted(EXPERIMENTS))
        )
    if config is None:
        config = ExperimentConfig(experiment_id=experiment_id)
    return EXPERIMENTS[experiment_id](config)
