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
    reject_unknown_keys,
    truncate_at,
)
from ..empirical import (
    EmpiricalModel,
    SampleCountWarning,
    SampleParams,
    build_empirical,
    reserve_and_coverage,
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
# row-by-row references for the vectorized runners below.  They, and stream
# (trials draw from rng.block_stream through run_batched), stay bound in this
# module because bench/tracer.py wraps them here.
from ..mechanisms import (  # noqa: F401
    KUniformMatroid,
    _virtual_step,
    lottery_mechanism,
    two_mech_budget,
)
from .montecarlo import Accumulator, Draws, MetricSummary, Report, map_independent, run_batched
from .oracles import (
    expected_order_statistic_iid,
    myerson_optimal_revenue_iid,
    oracle_exact_expectation,
)
from .rng import meta_stream, stream  # noqa: F401

DEFAULT_SEED = 20260819


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

    #: the top-level keys of a JSON experiment config
    CONFIG_KEYS = frozenset({"trials", "seed", "sample_params", "instance", "out"})

    def __post_init__(self):
        """Reject a seed that is not an integer, a trial count that is not
        an integer >= 1 (a float, a bool) and, for lottery-samp, sampling
        parameters whose reserve erosion reaches 1, before anything runs."""
        if not _is_integer(self.master_seed):
            raise ValueError(f"master_seed must be an integer, got {self.master_seed!r}")
        if self.trials is not None:
            if not _is_integer(self.trials):
                raise ValueError(f"trials must be an integer, got {self.trials!r}")
            if self.trials < 1:
                raise ValueError("trials must be >= 1")
        if self.experiment_id == "lottery-samp" and self.sample_params is not None:
            _reserve_erosion(self.sample_params)

    @classmethod
    def from_json_dict(cls, experiment_id: str, data: Mapping) -> "ExperimentConfig":
        """Parse an experiment config; a key outside ``CONFIG_KEYS`` is a
        ValueError that names it, so a misspelt key cannot run the default,
        and so is a seed or a trial count that is not a JSON integer (a
        float, a bool, a string or null), which would otherwise be
        truncated, coerced or fail deep inside a run."""
        reject_unknown_keys(data, cls.CONFIG_KEYS)
        sp = data.get("sample_params")
        inst = data.get("instance")
        return cls(
            experiment_id=experiment_id,
            trials=_json_integer(data, "trials") if "trials" in data else None,
            master_seed=_json_integer(data, "seed", DEFAULT_SEED),
            sample_params=SampleParams(**sp) if sp else None,
            instance=MultiItemInstance.from_spec(inst) if inst else None,
            out=data.get("out"),
        )


def _is_integer(value) -> bool:
    """True for an int that is not a bool, as a JSON integer parses."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_integer(data: Mapping, key: str, default: int | None = None) -> int:
    """``data[key]`` (or ``default``), which must be a JSON integer."""
    value = data.get(key, default)
    if not _is_integer(value):
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# vectorized mechanism runners
# ---------------------------------------------------------------------------


def second_price_of_pooled(values: np.ndarray) -> np.ndarray:
    """Revenue of efficient single-item sale over pooled bids, per row: the
    second largest of each row, kept as a running top two over the columns
    (comparisons only, so it is exact)."""
    first = np.maximum(values[:, 0], values[:, 1])
    second = np.minimum(values[:, 0], values[:, 1])
    for c in range(2, values.shape[1]):
        x = values[:, c]
        np.maximum(second, np.minimum(first, x), out=second)
        np.maximum(first, x, out=first)
    return second


def _top_places(columns: np.ndarray, width: int) -> tuple[list, list]:
    """The first ``width`` places of each row of ``columns`` (T, n), ranked
    larger value first and ties to the smaller column index, as a stable
    descending argsort of the row ranks them.

    Returns (values, indices): per place, the 1-D column of its values and
    the column index each row put there, as the smallest unsigned integer
    type that holds n (a scalar where every row agrees).  One pass over the
    columns: column c goes to the first place whose value it strictly
    exceeds, so an equal value stays ahead, and the places below it shift
    down one.  That is one stable compare-exchange per place: a max and a
    min, which keep the values a select on ``ahead`` would keep (NaN and
    the sign of zero aside), and an exact integer swap of the indices.  So
    the cost is O(n * width) operations on 1-D columns.
    """
    n = columns.shape[1]
    tag = np.min_scalar_type(n).type
    values, indices = [], []
    for c in range(n):
        x = columns[:, c]
        v, t = x, tag(c)
        for p in range(len(values)):
            # rows where x beats place p take it there, and carry the
            # entry it displaces down; x then beats every later place too
            ahead = x > values[p]
            values[p], v = np.maximum(v, values[p]), np.minimum(v, values[p])
            swap = (t - indices[p]) * ahead
            indices[p], t = indices[p] + swap, t - swap
        if len(values) < width:
            values.append(v)
            indices.append(t)
    return values, indices


def _place_sum(columns: list, rows: int) -> np.ndarray:
    """Per-row sum of the place columns, equal bit for bit to the row sum
    ``np.sum(axis=1)`` of their (rows, places) stack: below eight places
    numpy adds a row one by one onto 0.0, as done here in place; at eight
    or more it sums pairwise, so the stack is made and summed."""
    if len(columns) >= 8:
        return np.column_stack(columns).sum(axis=1)
    total = np.zeros(rows)
    for c in columns:
        total += c
    return total


def lazy_vcg_k_uniform(
    values: np.ndarray, k: int, reserves: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reserve-gated efficient auction on a k-winner cap, vectorized.

    Returns (revenue, efficient welfare, realized welfare) per row of
    ``values`` (T, n); the realized welfare counts only the winners that
    clear their reserves, as ``vcg_lazy``'s outcome does.  Ties rank toward
    the smaller bidder index, matching the per-auction implementation.
    """
    T, n = values.shape
    if k < 0:
        raise ValueError("k must be nonnegative")
    wins = min(k, n)
    top, index = _top_places(values, min(k + 1, n))
    reserve = np.asarray(reserves, dtype=float).take(index[:wins])
    base = top[k] if n > k else 0.0
    keep = [top[p] >= reserve[p] for p in range(wins)]
    revenue = _place_sum([keep[p] * np.maximum(reserve[p], base) for p in range(wins)], T)
    welfare = _place_sum(top[:wins], T)
    realized = _place_sum([keep[p] * top[p] for p in range(wins)], T)
    return revenue, welfare, realized


def _first_loser(weights: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight and index of the strongest bidder a k-winner cap leaves out.

    Rows of ``weights`` are ranked as ``KUniformMatroid.best_set`` ranks
    them (larger weight first, ties to the smaller index); the entry at
    place k is returned as (T, 1) columns, or (0, n) when n <= k.
    """
    T, n = weights.shape
    if k >= n:
        return np.zeros((T, 1)), np.full((T, 1), n)
    top, index = _top_places(weights, k + 1)
    return top[k][:, None], np.broadcast_to(index[k], (T,)).astype(np.intp)[:, None]


def _beats(weight, index, bar: np.ndarray, rival: np.ndarray) -> np.ndarray:
    """Whether bidder ``index`` at ``weight`` takes a place from the first
    loser (bar, rival): a positive weight ranked ahead of it."""
    return (weight > 0.0) & ((weight > bar) | ((weight == bar) & (index < rival)))


def two_mech_k_uniform(
    values: np.ndarray,
    budgets,
    coins: np.ndarray,
    priors,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The coin-flip budgeted mechanism on a k-winner cap, vectorized.

    ``values`` is (T, n), ``budgets`` broadcasts against it, ``coins`` holds
    1 or 2 per row and ``priors`` one prior of any kind per bidder.  Coin 1
    gives the k largest reserve prices away for free; coin 2 runs the
    virtual-surplus auction on the budget-capped profile, ranking the step
    virtual values (``mechanisms._virtual_step``) floored at 0.  A winner
    pays the least report that still beats the k-th competitor (ties to
    the smaller index): under a discrete prior the least support atom
    whose virtual value does, under a continuous one the value whose
    virtual valuation is that competitor's, capped at its own capped value.
    Returns (revenue, welfare) per row, matching ``two_mech_budget`` row by
    row.
    """
    T, n = values.shape
    if len(priors) != n:
        raise ValueError("need one prior per bidder")
    if not np.isin(coins, (1, 2)).all():
        raise ValueError("coins must be 1 or 2")
    capped = np.minimum(values, budgets)
    eligible = np.column_stack([_virtual_step(d, capped[:, i]) for i, d in enumerate(priors)])
    eligible = np.maximum(eligible, 0.0)
    bar, rival = _first_loser(eligible, k)
    won = _beats(eligible, np.arange(n), bar, rival)
    payments = np.zeros((T, n))
    for i, d in enumerate(priors):
        if isinstance(d, DiscreteTabular):
            # a winner's own atom beats the bar, so the least atom that
            # does lies at or below its capped value
            pay = d.support[np.argmax(_beats(d.virtual_values(), i, bar, rival), axis=1)]
        else:
            pay = np.minimum(capped[:, i], d.value_of_virtual(bar[:, 0]))
        payments[:, i] = np.where(won[:, i], pay, 0.0)
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
        unaffordable = finite & (b < p)  # the cheapest ticket costs p
        a_cap = np.where(finite, np.minimum(2.0 / 3.0, 2.0 * b / r), 2.0 / 3.0)
        a = np.minimum(np.maximum(v / r - 1.0 / 6.0, a_min), a_cap)
        price = a * r / 2.0
        utility = (1.0 / 3.0 + a) * (v - price)
    menu_buy = ~unaffordable & (utility >= 0.0) & (uniforms < 1.0 / 3.0 + a)
    bought = member & np.where(posted, (v >= p) & (b >= p), menu_buy)
    revenue = np.where(bought, np.where(posted, p, np.minimum(price, b)), 0.0).sum(axis=1)
    welfare = np.where(bought, v, 0.0).sum(axis=1)
    return revenue, welfare


def posted_price_runs(
    inst: MultiItemInstance,
    plan: PricingPlan,
    values: np.ndarray,
    draws: Draws,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized sequential posted-price runs.

    ``values`` has shape (T, I, J).  Returns (revenue, welfare, alloc) with
    alloc a boolean (T, I, J) allocation indicator.  Draws two sections of
    I * J doubles a row, in the per-auction function's order (price mixture
    first, then offer coins): a one-row block's sections lie back to back
    in its stream, so a one-row call reproduces it draw for draw.  Pairs
    are offered bidder by bidder, each on 1-D columns of its rows.
    """
    T = values.shape[0]
    n_i, n_j = inst.n_bidders, inst.n_items
    if values.shape != (T, n_i, n_j):
        raise ValueError("values must have shape (T, n_bidders, n_items)")
    high = draws.section(n_i * n_j).random((T, n_i, n_j)) >= plan.w_bar  # posts r + 1, else r
    offered = draws.section(n_i * n_j).random((T, n_i, n_j)) < plan.p_offer

    sold = [np.zeros(T, dtype=bool) for _ in range(n_j)]
    alloc = np.zeros((T, n_i, n_j), dtype=bool)
    revenue = np.zeros(T)
    welfare = np.zeros(T)
    for i in range(n_i):
        held = np.zeros(T, dtype=np.int64)
        budget_left = np.full(T, float(inst.budgets[i]))
        for j in range(n_j):
            r = plan.r_bar[i, j]
            p = np.where(high[:, i, j], float(r + 1), float(r))
            v = values[:, i, j]
            buy = (
                (held < inst.item_limits[i])
                & ~sold[j]
                & offered[:, i, j]
                & (v >= p)
                & (budget_left >= p)
            )
            sold[j] |= buy
            held += buy
            paid = p * buy
            budget_left -= paid
            alloc[:, i, j] = buy
            revenue += paid
            welfare += v * buy
    return revenue, welfare, alloc


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
    (2 + alpha) / alpha, so revenue is checked against OPT / factor.
    """
    started = time.perf_counter()
    trials = cfg.trials or 1_000_000
    alpha = 0.5
    d = make_falpha(alpha, 1.0)
    factor = (2.0 + alpha) / alpha
    metrics: list[MetricSummary] = []
    for case, n in enumerate((1, 2)):
        opt = myerson_optimal_revenue_iid(d, n)

        def batch(draws, rows):
            pooled = d.sample(draws.section(2 * n), rows * 2 * n).reshape(rows, 2 * n)
            return {"revenue": second_price_of_pooled(pooled)}

        rev = run_batched(batch, trials, cfg.master_seed, case)["revenue"]
        metrics.append(MetricSummary.exact(f"opt[n={n}]", opt))
        metrics.append(MetricSummary.from_accumulator(f"revenue[n={n}]", rev))
        metrics.append(_bound_metric(f"factor_margin[n={n}]", rev, opt / factor, factor))
    return _finish("vcg-duplicates", metrics, cfg, trials, started)


def _lazy_vcg_batch(d: ValuationDistribution, n: int, k: int, reserves):
    """Batch function of the reserve-gated auction: ``n`` i.i.d. bidders
    from ``d``, at most ``k`` winners; its revenue and efficient welfare."""

    def batch(draws, rows):
        values = d.sample(draws.section(n), rows * n).reshape(rows, n)
        revenue, welfare, _ = lazy_vcg_k_uniform(values, k, reserves)
        return {"revenue": revenue, "welfare": welfare}

    return batch


def run_vcgl(cfg: ExperimentConfig) -> Report:
    """Reserve-gated efficient auction revenue vs efficient welfare.

    Bound: revenue >= alpha^(1/(1-alpha)) * E[welfare], with E[welfare]
    exact (quadrature).  Welfare has infinite variance at alpha <= 1/2, so
    only revenue, whose tail is lighter, goes under the 4-stderr rule; the
    Monte Carlo welfare is informational.  At one bidder revenue equals
    r q(r) exactly, which is checked as a two-sided gap.
    """
    started = time.perf_counter()
    trials = cfg.trials or 1_000_000
    alpha = 0.5
    d = make_falpha(alpha, 1.0)
    ratio = alpha ** (1.0 / (1.0 - alpha))
    r = d.reserve_price
    cases = (("single[n=1]", 1, 1), ("single[n=2]", 2, 1), ("matroid[n=3,k=2]", 3, 2))
    metrics: list[MetricSummary] = []
    for case, (label, n, k) in enumerate(cases):
        accs = run_batched(_lazy_vcg_batch(d, n, k, np.full(n, r)), trials, cfg.master_seed, case)
        rev = accs["revenue"]
        welfare = sum(expected_order_statistic_iid(d, n, rank) for rank in range(1, k + 1))
        metrics.append(MetricSummary.from_accumulator(f"revenue[{label}]", rev))
        metrics.append(MetricSummary.from_accumulator(f"welfare[{label}]", accs["welfare"]))
        metrics.append(MetricSummary.exact(f"expected_welfare[{label}]", welfare))
        metrics.append(_bound_metric(f"factor_margin[{label}]", rev, ratio * welfare, ratio))
        if n == 1:
            gap = rev.mean - r * float(d.quantile_of_value(r))
            half = 4.0 * rev.stderr
            metrics.append(
                MetricSummary(
                    f"equality_gap[{label}]", gap, rev.stderr, gap - half, gap + half,
                    target=0.0, passed=abs(gap) <= half,
                )
            )
    return _finish("vcgl", metrics, cfg, trials, started)


def run_vcgl_samp(cfg: ExperimentConfig) -> Report:
    """Reserve-gated auction run from sample-estimated reserves.

    100 independent model builds at theorem-grade sample counts, each
    followed by a block of auctions; revenue must clear E[welfare] (exact)
    times alpha^(1/(1-alpha)) and the (1 - xi(1+gamma)^2)(1 - k*delta) /
    (1+gamma)^4 haircut.  The resamples are the independent replicates, so
    the bound's stderr is that of the 100 per-resample mean revenues.
    Resample t builds from meta stream t and runs case t.  A build's
    reserve reads only the blocks of its drawn sort that can hold it
    (`reserve_and_coverage`), a few ms of block-sized numpy calls that
    threads slow down by contending for the GIL, so the builds run in turn
    on the calling thread; the resamples' auctions then run on threads
    (``map_independent``) and are merged in t order.
    """
    started = time.perf_counter()
    block = cfg.trials or 100_000
    resamples = 100
    p = (cfg.sample_params or SampleParams(gamma=0.1, xi=0.01, delta=0.01)).with_required_m()
    alpha = 0.5
    n = 2
    d = make_falpha(alpha, 1.0)
    ratio = alpha ** (1.0 / (1.0 - alpha))
    haircut = (
        (1.0 - p.xi * (1.0 + p.gamma) ** 2)
        * (1.0 - n * p.delta)
        / (1.0 + p.gamma) ** 4
    )
    threshold = ratio * haircut
    welfare = expected_order_statistic_iid(d, n, 1)

    reserves = []
    read = total = 0
    for t in range(resamples):
        build_rng = meta_stream(cfg.master_seed, t)
        draws = [d.sorted_draw(build_rng, p.m) for _ in range(n)]
        reserves.append([reserve_and_coverage(draw, p)[0] for draw in draws])
        read += sum(draw.blocks_read for draw in draws)
        total += sum(draw.blocks for draw in draws)

    def auctions(t: int) -> dict[str, Accumulator]:
        return run_batched(_lazy_vcg_batch(d, n, 1, reserves[t]), block, cfg.master_seed, t)

    per_resample = Accumulator()
    rev_all, welf_all = Accumulator(), Accumulator()
    for accs in map_independent(auctions, range(resamples)):
        per_resample.add(accs["revenue"].mean)
        rev_all = rev_all.merge(accs["revenue"])
        welf_all = welf_all.merge(accs["welfare"])
    metrics = [
        MetricSummary.from_accumulator("revenue", rev_all),
        MetricSummary.from_accumulator("welfare", welf_all),
        MetricSummary.exact("expected_welfare", welfare),
        MetricSummary.exact("haircut_factor", threshold),
        _bound_metric("factor_margin", per_resample, threshold * welfare, threshold),
    ]
    notes = (f"m={p.m}", f"resamples={resamples}", f"block={block}", f"blocks_read={read}/{total}")
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

    def batch(draws, rows):
        values = np.column_stack([d.sample(draws.section(1), rows) for d in dists])
        coins = np.where(draws.section(1).random(rows) < 0.5, 1, 2)
        revenue, welfare = two_mech_k_uniform(values, budgets, coins, dists, env.k)
        return {"welfare": welfare, "revenue": revenue}

    accs = run_batched(batch, trials, cfg.master_seed)
    metrics = [
        MetricSummary.exact("welfare_upper_bound", upper),
        MetricSummary.from_accumulator("welfare", accs["welfare"]),
        MetricSummary.from_accumulator("revenue", accs["revenue"]),
        _bound_metric("factor_margin", accs["welfare"], upper / factor, factor),
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

    def batch(draws, rows):
        values = d.sample(draws.section(2), 2 * rows).reshape(rows, 2)
        budgets = np.where(draws.section(2).random((rows, 2)) < 0.5, _BUDGET_HI, _BUDGET_LO)
        uniforms = draws.section(2).random((rows, 2))
        capped_virtual = np.where(
            values < budgets, d.virtual_valuation(values), budgets
        )
        ub = np.maximum(capped_virtual.max(axis=1), 0.0)
        revenue, _ = lottery_k_uniform(values, budgets, uniforms, reserves, 1)
        return {"revenue": revenue, "upper": ub, "gap": revenue - ub / factor}

    accs = run_batched(batch, trials, seed)
    return (
        MetricSummary.from_accumulator("revenue", accs["revenue"]),
        MetricSummary.from_accumulator("opt_upper_bound", accs["upper"]),
        _bound_metric("factor_margin", accs["gap"], 0.0, factor),
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


#: alpha of lottery-samp's FAlpha prior
_LOTTERY_SAMP_ALPHA = 0.5


def _reserve_erosion(p: SampleParams) -> float:
    """lottery-samp's reserve-accuracy erosion max(sqrt(8 gamma / alpha),
    4 gamma + xi gamma); a ValueError if it reaches 1, where its factor
    has no bound."""
    alpha = _LOTTERY_SAMP_ALPHA
    erosion = max(math.sqrt(8.0 * p.gamma / alpha), 4.0 * p.gamma + p.xi * p.gamma)
    if erosion >= 1.0:
        raise ValueError(
            f"gamma too large for lottery-samp: reserve-accuracy erosion {erosion:.6g} reaches 1"
        )
    return erosion


def run_lottery_samp(cfg: ExperimentConfig) -> Report:
    """Threshold lottery with sample-estimated reserves.

    Factor: 3/(1-k*delta) * (1 + 1/(alpha^(1/(1-alpha)) *
    (1 - max(sqrt(8*gamma/alpha), 4*gamma + xi*gamma)))).  Model ``slot``
    builds from meta stream ``slot`` alone, reading only the blocks of its
    drawn sort that its reserve and coverage need (`reserve_and_coverage`).
    The k builds run in turn on the calling thread: each is a few ms of
    block-sized numpy calls, which threads slow down by contending for the
    GIL.
    """
    started = time.perf_counter()
    trials = cfg.trials or 100_000
    alpha = _LOTTERY_SAMP_ALPHA
    p = (cfg.sample_params or SampleParams(gamma=0.05, xi=0.05, delta=0.05)).with_required_m()
    erosion = _reserve_erosion(p)
    k = 2
    factor = (
        3.0
        / (1.0 - k * p.delta)
        * (1.0 + 1.0 / (alpha ** (1.0 / (1.0 - alpha)) * (1.0 - erosion)))
    )
    d = make_falpha(alpha, 1.0)

    def build(slot: int) -> tuple[float, bool, int, int]:
        draw = d.sorted_draw(meta_stream(cfg.master_seed, slot), p.m)
        return *reserve_and_coverage(draw, p, d), draw.blocks_read, draw.blocks

    reserves, holds, read, blocks = zip(*(build(slot) for slot in range(k)))
    covered = sum(holds)
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
    notes = (f"m={p.m}", f"models_covered={covered}/{k}", f"blocks_read={sum(read)}/{sum(blocks)}")
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


def _sample_value_grid(inst: MultiItemInstance, draws: Draws, t: int) -> np.ndarray:
    """The (t, I, J) values of ``t`` rows: one section per pair, in
    ``inst.pairs()`` order."""
    values = np.empty((t, inst.n_bidders, inst.n_items))
    for i, j, d in inst.pairs():
        values[:, i, j] = d.sample(draws.section(1), t)
    return values


def _posted_batch(inst: MultiItemInstance, plan: PricingPlan):
    """Batch function of sequential posted prices under ``plan``: the
    values' sections, then the mechanism's two, as ``srauctions mech run
    --mech posted`` draws them.  Its metrics are revenue, welfare and
    ``alloc[i,j]``, each pair's allocation indicator."""

    def batch(draws, rows):
        values = _sample_value_grid(inst, draws, rows)
        revenue, welfare, alloc = posted_price_runs(inst, plan, values, draws)
        out = {"revenue": revenue, "welfare": welfare}
        for i, j, _ in inst.pairs():
            out[f"alloc[{i},{j}]"] = alloc[:, i, j]
        return out

    return batch


def run_posted_lp(cfg: ExperimentConfig) -> Report:
    """Sequential posted prices from the exact program.

    Bound: expected revenue >= V2 / 24, and each pair is allocated with
    frequency >= (1/6) * (x*_ij / 4).
    """
    started = time.perf_counter()
    trials = cfg.trials or 1_000_000
    inst = cfg.instance or criterion_instance()
    plan, v2 = exact_pricing_plan(inst)
    accs = run_batched(_posted_batch(inst, plan), trials, cfg.master_seed)
    metrics = [
        MetricSummary.exact("v2", v2),
        MetricSummary.from_accumulator("revenue", accs["revenue"]),
        MetricSummary.from_accumulator("welfare", accs["welfare"]),
        _bound_metric("revenue_margin", accs["revenue"], v2 / 24.0, 24.0),
    ]
    for i, j, _ in inst.pairs():
        target = (plan.z_star[i, j] / 4.0) / 6.0
        metrics.append(
            _bound_metric(f"alloc_margin[{i},{j}]", accs[f"alloc[{i},{j}]"], target, target)
        )
    return _finish("posted-lp", metrics, cfg, trials, started)


def run_posted_lp_samp(cfg: ExperimentConfig) -> Report:
    """Sequential posted prices from the sample-estimated program.

    Uses the first three model builds whose retained quantiles bracket the
    prior for every pair; each covered build must clear the revenue bound
    V2/24 scaled by (1-c xi)(1-c' xi)(1-xi(1+g)^3)^2/(1+g)^9 and the
    per-pair frequency bound (1/6)(ybar*_ij / 4) with
    ybar*_ij = (1-c xi)/(1+g)^2 * x*_ij from its own program.  The
    auctions of attempt b's build are case b of the trial streams.
    """
    started = time.perf_counter()
    block = cfg.trials or 200_000
    inst = cfg.instance or criterion_instance()
    p = (cfg.sample_params or SampleParams(gamma=0.2, xi=0.1, delta=0.1, m=9888)).with_required_m()
    _, v2 = exact_pricing_plan(inst)
    wanted, attempts_cap = 3, 25
    covered_builds: list[tuple[int, PricingPlan, np.ndarray]] = []
    attempts = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleCountWarning)
        while len(covered_builds) < wanted and attempts < attempts_cap:
            build_rng = meta_stream(cfg.master_seed, 10 + attempts)
            models = {
                (i, j): build_empirical(d.sorted_sample(build_rng, p.m), p)
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
            covered_builds.append((attempts - 1, plan, qsol3.x_star))
    if not covered_builds:
        raise RuntimeError("no covered model build found within the attempt cap")
    g = p.gamma
    metrics = [MetricSummary.exact("v2", v2)]
    for build_idx, plan, x_star in covered_builds:
        cv = plan.c * plan.xi_bar
        cpv = plan.c_prime * plan.xi_bar
        product = (
            (1.0 - cv)
            * (1.0 - cpv)
            * (1.0 - plan.xi_bar * (1.0 + g) ** 3) ** 2
            / (1.0 + g) ** 9
        )
        target_rev = v2 / 24.0 * product
        accs = run_batched(_posted_batch(inst, plan), block, cfg.master_seed, build_idx)
        rev = accs["revenue"]
        metrics.append(MetricSummary.from_accumulator(f"revenue[build={build_idx}]", rev))
        metrics.append(
            _bound_metric(f"revenue_margin[build={build_idx}]", rev, target_rev, target_rev)
        )
        y_scale = (1.0 - cv) / (1.0 + g) ** 2
        alloc_margins = []
        for i, j, _ in inst.pairs():
            target = (y_scale * x_star[i, j] / 4.0) / 6.0
            name = f"alloc_margin[build={build_idx},{i},{j}]"
            alloc_margins.append(_bound_metric(name, accs[f"alloc[{i},{j}]"], target, target))
        metrics.append(min(alloc_margins, key=lambda m: m.value))
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
