"""Command-line interface.

Subcommands:

* ``dist eval``        evaluate one distribution functional at a point
* ``sample``           draw values to a CSV
* ``empirical build``  fit the sample-based model and dump a JSON report
* ``mech run``         Monte Carlo a mechanism from a JSON config
* ``experiment <id>``  run a registered experiment and emit its report CSV

Every randomized path is seeded; identical invocations write identical
bytes.  The process exits nonzero when any emitted verdict fails.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
import warnings
from typing import Callable, NamedTuple

import numpy as np

from ..dists import (
    dist_from_spec,
    json_object,
    reject_unknown_keys,
    revenue_curve_hull,
)
from ..empirical import SampleParams, build_empirical, reserve_and_coverage, validate_params
from ..lp import MultiItemInstance, make_pricing_plan, aggregate, build_lp3, solve
from ..mechanisms import (
    Environment,
    ExplicitFeasibleSets,
    KUniformMatroid,
    lottery_mechanism,
    myerson_single_item,
    posted_price_mechanism,
    two_mech_budget,
    vcg_lazy,
    vcg_with_duplicates,
)
from .experiments import (
    ExperimentConfig,
    UnknownExperimentError,
    _sample_value_grid,
    exact_pricing_plan,
    lazy_vcg_k_uniform,
    lottery_k_uniform,
    posted_price_runs,
    run_experiment,
    two_mech_k_uniform,
)
from .montecarlo import MetricSummary, Report, render_csv, run_batched
from .rng import meta_stream, stream

MECH_CHOICES = (
    "vcg",
    "vcg-dup",
    "vcgl",
    "vcgl-emp",
    "myerson",
    "two-mech",
    "lottery",
    "posted",
    "posted-emp",
)

WHAT_CHOICES = ("cdf", "pdf", "phi", "hazard", "H", "reserve", "cr", "welfare")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srauctions",
        description="strongly regular valuation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist_p = sub.add_parser("dist", help="distribution utilities")
    dist_sub = dist_p.add_subparsers(dest="subcommand", required=True)
    eval_p = dist_sub.add_parser("eval", help="evaluate a functional at a point")
    eval_p.add_argument("--spec", required=True, help="distribution spec JSON")
    eval_p.add_argument("--v", required=True, type=float, help="evaluation point")
    eval_p.add_argument("--what", required=True, choices=WHAT_CHOICES)

    sample_p = sub.add_parser("sample", help="draw values to a CSV")
    sample_p.add_argument("--spec", required=True)
    sample_p.add_argument("--m", required=True, type=int)
    sample_p.add_argument("--seed", required=True, type=int)
    sample_p.add_argument("--out", required=True)

    emp_p = sub.add_parser("empirical", help="sample-based model utilities")
    emp_sub = emp_p.add_subparsers(dest="subcommand", required=True)
    build_p = emp_sub.add_parser("build", help="fit a model from sampled values")
    build_p.add_argument("--in", dest="infile", required=True)
    build_p.add_argument("--m", required=True, type=int)
    build_p.add_argument("--gamma", required=True, type=float)
    build_p.add_argument("--xi", required=True, type=float)
    build_p.add_argument("--delta", required=True, type=float)
    build_p.add_argument("--report", required=True)

    mech_p = sub.add_parser("mech", help="mechanism Monte Carlo")
    mech_sub = mech_p.add_subparsers(dest="subcommand", required=True)
    run_p = mech_sub.add_parser("run", help="average a mechanism over trials")
    run_p.add_argument("--mech", required=True, choices=MECH_CHOICES)
    run_p.add_argument("--config", required=True, help="instance config JSON file")
    run_p.add_argument("--trials", required=True, type=int)
    run_p.add_argument("--seed", required=True, type=int)
    run_p.add_argument("--out", required=True)

    exp_p = sub.add_parser("experiment", help="run a registered experiment")
    exp_p.add_argument("id", help="experiment id")
    exp_p.add_argument("--config", default=None, help="override config JSON file")
    exp_p.add_argument("--out", default=None, help="report CSV path (default stdout)")

    return parser


# ---------------------------------------------------------------------------
# dist / sample / empirical
# ---------------------------------------------------------------------------


def _cmd_dist_eval(args) -> int:
    try:
        d = dist_from_spec(args.spec)
    except _CONFIG_ERRORS as exc:
        return _bad_input("dist eval", exc)
    v = args.v
    table = {
        "cdf": lambda: d.cdf(v),
        "pdf": lambda: d.density(v),
        "phi": lambda: d.virtual_valuation(v),
        "hazard": lambda: d.hazard_rate(v),
        "H": lambda: d.cumulative_hazard(v),
        "reserve": lambda: d.reserve_price,
        "cr": lambda: revenue_curve_hull(d, v),
        "welfare": lambda: d.posted_price_welfare(v),
    }
    print(format(float(table[args.what]()), ".12g"))
    return 0


def _cmd_sample(args) -> int:
    try:
        d = dist_from_spec(args.spec)
    except _CONFIG_ERRORS as exc:
        return _bad_input("sample", exc)
    if args.m < 1:
        print("--m must be positive", file=sys.stderr)
        return 2
    values = d.sample(stream(args.seed, 0), args.m)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["value"])
        for x in values:
            writer.writerow([repr(float(x))])
    return 0


def _read_sample_csv(path: str) -> list[float]:
    """The values of a one-column CSV, one a row, skipping blank rows.

    The first row may be a header, which is skipped if it is one cell that
    does not parse as a number.  Any other row that is not one number, such
    as ``abc`` or a decimal comma ``1,5``, is a ValueError naming its line.
    """
    out: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            try:
                (cell,) = row
                out.append(float(cell))
            except ValueError:
                if reader.line_num == 1 and len(row) == 1:
                    continue  # header
                got = ",".join(row)
                raise ValueError(f"{path} line {reader.line_num}: expected one number, got {got!r}") from None
    return out


def _cmd_empirical_build(args) -> int:
    try:
        samples = _read_sample_csv(args.infile)
        if len(samples) < args.m:
            raise ValueError(f"input has {len(samples)} values, need --m {args.m}")
        p = SampleParams(gamma=args.gamma, xi=args.xi, delta=args.delta, m=args.m)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = build_empirical(samples[: args.m], p)
        fh = open(args.report, "w")
    except _CONFIG_ERRORS as exc:
        return _bad_input("empirical build", exc)
    with fh:
        validity = validate_params(p)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        report = {
            "model": model.to_json_dict(),
            "params": dataclasses.asdict(p),
            "validity": {
                "lemma_grade": validity.lemma_grade,
                "theorem_grade": validity.theorem_grade,
                "required_m": validity.required_m,
            },
            "empirical_reserve": model.empirical_reserve(),
            "xi_bar": model.xi_bar,
        }
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# mech run
# ---------------------------------------------------------------------------


#: the keys of each environment kind's spec
ENV_KEYS = {
    "k-uniform": frozenset({"kind", "k", "n"}),
    "explicit": frozenset({"kind", "n", "sets"}),
}

#: the keys of a ``budget_dist`` spec
BUDGET_DIST_KEYS = frozenset({"p_hi", "hi", "lo"})


def env_from_spec(spec: dict) -> Environment:
    """The environment of an ``env`` spec; a spec that is not a JSON
    object, or a key that its kind does not read (`ENV_KEYS`), is a
    ValueError that says so."""
    kind = json_object(spec, "env").get("kind", "k-uniform")
    if kind not in ENV_KEYS:
        raise ValueError(f"unknown environment kind: {kind!r}")
    reject_unknown_keys(spec, ENV_KEYS[kind], f"{kind} environment")
    if kind == "k-uniform":
        return KUniformMatroid(int(spec["k"]), int(spec["n"]))
    return ExplicitFeasibleSets(int(spec["n"]), spec["sets"])


def _budget_draw(config: dict, n: int) -> Callable | None:
    """Row budgets of ``n`` bidders: two-point draws under ``budget_dist``
    (one section of ``n`` doubles a row), else the fixed ``budgets`` on
    every row; None if the config sets neither.  Both keys are checked when
    present.  A budget is a number >= 0, inf for none; a negative or NaN
    budget, a ``budgets`` that is not one per bidder, or a ``p_hi`` outside
    [0, 1] is a ValueError that says so."""

    def checked(budgets: np.ndarray) -> np.ndarray:
        if not (budgets >= 0.0).all():
            raise ValueError(f"budgets must be numbers >= 0 or inf, got {budgets.tolist()}")
        return budgets

    if "budgets" in config:
        fixed = checked(np.asarray(config["budgets"], dtype=float))
        if fixed.shape != (n,):
            raise ValueError(f"budgets must hold one number per bidder, {n} in all, got {fixed.tolist()}")
    if "budget_dist" in config:
        b = config["budget_dist"]
        reject_unknown_keys(b, BUDGET_DIST_KEYS, "budget_dist")
        p_hi = float(b["p_hi"])
        hi, lo = checked(np.array([b["hi"], b["lo"]], dtype=float))
        if not 0.0 <= p_hi <= 1.0:
            raise ValueError(f"budget_dist p_hi must lie in [0, 1], got {p_hi}")
        return lambda draws, rows: np.where(draws.section(n).random((rows, n)) < p_hi, hi, lo)
    if "budgets" not in config:
        return None
    return lambda draws, rows: np.broadcast_to(fixed, (rows, n))


class MechRows(NamedTuple):
    """How ``mech run`` draws and prices a sub-block of rows.

    ``draw(draws, rows)`` returns the sub-block's row arrays from sections
    of its ``montecarlo.Draws``.  ``scalar(rng, *row)`` prices one row with
    the per-auction mechanism, the reference oracle, reading ``rng`` (the
    draws' ``rest()``) for draws of variable count; ``vector(draws,
    *arrays)``, set where a vectorized runner applies (see `mech_rows`),
    prices the sub-block from sections after ``draw``'s and returns
    (revenue, welfare).  Welfare is that of the winners
    (``MechanismOutcome``'s).
    """

    draw: Callable
    scalar: Callable
    vector: Callable | None = None

    def batch(self, draws, rows: int) -> dict:
        arrays = self.draw(draws, rows)
        if self.vector is not None:
            revenue, welfare = self.vector(draws, *arrays)
        else:
            rng = draws.rest()
            outs = [self.scalar(rng, *row) for row in zip(*arrays)]
            revenue = np.array([out.revenue for out in outs])
            welfare = np.array([out.welfare for out in outs])
        return {"revenue": revenue, "welfare": welfare}


#: the top-level keys of a ``mech run`` config; each mechanism reads a subset
MECH_CONFIG_KEYS = frozenset(
    {"dists", "env", "reserves", "budgets", "budget_dist", "sample_params", "instance"}
)


def mech_rows(mech: str, config: dict, seed: int) -> MechRows:
    """Parse a ``mech run`` config into the mechanism's rows.

    On k-uniform environments the VCG family, ``lottery`` and ``two-mech``
    (over priors of every kind) get the experiments' vectorized runners,
    and the posted-price mechanisms always do.  Everything else
    (``explicit`` environments, ``myerson``, ``vcg-dup``) runs row by row.  Model training
    samples come from meta stream 0, apart from the block streams.  A key
    outside ``MECH_CONFIG_KEYS`` is a ValueError that names it, and so is a
    bad ``budgets`` or ``budget_dist`` (see `_budget_draw`), whether or not
    the mechanism reads it.
    """
    reject_unknown_keys(config, MECH_CONFIG_KEYS)
    if mech in ("posted", "posted-emp"):
        inst = MultiItemInstance.from_spec(config["instance"])
        _budget_draw(config, inst.n_bidders)  # checked; the instance holds the budgets
        if mech == "posted":
            plan, _ = exact_pricing_plan(inst)
        else:
            sp = SampleParams(**config["sample_params"]).with_required_m()
            build_rng = meta_stream(seed, 0)
            models = {(i, j): build_empirical(d.sorted_sample(build_rng, sp.m), sp) for i, j, d in inst.pairs()}
            lp3 = build_lp3(inst, models, sp)
            plan = make_pricing_plan(aggregate(solve(lp3), lp3, inst), inst, models, sp)
        return MechRows(
            lambda draws, rows: (_sample_value_grid(inst, draws, rows),),
            lambda rng, v: posted_price_mechanism(inst, plan, v, rng),
            lambda draws, values: posted_price_runs(inst, plan, values, draws)[:2],
        )

    dists = [dist_from_spec(s) for s in config["dists"]]
    n = len(dists)
    env = env_from_spec(config.get("env", {"kind": "k-uniform", "k": 1, "n": n}))
    if env.n_bidders != n:
        raise ValueError("environment size does not match the number of dists")
    k = env.k if isinstance(env, KUniformMatroid) else None
    budgets = _budget_draw(config, n)

    def values(draws, rows):
        return np.column_stack([d.sample(draws.section(1), rows) for d in dists])

    if mech == "vcg-dup":
        return MechRows(
            lambda draws, rows: (values(draws, rows), values(draws, rows)),
            lambda rng, v, dup: vcg_with_duplicates(env, v, dup),
        )
    if mech == "myerson":
        return MechRows(
            lambda draws, rows: (values(draws, rows),),
            lambda rng, v: myerson_single_item(dists, v),
        )
    if mech == "vcg":  # VCG is the lazy auction at zero reserves
        reserves = np.zeros(n)
    elif mech == "vcgl-emp":
        sp = SampleParams(**config["sample_params"]).with_required_m()
        build_rng = meta_stream(seed, 0)
        reserves = [reserve_and_coverage(d.sorted_draw(build_rng, sp.m), sp)[0] for d in dists]
    else:
        reserves = config.get("reserves") or [d.reserve_price for d in dists]
    if mech in ("vcg", "vcgl", "vcgl-emp"):
        return MechRows(
            lambda draws, rows: (values(draws, rows),),
            lambda rng, v: vcg_lazy(env, v, reserves),
            # revenue and realized welfare
            (lambda draws, v: lazy_vcg_k_uniform(v, k, reserves)[::2]) if k is not None else None,
        )

    if budgets is None:
        raise KeyError("budgets")
    if mech == "two-mech":
        return MechRows(
            lambda draws, rows: (
                values(draws, rows),
                budgets(draws, rows),
                np.where(draws.section(1).random(rows) < 0.5, 1, 2),
            ),
            lambda rng, v, b, coin: two_mech_budget(env, dists, v, b, int(coin)),
            (lambda draws, v, b, coins: two_mech_k_uniform(v, b, coins, dists, k))
            if k is not None else None,
        )
    if mech == "lottery":
        return MechRows(
            lambda draws, rows: (values(draws, rows), budgets(draws, rows)),
            lambda rng, v, b: lottery_mechanism(env, dists, v, b, rng, reserves=reserves),
            (lambda draws, v, b: lottery_k_uniform(v, b, draws.section(n).random(v.shape), reserves, k))
            if k is not None else None,
        )
    raise ValueError(f"unknown mechanism: {mech!r}")


def _bad_input(command: str, exc: Exception) -> int:
    """Report a config error on one line of stderr; exit code 2."""
    msg = f"missing config key {exc}" if isinstance(exc, KeyError) else str(exc)
    print(f"srauctions {command}: {msg}", file=sys.stderr)
    return 2


_CONFIG_ERRORS = (OSError, ValueError, KeyError, TypeError)


def _cmd_mech_run(args) -> int:
    try:
        if args.trials < 1:
            raise ValueError("--trials must be positive")
        with open(args.config) as fh:
            config = json.load(fh)
        rows = mech_rows(args.mech, config, args.seed)
    except _CONFIG_ERRORS as exc:
        return _bad_input("mech run", exc)
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        accs = run_batched(rows.batch, args.trials, args.seed)
    metrics = tuple(MetricSummary.from_accumulator(k, acc) for k, acc in accs.items())
    report = Report(f"mech:{args.mech}", metrics, args.seed, args.trials, time.perf_counter() - started)
    render_csv(report, args.out)
    return 0 if report.verdict else 1


def _cmd_experiment(args) -> int:
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = ExperimentConfig.from_json_dict(args.id, json.load(fh))
        else:
            cfg = ExperimentConfig(experiment_id=args.id)
    except _CONFIG_ERRORS as exc:
        return _bad_input("experiment", exc)
    try:
        report = run_experiment(args.id, cfg)
    except UnknownExperimentError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    out_path = args.out or cfg.out
    text = render_csv(report, out_path)
    if out_path is None:
        sys.stdout.write(text)
    return 0 if report.verdict else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "dist":
        return _cmd_dist_eval(args)
    if args.command == "sample":
        return _cmd_sample(args)
    if args.command == "empirical":
        return _cmd_empirical_build(args)
    if args.command == "mech":
        return _cmd_mech_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
