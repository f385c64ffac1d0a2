"""srauctions benchmark: time to a verdict on one workload.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  A pass runs each of the
workload's experiments once through ``srauctions.harness.run_experiment``
and checks every report: its verdict must pass, and a repeat under the same
seed must render byte-identical CSV.  A failed check, or an experiment that
raises, counts as a failed run.

``--trace 0`` times set-up in fresh processes, then repeats untraced passes
until ``--seconds`` have elapsed (at least one) and reports the end-to-end
metrics.  The first pass warms caches and lazy imports: it is checked, but
``verdict_s`` is the median of the passes after it whenever there are any.
``--trace 1`` alternates untraced and traced passes over the same span,
reports the per-layer metrics of the traced passes (see ``tracer.py``) and
writes their spans to ``.bench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import workloads
from tracer import LAYER_METRICS, PROCESS_METRICS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: fresh-process set-ups per --trace 0 run; setup_s is their median
SETUP_REPEATS = 5

#: Iterations of the reference loop (``reference_s``), and the seconds it
#: takes on the machine the benchmark was tuned on when that machine runs at
#: full speed: a 2-vCPU Xeon VM at 2.1 GHz with CPython 3.11.7.  Timings are
#: reported at that speed; see ``README.md``.
REFERENCE_ITERATIONS = 200_000
REFERENCE_S = 0.016

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# passes and their checks
# ---------------------------------------------------------------------------


def reference_s() -> float:
    """Seconds that a fixed pure-Python loop takes right now.

    The loop calls no library code, so its time follows only how fast the
    machine runs Python at this moment.  The garbage collector is off while
    it runs, so that objects the library left behind cannot slow it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_ITERATIONS):
            acc = (acc + i * 7) % 1_000_003
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def at_reference_speed(seconds: float, references: list[float]) -> float:
    """``seconds`` rescaled to a machine on which the reference loop takes
    ``REFERENCE_S``, given the loop's times measured around them."""
    return seconds * REFERENCE_S / statistics.mean(references)


class Pass:
    """Reports, rendered CSV and wall time of one pass over a workload.

    With ``probe_speed``, the reference loop runs before each experiment and
    after the last one, outside the timed experiments, and ``scaled_s`` is
    the pass time at reference speed.
    """

    def __init__(self, runs, tracer: Tracer | None = None, probe_speed: bool = False):
        from srauctions.harness import render_csv, run_experiment

        span = tracer.span if tracer is not None else (lambda _name: nullcontext())
        self.reports = []
        self.csvs = []
        self.references = []
        self.wall_s = 0.0
        with span("pass"):
            for eid, cfg in runs:
                if probe_speed:
                    self.references.append(reference_s())
                start = time.perf_counter()
                with span(f"experiment.{eid}"):
                    try:
                        report = run_experiment(eid, cfg)
                    except Exception:
                        traceback.print_exc()
                        report = None
                self.reports.append(report)
                self.csvs.append(None if report is None else render_csv(report))
                self.wall_s += time.perf_counter() - start
            if probe_speed:
                self.references.append(reference_s())
        if probe_speed:
            self.scaled_s = at_reference_speed(self.wall_s, self.references)

    def failures(self, runs, reference: "Pass") -> list[str]:
        """One line per failed run, checked against a same-seed pass."""
        out = []
        for (eid, cfg), report, csv, ref in zip(runs, self.reports, self.csvs, reference.csvs):
            where = f"{eid} (master_seed {cfg.master_seed})"
            if report is None:
                out.append(f"{where}: raised")
            elif not report.verdict:
                out.append(f"{where}: verdict failed")
            elif csv != ref:
                out.append(f"{where}: report differs from its same-seed repeat")
        return out


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to a built workload, as
    measured and at reference speed."""
    before = reference_s()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, at_reference_speed(elapsed, [before, reference_s()])


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it reports one."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not its own git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_sha256() -> str:
    """Digest of the library sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "srauctions").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, first: Pass, runs) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "process_threads": len(os.listdir("/proc/self/task")),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "builds_per_pass": workloads.BUILDS[args.workload],
        "runs": [
            {"experiment": eid, "master_seed": cfg.master_seed,
             "trials": None if rep is None else rep.trials,
             "notes": None if rep is None else list(rep.notes)}
            for (eid, cfg), rep in zip(runs, first.reports)
        ],
        # provenance only: a change to the Monte Carlo engine may change it
        "csv_sha256": hashlib.sha256("".join(c or "" for c in first.csvs).encode()).hexdigest(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def measure(args, runs):
    setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(Pass(runs, probe_speed=True))
        p = passes[-1]
        print(f"pass {len(passes)}: {p.wall_s:.3f} s measured, {p.scaled_s:.3f} s at "
              f"reference speed (reference loop mean {statistics.mean(p.references):.4f} s)")
    timed = passes[1:] or passes
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "verdict_s": statistics.median(p.scaled_s for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"setup over {len(setups)} fresh processes, measured and at reference speed: "
          + ", ".join(f"{wall:.3f}/{scaled:.3f}" for wall, scaled in setups))
    print(f"verdict_s over {len(timed)} of {len(passes)} passes; median measured "
          f"{statistics.median(p.wall_s for p in timed):.3f} s")
    return passes, passes, metrics, dict(END_TO_END)


def measure_traced(args, runs):
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    untraced, traced, per_pass = [], [], []
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    with open(spans_path, "w") as spans_out:
        spans_out.write("pass,span,parent,name,start_ns,end_ns\n")
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(Pass(runs))
            tracer = Tracer(pass_id=len(traced))
            cpu0 = time.process_time()
            with tracer.installed():
                traced.append(Pass(runs, tracer))
            cpu_s = time.process_time() - cpu0
            wall = traced[-1].wall_s
            values = tracer.metrics(workloads.EXPERIMENT_IDS)
            values["proc.cpu_s"] = cpu_s
            values["proc.cpu_util"] = cpu_s / wall
            per_pass.append(values)
            tracer.write_spans(spans_out)
            print(f"pair {len(traced)}: untraced {untraced[-1].wall_s:.3f} s, "
                  f"traced {wall:.3f} s, {len(tracer.spans)} spans")
            shares = tracer.layer_shares(int(wall * 1e9))
            print("layer_share " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
    bound = bounds["verdict_s"]
    small = [layer for layer, share in shares.items() if share < bound]
    print(f"a speed-up confined to one of {small} saves less than the {bound:.0%} "
          "verdict_s bound on this workload, so it cannot show end to end")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1.0
    )
    units = {name: unit for name, unit, _ in LAYER_METRICS + PROCESS_METRICS}
    units.update({f"experiment.{eid}.s": "s" for eid in workloads.EXPERIMENT_IDS})
    return untraced, untraced + traced, metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "srauctions" / "__init__.py").is_file():
        print(f"bench: no srauctions package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runs = workloads.configs(args.workload, args.seed)
    measure_fn = measure_traced if args.trace else measure
    untraced, checked, metrics, units = measure_fn(args, runs)

    failures = [f for p in checked for f in p.failures(runs, untraced[0])]
    attempted = len(runs) * len(checked)
    for line in failures:
        print(f"FAILED {line}")
    print("provenance " + json.dumps(provenance(args, untraced[0], runs)))
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6g} {units[name]}")
    print(f"{'fail_frac':<44} {len(failures) / attempted:>16.6g} ratio "
          f"({len(failures)} of {attempted} runs)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
