"""Measure the closed-form oracles (no scipy at run time) against a parent commit.

Writes one JSON file per part into ``--out`` and, with ``assemble``, merges
them into ``BENCH_no_scipy.json``.  Parts::

    python3 tools/bench_no_scipy.py pairs --out DIR --parent P --change C \\
        --workload W --seed S --pairs N
    python3 tools/bench_no_scipy.py fresh --out DIR --parent P --change C
    python3 tools/bench_no_scipy.py faults --out DIR --parent P --change C
    python3 tools/bench_no_scipy.py assemble --out DIR --result BENCH_no_scipy.json

P and C are checkouts of the parent and of the change (a ``git archive``
copy of each, so that ``bench/`` is the same file set in both).

* ``pairs`` is that of ``tools/bench_sub_blocks.py``: alternating 30 s
  ``bench/run.py --trace 0`` runs.
* ``fresh`` runs ``python -m srauctions.harness.cli experiment ID --out F``
  for ``vcg-duplicates``, ``vcgl`` and ``vcgl-samp`` at their default
  scale, each in a fresh process, 9 a side, alternating sides.  It records
  the process's wall time, peak RSS, minor page faults (``os.wait4``) and
  the sha256 of the report CSV, which must be the same on both sides.
* ``faults`` runs posted-pricing passes at seed 1 in one fresh process a
  side, 4 processes a side, alternating: a warm-up pass, then 6 timed
  passes, each with its minor page faults (``getrusage`` ``ru_minflt``) in
  all and by experiment.  A third side runs the change with
  ``scipy.integrate`` imported before the warm-up, so that the parent's
  heap layout is restored without its quadrature; it tells whether a
  difference between the sides comes from the heap scipy leaves behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from bench_sub_blocks import machine, pairs, quartiles  # noqa: E402

FRESH_EXPERIMENTS = ("vcg-duplicates", "vcgl", "vcgl-samp")

#: run in a fresh interpreter with ``bench/`` on the path: per-pass seconds
#: and minor faults of posted-pricing passes at seed 1, after a warm-up pass
FAULTS_PROBE = """
import json, resource, sys, time
import workloads
from srauctions.harness import run_experiment
if sys.argv[1] == "1":
    import scipy.integrate
runs = workloads.configs("posted-pricing", 1)
def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for eid, cfg in runs:
    run_experiment(eid, cfg)
passes = []
for _ in range(6):
    faults, seconds = {}, {}
    start, before = time.perf_counter(), minflt()
    for eid, cfg in runs:
        f, t = minflt(), time.perf_counter()
        run_experiment(eid, cfg)
        faults[eid] = faults.get(eid, 0) + minflt() - f
        seconds[eid] = seconds.get(eid, 0.0) + time.perf_counter() - t
    passes.append({"s": time.perf_counter() - start, "minflt": minflt() - before,
                   "minflt_by_experiment": faults, "s_by_experiment": seconds})
print(json.dumps({"passes": passes,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def fresh_run(checkout: Path, eid: str) -> dict:
    """One ``experiment`` CLI run in a fresh process, with its own rusage."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "report.csv"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "srauctions.harness.cli", "experiment", eid, "--out", str(csv)],
            env=env, stdout=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"{eid} exited with {proc.returncode}")
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    return {"s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "minflt": usage.ru_minflt,
            "csv_sha256": digest}


def summary(xs) -> dict:
    return {"median": round(statistics.median(xs), 4), "quartiles": quartiles(xs)}


def fresh(out: Path, parent: Path, change: Path, repeats: int = 9) -> None:
    result = {"what": f"one default `experiment` CLI run in a fresh process, {repeats} a side, "
                      "alternating sides; wall seconds, peak RSS (MB) and minor faults of the process",
              "experiments": {}}
    for eid in FRESH_EXPERIMENTS:
        runs = {"parent": [], "change": []}
        for k in range(repeats):
            order = (("parent", parent), ("change", change))
            for side, checkout in order if k % 2 == 0 else order[::-1]:
                runs[side].append(fresh_run(checkout, eid))
            print(eid, k, {s: round(runs[s][-1]["s"], 3) for s in runs}, flush=True)
        entry = {
            side: {
                "s": [round(r["s"], 4) for r in rs],
                "s_summary": summary([r["s"] for r in rs]),
                "peak_rss_mb": summary([r["peak_rss_mb"] for r in rs]),
                "minflt": summary([r["minflt"] for r in rs]),
                "csv_sha256": sorted({r["csv_sha256"] for r in rs}),
            }
            for side, rs in runs.items()
        }
        entry["same_csv_bytes"] = entry["parent"]["csv_sha256"] == entry["change"]["csv_sha256"]
        entry["change_wins_s"] = sum(c["s"] < p["s"] for p, c in zip(runs["parent"], runs["change"]))
        result["experiments"][eid] = entry
    (out / "fresh.json").write_text(json.dumps(result, indent=1))


def faults(out: Path, parent: Path, change: Path, processes: int = 4) -> None:
    sides = (("parent", parent, "0"), ("change", change, "0"), ("change+scipy", change, "1"))
    runs = {side: [] for side, _, _ in sides}
    for k in range(processes):
        for side, checkout, preload in sides if k % 2 == 0 else sides[::-1]:
            env = dict(os.environ, PYTHONPATH=f"{checkout / 'src'}{os.pathsep}{checkout / 'bench'}")
            proc = subprocess.run([sys.executable, "-c", FAULTS_PROBE, preload], env=env,
                                  capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout))
    result = {"what": f"posted-pricing passes at seed 1: {processes} fresh processes a side, "
                      "alternating; a warm-up pass, then 6 passes of each; seconds and minor faults "
                      "a pass; 'change+scipy' imports scipy.integrate before the warm-up"}
    for side, rs in runs.items():
        passes = [p for r in rs for p in r["passes"]]
        eids = passes[0]["s_by_experiment"]
        result[side] = {
            "pass_s": summary([p["s"] for p in passes]),
            "minflt_per_pass": summary([p["minflt"] for p in passes]),
            "minflt_by_experiment_median": {
                eid: statistics.median(p["minflt_by_experiment"][eid] for p in passes) for eid in eids
            },
            "s_by_experiment_median": {
                eid: round(statistics.median(p["s_by_experiment"][eid] for p in passes), 4) for eid in eids
            },
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in rs]),
        }
    (out / "faults.json").write_text(json.dumps(result, indent=1))


def compare(pairs: dict, metric: str, bound: float) -> dict:
    """A metric's medians, spread and pair wins on both sides, read
    against the benchmark's bound (a fraction of the parent's median)."""
    m = pairs[metric]
    p, c = m["parent"], m["change"]
    q1, median, q3 = m["parent_quartiles"]
    change = statistics.median(c)
    worse = change / median - 1.0
    return {
        "parent_median": round(median, 4),
        "parent_quartiles": m["parent_quartiles"],
        "change_median": round(change, 4),
        "change_quartiles": m["change_quartiles"],
        "change_pct": m["change_pct"],
        "change_wins": m["change_wins"],
        "pairs": len(p),
        "bound_pct": 100.0 * bound,
        "within_bound": worse <= bound,
        # a spread wider than the bound cannot tell "unchanged" from "worse"
        "resolved": (q3 - q1) / median <= bound or max(c) < min(p),
    }


def claim(pairs: dict) -> dict:
    """The claim on posted-pricing ``peak_rss_mb``: every change run below
    every parent run, the change winning at least 9 pairs in 10, and the
    median at least 30% lower and lower by more than the parent's IQR."""
    c = compare(pairs, "peak_rss_mb", 0.05)
    q1, _, q3 = c["parent_quartiles"]
    m = pairs["peak_rss_mb"]
    c["met"] = (
        max(m["change"]) < min(m["parent"])
        and c["change_wins"] >= 0.9 * c["pairs"]
        and c["change_median"] <= 0.7 * c["parent_median"]
        and c["parent_median"] - c["change_median"] > q3 - q1
    )
    return c


def assemble(out: Path, result: Path) -> None:
    """Merge the parts in ``out``: ``meta.json`` (free-form provenance),
    ``pairs-*.json``, ``fresh.json`` and ``faults.json``."""
    import scipy

    bounds = {b["name"]: b["bound"] for b in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parts = {p.stem: json.loads(p.read_text()) for p in sorted(out.glob("*.json"))}
    data = {"machine": {**machine(), "scipy": scipy.__version__}}
    data.update(parts.pop("meta", {}))
    data["workloads"] = {
        name.removeprefix("pairs-"): p for name, p in parts.items() if name.startswith("pairs-")
    }
    data["claim"] = {
        name: claim(p) for name, p in data["workloads"].items() if p["workload"] == "posted-pricing"
    }
    data["no_regression"] = {
        name: {metric: compare(p, metric, bound) for metric, bound in bounds.items()}
        for name, p in data["workloads"].items()
    }
    data["fresh_process_runs"] = parts.get("fresh")
    data["posted_pricing_faults"] = parts.get("faults")
    result.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("part", choices=("pairs", "fresh", "faults", "assemble"))
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--result", type=Path, default=ROOT / "BENCH_no_scipy.json")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.part == "pairs":
        pairs(args.out, args.parent, args.change, args.workload, args.seed, args.pairs)
    elif args.part == "fresh":
        fresh(args.out, args.parent, args.change)
    elif args.part == "faults":
        faults(args.out, args.parent, args.change)
    else:
        assemble(args.out, args.result)


if __name__ == "__main__":
    main()
