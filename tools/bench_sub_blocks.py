"""Measure ``run_batched``'s sub-blocks against a parent commit.

Writes one JSON file per part into ``--out`` and, with ``assemble``, merges
them into ``BENCH_sub_blocks.json``.  Parts::

    python3 tools/bench_sub_blocks.py sweep --out DIR [--passes N]
    python3 tools/bench_sub_blocks.py pairs --out DIR --parent P --change C \\
        --workload W --seed S --pairs N
    python3 tools/bench_sub_blocks.py faults --out DIR --parent P --change C
    python3 tools/bench_sub_blocks.py vcgl-samp --out DIR --parent P --change C
    python3 tools/bench_sub_blocks.py assemble --out DIR --result BENCH_sub_blocks.json

P and C are checkouts of the parent and of the change (a ``git archive``
copy of each, so that ``bench/`` is the same file set in both).

* ``sweep`` runs interleaved in-process passes of posted-pricing's
  experiments at seed 1 from the checkout that holds this script, with
  ``montecarlo._SUB_BLOCK`` set to each candidate size in turn; a size of
  ``_CHUNK`` runs every block as one sub-block.
* ``pairs`` alternates ``bench/run.py --seconds 30 --trace 0`` between the
  two checkouts (the parent first in even pairs, counting from 0) and keeps
  the last JSON line of each run.
* ``faults`` counts the minor page faults (``getrusage`` ``ru_minflt``) of
  one default run of ``vcgl``, ``posted-lp`` and ``posted-lp-samp``, each
  in a fresh process after a warm-up run of the same experiment.
* ``vcgl-samp`` times one default ``vcgl-samp`` run and reads its peak RSS
  in a fresh process pinned to 1 CPU and to 2 CPUs (``sched_setaffinity``
  on that process only): the medians of 9 processes a side, alternating
  sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIZES = (8_192, 16_384, 32_768, 65_536, 250_000)

FAULT_EXPERIMENTS = ("vcgl", "posted-lp", "posted-lp-samp")

#: run in a fresh interpreter: minor faults of a run after a warm-up run
FAULT_PROBE = """
import json, resource, sys
from srauctions.harness import ExperimentConfig, run_experiment
eid = sys.argv[1]
run_experiment(eid, ExperimentConfig(experiment_id=eid))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(eid, ExperimentConfig(experiment_id=eid))
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""

#: run in a fresh interpreter: wall time and peak RSS of a vcgl-samp run
VCGL_SAMP_PROBE = """
import json, os, resource, sys, time
os.sched_setaffinity(0, set(sorted(os.sched_getaffinity(0))[: int(sys.argv[1])]))
from srauctions.harness import ExperimentConfig, run_experiment
start = time.perf_counter()
report = run_experiment("vcgl-samp", ExperimentConfig(experiment_id="vcgl-samp"))
print(json.dumps({"s": time.perf_counter() - start, "verdict": report.verdict,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def quartiles(xs) -> list[float]:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(v, 4) for v in q]


def sweep(out: Path, passes: int) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from srauctions.harness import montecarlo, run_experiment

    runs = workloads.configs("posted-pricing", 1)
    times = {size: [] for size in SIZES}
    per_exp = {size: {} for size in SIZES}
    for eid, cfg in runs:  # warm-up: lazy imports and caches
        run_experiment(eid, cfg)
    for _ in range(passes):
        for size in SIZES:
            montecarlo._SUB_BLOCK = size
            total = 0.0
            for eid, cfg in runs:
                start = time.perf_counter()
                run_experiment(eid, cfg)
                took = time.perf_counter() - start
                per_exp[size].setdefault(eid, []).append(took)
                total += took
            times[size].append(total)
    result = {
        "what": "in-process posted-pricing passes at seed 1, interleaved over sub-block sizes; seconds",
        "passes": passes,
        "sizes": list(SIZES),
        "pass_s": {
            str(size): {"median": round(statistics.median(t), 4), "quartiles": quartiles(t)}
            for size, t in times.items()
        },
        "experiment_median_s": {
            str(size): {eid: round(statistics.median(t), 4) for eid, t in exps.items()}
            for size, exps in per_exp.items()
        },
    }
    (out / "sweep.json").write_text(json.dumps(result, indent=1))


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "30", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    line = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    return {
        "verdict_s": metrics["verdict_s"],
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "correct": line["correct"],
    }


def pairs(out: Path, parent: Path, change: Path, workload: str, seed: int, n: int) -> None:
    runs = {"parent": [], "change": []}
    for k in range(n):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench_run(parent if side == "parent" else change, workload, seed))
        print(workload, seed, k, {s: runs[s][-1]["verdict_s"] for s in runs}, flush=True)
    result = {"workload": workload, "seed": seed, "pairs": n}
    for metric in ("verdict_s", "setup_s", "peak_rss_mb"):
        p = [r[metric] for r in runs["parent"]]
        c = [r[metric] for r in runs["change"]]
        result[metric] = {
            "parent": p,
            "change": c,
            "parent_quartiles": quartiles(p),
            "change_quartiles": quartiles(c),
            "change_pct": round(100.0 * (statistics.median(c) / statistics.median(p) - 1.0), 2),
            "change_wins": sum(b < a for a, b in zip(p, c)),
        }
    for key in ("attempted", "failed"):
        result[key] = {side: sum(r[key] for r in rs) for side, rs in runs.items()}
    result["all_correct"] = all(r["correct"] for rs in runs.values() for r in rs)
    (out / f"pairs-{workload}-{seed}.json").write_text(json.dumps(result, indent=1))


def probe(checkout: Path, code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout


def faults(out: Path, parent: Path, change: Path, repeats: int = 3) -> None:
    result = {"what": "ru_minflt of a default run after a warm-up run, fresh process; median of "
                      f"{repeats} processes, alternating sides", "experiments": {}}
    for eid in FAULT_EXPERIMENTS:
        counts = {"parent": [], "change": []}
        for _ in range(repeats):
            for side, checkout in (("parent", parent), ("change", change)):
                counts[side].append(json.loads(probe(checkout, FAULT_PROBE, eid)))
        result["experiments"][eid] = {
            side: {"runs": c, "median": statistics.median(c)} for side, c in counts.items()
        }
    (out / "faults.json").write_text(json.dumps(result, indent=1))


def vcgl_samp(out: Path, parent: Path, change: Path, repeats: int = 9) -> None:
    result = {"what": f"one default vcgl-samp run in a fresh process, median of {repeats}, "
                      "alternating sides", "cpus": {}}
    for cpus in (1, 2):
        runs = {"parent": [], "change": []}
        for k in range(repeats):
            order = (("parent", parent), ("change", change))
            for side, checkout in order if k % 2 == 0 else order[::-1]:
                runs[side].append(json.loads(probe(checkout, VCGL_SAMP_PROBE, str(cpus))))
        result["cpus"][str(cpus)] = {
            side: {
                "s": round(statistics.median(r["s"] for r in rs), 3),
                "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in rs), 1),
                "verdicts_pass": all(r["verdict"] for r in rs),
            }
            for side, rs in runs.items()
        }
    (out / "vcgl-samp.json").write_text(json.dumps(result, indent=1))


def claim(pairs: dict) -> dict:
    """The gain rule on ``verdict_s``: the change wins at least 9 of 10
    pairs, and the medians differ by more than the parent's IQR."""
    v = pairs["verdict_s"]
    q1, median, q3 = v["parent_quartiles"]
    change = statistics.median(v["change"])
    return {
        "parent_median": median,
        "change_median": round(change, 4),
        "change_pct": v["change_pct"],
        "parent_iqr": round(q3 - q1, 4),
        "change_wins": v["change_wins"],
        "pairs": pairs["pairs"],
        "met": v["change_wins"] >= 0.9 * pairs["pairs"] and median - change > q3 - q1,
    }


def assemble(out: Path, result: Path) -> None:
    """Merge the parts in ``out``: ``meta.json`` (free-form provenance),
    ``sweep.json``, ``pairs-*.json`` (keyed by the rest of their name, so a
    second round can sit beside the first), ``faults.json`` and
    ``vcgl-samp.json``."""
    parts = {p.stem: json.loads(p.read_text()) for p in sorted(out.glob("*.json"))}
    data = {"machine": machine()}
    data.update(parts.pop("meta", {}))
    data["sub_block_sweep"] = parts.pop("sweep", None)
    data["workloads"] = {
        name.removeprefix("pairs-"): p for name, p in parts.items() if name.startswith("pairs-")
    }
    data["claim"] = {
        name: claim(p) for name, p in data["workloads"].items() if p["workload"] == "posted-pricing"
    }
    data["minor_page_faults"] = parts.get("faults")
    data["vcgl_samp_informational"] = parts.get("vcgl-samp")
    result.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("part", choices=("sweep", "pairs", "faults", "vcgl-samp", "assemble"))
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--passes", type=int, default=15)
    ap.add_argument("--result", type=Path, default=ROOT / "BENCH_sub_blocks.json")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.part == "sweep":
        sweep(args.out, args.passes)
    elif args.part == "pairs":
        pairs(args.out, args.parent, args.change, args.workload, args.seed, args.pairs)
    elif args.part == "faults":
        faults(args.out, args.parent, args.change)
    elif args.part == "vcgl-samp":
        vcgl_samp(args.out, args.parent, args.change)
    else:
        assemble(args.out, args.result)


if __name__ == "__main__":
    main()
