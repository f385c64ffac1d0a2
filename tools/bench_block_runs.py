"""Measure a drawn sort's run reads against a parent commit.

Writes one JSON file per part into ``--out`` and, with ``assemble``, merges
them into ``BENCH_block_runs.json``.  Parts::

    python3 tools/bench_block_runs.py pairs --out DIR --parent P --change C \\
        --workload W --seed S --pairs N
    python3 tools/bench_block_runs.py draws --out DIR --parent P --change C
    python3 tools/bench_block_runs.py vcgl-samp --out DIR --parent P --change C
    python3 tools/bench_block_runs.py sweep --out DIR
    python3 tools/bench_block_runs.py assemble --out DIR --result BENCH_block_runs.json

P and C are checkouts of the parent and of the change (a ``git archive``
copy of each, so that ``bench/`` is the same file set in both).

* ``pairs`` is that of ``tools/bench_sub_blocks.py``: alternating 30 s
  ``bench/run.py --trace 0`` runs.
* ``draws`` runs, in fresh processes alternating between the checkouts, 12
  lottery-samp builds (FAlpha(1/2), m = 1,107,402, meta streams (1, slot))
  through ``sorted_draw`` and ``reserve_and_coverage``, timing each build,
  draw included, and a full ``sorted_sample`` of the same m; it also hashes
  ``sorted_sample`` at several n on PCG64DXSM and Philox streams, which
  must be the same bytes on both sides.
* ``vcgl-samp`` is that of ``tools/bench_sub_blocks.py``: one default
  ``vcgl-samp`` run (200 builds at m = 725,085) in a fresh process pinned
  to 1 and to 2 CPUs, 9 a side, alternating.
* ``sweep`` times in-process passes of the same 12 builds from the checkout
  that holds this script, with ``dists.RUN_BLOCKS`` set to each candidate
  in turn, interleaved, and counts their minor page faults.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from bench_sub_blocks import claim, machine, pairs, probe, quartiles, vcgl_samp  # noqa: E402

#: run in a fresh interpreter: per-build and full-sort milliseconds, and
#: digests of drawn sorts
DRAWS_PROBE = """
import hashlib, json, statistics, time
import numpy as np
from srauctions import empirical
from srauctions.dists import make_exponential, make_falpha
from srauctions.empirical import SampleParams
from srauctions.harness.rng import meta_stream
p = SampleParams(0.05, 0.05, 0.05).with_required_m()
d = make_falpha(0.5, 1.0)
build_ms, read = [], []
for slot in range(12):
    start = time.perf_counter()
    draw = d.sorted_draw(meta_stream(1, slot), p.m)
    empirical.reserve_and_coverage(draw, p, d)
    build_ms.append(1e3 * (time.perf_counter() - start))
    read.append(draw.blocks_read)
values_ms = []
for slot in range(5):
    start = time.perf_counter()
    d.sorted_sample(meta_stream(1, slot), p.m)
    values_ms.append(1e3 * (time.perf_counter() - start))
digest = hashlib.sha256()
for dist in (d, make_exponential(2.0)):
    for n in (3, 1000, 1024, 725_085, 1_107_402):
        for bits in (np.random.PCG64DXSM(n), np.random.Philox(key=[n, 1])):
            rng = np.random.Generator(bits)
            digest.update(dist.sorted_sample(rng, n).tobytes() + rng.random(2).tobytes())
print(json.dumps({"build_ms": statistics.median(build_ms), "values_ms": statistics.median(values_ms),
                  "blocks_read": read, "sorted_sample_sha256": digest.hexdigest()}))
"""

SWEEP_RUNS = (1, 4, 8, 16, 32, 64)


def draws(out: Path, parent: Path, change: Path, processes: int = 10) -> None:
    runs = {"parent": [], "change": []}
    for k in range(processes):
        order = (("parent", parent), ("change", change))
        for side, checkout in order if k % 2 == 0 else order[::-1]:
            runs[side].append(json.loads(probe(checkout, DRAWS_PROBE)))
    result = {"what": f"FAlpha(1/2), m = 1,107,402, meta streams (1, slot); {processes} fresh processes a "
                      "side, alternating; each process gives the median of 12 builds (draw, reserve and "
                      "coverage) and of 5 full sorted_sample calls; milliseconds"}
    for side, rs in runs.items():
        build, values = [r["build_ms"] for r in rs], [r["values_ms"] for r in rs]
        result[side] = {
            "build_ms": {"median": round(statistics.median(build), 3), "quartiles": quartiles(build)},
            "values_ms": {"median": round(statistics.median(values), 2), "quartiles": quartiles(values)},
            "blocks_read": rs[0]["blocks_read"],
            "sorted_sample_sha256": sorted({r["sorted_sample_sha256"] for r in rs}),
        }
    result["same_bytes_and_blocks"] = all(
        result["parent"][key] == result["change"][key] for key in ("blocks_read", "sorted_sample_sha256")
    )
    (out / "draws.json").write_text(json.dumps(result, indent=1))


def sweep(out: Path, passes: int) -> None:
    import resource
    import time

    sys.path.insert(0, str(ROOT / "src"))
    from srauctions import dists, empirical
    from srauctions.dists import make_falpha
    from srauctions.empirical import SampleParams
    from srauctions.harness.rng import meta_stream

    p = SampleParams(0.05, 0.05, 0.05).with_required_m()
    d = make_falpha(0.5, 1.0)

    def one_pass():
        for slot in range(12):
            empirical.reserve_and_coverage(d.sorted_draw(meta_stream(1, slot), p.m), p, d)

    one_pass()  # warm-up
    times = {size: [] for size in SWEEP_RUNS}
    faults = {size: [] for size in SWEEP_RUNS}
    for _ in range(passes):
        for size in SWEEP_RUNS:
            dists.RUN_BLOCKS = size
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            one_pass()
            times[size].append(1e3 * (time.perf_counter() - start))
            faults[size].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    result = {
        "what": "in-process passes of 12 lottery-samp builds at seed 1, interleaved over RUN_BLOCKS; "
                "milliseconds a pass and minor page faults a pass",
        "passes": passes,
        "pass_ms": {
            str(size): {"median": round(statistics.median(t), 2), "quartiles": quartiles(t)}
            for size, t in times.items()
        },
        "minor_faults_median": {str(size): statistics.median(f) for size, f in faults.items()},
    }
    (out / "sweep.json").write_text(json.dumps(result, indent=1))


def assemble(out: Path, result: Path) -> None:
    """Merge the parts in ``out``: ``meta.json`` (free-form provenance),
    ``pairs-*.json``, ``draws.json``, ``vcgl-samp.json`` and ``sweep.json``."""
    parts = {p.stem: json.loads(p.read_text()) for p in sorted(out.glob("*.json"))}
    data = {"machine": machine()}
    data.update(parts.pop("meta", {}))
    data["workloads"] = {
        name.removeprefix("pairs-"): p for name, p in parts.items() if name.startswith("pairs-")
    }
    data["claim"] = {
        name: claim(p) for name, p in data["workloads"].items() if p["workload"] == "sampled-reserves"
    }
    data["draws"] = parts.get("draws")
    data["vcgl_samp_default_run"] = parts.get("vcgl-samp")
    data["run_blocks_sweep"] = parts.get("sweep")
    result.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("part", choices=("pairs", "draws", "vcgl-samp", "sweep", "assemble"))
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--passes", type=int, default=15)
    ap.add_argument("--result", type=Path, default=ROOT / "BENCH_block_runs.json")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.part == "pairs":
        pairs(args.out, args.parent, args.change, args.workload, args.seed, args.pairs)
    elif args.part == "draws":
        draws(args.out, args.parent, args.change)
    elif args.part == "vcgl-samp":
        vcgl_samp(args.out, args.parent, args.change)
    elif args.part == "sweep":
        sweep(args.out, args.passes)
    else:
        assemble(args.out, args.result)


if __name__ == "__main__":
    main()
