"""Measure block-wise order statistics and lazy reserves against a parent commit.

Writes one JSON file per part into ``--out`` and, with ``assemble``, merges
them into ``BENCH_lazy_order_stats.json``.  Parts::

    python3 tools/bench_lazy_order_stats.py pairs --out DIR --parent P --change C \\
        --workload W --seed S --pairs N
    python3 tools/bench_lazy_order_stats.py vcgl-samp --out DIR --parent P --change C
    python3 tools/bench_lazy_order_stats.py draws --out DIR --parent P --change C
    python3 tools/bench_lazy_order_stats.py tier1 --out DIR --parent P --change C
    python3 tools/bench_lazy_order_stats.py old-draw --out DIR --change C
    python3 tools/bench_lazy_order_stats.py assemble --out DIR --result BENCH_lazy_order_stats.json

P and C are checkouts of the parent and of the change (a ``git archive``
copy of each, so that ``bench/`` is the same file set in both).

* ``pairs`` and ``vcgl-samp`` are those of ``tools/bench_sub_blocks.py``:
  alternating ``bench/run.py --seconds 30 --trace 0`` runs, and one default
  ``vcgl-samp`` run in a fresh process pinned to 1 and to 2 CPUs.
* ``draws`` times, in a fresh process per checkout, a full continuous
  ``sorted_sample`` of m = 1,107,402 FAlpha(1/2) values, and one
  lottery-samp build's reserve and coverage: ``build_empirical`` of that
  sort plus ``coverage_event_holds`` in the parent, ``sorted_draw`` plus
  ``reserve_and_coverage`` in the change.  Medians of 9, alternating sides.
* ``tier1`` times the Tier-1 suite in each checkout, alternating.
* ``old-draw`` patches the parent's ``_uniform_order_statistics`` (all
  n + 1 exponentials, then a cumsum) into the change and takes the report
  digests of lottery-samp and vcgl-samp at their pinned trial counts and
  of a default lottery-samp CSV: they must be the parent's pins.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from bench_sub_blocks import claim, machine, pairs, probe, vcgl_samp  # noqa: E402

#: run in a fresh interpreter: seconds of a full sorted_sample and of one
#: build's reserve and coverage, medians of the repeats
DRAWS_PROBE = """
import json, statistics, sys, time, warnings
from srauctions import empirical
from srauctions.dists import make_falpha
from srauctions.empirical import SampleParams, build_empirical
from srauctions.harness.rng import meta_stream
p = SampleParams(0.05, 0.05, 0.05).with_required_m()
d = make_falpha(0.5, 1.0)
lazy = hasattr(empirical, "reserve_and_coverage")

def build(slot):
    if lazy:
        draw = d.sorted_draw(meta_stream(1, slot), p.m)
        return empirical.reserve_and_coverage(draw, p, d), draw.blocks_read
    em = build_empirical(d.sorted_sample(meta_stream(1, slot), p.m), p)
    return (em.empirical_reserve(), em.coverage_event_holds(d)), None

sample_s, build_s = [], []
for slot in range(int(sys.argv[1])):
    start = time.perf_counter()
    d.sorted_sample(meta_stream(1, slot), p.m)
    sample_s.append(time.perf_counter() - start)
    start = time.perf_counter()
    answer, read = build(slot)
    build_s.append(time.perf_counter() - start)
print(json.dumps({"sorted_sample_s": statistics.median(sample_s), "build_s": statistics.median(build_s),
                  "blocks_read": read}))
"""

#: run in a fresh interpreter from the change: report digests with the
#: parent's draw patched in
OLD_DRAW_PROBE = """
import hashlib, json, tempfile
import numpy as np
from srauctions import dists
from srauctions.harness import ExperimentConfig, render_csv, run_experiment
from srauctions.harness.cli import main

class OldDraw:
    # the parent's _uniform_order_statistics, served block by block
    def __init__(self, rng, n):
        s = rng.standard_exponential(int(n) + 1)
        np.cumsum(s, out=s)
        q = np.divide(s[:-1], s[-1], out=s[:-1])
        q[: np.searchsorted(q, 0.0, side="right")] = np.finfo(float).tiny
        self.n, self._q = int(n), q
        B = dists.ORDER_BLOCK
        self.ends = q[np.minimum(np.arange(B, n + B, B), n) - 1].copy()

    def read(self, k, out):
        out[:] = self._q[k * dists.ORDER_BLOCK :][: len(out)]
        return out

dists._uniform_order_statistics = OldDraw
out = {}
for eid, trials in (("lottery-samp", 260_000), ("vcgl-samp", 1_000)):
    report = run_experiment(eid, ExperimentConfig(experiment_id=eid, trials=trials))
    out[eid] = hashlib.sha256(render_csv(report).encode()).hexdigest()
with tempfile.TemporaryDirectory() as tmp:
    main(["experiment", "lottery-samp", "--out", f"{tmp}/ls.csv"])
    out["lottery-samp default CSV"] = hashlib.sha256(open(f"{tmp}/ls.csv", "rb").read()).hexdigest()
print(json.dumps(out))
"""

#: the parent's pins: REPORT_SHA256 of tests/test_harness.py and the CI hash
PARENT_PINS = {
    "lottery-samp": "e48068ee2c56e673818380970f75a7434288e2c6254eec9bc85321143b402467",
    "vcgl-samp": "48f16c272b845f267a9767f90d516d2480b162815cfc38c38d458ec95a765c11",
    "lottery-samp default CSV": "e2c662a03a7396c1c777d8006b427ab6074d5c1bb6c34807d98fb628c65ebf96",
}


def draws(out: Path, parent: Path, change: Path, repeats: int = 9) -> None:
    runs = {"parent": [], "change": []}
    for k in range(3):
        order = (("parent", parent), ("change", change))
        for side, checkout in order if k % 2 == 0 else order[::-1]:
            runs[side].append(json.loads(probe(checkout, DRAWS_PROBE, str(repeats))))
    result = {"what": f"m = 1,107,402, FAlpha(1/2), meta streams (1, slot); each figure the median over "
                      f"3 fresh processes of a median of {repeats}; seconds"}
    for side, rs in runs.items():
        result[side] = {
            "sorted_sample_s": round(statistics.median(r["sorted_sample_s"] for r in rs), 5),
            "build_s": round(statistics.median(r["build_s"] for r in rs), 5),
            "blocks_read_last_slot": rs[0]["blocks_read"],
        }
    (out / "draws.json").write_text(json.dumps(result, indent=1))


def tier1(out: Path, parent: Path, change: Path, repeats: int = 2) -> None:
    runs = {"parent": [], "change": []}
    for k in range(repeats):
        order = (("parent", parent), ("change", change))
        for side, checkout in order if k % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                cwd=checkout, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
            )
            runs[side].append({"s": round(time.perf_counter() - start, 1),
                               "summary": proc.stdout.strip().splitlines()[-1]})
    (out / "tier1.json").write_text(json.dumps({"what": "python -m pytest -q, wall seconds", **runs}, indent=1))


def old_draw(out: Path, change: Path) -> None:
    digests = json.loads(probe(change, OLD_DRAW_PROBE))
    result = {
        "what": "the change's code with the parent's _uniform_order_statistics patched in",
        "digests": digests,
        "parent_pins": PARENT_PINS,
        "all_match": digests == PARENT_PINS,
    }
    (out / "old-draw.json").write_text(json.dumps(result, indent=1))


def assemble(out: Path, result: Path) -> None:
    """Merge the parts in ``out``: ``meta.json`` (free-form provenance),
    ``pairs-*.json``, ``vcgl-samp.json``, ``draws.json``, ``tier1.json``
    and ``old-draw.json``."""
    parts = {p.stem: json.loads(p.read_text()) for p in sorted(out.glob("*.json"))}
    data = {"machine": machine()}
    data.update(parts.pop("meta", {}))
    data["workloads"] = {
        name.removeprefix("pairs-"): p for name, p in parts.items() if name.startswith("pairs-")
    }
    data["claim"] = {
        name: claim(p) for name, p in data["workloads"].items() if p["workload"] == "sampled-reserves"
    }
    data["vcgl_samp_default_run"] = parts.get("vcgl-samp")
    data["draw_and_build"] = parts.get("draws")
    data["tier1"] = parts.get("tier1")
    data["old_draw_digests"] = parts.get("old-draw")
    result.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("part", choices=("pairs", "vcgl-samp", "draws", "tier1", "old-draw", "assemble"))
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--result", type=Path, default=ROOT / "BENCH_lazy_order_stats.json")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.part == "pairs":
        pairs(args.out, args.parent, args.change, args.workload, args.seed, args.pairs)
    elif args.part == "vcgl-samp":
        vcgl_samp(args.out, args.parent, args.change)
    elif args.part == "draws":
        draws(args.out, args.parent, args.change)
    elif args.part == "tier1":
        tier1(args.out, args.parent, args.change)
    elif args.part == "old-draw":
        old_draw(args.out, args.change)
    else:
        assemble(args.out, args.result)


if __name__ == "__main__":
    main()
