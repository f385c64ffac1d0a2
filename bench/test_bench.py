"""Tests of the benchmark itself: metric lists, wrapper restore, exact counts.

Run with ``python3 -m pytest bench`` from the root of the repository.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, PROCESS_METRICS, Tracer, _targets  # noqa: E402

#: counts that must repeat exactly under a fixed seed
EXACT = (
    "lp.solve.iterations",
    "mechanisms.best_set.calls",
    "empirical.envelope.vertices_out",
    "rng.stream.calls",
    "empirical.coverage.hold_ratio",
)


def test_benchmark_json_lists_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expected = list(LAYER_METRICS)
    expected += [(f"experiment.{eid}.s", "s", "lower") for eid in workloads.EXPERIMENT_IDS]
    expected += list(PROCESS_METRICS)
    assert per_layer == expected


def test_configs_follow_the_seed():
    a = workloads.configs("posted-pricing", 11)
    b = workloads.configs("posted-pricing", 11)
    c = workloads.configs("posted-pricing", 12)
    assert [cfg.master_seed for _, cfg in a] == [cfg.master_seed for _, cfg in b]
    assert len({cfg.master_seed for _, cfg in a}) == len(a)
    assert {cfg.master_seed for _, cfg in a}.isdisjoint(cfg.master_seed for _, cfg in c)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "posted-pricing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_installed_wrappers_are_restored_even_on_error():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in _targets()]
    with pytest.raises(RuntimeError):
        with Tracer(0).installed():
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def _traced(workload, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload, 3), _traced(workload, 3)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["rng.stream.calls"] > 0
    if workload == "budgeted-per-trial":
        assert first["empirical.build.calls"] == 0
        assert first["mechanisms.best_set.calls"] > 0
    else:
        assert first["empirical.envelope.vertices_out"] > 0
    if workload == "posted-pricing":
        assert first["lp.solve.iterations"] > 0
