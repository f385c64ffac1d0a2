"""Monte Carlo engine and report types.

``run_batched`` is the one engine, and every experiment's trials run on
it: it hands a batch function blocks of at most ``_CHUNK`` rows, block
``c`` of case ``s`` drawing from ``rng.block_stream(master_seed, s, c)``,
so a run is a pure function of its seed, its case and its trial count.
Aggregation is the commutative monoid (count, sum, sum-of-squares), and
reports carry a 95% normal confidence interval per metric.  Experiments
attach a target and a verdict to the metrics that encode a theorem bound;
purely informational metrics leave both blank.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import rng

#: two-sided 95% normal quantile
Z95 = 1.959963984540054

#: Most rows one block of a batched run holds.
_CHUNK = 250_000


class Accumulator:
    """Streaming (count, sum, sum-of-squares) for one metric."""

    __slots__ = ("count", "total", "total_sq")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        self.total_sq += x * x

    def add_batch(self, xs) -> None:
        """Add every entry of ``xs``; a boolean array adds its true count to
        both sums, which is exactly what its 0/1 floats would add."""
        arr = np.asarray(xs)
        if arr.dtype == bool:
            hits = int(np.count_nonzero(arr))
            self.count += arr.size
            self.total += hits
            self.total_sq += hits
            return
        arr = arr.astype(float, copy=False)
        self.count += arr.size
        self.total += float(arr.sum())
        self.total_sq += float((arr * arr).sum())

    def merge(self, other: "Accumulator") -> "Accumulator":
        out = Accumulator()
        out.count = self.count + other.count
        out.total = self.total + other.total
        out.total_sq = self.total_sq + other.total_sq
        return out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        var = (self.total_sq - self.total * self.total / self.count) / (self.count - 1)
        return math.sqrt(max(var, 0.0) / self.count)


@dataclass(frozen=True)
class MetricSummary:
    name: str
    value: float
    stderr: float
    ci_lo: float
    ci_hi: float
    target: float | None = None
    passed: bool | None = None

    @classmethod
    def from_accumulator(cls, name: str, acc: Accumulator) -> "MetricSummary":
        half = Z95 * acc.stderr
        return cls(name, acc.mean, acc.stderr, acc.mean - half, acc.mean + half)

    @classmethod
    def exact(cls, name: str, value: float) -> "MetricSummary":
        return cls(name, value, 0.0, value, value)


@dataclass(frozen=True)
class Report:
    experiment_id: str
    metrics: tuple[MetricSummary, ...]
    seed: int
    trials: int
    runtime_seconds: float
    notes: tuple[str, ...] = field(default=())

    @property
    def verdict(self) -> bool:
        return all(m.passed for m in self.metrics if m.passed is not None)

    def metric(self, name: str) -> MetricSummary:
        for m in self.metrics:
            if m.name == name:
                return m
        raise KeyError(name)

    def rows(self) -> list[dict]:
        rows = []
        for m in self.metrics:
            rows.append(
                {
                    "experiment_id": self.experiment_id,
                    "metric": m.name,
                    "value": _fmt(m.value),
                    "stderr": _fmt(m.stderr),
                    "ci_lo": _fmt(m.ci_lo),
                    "ci_hi": _fmt(m.ci_hi),
                    "target": _fmt(m.target) if m.target is not None else "",
                    "verdict": "" if m.passed is None else ("pass" if m.passed else "fail"),
                    "seed": str(self.seed),
                    "trials": str(self.trials),
                }
            )
        return rows


CSV_COLUMNS = (
    "experiment_id",
    "metric",
    "value",
    "stderr",
    "ci_lo",
    "ci_hi",
    "target",
    "verdict",
    "seed",
    "trials",
)


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    if x != x:  # NaN
        return "nan"
    return format(float(x), ".12g")


def render_csv(reports, out_path: str | None = None) -> str:
    """Serialize reports to the fixed-column CSV; optionally write a file."""
    if isinstance(reports, Report):
        reports = [reports]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rep in reports:
        for row in rep.rows():
            writer.writerow(row)
    text = buf.getvalue()
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    return text


def run_batched(
    batch_fn: Callable[[np.random.Generator, int], Mapping[str, np.ndarray]],
    trials: int,
    master_seed: int,
    case: int = 0,
) -> dict[str, Accumulator]:
    """Accumulate ``batch_fn`` over ``trials`` rows, block by block.

    ``batch_fn(rng, rows)`` returns a mapping from metric name to a
    ``(rows,)`` array.  Block ``c``, rows ``c * _CHUNK`` on, gets the
    generator of ``rng.block_stream(master_seed, case, c)``, so runs are
    reproducible, never depend on scheduling, and an experiment's cases
    draw from distinct streams.  Returns one accumulator per metric, in the
    order the first block named them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    accs: dict[str, Accumulator] = {}
    for c, start in enumerate(range(0, trials, _CHUNK)):
        rows = min(_CHUNK, trials - start)
        # out keeps the previous block's arrays alive while this one is made,
        # so the heap reuses their pages rather than trim and fault them again
        out = batch_fn(rng.block_stream(master_seed, case, c), rows)
        for name, xs in out.items():
            accs.setdefault(name, Accumulator()).add_batch(xs)
    return accs


def wilson_interval(successes: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half
