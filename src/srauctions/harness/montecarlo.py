"""Monte Carlo engine and report types.

``run_batched`` is the one engine, and every experiment's trials run on
it: it splits a run into blocks of at most ``_CHUNK`` rows, block ``c`` of
case ``s`` drawing from ``rng.block_stream(master_seed, s, c)``, so a run is
a pure function of its seed, its case and its trial count.  Aggregation is
the monoid (count, sum, sum-of-squares); float addition is not
associative, so accumulators are always merged in stream order.  Reports
carry a 95% normal confidence interval per metric.  Experiments attach a
target and a verdict to the metrics that encode a theorem bound; purely
informational metrics leave both blank.

A block's draws are laid out in sections.  A batch function asks its
``Draws`` for them in a fixed order: ``section(w)`` for w doubles per row,
drawn row-major, then, if it needs draws of variable count, ``rest()``.
Section s starts after the earlier sections' ``rows * w`` words of the
block stream, and ``rest()`` after them all.  Every trial draw is
``Generator.random``, one 64-bit word per double, so rows [a, b) of a
section are words [base + a * w, base + b * w), which a generator reaches
by ``advance``.  So a block runs as sub-blocks of at most ``_SUB_BLOCK``
rows, each reading only its own rows of each section: their temporaries
fit in a core's L2 cache, where a whole block's would take tens of MB.
The sub-blocks' metric columns fill block-sized arrays, which are added
once per block, so the sub-block size never changes a byte.
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

#: Most rows one sub-block of a block holds (see the module docstring).
_SUB_BLOCK = 32_768


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


class _Block:
    """One block's stream and section layout, shared by its sub-blocks.

    Sub-block 0 lays the sections out as it asks for them; ``widths[k]``
    and ``bases[k]`` are section k's doubles per row and first word.  The
    block stream's own generator serves every section in turn, placed at
    its words by ``advance``, so a section costs no new generator.
    """

    __slots__ = ("gen", "rows", "state", "widths", "bases", "words", "rest")

    def __init__(self, gen: np.random.Generator, rows: int):
        self.gen = gen
        self.rows = rows
        self.state = gen.bit_generator.state
        self.widths: list[int] = []
        self.bases: list[int] = []
        self.words = 0  # the sections' words so far: where rest() starts
        self.rest: np.random.Generator | None = None

    def at(self, word: int, gen: np.random.Generator) -> np.random.Generator:
        """``gen`` placed at ``word`` of the block stream."""
        bits = gen.bit_generator
        bits.state = self.state
        bits.advance(word)
        return gen


class Draws:
    """The draws of rows [start, stop) of one block (see the module
    docstring for the layout).

    ``section(w)`` returns a generator at this sub-block's rows of the next
    section, of which the caller must read exactly ``rows * w`` doubles by
    ``random`` (or a sampler built on it) before it asks for another
    section: every section is read through the same generator.  ``rest()``
    returns the block's one generator for draws of variable count, placed
    after its sections and read in sequence by its sub-blocks; no section
    may follow it.  A sub-block that asks for other sections than sub-block
    0 did, in order and width, raises ValueError.
    """

    __slots__ = ("rows", "_block", "_start", "_asked", "_rested")

    def __init__(self, block: _Block, start: int, stop: int):
        self.rows = stop - start
        self._block = block
        self._start = start
        self._asked = 0
        self._rested = False

    def section(self, width: int) -> np.random.Generator:
        block, k = self._block, self._asked
        if self._rested:
            raise ValueError("a section was asked for after rest()")
        if k < len(block.widths):
            if width != block.widths[k]:
                raise ValueError(f"section {k} has width {block.widths[k]}, asked for {width}")
        elif self._start == 0:
            block.widths.append(width)
            block.bases.append(block.words)
            block.words += block.rows * width
        else:
            raise ValueError(f"sub-block 0 asked for {k} sections, this one for more")
        self._asked = k + 1
        return block.at(block.bases[k] + self._start * width, block.gen)

    def rest(self) -> np.random.Generator:
        block = self._block
        self.check_complete()
        self._rested = True
        if block.rest is None:
            fresh = np.random.Generator(type(block.gen.bit_generator)(0))
            block.rest = block.at(block.words, fresh)
        return block.rest

    def check_complete(self) -> None:
        """Raise unless this sub-block asked for every section sub-block 0 did."""
        if self._asked != len(self._block.widths):
            raise ValueError(
                f"sub-block 0 asked for {len(self._block.widths)} sections, this one for {self._asked}"
            )


def _run_sub_block(batch_fn, block: _Block, start: int, stop: int) -> Mapping[str, np.ndarray]:
    draws = Draws(block, start, stop)
    out = batch_fn(draws, stop - start)
    draws.check_complete()
    return out


def run_batched(
    batch_fn: Callable[[Draws, int], Mapping[str, np.ndarray]],
    trials: int,
    master_seed: int,
    case: int = 0,
) -> dict[str, Accumulator]:
    """Accumulate ``batch_fn`` over ``trials`` rows, block by block.

    ``batch_fn(draws, rows)`` returns a mapping from metric name to a
    ``(rows,)`` array.  Block ``c``, rows ``c * _CHUNK`` on, draws from
    ``rng.block_stream(master_seed, case, c)``, so runs are reproducible
    and an experiment's cases draw from distinct streams.  Each block runs
    as sub-blocks of at most ``_SUB_BLOCK`` rows, whose ``Draws`` read
    their own rows of the block's sections; their arrays fill the block's,
    and each metric adds a block at once, in block order.  Everything runs
    on the calling thread.  Returns one accumulator per metric, in the
    order the first block named them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    accs: dict[str, Accumulator] = {}
    for c, start in enumerate(range(0, trials, _CHUNK)):
        rows = min(_CHUNK, trials - start)
        block = _Block(rng.block_stream(master_seed, case, c), rows)
        for a in range(0, rows, _SUB_BLOCK):
            b = min(a + _SUB_BLOCK, rows)
            part = _run_sub_block(batch_fn, block, a, b)
            if a == 0:
                out = {name: np.empty(rows, np.asarray(xs).dtype) for name, xs in part.items()}
            elif part.keys() != out.keys():
                raise ValueError(f"sub-block metrics {list(part)} differ from sub-block 0's {list(out)}")
            for name, xs in part.items():
                out[name][a:b] = xs
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
