"""Sample-based empirical model of a valuation distribution.

Given m i.i.d. samples, the largest few are discarded, each remaining j-th
largest sample v_j is placed at the empirical quantile t_j = (2j-1)/(2m),
and the empirical revenue curve R(q) = q * v(q) is drawn through the points
(t_j, t_j * v_j) with anchors at (0,0) and (1,0).  Its concave upper
envelope CR plays the role the true revenue curve plays in full
information: the envelope's slopes are the empirical virtual values and its
maximizer gives the empirical reserve.  The envelope peaks at one of the
curve's own points, so the reserve is R/t at the curve's first argmax: a
build finds it in one pass over the points and stores it, and hulls the
points only when the envelope itself is read (`concave_envelope`: all of
them when the retained values are distinct, else the ends of each run of
equal ones).  A point mass at the top (quantile xi_bar) makes the
value/quantile maps total.

The accuracy guarantee tracked throughout is the multiplicative bracketing
event: for every retained sample value v, the true quantile q(v) lies
within a (1+gamma)^2 factor of the empirical one.  Sample-count
prerequisites for that event come in two strengths (per-build and
union-bounded over mechanism runs), both encoded in `validate_params`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .dists import ORDER_BLOCK, SortedDraw, ValuationDistribution

__all__ = [
    "SampleParams",
    "ValidityReport",
    "EmpiricalModel",
    "InsufficientSamplesError",
    "SampleCountWarning",
    "validate_params",
    "build_empirical",
    "reserve_and_coverage",
    "concave_envelope",
]


class InsufficientSamplesError(ValueError):
    """Raised when the discard rule would drop every sample."""


class SampleCountWarning(UserWarning):
    """Emitted when a model is built from fewer samples than the accuracy
    guarantee needs; the build still proceeds."""


@dataclass(frozen=True)
class SampleParams:
    """Accuracy parameters of an empirical build.

    gamma is the per-quantile multiplicative error, xi the fraction of the
    top of the distribution that is cut away, delta the failure probability;
    m may be omitted when only the required sample count is being queried.
    """

    gamma: float
    xi: float
    delta: float
    m: int | None = None

    def __post_init__(self):
        for name in ("gamma", "xi", "delta"):
            val = getattr(self, name)
            if not (0.0 < val < 1.0):
                raise ValueError(f"{name} must lie in (0,1), got {val!r}")
        if self.m is not None and self.m < 1:
            raise ValueError("m must be a positive integer")

    def with_required_m(self) -> "SampleParams":
        """These parameters, with an omitted m set to the required count."""
        return self if self.m is not None else replace(self, m=validate_params(self).required_m)


@dataclass(frozen=True)
class ValidityReport:
    lemma_grade: bool
    theorem_grade: bool
    required_m: int
    messages: tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return (
            f"lemma_grade={self.lemma_grade} theorem_grade={self.theorem_grade} "
            f"required_m={self.required_m} messages={list(self.messages)}"
        )


def _log_term(gamma: float, delta: float) -> float:
    return max(math.log(3.0) / gamma, math.log(3.0 / delta))


def lemma_grade_threshold(p: SampleParams) -> float:
    return 3.0 / (p.gamma**2 * (1.0 + p.gamma) * p.xi) * _log_term(p.gamma, p.delta)


def theorem_grade_threshold(p: SampleParams) -> float:
    return 6.0 * (1.0 + p.gamma) / (p.gamma**2 * p.xi) * _log_term(p.gamma, p.delta)


def validate_params(p: SampleParams) -> ValidityReport:
    """Check the sample-count prerequisites and report the binding minimum m.

    required_m is the least m that passes the stronger (theorem-grade) gate,
    including the side condition gamma*xi*m >= 4.
    """
    messages: list[str] = []
    required_m = max(
        math.ceil(theorem_grade_threshold(p)), math.ceil(4.0 / (p.gamma * p.xi))
    )
    params_ok = (1.0 + p.gamma) ** 2 <= 1.5
    if not params_ok:
        messages.append(
            f"(1+gamma)^2 = {(1 + p.gamma) ** 2:.4g} exceeds 3/2; no m can qualify"
        )
    if p.m is None:
        messages.append("no sample count supplied; gates evaluated as false")
        return ValidityReport(False, False, required_m, tuple(messages))
    side_ok = p.gamma * p.xi * p.m >= 4.0
    if not side_ok:
        messages.append(f"gamma*xi*m = {p.gamma * p.xi * p.m:.4g} is below 4")
    lemma = params_ok and side_ok and p.m >= lemma_grade_threshold(p)
    theorem = params_ok and side_ok and p.m >= theorem_grade_threshold(p)
    return ValidityReport(lemma, theorem, required_m, tuple(messages))


#: Block length of the hull prune's first level.  Each block of x-sorted
#: points lends the prune one point, so a million-point input gives a small
#: hull of about a thousand points.
_PRUNE_BLOCK = 1024

#: Block length of the second level, which prunes the first level's few
#: thousand survivors down to a few hundred for the scan.
_FINE_BLOCK = 32


def _pop_slack(max_abs_x: float, max_abs_y: float) -> float:
    """1e-15 times 2**(ex + ey), where ex and ey are the binary exponents of
    max|x| and max|y| of a point set (0 for an all-zero column)."""
    return math.ldexp(1e-15, math.frexp(max_abs_x)[1] + math.frexp(max_abs_y)[1])


def _max_abs(a: np.ndarray) -> float:
    """max|a| of a nonempty array, by two reductions and no temporary."""
    return float(max(a.max(), -a.min()))


def _upper_chain(pts: np.ndarray, slack: float) -> np.ndarray:
    """Andrew's monotone-chain scan (1979) for the upper hull of x-sorted
    points; a middle point stays only if it turns down by more than
    ``slack``.  Of points with equal x only the highest can be a vertex, so
    a point is settled against the chain's last one before the pop test,
    which would pop the higher of the two whenever their y gap times the
    step before them is within ``slack``."""
    hull_x: list[float] = []
    hull_y: list[float] = []
    for x, y in pts.tolist():
        if hull_x and x == hull_x[-1]:
            if y <= hull_y[-1]:
                continue
            hull_x.pop()
            hull_y.pop()
        while len(hull_x) >= 2:
            x1, y1 = hull_x[-2], hull_y[-2]
            x2, y2 = hull_x[-1], hull_y[-1]
            # pop the middle point unless it turns strictly downward (concave)
            if (y2 - y1) * (x - x2) > (y - y2) * (x2 - x1) + slack:
                break
            hull_x.pop()
            hull_y.pop()
        hull_x.append(x)
        hull_y.append(y)
    return np.column_stack((hull_x, hull_y))


def _hull_prune(pts: np.ndarray, block: int, slack: float) -> np.ndarray:
    """Drop the x-sorted points of an (n, 2) array that lie strictly below
    the upper hull of a few of them: the throw-away step of Akl & Toussaint
    (1978).  Returns the points kept, in order.

    Each full block of ``block`` points lends the point farthest above the
    chord from the block's first point to its last (`_far_points`); with
    the two end points these are scanned, with the pop slack ``slack``,
    into a small hull.  Its vertices are input points, so it lies under the
    true hull, and a point strictly below it can never be a vertex.
    "Strictly" is guarded relative to the terms `np.interp` combines: each
    small-hull vertex is lowered by 1e-12 times the largest |y| among it
    and its two neighbours, which bounds the rounding of the interpolation
    on both adjacent segments, so points within rounding of the small hull
    stay for the scan.

    A point stays if ``y >= np.interp(x, ...)`` against the lowered small
    hull.  Most blocks are settled whole from their two ends instead
    (`_blocks_below`): every point of a block lies on or below the line
    through its far point parallel to its chord, so where the lowered hull
    is one segment over the block and that line passes below it at both of
    the block's ends, no point of the block can pass the test, and the
    block is dropped without reading it.  The other blocks, copied whole,
    and the tail past the last full block are tested point by point.  The
    points kept are exactly those the per-point test keeps.
    """
    n = len(pts)
    nb = n // block
    bx = pts[: nb * block, 0].reshape(nb, block)
    by = pts[: nb * block, 1].reshape(nb, block)
    best, s_far = _far_points(bx, by)
    ends = np.concatenate(([0], best + np.arange(0, nb * block, block), [n - 1]))
    small = _upper_chain(pts[ends], slack)
    mag = np.pad(np.abs(small[:, 1]), 1)
    lowered = small[:, 1] - 1e-12 * np.maximum(np.maximum(mag[:-2], mag[1:-1]), mag[2:])
    drop = _blocks_below(bx[:, 0], bx[:, -1], by[:, -1] - by[:, 0], s_far, small[:, 0], lowered)
    rest = np.concatenate((pts[: nb * block].reshape(nb, block, 2)[~drop].reshape(-1, 2), pts[nb * block :]))
    return rest[rest[:, 1] >= np.interp(rest[:, 0], small[:, 0], lowered)]


def _pruned(pts: np.ndarray, slack: float) -> np.ndarray:
    """The x-sorted points that survive both prune levels: `_hull_prune`
    in blocks of `_PRUNE_BLOCK`, then, when more than four `_FINE_BLOCK`
    blocks survive, `_hull_prune` again on the survivors in blocks of
    `_FINE_BLOCK`.  Each level keeps every point that can be a vertex of
    the scan with pop slack ``slack``, so the scan of the survivors is the
    scan of all points."""
    pts = _hull_prune(pts, _PRUNE_BLOCK, slack)
    if len(pts) > 4 * _FINE_BLOCK:
        pts = _hull_prune(pts, _FINE_BLOCK, slack)
    return pts


#: Blocks `_far_points` scores at a time: 64 rows of 1,024 scores are
#: 512 KiB, so the pass keeps no temporary the size of its input.
_SCORE_CHUNK = 64

#: Blocks of the revenue grid `_grid_chunks` computes at a time: 32 blocks
#: of 1,024 floats are 256 KiB, so the arrays a chunk of `_scan_grid`
#: works on (its x and y, the ramp and the retained values it reads) fit
#: in a 2 MiB L2 cache.
_GRID_CHUNK = 32


def _far_points(bx: np.ndarray, by: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row (block) of the (nb, B) coordinates: the column of the
    point farthest above the chord from the row's first point to its last,
    and its score ``y*dx - x*dy``, the height above the chord times the
    chord's x extent (no division).

    Rows are scored `_SCORE_CHUNK` at a time, into one (2, k, B) work array,
    with the element-wise operations of a one-shot pass over all of them,
    so ``best`` and ``s_far`` are bit-identical to that pass's.
    """
    nb, width = bx.shape
    work = np.empty((2, min(nb, _SCORE_CHUNK), width))
    dx = bx[:, -1:] - bx[:, :1]
    dy = by[:, -1:] - by[:, :1]
    best = np.empty(nb, dtype=np.intp)
    s_far = np.empty(nb)
    for start in range(0, nb, _SCORE_CHUNK):
        rows = slice(start, start + _SCORE_CHUNK)
        score, term = work[:, : len(bx[rows])]
        np.multiply(by[rows], dx[rows], out=score)
        score -= np.multiply(bx[rows], dy[rows], out=term)
        best[rows] = score.argmax(axis=1)
        s_far[rows] = score[np.arange(len(score)), best[rows]]
    return best, s_far


def _blocks_below(x0, x1, dy, s_far, hx, hy) -> np.ndarray:
    """Which prune blocks lie wholly strictly below the piecewise-linear
    curve through (hx, hy), as `np.interp` evaluates it.

    A block runs from x0 to x1 > x0 and rises dy along its chord; s_far is
    the largest ``y*dx - x*dy`` over its points, so every point lies on or
    below the line L(x) = s_far/dx + x*dy/dx.  A block is certified when no
    vertex of the curve lies strictly inside (x0, x1), so the curve is one
    segment there, and L plus a guard lies below the curve at both x0 and
    x1; L and the segment are linear, so L then lies below the curve over
    the whole block.  The guard is 1e-12 times the sum of the magnitudes of
    the terms combined: s_far/dx, the larger of |x0*dy/dx| and
    |x1*dy/dx|, and the larger |hy| of the segment's two vertices.  It
    bounds the rounding of the block's scores, of L at its ends and of the
    interpolation, so it holds where L or the segment crosses zero.
    Blocks with dx = 0 and any non-finite term never certify.
    """
    dx = x1 - x0
    k = np.searchsorted(hx, x0, side="right") - 1
    one_segment = (np.searchsorted(hx, x1, side="left") == k + 1) & (dx > 0)
    k = np.minimum(k, len(hx) - 2)
    with np.errstate(all="ignore"):
        slope = dy / dx
        offset = s_far / dx
        at0, at1 = x0 * slope, x1 * slope
        guard = 1e-12 * (
            np.abs(offset)
            + np.maximum(np.abs(at0), np.abs(at1))
            + np.maximum(np.abs(hy[k]), np.abs(hy[k + 1]))
        )
        return (
            one_segment
            & (offset + at0 + guard < np.interp(x0, hx, hy))
            & (offset + at1 + guard < np.interp(x1, hx, hy))
        )


def _run_ends(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-of-run and last-of-run masks over the runs of equal adjacent
    values in ``vals``.

    Both masks are views of one array of adjacent-element comparisons,
    padded with True at each end.
    """
    edges = np.ones(len(vals) + 1, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=edges[1:-1])
    return edges[:-1], edges[1:]


#: Margin by which a block's ends must clear the coverage bracket for
#: `EmpiricalModel.coverage_event_holds` to certify the block: the 2**-50
#: of `ValuationDistribution.quantile_interval`'s monotonicity contract,
#: plus the rounding of adding the margin to a quantile in [0, 1].
_QUANTILE_MARGIN = 2.0**-48


def _certified(q_lo, q_hi, qbar_first, qbar_last, factor: float) -> np.ndarray:
    """Which blocks of values the coverage check certifies from their ends:
    ``q_lo`` at each block's last value and ``q_hi`` at its first (or at a
    value above it) must clear the brackets at the opposite end, around the
    leftmost quantiles ``qbar_last`` and ``qbar_first``, by
    `_QUANTILE_MARGIN`."""
    return (q_lo + _QUANTILE_MARGIN <= qbar_first * factor + 1e-15) & (
        q_hi - _QUANTILE_MARGIN >= qbar_last / factor - 1e-15
    )


def _xi_bar(p: SampleParams, m: int, kept_from: int) -> float:
    """The top point mass's quantile: the first grid point, or floor(xi*m)/m
    short of the second, whichever is larger."""
    return max((math.floor(2 * p.xi * m) - 1) / (2 * m), (2 * kept_from - 1) / (2 * m))


def _bracketed(d: ValuationDistribution, values, t, xi_bar: float, factor: float) -> bool:
    """The coverage check, value by value: the true quantile interval of
    each value meets the bracket [qbar / factor, qbar * factor] around its
    leftmost quantile qbar = max(t, xi_bar), with 1e-15 slack."""
    qbar = np.maximum(t, xi_bar)
    q_lo, q_hi = d.quantile_interval(values)
    return bool(np.all(q_lo <= qbar * factor + 1e-15) and np.all(q_hi >= qbar / factor - 1e-15))


def concave_envelope(points: Sequence[tuple[float, float]]) -> np.ndarray:
    """Upper concave hull of the points, by the monotone-chain scan.

    Points are sorted by x (stably) only when the x column is not already
    nondecreasing, so a caller that holds them in x order pays one O(n)
    check instead of a sort.  Inputs of more than four `_PRUNE_BLOCK` blocks
    are first pruned in two vectorized levels (`_pruned`): every point
    strictly below the hull of a thousandth of them goes, then every
    survivor strictly below the hull of a thirty-second of the survivors,
    so a million points send a few hundred to the Python scan.  Each level
    drops most blocks whole, from a test at their two ends, and compares
    only the rest point by point.  Returns the hull vertices as an (k, 2)
    array; every vertex is one of the inputs.  Collinear interior points are
    absorbed.

    The scan pops a middle point unless it turns down by more than 1e-15 at
    the input's binary scale (`_pop_slack`), which pops exactly what a
    slack of 1e-15 pops on the points normalized by powers of two.  So no
    unit of value is too small or too large for the slack, and scaling an
    axis by a power of two scales the hull by the same factor exactly.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts):
        raise ValueError("expected a nonempty iterable of (x, y) pairs")
    x = pts[:, 0]
    if not np.all(x[1:] >= x[:-1]):
        pts = pts[np.argsort(x, kind="stable")]
    slack = _pop_slack(max(abs(pts[0, 0]), abs(pts[-1, 0])), _max_abs(pts[:, 1]))
    if len(pts) > 4 * _PRUNE_BLOCK:
        pts = _pruned(pts, slack)
    return _upper_chain(pts, slack)


def _fill_grid(x: np.ndarray, y: np.ndarray, kept_vals: np.ndarray, r0: int, kept_from: int, m: int) -> None:
    """Fill, in place, the rows r0, r0 + 1, ... of a build's anchored
    revenue grid, as many as ``x`` holds.

    The grid has ``len(kept_vals) + 2`` rows: row 0 is the anchor (0, 0),
    row r the retained value v = ``kept_vals[r - 1]`` at
    t = (2(kept_from + r - 1) - 1)/(2m), R = t * v, and the last row the
    anchor (1, 0).  On entry ``x`` holds 2r for these rows, exact in floats.
    """
    lo, hi = int(r0 == 0), min(len(x), len(kept_vals) + 1 - r0)
    x += 2 * kept_from - 3
    x /= 2 * m
    np.multiply(x[lo:hi], kept_vals[r0 + lo - 1 : r0 + hi - 1], out=y[lo:hi])
    x[:lo] = y[:lo] = 0.0
    x[hi:], y[hi:] = 1.0, 0.0


def _revenue_points(kept_vals: np.ndarray, kept_from: int, m: int) -> np.ndarray:
    """The anchored revenue points (0, 0), (t_j, t_j * v_j), (1, 0) of the
    retained values ``kept_vals``, the first at 1-based sort position
    ``kept_from``, t ascending: every row of the `_fill_grid` grid."""
    size = len(kept_vals) + 2
    rp = np.empty((size, 2))
    x = np.arange(0, 2 * size, 2, dtype=float)
    _fill_grid(x, rp[:, 1], kept_vals, 0, kept_from, m)
    rp[:, 0] = x
    return rp


def _grid_chunks(kept_vals: np.ndarray, kept_from: int, m: int):
    """A build's anchored revenue grid, `_GRID_CHUNK` blocks of rows at a
    time, without an array of all rows.

    ``kept_vals`` is a view of the build's sort: contiguous and descending,
    so memory order is row order.  Yields ``(r0, x, y)``: the rows from r0
    on, those of `_revenue_points`, filled by the same `_fill_grid`.  ``x``
    and ``y`` are views of two buffers sized to the grid (at most one
    chunk) that the next chunk overwrites.
    """
    size, chunk = len(kept_vals) + 2, _GRID_CHUNK * _PRUNE_BLOCK
    xs, ys = np.empty(min(chunk, size)), np.empty(min(chunk, size))
    # 2r for the rows of a chunk, exact in floats, made once per build: a
    # module-level one would keep 256 KiB resident in every process
    ramp = np.arange(0, 2 * len(xs), 2, dtype=float)
    for r0 in range(0, size, chunk):
        x, y = xs[: size - r0], ys[: size - r0]
        np.add(ramp[: len(x)], 2 * r0, out=x)
        _fill_grid(x, y, kept_vals, r0, kept_from, m)
        yield r0, x, y


def _scan_grid(kept_vals: np.ndarray, kept_from: int, m: int) -> tuple[bool, float, float]:
    """One pass over a build's anchored revenue grid (`_grid_chunks`):
    whether no two adjacent retained values are equal, and the (t, R) row
    of R's first argmax.

    The envelope of the grid peaks at one of its rows, the first of them
    that attains max R, so that row is the envelope's maximizer.  The
    anchor (0, 0) comes first, so a grid with no positive R returns it.
    The tie check stops at the first tie; the argmax reads every chunk.
    """
    n = len(kept_vals)
    ties = np.empty(min(_GRID_CHUNK * _PRUNE_BLOCK, n), dtype=bool)
    tie_free, t, r = True, 0.0, -math.inf
    for r0, x, y in _grid_chunks(kept_vals, kept_from, m):
        if tie_free:
            # the pairs (i, i + 1) of values whose first lies in this chunk
            a = max(r0, 1) - 1
            b = max(min(r0 + len(x), n) - 1, a)
            tie_free = not np.equal(kept_vals[a:b], kept_vals[a + 1 : b + 1], out=ties[: b - a]).any()
        i = int(y.argmax())
        if y[i] > r:
            t, r = x[i], y[i]
    return tie_free, t, r


@dataclass(frozen=True, eq=False)
class EmpiricalModel:
    """Immutable result of one empirical build; see the module docstring.

    Stored: the build's sort ``sorted_samples`` (one contiguous, descending
    array), ``kept_from``, ``params``, the empirical ``reserve``,
    ``xi_bar``, ``point_mass_value`` and ``tie_free``, the build's own
    answer to whether no two retained values are equal, which the coverage
    check and the hull read instead of scanning the values again.
    Everything else is a closed form of the sort: the retained value at
    0-based position j is ``sorted_samples[kept_from - 1 + j]``, at grid
    point ``(2(kept_from + j) - 1) / (2m)`` (`_grid_at`).

    Derived, read-only and cached on first access: ``envelope``, the hull
    vertices; ``revenue_points``, the anchored (q, R) rows; and
    ``quantile_points``, the (t_j, v_j) rows.  A build, the reserve and the
    coverage check compute none of them, so a model keeps about 8*m bytes;
    the envelope lookups (`envelope_at`, `empirical_virtual`) and the curve
    lookups (`revenue_at`, `value_at_quantile`, `quantile_of_value`) compute
    them once.  A tie-free build's envelope is the hull of its revenue
    points, so its first read caches those too (16 bytes a row).
    """

    sorted_samples: np.ndarray  # descending
    kept_from: int  # 1-based index of the first retained sample
    params: SampleParams
    reserve: float  # value at the envelope's first maximizer
    xi_bar: float
    point_mass_value: float
    tie_free: bool  # no two retained values are equal

    # -- derived arrays -------------------------------------------------------

    @cached_property
    def envelope(self) -> np.ndarray:
        """Hull vertices (q, CR) of the anchored revenue points.

        - Without ties, `concave_envelope` hulls ``revenue_points``, which
          this read computes and caches if no curve lookup has yet.
        - With ties, the revenue points are written out and the two
          anchors and the first and last point of each run of equal
          retained values are hulled: a run's points (t_j, t_j * v) lie on
          the ray R = v * q, so its interior points cannot be hull
          vertices; left in, rounding can make them spurious ones at large
          value scales.

        Either way the hull is the hull of every revenue point, byte for
        byte.
        """
        if self.tie_free:
            return concave_envelope(self.revenue_points)
        kept = self.retained_values()
        first, last = _run_ends(kept)
        run_ends = np.concatenate(([True], first | last, [True]))
        return concave_envelope(_revenue_points(kept, self.kept_from, self.m)[run_ends])

    @cached_property
    def revenue_points(self) -> np.ndarray:
        """Anchored (q, R) rows: (0, 0), (t_j, t_j * v_j), (1, 0)."""
        return _revenue_points(self.retained_values(), self.kept_from, self.m)

    @cached_property
    def quantile_points(self) -> np.ndarray:
        """(t_j, v_j) rows, t ascending."""
        return np.column_stack((self.retained_quantiles(), self.retained_values()))

    def _grid_at(self, j) -> np.ndarray:
        """Grid points of the retained values at 0-based positions ``j``:
        the exact odd number 2(kept_from + j) - 1 divided by 2m, the same
        float as the build's grid."""
        return (2 * (self.kept_from + np.asarray(j)) - 1) / (2 * self.m)

    # -- curves -------------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.sorted_samples)

    def revenue_at(self, q):
        """The raw (pre-envelope) empirical revenue curve, linearly interpolated."""
        return np.interp(q, self.revenue_points[:, 0], self.revenue_points[:, 1])

    def envelope_at(self, q):
        """CR(q): the concave envelope of the revenue curve."""
        return np.interp(q, self.envelope[:, 0], self.envelope[:, 1])

    def empirical_virtual(self, q: float) -> float:
        """Slope of the envelope at quantile q (left-segment convention)."""
        hx, hy = self.envelope[:, 0], self.envelope[:, 1]
        i = int(np.searchsorted(hx, q, side="left"))
        i = min(max(i, 1), len(hx) - 1)
        return float((hy[i] - hy[i - 1]) / (hx[i] - hx[i - 1]))

    def empirical_reserve(self) -> float:
        """Value at the envelope's maximizer (smallest maximizing quantile),
        as the build found it (`_scan_grid`): R/t at that point, or the
        point mass value when it is the anchor at q = 0."""
        return self.reserve

    def value_at_quantile(self, q: float) -> float:
        """v(q) = R(q)/q, clipped to the top point mass below xi_bar."""
        if q < self.xi_bar:  # xi_bar > 0, the first grid point at least
            return self.point_mass_value
        return float(self.revenue_at(q)) / float(q)

    def quantile_of_value(self, v) -> float | np.ndarray:
        """Leftmost quantile with v(q) <= v (the generalized inverse).

        Values strictly above the point mass value clip to xi_bar, by an
        exact comparison, so the map has no slack in the unit of value.
        Vectorized over v.
        """
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        qs = self.revenue_points[:, 0]
        rs = self.revenue_points[:, 1]
        # breakpoint values: +inf at the anchor (0, 0), the retained samples,
        # 0 at (1, 0).  They are taken from the sort, which is exactly
        # nonincreasing; R/q ratios are not, as rounding wobbles inside ties.
        vals = np.concatenate(([np.inf], self.retained_values(), [0.0]))
        # find the first breakpoint with vals <= v
        idx = np.searchsorted(-vals, -v_arr, side="left")
        idx = np.clip(idx, 1, len(qs) - 1)
        q1, r1 = qs[idx - 1], rs[idx - 1]
        q2, r2 = qs[idx], rs[idx]
        slope = (r2 - r1) / (q2 - q1)
        c0 = r1 - slope * q1  # R(q) = slope*q + c0 on the segment
        denom = v_arr - slope
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(np.abs(denom) > 1e-300, c0 / denom, q2)
        cross = np.clip(cross, q1, q2)
        # exact hit at a breakpoint (v equals a sample value) lands on it
        exact = vals[idx] == v_arr
        out = np.where(exact, qs[idx], cross)
        out = np.maximum(out, self.xi_bar)
        out = np.where(v_arr > self.point_mass_value, self.xi_bar, out)
        return float(out[0]) if np.isscalar(v) or np.ndim(v) == 0 else out

    # -- diagnostics ----------------------------------------------------------

    def retained_values(self) -> np.ndarray:
        """The retained samples, descending: a view of the sort."""
        return self.sorted_samples[self.kept_from - 1 :]

    def retained_quantiles(self) -> np.ndarray:
        return self.revenue_points[1:-1, 0]

    def _distinct_retained(self) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """Distinct retained values (descending), and a map from positions
        among them to the grid point t_j of each one's first occurrence.

        Clipped below at xi_bar, that grid point is the value's leftmost
        quantile, what `quantile_of_value` returns for it, read off the
        build's own sort without a search and computed only where asked
        (`_grid_at`).  A build without ties returns a view of the sort and
        `_grid_at` itself, with no gather and no array of positions.
        """
        kept = self.retained_values()
        if self.tie_free:
            return kept, self._grid_at
        first, _ = _run_ends(kept)
        pos = np.flatnonzero(first)
        return kept[pos], lambda k: self._grid_at(pos[k])

    def coverage_event_holds(self, d: ValuationDistribution, gamma: float | None = None) -> bool:
        """True iff, for every retained sample value, the true quantile meets
        a (1+gamma)^2 multiplicative bracket around its empirical quantile.

        At an atom of ``d`` the true quantile is the whole jump interval
        ``[Pr[v > u], Pr[v >= u]]``; the event asks that this interval
        intersect the bracket.  Off atoms the interval collapses to
        ``1 - F(u)`` and the check is the usual two-sided one.  Both sides
        carry an absolute slack of 1e-15, which is sound because quantiles
        lie in [0, 1].

        The distinct values are checked block by block, `_PRUNE_BLOCK` at a
        time, from the blocks' ends.  Along the descending values both ends
        of ``d.quantile_interval`` increase, by its contract up to 2**-50,
        and so do the leftmost quantiles qbar and both bracket bounds.  So
        in a block [a, b], ``q_lo(v_b)`` bounds q_lo from above and
        ``q_hi(v_a)`` bounds q_hi from below, and a block whose ends clear
        the bounds at the opposite end by the margin `_QUANTILE_MARGIN` =
        2**-48 (the contract's 2**-50 plus the margin's own rounding) holds
        at every value.  ``d`` is evaluated, and the grid points read by
        index, on the block ends and on blocks that do not certify; the
        first of those that fails the per-value check decides.  The verdict
        is the per-value check's.
        """
        g = self.params.gamma if gamma is None else float(gamma)
        factor = (1.0 + g) ** 2
        values, grid = self._distinct_retained()
        n = len(values)
        first = np.arange(0, n, _PRUNE_BLOCK)
        last = np.append(first[1:] - 1, n - 1)
        ends = np.concatenate((first, last))
        q_lo, q_hi = d.quantile_interval(values[ends])
        qbar = np.maximum(grid(ends), self.xi_bar)
        nb = len(first)
        certified = _certified(q_lo[nb:], q_hi[:nb], qbar[:nb], qbar[nb:], factor)
        return all(
            _bracketed(d, values[a:b], grid(np.arange(a, b)), self.xi_bar, factor)
            for a, b in zip(first[~certified].tolist(), (last[~certified] + 1).tolist())
        )

    def to_json_dict(self) -> dict:
        return {
            "quantiles": self.retained_quantiles().tolist(),
            "values": self.retained_values().tolist(),
            "hull_vertices": self.envelope.tolist(),
            "reserve": self.empirical_reserve(),
            "xi_bar": self.xi_bar,
        }


def _kept_from(m: int, p: SampleParams) -> int:
    """The 1-based sort position of the first retained sample of m, with
    a warning below lemma grade (for the build's caller); an
    InsufficientSamplesError if the discard rule drops all."""
    report = validate_params(SampleParams(p.gamma, p.xi, p.delta, m))
    if not report.lemma_grade:
        warnings.warn(
            f"sample count m={m} is below lemma grade for {p}; "
            f"required_m={report.required_m}",
            SampleCountWarning,
            stacklevel=3,
        )
    kept_from = max(math.floor(p.xi * m), 1)
    if kept_from > m:
        raise InsufficientSamplesError(
            f"discard rule drops all samples (floor(xi*m)={math.floor(p.xi * m)}, m={m})"
        )
    return kept_from


def build_empirical(samples: Sequence[float], p: SampleParams) -> EmpiricalModel:
    """Sort, discard the top floor(xi*m)-1 samples, and assemble the model.

    The model's sort is one contiguous, descending array.  A nonincreasing
    input, such as a drawn sort (`ValuationDistribution.sorted_sample`), is
    the sort: one O(n) check finds it so, and a contiguous one is kept
    itself, not a copy, so it must not be written to afterwards (a strided
    one is copied).  Any other input is sorted once by value, unstably, as
    its negation in a fresh array that is then negated back in place:
    equal floats are interchangeable (bar the sign of a zero), so the model
    does not depend on input order, and a presorted input and any shuffle
    of it give the same model.  Samples must be finite: NaN fails the
    order check and sorts last, so the sort's two ends decide, and a
    non-finite sample raises ValueError.

    One pass over the anchored revenue grid (`_scan_grid`), in chunks that
    fit in L2, checks the retained values for ties and finds the grid's
    first argmax of R, the envelope's maximizer.  The model stores the
    answers: ``tie_free``, which picks the hull's path and spares the
    coverage check a second scan, and the ``reserve``, R/t at that row (the
    point mass value at the anchor q = 0).  The build neither hulls nor
    writes out the revenue points: the envelope is computed on its first
    read (`EmpiricalModel.envelope`), and the revenue points only if a
    curve lookup or a tie-free build's envelope asks for them.  The point
    mass value interpolates the raw curve on the one pair of grid rows that
    brackets xi_bar.

    A sub-lemma-grade sample count is allowed (with a warning); only an
    empty retained set is an error.
    """
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise InsufficientSamplesError("no samples given")
    if np.all(values[:-1] >= values[1:]):
        desc = np.ascontiguousarray(values)
    else:
        desc = np.negative(values)
        desc.sort()
        np.negative(desc, out=desc)
    if not (math.isfinite(desc[0]) and math.isfinite(desc[-1])):
        raise ValueError(f"samples must be finite; their sort runs from {desc[0]} to {desc[-1]}")
    m = int(values.size)
    kept_from = _kept_from(m, p)
    kept_vals = desc[kept_from - 1 :]
    tie_free, t_star, r_star = _scan_grid(kept_vals, kept_from, m)
    # rows 1 and 2 of the revenue curve bracket xi_bar
    head = _revenue_points(kept_vals[:2], kept_from, m)
    xi_bar = _xi_bar(p, m, kept_from)
    raw_at_xi_bar = float(np.interp(xi_bar, head[1:3, 0], head[1:3, 1]))
    # xi_bar >= head[1, 0] = (2 * kept_from - 1) / (2m) > 0, so this divides
    point_mass_value = raw_at_xi_bar / xi_bar
    return EmpiricalModel(
        sorted_samples=desc,
        kept_from=kept_from,
        params=p,
        reserve=float(r_star / t_star) if t_star > 0 else point_mass_value,
        xi_bar=float(xi_bar),
        point_mass_value=point_mass_value,
        tie_free=tie_free,
    )


def reserve_and_coverage(
    draw: SortedDraw, p: SampleParams, d: ValuationDistribution | None = None
) -> tuple[float, bool | None]:
    """``build_empirical(draw.values(), p)``'s empirical reserve and, when
    ``d`` is given, its ``coverage_event_holds(d)``, bit for bit, from the
    draw's block ends and the few blocks that can change either answer.
    Without ``d``, coverage is None.

    Block k of the draw holds sort positions [k * ORDER_BLOCK, ...); its
    retained part runs from its first retained position a to its last
    position b, whose value ``draw.ends[k]`` and grid point t_b are known
    without a read, and its values are at most the previous block's end
    value v' (+inf for block 0).

    - Reserve.  Every end is a row of the revenue grid, so the grid's max
      R is at least the best end R*.  Values are nonnegative and rounding
      is monotone, so every row of block k has R = fl(t_j * v_j) <=
      fl(t_b * v'), and a block whose bound is below R* cannot hold the
      first argmax.  The other blocks are read in order, in runs of
      consecutive blocks (`SortedDraw.runs`), and each run's rows are
      scored at once, as `_scan_grid` scores a chunk: after the anchor
      (0, 0), a run's first argmax replaces the best only if its R is
      strictly larger, so the first argmax of all rows wins.  Where no row
      has R > 0 the reserve is the point mass value, which this takes
      from the full build of the draw's values.
    - Coverage.  The certificate of `EmpiricalModel.coverage_event_holds`
      holds on raw positions too: q_lo(v_b) and q_hi(v') bound the
      block's quantile-interval ends, and the grid points t_a and t_b its
      brackets.  A certified block holds at every position, so at the
      first position of every run of equal values in it, which are the
      values the full check reads.  A block that does not certify is
      read and checked value by value at its first-of-run positions: the
      first retained position opens a run, and another opens one where
      its value differs from the one before, which for a block's first
      position is v', the previous block's pinned end.  So a run of equal
      values that crosses a block boundary is split exactly where the full
      build splits it, and no tie needs the full build.  The verdict is
      the per-value check's at every distinct value, as the full check's.
      These blocks are read one at a time, in order, up to the first that
      fails: a run would read blocks past it that the verdict does not
      need.
    """
    m = draw.n
    if m == 0:
        raise InsufficientSamplesError("no samples given")
    kept_from = _kept_from(m, p)
    # the blocks from k0 on, which hold the retained values: their first
    # retained and last positions, grid points at both, and end values
    k0 = (kept_from - 1) // ORDER_BLOCK
    start = np.maximum(np.arange(k0, draw.blocks) * ORDER_BLOCK, kept_from - 1)
    last = np.minimum(start // ORDER_BLOCK * ORDER_BLOCK + ORDER_BLOCK, m) - 1
    t_first, t_last = (2 * start + 1) / (2 * m), (2 * last + 1) / (2 * m)
    ends = draw.ends[k0:]
    prev = np.concatenate(([np.inf], draw.ends))[k0:-1]

    def span(k: int, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The retained part of ``vals``, the values of blocks k, k + 1,
        ..., and their grid points, the exact odd numbers 2j + 1 over 2m,
        as the build's grid computes them."""
        a = int(start[k - k0])
        v = vals[a - k * ORDER_BLOCK :]
        t = np.arange(2 * a + 1, 2 * (a + len(v)), 2.0)
        t /= 2 * m
        return v, t

    t_star, r_star = 0.0, 0.0  # the anchor (0, 0)
    for k, vals in draw.runs((np.flatnonzero(t_last * prev >= (t_last * ends).max()) + k0).tolist()):
        v, t = span(k, vals)
        y = t * v
        j = int(y.argmax())
        if y[j] > r_star:
            t_star, r_star = t[j], y[j]
    reserve = float(r_star / t_star) if t_star > 0 else build_empirical(draw.values(), p).reserve
    if d is None:
        return reserve, None

    factor = (1.0 + p.gamma) ** 2
    xi_bar = _xi_bar(p, m, kept_from)
    q_lo, _ = d.quantile_interval(ends)
    _, q_hi = d.quantile_interval(prev)
    certified = _certified(q_lo, q_hi, np.maximum(t_first, xi_bar), np.maximum(t_last, xi_bar), factor)
    for i in np.flatnonzero(~certified).tolist():
        v, t = span(k0 + i, draw.block(k0 + i))
        opens = np.empty(len(v), dtype=bool)
        opens[0] = start[i] == kept_from - 1 or v[0] != prev[i]
        np.not_equal(v[1:], v[:-1], out=opens[1:])
        if not opens.all():
            v, t = v[opens], t[opens]
        if not _bracketed(d, v, t, xi_bar, factor):
            return reserve, False
    return reserve, True
