"""Valuation distributions for single-parameter auction settings.

Three families are implemented behind one interface:

* :class:`FAlpha` -- the extremal alpha-strongly-regular family with a
  power-law tail.  At unit scale its cdf is
  ``F(v) = 1 - (1 + ((1-a)/a) v)^(-1/(1-a))`` and its virtual valuation is
  the straight line ``phi(v) = a (v - 1)``.
* :class:`Exponential` -- the memoryless distribution, i.e. the ``a = 1``
  (monotone-hazard-rate) limit of the family above.
* :class:`DiscreteTabular` -- an explicit finite support with a pmf, used
  for exhaustively checkable instances.

Every distribution exposes the usual derived quantities: quantile
``q(v) = 1 - F(v)``, value-of-quantile, virtual valuation, hazard rate,
cumulative hazard, monopoly reserve, revenue curve ``CR(q) = q * v(q)``,
posted-price welfare, and powers of the survival function integrated over
the value axis.  Scalar arguments give floats; numpy arrays broadcast.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "ValuationDistribution",
    "FAlpha",
    "Exponential",
    "DiscreteTabular",
    "RevenueCurvePoint",
    "AlphaSrReport",
    "UndefinedVirtualValueError",
    "NoReserveError",
    "SortedDraw",
    "make_falpha",
    "make_exponential",
    "make_discrete",
    "dist_from_spec",
    "make_random_alpha_sr_discrete",
]

class UndefinedVirtualValueError(ValueError):
    """Raised when the virtual valuation is requested at a zero-density point."""


class NoReserveError(ValueError):
    """Raised when the virtual valuation is negative on the entire support."""


@dataclass(frozen=True)
class RevenueCurvePoint:
    """A point (q, cr) on the revenue curve in quantile space."""

    q: float
    cr: float


@dataclass(frozen=True)
class AlphaSrReport:
    """Result of an alpha-strong-regularity check.

    ``margin`` is the minimum of ``(phi(y) - phi(x)) / (y - x) - alpha`` over
    the checked pairs; the distribution passes iff the margin is nonnegative
    up to numerical slack.
    """

    alpha: float
    margin: float
    satisfied: bool
    pairs_checked: int


def _as_array(v) -> tuple[np.ndarray, bool]:
    arr = np.asarray(v, dtype=float)
    return arr, arr.ndim == 0


def _scalarize(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _check_unbounded_quantiles(q: np.ndarray) -> None:
    if np.any(q <= 0.0) or np.any(q > 1.0):
        raise ValueError("quantile must lie in (0, 1] for an unbounded support")


def _uniform_on_half_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """``1 - rng.random(n)``, uniform on (0, 1], computed in place."""
    q = rng.random(int(n))
    return np.subtract(1.0, q, out=q)


#: Values per block of a drawn sort (`SortedDraw`).
ORDER_BLOCK = 1024

_TINY = np.finfo(float).tiny


class _UniformOrderStatistics:
    """The order statistics of ``n`` uniforms on (0, 1], ascending, drawn
    block by block; built by `_uniform_order_statistics`.

    ``ends[k]`` is the quantile at the last position of block k, which
    covers positions [k * ORDER_BLOCK, (k + 1) * ORDER_BLOCK) of n.
    ``read(k, out)`` fills ``out`` (block k's length) with its quantiles.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        self.n = n = int(n)
        nb = -(-n // ORDER_BLOCK)
        # one Gamma(block length) sum per block, then the (n+1)-th
        # exponential, a Gamma(1)
        shape = np.full(nb + 1, float(ORDER_BLOCK))
        shape[nb - 1 : nb] = n - (nb - 1) * ORDER_BLOCK  # the last block; none at n = 0
        shape[nb] = 1.0
        self._sums = rng.standard_gamma(shape)
        self._cum = np.cumsum(self._sums)
        self.ends = np.maximum(self._cum[:-1] / self._cum[-1], _TINY)
        bits = rng.bit_generator
        if isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
            # advance counts 64-bit words: a block's uniforms are read at
            # their offset, by a generator of this draw's own
            self._u = None
            self._state = bits.state
            self._gen = np.random.Generator(type(bits)(0))
            self._pos = -1  # word the own generator is at; -1: not placed
            bits.advance(n)
        else:
            self._u = rng.random(n)

    def _uniforms(self, word: int, out: np.ndarray) -> None:
        """``out`` := the uniforms at words [word, word + len(out)) after
        the block sums."""
        if self._u is not None:
            out[:] = self._u[word : word + len(out)]
            return
        bits = self._gen.bit_generator
        if word != self._pos:
            if not 0 <= self._pos < word:
                bits.state = self._state
                self._pos = 0
            bits.advance(word - self._pos)
        self._gen.random(out=out)
        self._pos = word + len(out)

    def read(self, k: int, out: np.ndarray) -> np.ndarray:
        """Block k's quantiles, written over ``out``: the partial sums of its
        exponentials, -log1p(-u) of its uniforms, scaled to its drawn sum.

        Only ratios of the partial sums are taken, so they are summed as
        log1p(-u) <= 0 and the sign cancels.  The ratio at the last position
        is exactly 1, so the block ends on its drawn end, ``ends[k]``, and
        the next block starts from it: the quantiles are exactly
        nondecreasing across blocks.
        """
        self._uniforms(k * ORDER_BLOCK, out)
        np.negative(out, out=out)
        np.log1p(out, out=out)
        np.add.accumulate(out, out=out)
        if out[-1] < 0.0:
            out /= out[-1]
        else:  # every uniform 0 (probability 2**-53 a value): no spacing to split
            out.fill(1.0)
        out *= self._sums[k]
        if k:
            out += self._cum[k - 1]
        out /= self._cum[-1]
        return np.maximum(out, _TINY, out=out)


def _uniform_order_statistics(rng: np.random.Generator, n: int) -> _UniformOrderStatistics:
    """The order statistics of ``n`` uniforms on (0, 1], ascending, in O(n)
    and without a sort: ``S_i / S_{n+1}`` for the partial sums S_i of n + 1
    standard exponentials (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, chapter V), drawn in blocks of `ORDER_BLOCK` so
    that a reader pays only for the blocks it reads.

    - First, each block's sum of exponentials is drawn as one Gamma(block
      length) variate, and the (n+1)-th exponential as a Gamma(1); their
      cumsum gives S at every block end and S_{n+1}.
    - A block's own exponentials are drawn when it is read, as
      -log1p(-u) of the uniforms at its own offset, and their partial sums
      are scaled to the block's drawn sum.  Given their sum, exponentials'
      proportions are Dirichlet and independent of it, so the joint law is
      that of the n + 1 exponentials drawn in sequence.

    The stream holds the block sums, then n uniforms, one 64-bit word each,
    block k's at words [k * ORDER_BLOCK, ...) after the sums.  On a PCG64
    or PCG64DXSM stream, whose ``advance`` counts words, a block is read at
    its offset and ``rng`` is left after the uniforms at once; on any other
    generator the uniforms are drawn up front.  Either way ``rng`` ends
    where a read of every block leaves it.

    The quantiles are computed directly, not as 1 - u, so the smallest
    ones, which give the largest values, keep their relative precision.
    Every operation is a monotone rounding, so the quantiles are exactly
    nondecreasing and at most 1.  A draw that opens with zero exponentials
    (each of probability about 2**-53) would give q = 0, whose value is
    infinite on an unbounded support; quantiles below the least normal
    double are raised to it.
    """
    return _UniformOrderStatistics(rng, n)


class SortedDraw:
    """A sort of ``n`` values, largest first, read block by block: ``ends``
    holds the value at the last position of each block of `ORDER_BLOCK`
    positions, and ``block(k)`` computes block k's values on its first
    read.  ``blocks_read`` counts the blocks computed so far.

    A continuous kind's `ValuationDistribution.sorted_draw` draws a block
    only when it is read; `values()` reads every block, and is
    `ValuationDistribution.sorted_sample`.  ``SortedDraw.of`` serves the
    blocks of a sort already in memory.
    """

    def __init__(self, n: int, ends: np.ndarray, read):
        self.n = n
        self.ends = ends
        self._read = read  # read(k, out): block k's values, written over out
        self._blocks: dict[int, np.ndarray] = {}

    @classmethod
    def of(cls, values: np.ndarray) -> "SortedDraw":
        """The blocks of ``values``, a nonincreasing array."""
        last = np.minimum(np.arange(ORDER_BLOCK, len(values) + ORDER_BLOCK, ORDER_BLOCK), len(values)) - 1

        def read(k, out):
            out[:] = values[k * ORDER_BLOCK :][: len(out)]
            return out

        return cls(len(values), values[last], read)

    @property
    def blocks(self) -> int:
        return len(self.ends)

    @property
    def blocks_read(self) -> int:
        return len(self._blocks)

    def block(self, k: int) -> np.ndarray:
        """The values of block k, largest first."""
        vals = self._blocks.get(k)
        if vals is None:
            vals = self._blocks[k] = self._read(k, np.empty(min(ORDER_BLOCK, self.n - k * ORDER_BLOCK)))
        return vals

    def values(self) -> np.ndarray:
        """All n values, as one contiguous array; the blocks are views of it."""
        out = np.empty(self.n)
        for k in range(self.blocks):
            part = out[k * ORDER_BLOCK : (k + 1) * ORDER_BLOCK]
            if k in self._blocks:
                part[:] = self._blocks[k]
            else:
                self._read(k, part)
            self._blocks[k] = part
        return out


class ValuationDistribution(ABC):
    """Common interface of all valuation distributions.

    Instances are immutable and safe to share between threads; what they
    cache lazily (the reserve price, `DiscreteTabular`'s virtual values and
    cell table) is idempotent to recompute.
    """

    # -- primitives -------------------------------------------------------

    @abstractmethod
    def cdf(self, v):
        """F(v) = Pr[value <= v]."""

    @abstractmethod
    def density(self, v):
        """Density f(v) for continuous kinds, pmf mass for discrete kinds."""

    def quantile_of_value(self, v):
        """q(v) = 1 - F(v)."""
        arr, scalar = _as_array(v)
        return _scalarize(1.0 - np.asarray(self.cdf(arr), dtype=float), scalar)

    def sale_probability(self, v):
        """Pr[value >= v]; coincides with ``quantile_of_value`` off atoms."""
        return self.quantile_of_value(v)

    def quantile_interval(self, v):
        """(Pr[value > v], Pr[value >= v]): the true quantile's range at v.

        Off atoms both ends are ``quantile_of_value``, computed once; a
        distribution with atoms overrides this with its sale probability.

        Contract: each end is nonincreasing in v up to an absolute 2**-50,
        a few ulps of 1; that is, for v >= v' each end at v is at most the
        same end at v' plus 2**-50.  `EmpiricalModel.coverage_event_holds`
        certifies whole blocks of values from their ends on this contract.
        The three distributions meet it as follows.

        - FAlpha: the base 1 + b * max(v, 0) / scale is a chain of
          correctly rounded monotone operations, so it is exactly
          nondecreasing in v; its power, a value in (0, 1], is within a few
          ulps of the exact, decreasing one.
        - Exponential: the exponent -rate * max(v, 0) is exactly
          nonincreasing; exp, a value in (0, 1], is within a few ulps of
          the exact one, and the two subtractions from 1 in ``1 - cdf``
          round monotonically and add at most an ulp of 1.
        - DiscreteTabular: both ends are lookups, at a searchsorted index
          nondecreasing in v, into tables that are exactly nonincreasing,
          since the cumulative mass is a nondecreasing sum clipped at 1.
        """
        q = self.quantile_of_value(v)
        return q, q

    @abstractmethod
    def value_of_quantile(self, q):
        """The value v with q(v) = q; rejects q <= 0 on unbounded supports."""

    @abstractmethod
    def virtual_valuation(self, v):
        """phi(v) = v - (1 - F(v)) / f(v), with the discrete analogue on atoms."""

    @abstractmethod
    def hazard_rate(self, v):
        """h(v) = f(v) / (1 - F(v)) (discrete: mass over sale probability)."""

    @abstractmethod
    def cumulative_hazard(self, v):
        """H(v) with 1 - F(v) = exp(-H(v))."""

    @abstractmethod
    def support_min(self) -> float: ...

    @abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` values by inverse-cdf sampling from ``n`` doubles of
        ``rng.random``, so a seeded stream fixes every draw: a continuous
        kind returns ``value_of_quantile(1 - u)``, with 1 - u in (0, 1] by
        construction, and `DiscreteTabular` the atom at the first cdf entry
        above u."""

    @abstractmethod
    def sorted_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The values of ``n`` i.i.d. draws, largest first, as one
        contiguous array, drawn in O(n) without a sort.

        The joint law is that of ``np.sort(sample(rng, n))[::-1]``, but the
        draws are not: a continuous kind maps the order statistics of n
        uniforms (`_uniform_order_statistics`) through
        ``value_of_quantile``, which is decreasing, block by block, and is
        ``sorted_draw(rng, n).values()``; `DiscreteTabular` repeats each
        atom, from the top, by its multinomial count.  A seeded stream
        fixes every draw.  `build_empirical` takes the result as its sort
        after an O(n) check, with no copy."""

    def sorted_draw(self, rng: np.random.Generator, n: int) -> SortedDraw:
        """``sorted_sample(rng, n)`` as a `SortedDraw`, whose blocks are read
        on demand: the same values, and ``rng`` left in the same place.
        This default draws the whole sort up front; a continuous kind draws
        only each block's end, and a block's values when it is read."""
        return SortedDraw.of(self.sorted_sample(rng, n))

    # -- derived quantities ------------------------------------------------

    @cached_property
    def reserve_price(self) -> float:
        """The least price r with phi(r) >= 0 (monopoly reserve)."""
        return self._compute_reserve()

    @abstractmethod
    def _compute_reserve(self) -> float: ...

    def revenue_curve(self, q: float) -> RevenueCurvePoint:
        """CR(q) = q * v(q): expected revenue of the price with sale quantile q."""
        if q == 0.0:
            return RevenueCurvePoint(0.0, 0.0)
        return RevenueCurvePoint(float(q), float(q) * float(self.value_of_quantile(q)))

    @abstractmethod
    def posted_price_welfare(self, t: float) -> float:
        """V(t) = E[value; value >= t], the welfare of posting the price t."""

    @abstractmethod
    def survival_power_integral(self, p: int) -> float:
        """Integral of (1 - F(v))^p over the value axis; p=1 is the mean."""

    # -- serialization -----------------------------------------------------

    @abstractmethod
    def to_spec(self) -> dict: ...


class _ContinuousKind(ValuationDistribution):
    """A kind with a continuous, unbounded value distribution, whose sorted
    draws are order statistics of uniforms mapped by ``_values_in_place``."""

    @abstractmethod
    def _values_in_place(self, q: np.ndarray) -> np.ndarray:
        """``value_of_quantile`` of quantiles in (0, 1], written over ``q``."""

    def sorted_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sorted_draw(rng, n).values()

    def sorted_draw(self, rng: np.random.Generator, n: int) -> SortedDraw:
        """Each block's values go through ``_values_in_place`` on their own,
        whether one block is read or all of them, so a SIMD loop splits
        every block the same way.  The last is then set to the block's end
        value, computed with the other ends, so it is exactly the end that
        bounds the block and the next one, however numpy splits the two
        arrays."""
        q = _uniform_order_statistics(rng, n)
        ends = self._values_in_place(q.ends.copy())

        def read(k, out):
            self._values_in_place(q.read(k, out))
            out[-1] = ends[k]
            return out

        return SortedDraw(q.n, ends, read)


class FAlpha(_ContinuousKind):
    """The extremal alpha-strongly-regular distribution, scaled.

    For ``0 < alpha < 1`` and ``scale > 0``::

        F(v)   = 1 - (1 + ((1-alpha)/alpha) * v/scale)^(-1/(1-alpha))
        phi(v) = alpha * (v - scale)

    so the monopoly reserve is exactly ``scale``.  All derived quantities
    below are closed forms; no quadrature is involved.
    """

    def __init__(self, alpha: float, scale: float = 1.0):
        if not (0.0 < alpha < 1.0):
            raise ValueError(
                f"alpha must lie strictly inside (0, 1), got {alpha!r}; "
                "use Exponential for the alpha = 1 limit"
            )
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale!r}")
        self.alpha = float(alpha)
        self.scale = float(scale)
        self._b = (1.0 - self.alpha) / self.alpha

    def __repr__(self) -> str:
        return f"FAlpha(alpha={self.alpha}, scale={self.scale})"

    def support_min(self) -> float:
        return 0.0

    def _base(self, v: np.ndarray) -> np.ndarray:
        return 1.0 + self._b * np.maximum(v, 0.0) / self.scale

    def cdf(self, v):
        arr, scalar = _as_array(v)
        out = np.where(arr < 0, 0.0, 1.0 - self._base(arr) ** (-1.0 / (1.0 - self.alpha)))
        return _scalarize(out, scalar)

    def density(self, v):
        arr, scalar = _as_array(v)
        expo = -(2.0 - self.alpha) / (1.0 - self.alpha)
        out = np.where(arr < 0, 0.0, self._base(arr) ** expo / (self.alpha * self.scale))
        return _scalarize(out, scalar)

    def quantile_of_value(self, v):
        arr, scalar = _as_array(v)
        out = np.where(arr < 0, 1.0, self._base(arr) ** (-1.0 / (1.0 - self.alpha)))
        return _scalarize(out, scalar)

    def value_of_quantile(self, q):
        arr, scalar = _as_array(q)
        _check_unbounded_quantiles(arr)
        return _scalarize(self._values_in_place(np.array(arr)), scalar)

    def _values_in_place(self, q: np.ndarray) -> np.ndarray:
        """scale * (q**-(1-alpha) - 1) / b, written over ``q`` in (0, 1]."""
        q **= -(1.0 - self.alpha)
        q -= 1.0
        q *= self.scale
        q /= self._b
        return q

    def virtual_valuation(self, v):
        arr, scalar = _as_array(v)
        if np.any(arr < 0):
            raise UndefinedVirtualValueError("no density below the support")
        return _scalarize(self.alpha * (arr - self.scale), scalar)

    def value_of_virtual(self, t):
        """phi^-1(t) = scale + t / alpha."""
        return self.scale + t / self.alpha

    def hazard_rate(self, v):
        arr, scalar = _as_array(v)
        out = 1.0 / (self.alpha * self.scale + (1.0 - self.alpha) * np.maximum(arr, 0.0))
        return _scalarize(out, scalar)

    def cumulative_hazard(self, v):
        arr, scalar = _as_array(v)
        out = np.log1p((1.0 - self.alpha) * np.maximum(arr, 0.0) / (self.alpha * self.scale)) / (
            1.0 - self.alpha
        )
        return _scalarize(out, scalar)

    def _compute_reserve(self) -> float:
        return self.scale

    def posted_price_welfare(self, t: float) -> float:
        t = max(float(t), 0.0)
        q = self.quantile_of_value(t)
        # t*q(t) plus the tail integral of the survival, which is scale*q(t)^alpha.
        return t * q + self.scale * q**self.alpha

    def survival_power_integral(self, p: int) -> float:
        if p < 1:
            raise ValueError("power must be a positive integer")
        return self.scale * self.alpha / (p - 1.0 + self.alpha)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0:
            return np.empty(0)
        return self._values_in_place(_uniform_on_half_open(rng, n))

    def to_spec(self) -> dict:
        return {"kind": "falpha", "alpha": self.alpha, "scale": self.scale}


class Exponential(_ContinuousKind):
    """Exponential distribution with the given rate: F(v) = 1 - exp(-rate*v).

    Its virtual valuation ``phi(v) = v - 1/rate`` has unit slope, so it is
    alpha-strongly-regular for every alpha <= 1 -- the monotone-hazard-rate
    limit of the :class:`FAlpha` family.
    """

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self.rate = float(rate)

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate})"

    def support_min(self) -> float:
        return 0.0

    def cdf(self, v):
        arr, scalar = _as_array(v)
        return _scalarize(np.where(arr < 0, 0.0, 1.0 - np.exp(-self.rate * np.maximum(arr, 0))), scalar)

    def density(self, v):
        arr, scalar = _as_array(v)
        return _scalarize(np.where(arr < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(arr, 0))), scalar)

    def value_of_quantile(self, q):
        arr, scalar = _as_array(q)
        _check_unbounded_quantiles(arr)
        return _scalarize(self._values_in_place(np.array(arr)), scalar)

    def _values_in_place(self, q: np.ndarray) -> np.ndarray:
        """-log(q) / rate, written over ``q`` in (0, 1]."""
        np.log(q, out=q)
        np.negative(q, out=q)
        q /= self.rate
        return q

    def virtual_valuation(self, v):
        arr, scalar = _as_array(v)
        if np.any(arr < 0):
            raise UndefinedVirtualValueError("no density below the support")
        return _scalarize(arr - 1.0 / self.rate, scalar)

    def value_of_virtual(self, t):
        """phi^-1(t) = t + 1 / rate."""
        return t + 1.0 / self.rate

    def hazard_rate(self, v):
        arr, scalar = _as_array(v)
        return _scalarize(np.full_like(arr, self.rate), scalar)

    def cumulative_hazard(self, v):
        arr, scalar = _as_array(v)
        return _scalarize(self.rate * np.maximum(arr, 0.0), scalar)

    def _compute_reserve(self) -> float:
        return 1.0 / self.rate

    def posted_price_welfare(self, t: float) -> float:
        t = max(float(t), 0.0)
        q = math.exp(-self.rate * t)
        return t * q + q / self.rate

    def survival_power_integral(self, p: int) -> float:
        if p < 1:
            raise ValueError("power must be a positive integer")
        return 1.0 / (p * self.rate)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0:
            return np.empty(0)
        return self._values_in_place(_uniform_on_half_open(rng, n))

    def to_spec(self) -> dict:
        return {"kind": "exponential", "rate": self.rate}


class DiscreteTabular(ValuationDistribution):
    """Finite-support distribution given by an ascending support and a pmf.

    The discrete virtual valuation on an atom v_k is
    ``phi(v_k) = v_k - (v_{k+1} - v_k) (1 - F(v_k)) / (F(v_k) - F(v_k-))``
    with ``F`` evaluated just below the support minimum being 0
    (`virtual_values`).  ``sale_probability(v)`` is
    ``Pr[value >= v]``, which differs from ``q(v) = 1 - F(v)`` by the atom
    at v; both are exposed because posted-price arguments need the former
    while quantile bookkeeping uses the latter.

    ``sample`` reads a cell table of the cdf (`_cells`, at most 576 KiB)
    that is built on the first draw and cached, so constructing an
    instance costs no more than its cdf.
    """

    def __init__(self, support: Sequence[float], pmf: Sequence[float]):
        support_arr = np.asarray(support, dtype=float)
        pmf_arr = np.asarray(pmf, dtype=float)
        if support_arr.ndim != 1 or support_arr.size == 0:
            raise ValueError("support must be a nonempty 1-d sequence")
        if support_arr.shape != pmf_arr.shape:
            raise ValueError("support and pmf must have equal length")
        if np.any(np.diff(support_arr) <= 0):
            raise ValueError("support must be strictly ascending")
        if support_arr[0] < 0:
            raise ValueError("valuations must be nonnegative")
        if np.any(pmf_arr < 0):
            raise ValueError("pmf entries must be nonnegative")
        total = float(pmf_arr.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pmf must sum to 1, got {total!r}")
        keep = pmf_arr > 0.0  # zero-mass atoms would make phi undefined there
        support_arr, pmf_arr = support_arr[keep], pmf_arr[keep]
        if support_arr.size == 0:
            raise ValueError("pmf has no positive mass")
        self.support = support_arr
        self.pmf = pmf_arr / total
        self._cdf = np.minimum(np.cumsum(self.pmf), 1.0)
        self._cdf[-1] = 1.0
        # sale probability Pr[value >= support[k]]
        self._sale = np.concatenate(([1.0], 1.0 - self._cdf[:-1]))

    def __repr__(self) -> str:
        return f"DiscreteTabular(support={self.support.tolist()}, pmf={self.pmf.tolist()})"

    def support_min(self) -> float:
        return float(self.support[0])

    def support_max(self) -> float:
        return float(self.support[-1])

    def cdf(self, v):
        arr, scalar = _as_array(v)
        idx = np.searchsorted(self.support, arr, side="right")
        out = np.where(idx == 0, 0.0, self._cdf[np.maximum(idx - 1, 0)])
        return _scalarize(out, scalar)

    def _atoms(self, arr: np.ndarray, strict: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """(index, on): the least atom at or above each value, clipped to
        the top atom, and whether the value is exactly that atom.  Unless
        every value is an atom, ``strict`` raises."""
        idx = np.minimum(np.searchsorted(self.support, arr), len(self.support) - 1)
        on = self.support[idx] == arr
        if strict and not np.all(on):
            raise UndefinedVirtualValueError(f"value {arr} has zero mass")
        return idx, on

    def density(self, v):
        """Probability mass at v (0 off the support)."""
        arr, scalar = _as_array(v)
        idx, on = self._atoms(arr, strict=False)
        return _scalarize(np.where(on, self.pmf[idx], 0.0), scalar)

    def sale_probability(self, v):
        """Pr[value >= v] -- the chance a posted price v sells."""
        arr, scalar = _as_array(v)
        idx = np.searchsorted(self.support, arr, side="left")
        padded = np.concatenate((self._sale, [0.0]))
        return _scalarize(padded[idx], scalar)

    def quantile_interval(self, v):
        return self.quantile_of_value(v), self.sale_probability(v)

    def value_of_quantile(self, q):
        """Largest support value whose sale probability still reaches q."""
        arr, scalar = _as_array(q)
        if np.any(arr <= 0.0) or np.any(arr > 1.0 + 1e-12):
            raise ValueError("quantile must lie in (0, 1]")
        # self._sale is descending; in the reversed (ascending) copy,
        # searchsorted counts the entries strictly below q - eps, so the
        # largest original index with sale >= q is len - 1 - count.
        pos = np.searchsorted(self._sale[::-1], arr - 1e-12, side="left")
        idx = len(self.support) - 1 - np.minimum(pos, len(self.support) - 1)
        out = self.support[idx]
        return _scalarize(out, scalar)

    def virtual_valuation(self, v):
        arr, scalar = _as_array(v)
        return _scalarize(self.virtual_values()[self._atoms(arr)[0]], scalar)

    def hazard_rate(self, v):
        arr, scalar = _as_array(v)
        idx, _ = self._atoms(arr)
        return _scalarize(self.pmf[idx] / self._sale[idx], scalar)

    def cumulative_hazard(self, v):
        arr, scalar = _as_array(v)
        surv = 1.0 - np.asarray(self.cdf(arr), dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(surv > 0.0, -np.log(np.maximum(surv, 1e-300)), np.inf)
        return _scalarize(out, scalar)

    def _compute_reserve(self) -> float:
        phi = self.virtual_values()
        nonneg = np.nonzero(phi >= 0.0)[0]
        if nonneg.size == 0:  # cannot happen: the top atom has phi = max value
            raise NoReserveError("virtual valuation negative on the whole support")
        return float(self.support[nonneg[0]])

    def virtual_values(self) -> np.ndarray:
        """phi on every atom, in support order; computed on first use and
        read-only.

        ``phi(v_k) = v_k - (v_{k+1} - v_k) (1 - F(v_k)) / f(v_k)``, the top
        atom's phi being its value: the slope of the revenue curve between
        the vertices ``(Pr[value >= v], v Pr[value >= v])`` of v_k and
        v_{k+1}, the discrete analogue of dR/dq.  Weighting by the step to
        the next atom makes ``sum_{v >= r} f(v) phi(v) = r * Pr[value >= r]``
        hold on any support, as ``revenue_curve_hull`` states, so reserves
        scale with the unit of value; on unit spacing it is
        ``v - (1 - F(v)) / f(v)``.
        """
        return self._phi

    @cached_property
    def _phi(self) -> np.ndarray:
        step = np.diff(self.support, append=self.support[-1])
        phi = self.support - step * (1.0 - self._cdf) / self.pmf
        phi.flags.writeable = False
        return phi

    def revenue_curve_hull(self, q):
        """Concave revenue curve through the atom vertices.

        The raw curve ``q * v(q)`` is scalloped between the vertices
        ``(Pr[value >= r], r * Pr[value >= r])``; the piecewise-linear curve
        through those vertices (anchored at (0, 0)) is its concave majorant
        for regular distributions, and is the curve that satisfies
        ``sum_{v >= r} f(v) phi(v) = r * Pr[value >= r]`` segment by segment.
        """
        arr, scalar = _as_array(q)
        qs = np.concatenate(([0.0], self._sale[::-1]))
        crs = np.concatenate(([0.0], (self._sale * self.support)[::-1]))
        out = np.interp(arr, qs, crs)
        return _scalarize(out, scalar)

    def posted_price_welfare(self, t: float) -> float:
        # an exact comparison, as in `sale_probability`: no slack in the
        # unit of value
        mask = self.support >= float(t)
        return float(np.sum(self.support[mask] * self.pmf[mask]))

    def survival_power_integral(self, p: int) -> float:
        if p < 1:
            raise ValueError("power must be a positive integer")
        edges = np.concatenate(([0.0], self.support))
        surv = np.concatenate(([1.0], 1.0 - self._cdf))  # survival just right of each edge
        widths = np.diff(edges)
        return float(np.sum(widths * surv[:-1] ** p))

    @cached_property
    def _cells(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(G, value, mixed): the indexed-search table of Chen and Asau
        (1974) over G equal cells of [0, 1), built on the first draw.

        G is the smallest power of two at or above 64 per atom, kept within
        [64, 2**16] (at most 576 KiB).  ``value[c]`` is the draw of every u
        at c/G, ``support[#{cdf <= c/G}]``, and it is the draw of every u in
        the cell unless a cdf entry lies strictly inside (c/G, (c+1)/G);
        ``mixed[c]`` marks those cells, at most one per atom but the last.
        Multiplying by G is exact, so the cells are exact too.
        """
        G = 1 << min((64 * len(self.support) - 1).bit_length(), 16)
        value = self.support[np.searchsorted(self._cdf, np.arange(G) / G, side="right")]
        scaled = self._cdf * G
        inner = scaled[scaled != np.floor(scaled)]
        mixed = np.zeros(G, dtype=bool)
        mixed[inner.astype(np.intp)] = True
        return G, value, mixed

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-cdf draws, ``support[#{cdf <= u}]`` for u = rng.random(n),
        read from the cell table (`_cells`); only the u that fall in a mixed
        cell are searched in the cdf, so each draw equals the search."""
        if n == 0:
            return np.empty(0)
        G, value, mixed = self._cells
        u = rng.random(int(n))
        # u * G is exact (G is a power of two), and so is dividing it back
        cell = np.multiply(u, G, out=u).astype(np.intp)
        fix = np.flatnonzero(mixed.take(cell))
        u_fix = u.take(fix) / G
        # every cell lies in [0, G), so "clip" clips nothing; unlike the
        # default mode it writes straight into u, with no buffer
        out = value.take(cell, out=u, mode="clip")
        out[fix] = self.support.take(np.searchsorted(self._cdf, u_fix, side="right"))
        return out

    def sorted_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Each atom, from the top, repeated by its count in one multinomial
        draw of ``n`` over the pmf."""
        return np.repeat(self.support[::-1], rng.multinomial(int(n), self.pmf)[::-1])

    def truncate_at(self, B: float) -> "DiscreteTabular":
        """Fold all mass above B onto an atom at B."""
        if B < self.support[0]:
            raise ValueError(f"truncation point {B} lies below the support minimum")
        if B >= self.support[-1]:
            return self
        below = self.support < B
        new_support = np.concatenate((self.support[below], [float(B)]))
        new_pmf = np.concatenate((self.pmf[below], [float(np.sum(self.pmf[~below]))]))
        return DiscreteTabular(new_support, new_pmf)

    def scale_values(self, factor: float) -> "DiscreteTabular":
        """The distribution of factor * value.

        The pmf and cdf are shared, not renormalized, so they keep their
        bits: under a power-of-two factor every value-scaled quantity then
        scales exactly."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        scaled = object.__new__(DiscreteTabular)
        scaled.support = self.support * factor
        scaled.pmf, scaled._cdf, scaled._sale = self.pmf, self._cdf, self._sale
        return scaled

    def to_spec(self) -> dict:
        return {"kind": "discrete", "support": self.support.tolist(), "pmf": self.pmf.tolist()}


# ---------------------------------------------------------------------------
# module-level constructors and helpers
# ---------------------------------------------------------------------------


def make_falpha(alpha: float, scale: float = 1.0) -> FAlpha:
    return FAlpha(alpha, scale)


def make_exponential(rate: float = 1.0) -> Exponential:
    return Exponential(rate)


def make_discrete(support: Sequence[float], pmf: Sequence[float]) -> DiscreteTabular:
    return DiscreteTabular(support, pmf)


def json_object(data, what: str = "config") -> Mapping:
    """``data`` itself if it is a JSON object, else a ValueError that says
    ``what`` had to be one."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def reject_unknown_keys(data: Mapping, known: frozenset, what: str = "config") -> None:
    """Raise a ValueError naming the first key of ``data`` (in sorted
    order) that is not in ``known``, or saying that ``data`` is not a JSON
    object.  ``what`` names the object in the message."""
    json_object(data, what)
    unknown = sorted(set(data) - known, key=str)
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}; expected one of {sorted(known)}")


#: the keys of each distribution kind's spec
SPEC_KEYS = {
    "falpha": frozenset({"kind", "alpha", "scale"}),
    "exponential": frozenset({"kind", "rate"}),
    "discrete": frozenset({"kind", "support", "pmf"}),
}


def dist_from_spec(spec: dict | str) -> ValuationDistribution:
    """Deserialize a distribution from its JSON object (or JSON text).  A
    spec that is not a JSON object, or a key that the spec's kind does not
    read (`SPEC_KEYS`), is a ValueError that says so."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    kind = json_object(spec, "distribution spec").get("kind")
    if kind not in SPEC_KEYS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    reject_unknown_keys(spec, SPEC_KEYS[kind], f"{kind} distribution")
    if kind == "falpha":
        return FAlpha(float(spec["alpha"]), float(spec.get("scale", 1.0)))
    if kind == "exponential":
        return Exponential(float(spec.get("rate", 1.0)))
    return DiscreteTabular(spec["support"], spec["pmf"])


def truncate_at(
    d: ValuationDistribution, B: float, grid: Sequence[float] | None = None
) -> DiscreteTabular:
    """Truncate ``d`` at B, folding all upper mass onto an atom at B.

    Discrete inputs keep their own support (clipped).  Continuous inputs are
    discretized onto ``grid`` (ascending, capped at B; B is appended if
    missing): each grid point receives the mass of the half-open interval
    below it, and the whole upper tail lands on B.
    """
    if isinstance(d, DiscreteTabular):
        return d.truncate_at(B)
    if grid is None:
        raise ValueError("a value grid is required to truncate a continuous distribution")
    pts = sorted(float(g) for g in grid)
    if not pts:
        raise ValueError("grid must be nonempty")
    if pts[-1] > B:
        raise ValueError("grid points must not exceed the truncation point")
    if pts[-1] < B:
        pts.append(float(B))
    pts_arr = np.asarray(pts)
    cdf_vals = np.asarray(d.cdf(pts_arr), dtype=float)
    pmf = np.diff(np.concatenate(([0.0], cdf_vals)))
    pmf[-1] += 1.0 - cdf_vals[-1]
    return DiscreteTabular(pts_arr, pmf)


def check_alpha_sr(
    d: ValuationDistribution, alpha: float, grid_size: int = 200
) -> AlphaSrReport:
    """Check alpha-strong regularity: phi(y) - phi(x) >= alpha (y - x).

    Discrete kinds are checked exactly on consecutive support atoms; the
    minimum slope over consecutive pairs bounds the slope over every pair.
    Continuous kinds are checked on a quantile grid of the given size.
    """
    if isinstance(d, DiscreteTabular):
        values = d.support
        phi = d.virtual_values()
    else:
        qs = np.linspace(1e-4, 1.0, int(grid_size))
        values = np.asarray(d.value_of_quantile(qs), dtype=float)[::-1]
        phi = np.asarray(d.virtual_valuation(values), dtype=float)
    if len(values) < 2:
        return AlphaSrReport(alpha=float(alpha), margin=math.inf, satisfied=True, pairs_checked=0)
    slopes = np.diff(phi) / np.diff(values)
    margin = float(np.min(slopes) - alpha)
    return AlphaSrReport(
        alpha=float(alpha),
        margin=margin,
        satisfied=margin >= -1e-6,
        pairs_checked=len(values) - 1,
    )


def revenue_curve_hull(d: ValuationDistribution, q):
    """Concave revenue curve: q*v(q) for continuous kinds (already concave
    when the distribution is regular), the vertex polyline for discrete kinds."""
    if isinstance(d, DiscreteTabular):
        return d.revenue_curve_hull(q)
    arr, scalar = _as_array(q)
    vals = np.where(arr > 0, np.asarray(d.value_of_quantile(np.clip(arr, 1e-300, 1.0))), 0.0)
    return _scalarize(np.where(arr > 0, arr * vals, 0.0), scalar)


def expected_positive_part_of_virtual(d: ValuationDistribution) -> float:
    """E[max(0, phi(value))] -- the optimal single-bidder revenue (Myerson).

    Closed forms for the analytic kinds, exact summation for discrete kinds.
    """
    if isinstance(d, DiscreteTabular):
        phi = d.virtual_values()
        return float(np.sum(d.pmf * np.maximum(phi, 0.0)))
    r = d.reserve_price
    # E[(phi)^+] = integral over t >= 0 of Pr[phi(v) > t]; for these kinds the
    # revenue of posting the reserve equals it: r * q(r).
    return float(r * d.quantile_of_value(r))


def make_random_alpha_sr_discrete(
    rng: np.random.Generator,
    alpha: float,
    max_support: int = 6,
    min_support: int = 3,
) -> DiscreteTabular:
    """Generate a random alpha-strongly-regular pmf on {1, ..., L}.

    Virtual-valuation increments are drawn no smaller than alpha and at most
    1, which pins phi(v) < v everywhere below the top atom, and the pmf is
    reconstructed backward from phi through the sale probabilities:
    ``S(v+1)/S(v) = (v - phi(v)) / (1 + v - phi(v))``.  The construction is
    validated (and in principle rejection-sampled, though the bounds above
    make rejection unreachable) before returning.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    for _ in range(64):
        L = int(rng.integers(min_support, max_support + 1))
        phi = np.empty(L)
        phi[0] = 1.0 - rng.uniform(0.1, 3.0)
        increments = rng.uniform(alpha, min(1.0, alpha + 0.8), size=max(L - 2, 0))
        for k, delta in enumerate(increments, start=1):
            phi[k] = phi[k - 1] + delta
        sale = np.empty(L)
        sale[0] = 1.0
        for v in range(1, L):
            gap = v - phi[v - 1]  # strictly positive by construction
            sale[v] = sale[v - 1] * gap / (1.0 + gap)
        pmf = np.concatenate((-np.diff(sale), [sale[-1]]))
        cand = DiscreteTabular(np.arange(1, L + 1, dtype=float), pmf)
        if check_alpha_sr(cand, alpha).satisfied:
            return cand
    raise RuntimeError("failed to generate a strongly regular pmf (should be unreachable)")
