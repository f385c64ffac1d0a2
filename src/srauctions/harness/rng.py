"""Deterministic RNG stream derivation.

Every randomized routine in the harness draws from numpy's PCG64DXSM bit
generator, seeded by ``SeedSequence(master_seed, spawn_key=(stream_index,))``.
Spawn keys are numpy's documented way of making independent parallel
streams, and PCG64DXSM is the generator it recommends for them.  The mapping
is pure: the same pair always yields the same generator state, which is
what makes reports byte-for-byte reproducible.

The stream layout of every experiment and of ``srauctions mech run``:

* index ``(case << 32) | c`` -- block ``c`` (``montecarlo.run_batched``'s
  blocks of at most 250,000 rows) of trial case ``case``.  An experiment
  numbers its cases from 0: the bidder counts of ``vcg-duplicates`` and
  ``vcgl``, the resamples of ``vcgl-samp``, the build attempts of
  ``posted-lp-samp``; a run with one case is case 0;
* indices at or above ``META_STREAM_BASE`` -- one-off draws such as the
  training data of an empirical model (``mech run`` uses slot 0) or an
  instance's setup.  Cases lie below 2**30, and a run holds fewer than
  2**32 blocks (10^15 rows), so no trial stream reaches them.

Within a block of ``rows`` rows, the stream is cut into sections, in the
order the batch function asks for them: section s holds ``w_s`` doubles a
row, drawn row-major, and starts after the earlier sections' ``rows * w``
words; the draws of variable count (``Draws.rest()``) follow the last
section.  Every trial draw is ``Generator.random``, one 64-bit word per
double, so rows [a, b) of section s are words [base_s + a * w_s, base_s +
b * w_s), and ``run_batched``'s sub-blocks reach them by ``advance``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

META_STREAM_BASE = 1 << 62


def stream(master_seed: int, index: int) -> np.random.Generator:
    """PCG64DXSM generator for stream ``index`` under ``master_seed``.

    Both are taken modulo 2**64.  Stream ``index`` is the child ``index``
    that ``SeedSequence(master_seed).spawn`` hands out.  Distinct pairs get
    distinct seed material: with a spawn key present, ``SeedSequence`` pads
    the seed's 32-bit words to its full 128-bit pool before it appends the
    key's, so no split of the same words between seed and index, such as
    (1 + 5 * 2**32, 7) against (1, 5 + 7 * 2**32), gives the same stream.
    """
    return np.random.Generator(
        np.random.PCG64DXSM(
            np.random.SeedSequence(master_seed & _MASK64, spawn_key=(index & _MASK64,))
        )
    )


def block_stream(master_seed: int, case: int, block: int) -> np.random.Generator:
    """Generator for block ``block`` of case ``case``'s trials."""
    if not 0 <= case < 1 << 30:
        raise ValueError(f"case must lie in [0, 2**30), got {case}")
    return stream(master_seed, (case << 32) | block)


def meta_stream(master_seed: int, slot: int) -> np.random.Generator:
    """Generator for one-off draws (model training data, instance setup)."""
    if slot < 0:
        raise ValueError("slot must be nonnegative")
    return stream(master_seed, META_STREAM_BASE + slot)
