"""Deterministic RNG stream derivation.

Every randomized routine in the harness draws from a counter-based Philox
generator keyed by ``(master_seed, stream_index)``.  Streams with distinct
indices are statistically independent, and the mapping is pure: the same
pair always yields the same generator state, which is what makes reports
byte-for-byte reproducible.

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
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

META_STREAM_BASE = 1 << 62


def stream(master_seed: int, index: int) -> np.random.Generator:
    """Generator for stream ``index`` under ``master_seed``."""
    return np.random.default_rng(
        np.random.Philox(key=[master_seed & _MASK64, index & _MASK64])
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
