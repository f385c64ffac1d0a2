"""Deterministic RNG stream derivation.

Every randomized routine in the harness draws from a counter-based Philox
generator keyed by ``(master_seed, stream_index)``.  Streams with distinct
indices are statistically independent, and the mapping is pure: the same
pair always yields the same generator state, which is what makes reports
byte-for-byte reproducible.

Stream index conventions used by the experiments:

* index ``c`` -- block ``c`` of the trials of ``two-mech``, ``lottery`` and
  ``lottery-samp``, which run in blocks of at most 250,000 rows
  (``experiments._chunks``); resample ``c`` of ``vcgl-samp``; trial ``c`` of
  ``monte_carlo``;
* indices at or above ``META_STREAM_BASE`` -- one-off draws such as sampling
  the training data for an empirical model, so they can never collide with a
  trial stream, and the experiments that draw all their trials in sequence
  from one generator per case.
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


def meta_stream(master_seed: int, slot: int) -> np.random.Generator:
    """Generator for one-off draws (model training data, instance setup)."""
    if slot < 0:
        raise ValueError("slot must be nonnegative")
    return stream(master_seed, META_STREAM_BASE + slot)
