"""The benchmark's workloads: which experiments one pass runs, and at what scale.

A pass is a list of ``(experiment_id, ExperimentConfig)`` pairs that the
benchmark feeds, in order, to ``srauctions.harness.run_experiment``.  Every
``master_seed`` is derived from the benchmark seed, so the same seed gives
the same pass; the library receives only the generated configs.

Why each workload exists is in ``WHY`` and, with the predicted effect of
each layer on the end-to-end metrics, in ``README.md``.
"""

from __future__ import annotations

import hashlib

WHY = {
    "posted-pricing": (
        "vectorized runners at 10^6 rows, DiscreteTabular sampling, LP2/LP3 and many "
        "small tie-heavy builds: the same layers used differently"
    ),
    "budgeted-per-trial": (
        "per-trial Python loop of two-mech and lottery: one Philox stream, about 69 "
        "best_set calls and scalar virtual-value lookups per trial; no builds, no LP"
    ),
    "sampled-reserves": (
        "theorem-grade empirical builds (m = 1,107,402; 12 builds): sort, hull and "
        "coverage do most of the work on arrays larger than L2"
    ),
}

# (experiment id, trials) per run; None keeps the experiment's default scale.
# two-mech draws its three priors from its seed, and the cost of a trial
# depends on their supports (+-20% between seeds), so a pass spreads its
# two-mech trials over eight seeds.  lottery's trials are split over four
# seeds too, so that the reference loop (run.reference_s) runs more often
# within a pass.  sampled-reserves runs lottery-samp,
# two builds at m = 1,107,402 each, over six seeds with few auction trials,
# so that builds do the work.  vcgl-samp is left out: it always makes 100
# resamples of two builds, and a pass of 202 builds (about a minute) leaves
# no room in the benchmark's time budget for runs long enough to be steady.
_PLANS = {
    "posted-pricing": [("posted-lp", None), ("vcgl", None), ("vcg-duplicates", None)]
    + [("posted-lp-samp", 20_000)] * 8,
    "budgeted-per-trial": [("two-mech", 1_250)] * 8 + [("lottery", 2_500)] * 4,
    "sampled-reserves": [("lottery-samp", 200)] * 6,
}

#: ``build_empirical`` calls per pass, as provenance: lottery-samp makes 2;
#: posted-lp-samp makes four per attempt and stops at its third covered
#: attempt, so its count depends on the seed.
BUILDS = {
    "posted-pricing": "4 per posted-lp-samp attempt, at least 96",
    "budgeted-per-trial": "0",
    "sampled-reserves": "12",
}

NAMES = tuple(_PLANS)

#: Every experiment id that some workload runs.
EXPERIMENT_IDS = tuple(dict.fromkeys(eid for plan in _PLANS.values() for eid, _ in plan))


def derive_seed(seed: int, workload: str, index: int) -> int:
    """Master seed of the ``index``-th experiment run of a workload pass."""
    digest = hashlib.sha256(f"{seed}/{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def configs(workload: str, seed: int) -> list:
    """The experiment runs of one pass of ``workload`` under ``seed``."""
    from srauctions.harness import ExperimentConfig, criterion_instance

    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(NAMES)}")
    instance = criterion_instance() if workload == "posted-pricing" else None
    return [
        (
            eid,
            ExperimentConfig(
                experiment_id=eid,
                trials=trials,
                master_seed=derive_seed(seed, workload, index),
                instance=instance if eid.startswith("posted-lp") else None,
            ),
        )
        for index, (eid, trials) in enumerate(_PLANS[workload])
    ]
