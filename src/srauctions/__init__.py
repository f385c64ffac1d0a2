"""Strongly regular valuation distributions, empirical revenue curves,
budget-aware auction mechanisms, and the Monte Carlo harness that checks
their revenue guarantees.
"""

from .dists import (
    AlphaSrReport,
    DiscreteTabular,
    Exponential,
    FAlpha,
    RevenueCurvePoint,
    ValuationDistribution,
    check_alpha_sr,
    dist_from_spec,
    expected_positive_part_of_virtual,
    make_discrete,
    make_exponential,
    make_falpha,
    make_random_alpha_sr_discrete,
    revenue_curve_hull,
    truncate_at,
)

__version__ = "0.1.0"
