"""Monte Carlo engine, brute-force oracles, experiments, and the CLI."""

from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    UnknownExperimentError,
    criterion_instance,
    exact_pricing_plan,
    lazy_vcg_k_uniform,
    lottery_k_uniform,
    posted_price_runs,
    run_experiment,
    second_price_of_pooled,
    two_mech_k_uniform,
)
from .montecarlo import (
    Accumulator,
    CSV_COLUMNS,
    MetricSummary,
    Report,
    Z95,
    render_csv,
    run_batched,
    wilson_interval,
)
from .oracles import (
    enumerate_profiles,
    expected_order_statistic_iid,
    myerson_optimal_revenue_iid,
    oracle_exact_expectation,
    oracle_feasible_argmax,
    oracle_optimal_revenue_single_item,
)
from .rng import META_STREAM_BASE, meta_stream, stream
