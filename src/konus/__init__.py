"""Revealed-preference demand analysis toolkit.

Tests price/quantity panels for consistency with utility maximization at a
configurable efficiency level, constructs consumption and price index series
from multiplier certificates, quantifies inconsistency through irrationality
indices, builds linear forecasting sets for new observations, and runs
seeded Monte Carlo experiments on test power and forecast-set size.
"""

__version__ = "0.1.0"

from .afriat import (
    AfriatSolution,
    CertificateError,
    HarpMultipliers,
    IndexSeries,
    InfeasibleAxiomError,
    eval_garp_utility,
    eval_harp_utility,
    konus_divisia_series,
    solve_afriat_numbers,
    solve_harp_multipliers,
    verify_afriat_solution,
    verify_harp_multipliers,
)
from .axioms import (
    AxiomVerdict,
    GarpWitness,
    HarpWitness,
    check_garp,
    check_harp,
)
from .core import (
    GroupSelection,
    TradeDataError,
    TradeStatistics,
    cross_value_matrix,
    load_trade_statistics,
    paasche_matrix,
    rescale_quantities,
    restrict_to_group,
    trade_statistics,
)
from .econometrics import (
    ARModel,
    GroupProbabilityCurve,
    PowerReport,
    cobb_douglas_statistics,
    fit_ar,
    fit_price_models,
    log_relatives,
    power_estimate,
    random_group_probability,
    random_statistics,
    simulate_price_paths,
)
from .forecast import (
    ForecastCone,
    LinearConstraint,
    PolytopeDescription,
    SizeReport,
    enumerate_vertices,
    forecast_size_paired,
    gamma_coefficients,
    kg_membership,
    kh_membership,
    kh_polytope,
    sample_positive_sphere,
)
from .hierarchy import (
    HierarchyReport,
    NodeReport,
    TreeNode,
    aggregate,
    build_hierarchy,
    parse_partition_tree,
    render_tree,
    validate_tree,
)
from .irrationality import garp_irrationality, harp_irrationality
from .semiring import (
    BooleanRelation,
    NoAdmissibleCycleError,
    boolean_closure,
    max_cycle_geomean,
    maxtimes_closure,
)

__all__ = [
    "ARModel", "AfriatSolution", "AxiomVerdict", "BooleanRelation", "CertificateError",
    "ForecastCone", "GarpWitness", "GroupProbabilityCurve", "GroupSelection", "HarpMultipliers",
    "HarpWitness", "HierarchyReport", "IndexSeries", "InfeasibleAxiomError",
    "LinearConstraint", "NoAdmissibleCycleError", "NodeReport", "PolytopeDescription",
    "PowerReport", "SizeReport", "TradeDataError", "TradeStatistics", "TreeNode", "aggregate",
    "boolean_closure", "build_hierarchy", "check_garp", "check_harp", "cobb_douglas_statistics",
    "cross_value_matrix", "enumerate_vertices", "eval_garp_utility", "eval_harp_utility", "fit_ar",
    "fit_price_models", "forecast_size_paired", "gamma_coefficients", "garp_irrationality",
    "harp_irrationality", "kg_membership", "kh_membership", "kh_polytope", "konus_divisia_series",
    "load_trade_statistics", "log_relatives",
    "max_cycle_geomean", "maxtimes_closure", "paasche_matrix", "parse_partition_tree",
    "power_estimate", "random_group_probability", "random_statistics", "render_tree",
    "rescale_quantities", "restrict_to_group", "sample_positive_sphere", "simulate_price_paths",
    "solve_afriat_numbers", "solve_harp_multipliers", "trade_statistics", "validate_tree",
    "verify_afriat_solution", "verify_harp_multipliers",
]
