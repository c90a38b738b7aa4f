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
    brute_force_harp,
    check_garp,
    check_harp,
)
from .core import (
    GroupSelection,
    TradeDataError,
    TradeStatistics,
    cross_value_matrix,
    load_trade_statistics,
    paasche_from_statistics,
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
    LawOfDemandEstimate,
    LinearConstraint,
    PolytopeDescription,
    SizeReport,
    enumerate_vertices,
    forecast_size,
    forecast_size_paired,
    gamma_coefficients,
    kg_membership,
    kh_membership,
    kh_polytope,
    law_of_demand_estimate,
    law_of_demand_outer,
    omega_closure,
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
from .irrationality import (
    IrrationalityReport,
    garp_irrationality,
    garp_irrationality_bisection,
    harp_irrationality,
    irrationality_report,
)
from .semiring import (
    BooleanRelation,
    NoAdmissibleCycleError,
    OracleBudgetError,
    boolean_closure,
    brute_force_cycle_geomean,
    max_cycle_geomean,
    maxtimes_closure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
