"""The public API is exactly the names listed here, so a name cannot enter or leave it unnoticed."""

import konus

# Every name ``from konus import *`` brings in, sorted; the submodules are not among them.
PUBLIC_NAMES = [
    "ARModel",
    "AfriatSolution",
    "AxiomVerdict",
    "BooleanRelation",
    "CertificateError",
    "ForecastCone",
    "GarpWitness",
    "GroupProbabilityCurve",
    "GroupSelection",
    "HarpMultipliers",
    "HarpWitness",
    "HierarchyReport",
    "IndexSeries",
    "InfeasibleAxiomError",
    "LinearConstraint",
    "NoAdmissibleCycleError",
    "NodeReport",
    "PolytopeDescription",
    "PowerReport",
    "SizeReport",
    "TradeDataError",
    "TradeStatistics",
    "TreeNode",
    "aggregate",
    "boolean_closure",
    "build_hierarchy",
    "check_garp",
    "check_harp",
    "cobb_douglas_statistics",
    "cross_value_matrix",
    "enumerate_vertices",
    "eval_garp_utility",
    "eval_harp_utility",
    "fit_ar",
    "fit_price_models",
    "forecast_size_paired",
    "gamma_coefficients",
    "garp_irrationality",
    "harp_irrationality",
    "kg_membership",
    "kh_membership",
    "kh_polytope",
    "konus_divisia_series",
    "load_trade_statistics",
    "log_relatives",
    "max_cycle_geomean",
    "maxtimes_closure",
    "paasche_matrix",
    "parse_partition_tree",
    "power_estimate",
    "random_group_probability",
    "random_statistics",
    "render_tree",
    "rescale_quantities",
    "restrict_to_group",
    "sample_positive_sphere",
    "simulate_price_paths",
    "solve_afriat_numbers",
    "solve_harp_multipliers",
    "trade_statistics",
    "validate_tree",
    "verify_afriat_solution",
    "verify_harp_multipliers",
]


def test_public_names_are_exactly_the_listed_ones():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert konus.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from konus import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
