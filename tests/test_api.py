"""The public API is exactly the names listed here, each with its call signature.

A name cannot enter or leave the API, nor a parameter or field enter or leave a
signature, unnoticed.
"""

import inspect

import konus

# Every name ``from konus import *`` brings in, sorted, with ``str(inspect.signature(...))``; the
# submodules are not among them.  None marks the names without one: the exceptions that keep
# their builtin base's constructor, and the ``BooleanRelation`` array alias.
PUBLIC_API = {
    "ARModel": (
        "(order: 'int', beta: 'FloatArray', sigma2: 'float', stderr: 'FloatArray', "
        "good_id: 'str' = '') -> None"
    ),
    "AfriatSolution": "(utilities: 'FloatArray', lam: 'FloatArray', omega: 'float') -> None",
    "AxiomVerdict": (
        "(satisfied: 'bool', omega: 'float', "
        "witness: 'GarpWitness | HarpWitness | None' = None) -> None"
    ),
    "BooleanRelation": None,
    "CertificateError": None,
    "ForecastCone": (
        "(omega: 'float', price_new: 'FloatArray', gamma: 'FloatArray', prices: 'FloatArray') -> None"
    ),
    "GarpWitness": "(chain: 'tuple[int, ...]', comparison: 'tuple[int, int]', omega: 'float') -> None",
    "GroupProbabilityCurve": (
        "(sizes: 'tuple[int, ...]', samples: 'tuple[int, ...]', p_garp: 'tuple[float, ...]', "
        "p_harp: 'tuple[float, ...]', skipped: 'tuple[int, ...]', seed: 'int') -> None"
    ),
    "GroupSelection": "(indices: 'tuple[int, ...]') -> None",
    "HarpMultipliers": "(lam: 'FloatArray', omega: 'float') -> None",
    "HarpWitness": "(cycle: 'tuple[int, ...]', product: 'float', omega: 'float') -> None",
    "HierarchyReport": "(nodes: 'tuple[NodeReport, ...]') -> None",
    "IndexSeries": "(consumption: 'FloatArray', price: 'FloatArray') -> None",
    "InfeasibleAxiomError": "(message: 'str', witness: 'GarpWitness | HarpWitness | None' = None)",
    "LinearConstraint": (
        "(coeffs: 'tuple[float, ...]', sense: 'str', rhs: 'float', label: 'str' = '') -> None"
    ),
    "NoAdmissibleCycleError": None,
    "NodeReport": (
        "(name: 'str', depth: 'int', goods: 'tuple[str, ...]', is_leaf: 'bool', status: 'str', "
        "omega: 'float', omega_h: 'float | None', series: 'IndexSeries | None', "
        "statistics: 'TradeStatistics | None', implies_flat_harp: 'bool') -> None"
    ),
    "PolytopeDescription": (
        "(variables: 'tuple[str, ...]', constraints: 'tuple[LinearConstraint, ...]') -> None"
    ),
    "PowerReport": "(trials: 'int', garp_rejections: 'int', harp_rejections: 'int', seed: 'int') -> None",
    "SizeReport": "(axiom: 'str', trials: 'int', hits: 'int', seed: 'int') -> None",
    "TradeDataError": (
        "(message: 'str', *, row: 'str | int | None' = None, column: 'str | int | None' = None)"
    ),
    "TradeStatistics": (
        "(prices: 'FloatArray', quantities: 'FloatArray', good_ids: 'tuple[str, ...]', "
        "period_ids: 'tuple[str, ...]') -> None"
    ),
    "TreeNode": (
        '(name: \'str\', children: "tuple[\'TreeNode\', ...]" = (), '
        "goods: 'tuple[str, ...]' = ()) -> None"
    ),
    "aggregate": (
        "(ts: 'TradeStatistics', children: 'Sequence[tuple[IndexSeries, GroupSelection]]', "
        "passthrough: 'GroupSelection | None' = None, *, "
        "child_ids: 'Sequence[str] | None' = None) -> 'TradeStatistics'"
    ),
    "boolean_closure": "(rel) -> 'BooleanRelation'",
    "build_hierarchy": "(ts: 'TradeStatistics', tree: 'TreeNode', omega: 'float' = 1.0) -> 'HierarchyReport'",
    "check_garp": "(ts: 'TradeStatistics', omega: 'float' = 1.0, *, tol: 'float' = 0.0) -> 'AxiomVerdict'",
    "check_harp": "(ts: 'TradeStatistics', omega: 'float' = 1.0, *, tol: 'float' = 0.0) -> 'AxiomVerdict'",
    "cobb_douglas_statistics": "(T: 'int', m: 'int', seed: 'int') -> 'TradeStatistics'",
    "cross_value_matrix": "(ts: 'TradeStatistics') -> 'FloatArray'",
    "enumerate_vertices": "(poly: 'PolytopeDescription') -> 'FloatArray'",
    "eval_garp_utility": "(sol: 'AfriatSolution', ts: 'TradeStatistics', bundle) -> 'float'",
    "eval_harp_utility": "(lm: 'HarpMultipliers', ts: 'TradeStatistics', bundle) -> 'float'",
    "fit_ar": "(series: 'Sequence[float]', *, good_id: 'str' = '') -> 'ARModel'",
    "fit_price_models": "(ts: 'TradeStatistics') -> 'list[ARModel]'",
    "forecast_size_paired": (
        "(ts: 'TradeStatistics', trials: 'int', seed: 'int') -> 'tuple[SizeReport, SizeReport]'"
    ),
    "gamma_coefficients": "(ts: 'TradeStatistics', omega: 'float', price_new) -> 'ForecastCone'",
    "garp_irrationality": "(ts: 'TradeStatistics') -> 'tuple[float, bool]'",
    "harp_irrationality": "(ts: 'TradeStatistics') -> 'float'",
    "kg_membership": "(ts: 'TradeStatistics', omega: 'float', price_new, x, *, tol: 'float' = 0.0) -> 'bool'",
    "kh_membership": "(cone: 'ForecastCone', ts: 'TradeStatistics', x, *, tol: 'float' = 0.0) -> 'bool'",
    "kh_polytope": "(cone: 'ForecastCone', x_new: 'float') -> 'PolytopeDescription'",
    "konus_divisia_series": "(ts: 'TradeStatistics', lm: 'HarpMultipliers') -> 'IndexSeries'",
    "load_trade_statistics": "(prices_source, quantities_source) -> 'TradeStatistics'",
    "log_relatives": "(ts: 'TradeStatistics') -> 'FloatArray'",
    "max_cycle_geomean": "(matrix) -> 'float'",
    "maxtimes_closure": "(matrix, *, tol: 'float' = 0.0) -> 'FloatArray | None'",
    "paasche_matrix": "(px) -> 'FloatArray'",
    "parse_partition_tree": "(document) -> 'TreeNode'",
    "power_estimate": "(ts: 'TradeStatistics', trials: 'int', seed: 'int') -> 'PowerReport'",
    "random_group_probability": (
        "(ts: 'TradeStatistics', sizes: 'Sequence[int]', samples_per_size: 'int', "
        "seed: 'int') -> 'GroupProbabilityCurve'"
    ),
    "random_statistics": "(T: 'int', m: 'int', seed: 'int') -> 'TradeStatistics'",
    "render_tree": "(report: 'HierarchyReport') -> 'str'",
    "rescale_quantities": "(ts: 'TradeStatistics', mu: 'Sequence[float]') -> 'TradeStatistics'",
    "restrict_to_group": "(ts: 'TradeStatistics', group: 'GroupSelection') -> 'TradeStatistics'",
    "sample_positive_sphere": "(m: 'int', rng: 'np.random.Generator') -> 'FloatArray'",
    "simulate_price_paths": (
        "(ts: 'TradeStatistics', models: 'Sequence[ARModel]', "
        "rng: 'np.random.Generator') -> 'FloatArray'"
    ),
    "solve_afriat_numbers": (
        "(ts: 'TradeStatistics', omega: 'float' = 1.0, *, tol: 'float' = 0.0) -> 'AfriatSolution'"
    ),
    "solve_harp_multipliers": (
        "(ts: 'TradeStatistics', omega: 'float' = 1.0, *, tol: 'float' = 0.0) -> 'HarpMultipliers'"
    ),
    "trade_statistics": "(prices, quantities, good_ids=None, period_ids=None) -> 'TradeStatistics'",
    "validate_tree": "(ts: 'TradeStatistics', tree: 'TreeNode') -> 'None'",
    "verify_afriat_solution": "(sol: 'AfriatSolution', ts: 'TradeStatistics') -> 'None'",
    "verify_harp_multipliers": "(lm: 'HarpMultipliers', ts: 'TradeStatistics') -> 'None'",
}
PUBLIC_NAMES = list(PUBLIC_API)


def _signature(obj):
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return None


def test_public_names_are_exactly_the_listed_ones():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert konus.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from konus import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_public_signatures_are_exactly_the_listed_ones():
    assert {name: _signature(getattr(konus, name)) for name in konus.__all__} == PUBLIC_API
