"""cubelens: a self-contained multidimensional cube query engine.

One ANALYZE request expands into five facilitator cube queries (the original,
two sibling queries that put the filtered values in the context of their
peers, and two drill-downs).  Three provably-equivalent execution strategies
run them with 5, 3 or 1 fact-scan queries, and a statistics-driven selector
picks between the merged strategies.
"""

from .analyze import (
    AnalyzeQuery,
    AnalyzeResult,
    FacilitatorSet,
    build_facilitators,
    derive_drilldown,
    derive_sibling,
    from_statement,
)
from .bench import TimingBreakdown, WorkloadSpec, run_analyze, run_workload
from .cube import CubeSchema, DetailedCube, Measure, filter_rows, load_cube
from .errors import CubeLensError
from .hierarchy import (
    Dimension,
    Level,
    anc,
    desc,
    dimension_from_member_rows,
    dimension_from_tables,
    siblings_under_parent,
    validate_hierarchy,
)
from .mqo import (
    build_all_encompassing,
    build_org_dd_merged,
    reaggregate,
    run_max_mqo,
    run_mid_mqo,
    run_min_mqo,
)
from .parser import AnalyzeStatement, parse, render
from .query import (
    CellSet,
    CubeQuery,
    SelectionAtom,
    SelectionCondition,
    cell_sets_equal,
    cube_usable,
    detailed_proxy,
    execute_query,
    grouper_domain,
)
from .selector import CostStats, SelectorConfig, StrategyChoice, choose_strategy, estimate_stats
from .synth import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "AnalyzeQuery", "AnalyzeResult", "FacilitatorSet", "build_facilitators",
    "derive_drilldown", "derive_sibling", "from_statement",
    "TimingBreakdown", "WorkloadSpec", "run_analyze", "run_workload",
    "CubeSchema", "DetailedCube", "Measure", "filter_rows", "load_cube",
    "CubeLensError",
    "Dimension", "Level", "anc", "desc", "dimension_from_member_rows",
    "dimension_from_tables", "siblings_under_parent", "validate_hierarchy",
    "build_all_encompassing", "build_org_dd_merged", "reaggregate",
    "run_max_mqo", "run_mid_mqo", "run_min_mqo",
    "AnalyzeStatement", "parse", "render",
    "CellSet", "CubeQuery", "SelectionAtom", "SelectionCondition",
    "cell_sets_equal", "cube_usable", "detailed_proxy", "execute_query",
    "grouper_domain",
    "CostStats", "SelectorConfig", "StrategyChoice", "choose_strategy", "estimate_stats",
    "SynthSpec", "generate",
]
