"""cubelens: a self-contained multidimensional cube query engine.

One ANALYZE request expands into five facilitator cube queries (the original,
two sibling queries that put the filtered values in the context of their
peers, and two drill-downs).  Three provably-equivalent execution strategies
run them with 5, 3 or 1 fact-scan queries, and a selector picks one per
request: by default the strategy its cost model predicts cheapest.
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
from .cube import CubeSchema, DetailedCube, Measure, load_cube
from .errors import CubeLensError
from .hierarchy import (
    Dimension,
    Level,
    anc,
    dimension_from_member_rows,
    dimension_from_tables,
    validate_hierarchy,
)
from .mqo import build_plan, reaggregate, run_strategy
from .parser import AnalyzeStatement, parse
from .query import (
    CellSet,
    CubeQuery,
    SelectionAtom,
    SelectionCondition,
    cell_sets_equal,
    cube_usable,
    execute_query,
)
from .selector import (
    CostStats,
    SelectorConfig,
    StrategyChoice,
    choose_plan,
    choose_strategy,
    estimate_plans,
    estimate_stats,
    route_roles,
)
from .synth import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "AnalyzeQuery", "AnalyzeResult", "FacilitatorSet", "build_facilitators",
    "derive_drilldown", "derive_sibling", "from_statement",
    "TimingBreakdown", "WorkloadSpec", "run_analyze", "run_workload",
    "CubeSchema", "DetailedCube", "Measure", "load_cube",
    "CubeLensError",
    "Dimension", "Level", "anc", "dimension_from_member_rows",
    "dimension_from_tables", "validate_hierarchy",
    "build_plan", "reaggregate", "run_strategy",
    "AnalyzeStatement", "parse",
    "CellSet", "CubeQuery", "SelectionAtom", "SelectionCondition",
    "cell_sets_equal", "cube_usable", "execute_query",
    "CostStats", "SelectorConfig", "StrategyChoice", "choose_plan", "choose_strategy",
    "estimate_plans", "estimate_stats", "route_roles",
    "SynthSpec", "generate",
]
