"""Plan choice for strategy 'auto': a cost model over the plans, or the
paper's coverage/imbalance rule.

Both read exact region sizes, which estimate_stats counts once per request
into its CostStats: the fact rows matched by the detailed filter regions of
the original query, the two sibling queries and the all-encompassing query
(DetailedCube.condition_count: slice sizes of the row index, count cuboids,
the rows an index slice keeps, or the popcount of the condition's bitset).
The regions are the slot conditions of the request's FacilitatorSet, and
the sibling union is counted from the other three, without a union mask.

The cost rule (the default) builds each strategy's plan once
(mqo.build_plan), predicts its time and returns the cheapest plan, which
the executor then runs; all three plans are candidates on every request
that scans.  When every role is answered from a cuboid the three plans are
the same, so one is built, and each is predicted at its cuboids' cost.
A plan's time is the sum over the fact scans it lists (its merged base and
every facilitator it scans directly) plus a constant per role it derives
from the base.  A scan costs a constant, its row selection, its rows at the
per-row cost of the fold path it will take (dense, or a sort at rows *
log2(rows)), a gather cost per row that grows as its region thins out, and
its key space once per chunk for the dense buffers.  Row selection costs a
pass over the cube's full bitset, or, on the index path, a constant plus a
constant per row of the index slice it reads.  The selection path, the
fold path and the chunk count come from the functions the scan itself runs
(DetailedCube.index_slice, aggregate.fold_path, query.scan_chunks), so the
model cannot drift from the kernel.  A scan's rows are its region's count
in CostStats (_region_rows): no count is taken, no mask built and no fact
read beyond what estimate_stats does.

Before either rule, 'auto' routes roles to the cube's cuboid lattice
(route_roles): a role whose smallest usable cuboid is predicted cheaper than
its own scan is answered from that cuboid, at DERIVE_NS plus a constant per
cuboid cell, and every candidate plan covers only the remaining roles.  The
lattice finds that cuboid in a table of each level vector's smallest one,
and a cuboid cheaper than the scan's row selection alone is routed before
the rest of the scan is priced.  Region sizes come from count cuboids too
(DetailedCube.condition_count), so a request the lattice covers builds no
bitset.

The paper rule (choose_strategy, rule="paper") picks Max-MQO only when the
sibling regions jointly cover a large share of the all-encompassing region
(they overlap enough for the single scan to pay off) and the two sibling
regions are not too imbalanced; everything else runs Mid-MQO.  It never
picks Min-MQO.

When a sibling cannot be derived (no filter atom, or a filter at ALL), the
widening is vacuous and that region falls back to the original condition's
region; the slot is flagged as degraded, as is "all" whenever any
facilitator is missing, and the paper rule then stays on Mid-MQO (Max-MQO
would still run, on a base that merges the facilitators that exist).  This
keeps the containment chain facts_org <= facts_sA/facts_sB <= facts_A <=
row_count valid for every query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .aggregate import fold_path
from .analyze import ROLES, FacilitatorSet
from .mqo import STRATEGIES, Plan, build_plan
from .query import CubeQuery, scan_chunks

DEFAULT_COVERAGE_THRESHOLD = 0.40
DEFAULT_IMBALANCE_THRESHOLD = 0.45
RULES = ("cost", "paper")

# The cost model, in ns.  Fitted once by non-negative least squares on the
# relative error of forced-plan timings (exec + derive, hot masks, best of 5,
# 2 CPUs): the ten sweep statements and 72 explore-cold statements (seed
# 7001), each under min, mid and max, on SWEEP_SPEC at 2M, 500K and 100K
# facts; 738 plan timings.  CHANGES.md records the fit and its data.
SCAN_NS = 22_000.0       # per scan
MASK_ROW_NS = 0.48       # per fact of the cube: the pass over the scan's bitset
INDEX_NS = 35_000.0      # per index-path scan, on top of SCAN_NS, and
SLICE_ROW_NS = 8.75      # per row of the slice it reads, filters and sorts:
                         # least squares on the log error of 963 index-path
                         # scans, the other constants fixed (CHANGES.md)
DENSE_ROW_NS = 13.5      # per selected row folded densely
SORT_ROW_NS = 13.4       # per selected row and log2(rows) folded by a sort
SPACE_NS = 5.2           # per key of the key space, per chunk: dense buffers
SPARSE_ROW_NS = 23.6     # per selected row times the share of facts outside the
                         # region: gathers from a sparse region miss the cache
DERIVE_NS = 111_000.0    # per role derived from the merged base
CUBOID_CELL_NS = 4.46    # per cell of the cuboid a role is answered from, on top
                         # of DERIVE_NS: least squares on the absolute error of
                         # 1050 reaggregate timings from cuboids, atom hits cold
                         # (CHANGES.md), so large cuboids, where the slope
                         # decides a route, weigh most


@dataclass
class SelectorConfig:
    """rule 'cost' runs the plan predicted cheapest; rule 'paper' applies
    the coverage/imbalance thresholds."""

    coverage_threshold: float = DEFAULT_COVERAGE_THRESHOLD
    imbalance_threshold: float = DEFAULT_IMBALANCE_THRESHOLD
    rule: str = "cost"

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown selector rule {self.rule!r}")


@dataclass
class CostStats:
    """Fact rows touched by the facilitator filter regions."""

    facts_org: int
    facts_sib_a: int
    facts_sib_b: int
    facts_all: int
    sibling_union: int
    row_count: int
    degraded: tuple[str, ...] = ()  # facilitator roles whose structure is missing

    @property
    def complete(self) -> bool:
        return not self.degraded


@dataclass
class StrategyChoice:
    chosen: str  # 'min' | 'mid' | 'max'
    sibling_coverage: float
    sibling_imbalance: float
    reason: str
    predicted_ms: dict[str, float] = field(default_factory=dict)  # per candidate plan
    plan: Optional[Plan] = None  # the chosen plan (set by choose_plan)


def estimate_stats(fs: FacilitatorSet) -> CostStats:
    """Exact region sizes via DetailedCube.condition_count, each counted once."""
    count = fs.request.cube.condition_count
    facts_org = count(fs.org.query.condition)
    facts_a = facts_org if fs.sib_a.empty else count(fs.sib_a.query.condition)
    facts_b = facts_org if fs.sib_b.empty else count(fs.sib_b.query.condition)
    # Each sibling widens one atom and keeps the other, so the two regions
    # intersect exactly in the original's region.
    union = facts_a + facts_b - facts_org
    degraded = ("sibA",) * fs.sib_a.empty + ("sibB",) * fs.sib_b.empty
    # with a sibling missing, the all-encompassing region is the other's: the union
    facts_all = union if degraded else count(fs.widened_condition)
    return CostStats(facts_org, facts_a, facts_b, facts_all, union, fs.request.cube.row_count,
                     degraded + (("all",) if fs.missing else ()))


def choose_strategy(stats: CostStats, config: Optional[SelectorConfig] = None) -> StrategyChoice:
    """Max iff sibling coverage > threshold and sibling imbalance < threshold;
    Mid otherwise (and always Mid when the merged structure is missing or
    the stats are degenerate)."""
    config = config or SelectorConfig()
    if not stats.complete:
        return StrategyChoice("mid", 0.0, 0.0,
                              f"degraded structure ({', '.join(stats.degraded)})")
    if stats.facts_all == 0:
        return StrategyChoice("mid", 0.0, 0.0, "degenerate stats: empty all-encompassing region")

    coverage, imbalance = _overlap(stats)
    if coverage > config.coverage_threshold and imbalance < config.imbalance_threshold:
        return StrategyChoice("max", coverage, imbalance,
                              f"coverage {coverage:.2f} > {config.coverage_threshold:.2f} and "
                              f"imbalance {imbalance:.2f} < {config.imbalance_threshold:.2f}")
    return StrategyChoice("mid", coverage, imbalance,
                          f"coverage {coverage:.2f} / imbalance {imbalance:.2f} "
                          f"outside the Max-MQO region")


def _overlap(stats: CostStats) -> tuple[float, float]:
    """Sibling coverage of the all-encompassing region, and sibling imbalance."""
    coverage = stats.sibling_union / stats.facts_all if stats.facts_all else 0.0
    hi = max(stats.facts_sib_a, stats.facts_sib_b)
    lo = min(stats.facts_sib_a, stats.facts_sib_b)
    return coverage, 0.0 if hi == 0 else 1.0 - lo / hi


# ---------------------------------------------------------------------------
# The cost model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanEstimate:
    """One predicted scan: its selected rows, the chunks it folds in, the
    fold path they take (None for an empty region, which folds nothing) and
    its predicted time."""

    query: CubeQuery
    rows: int
    chunks: int
    path: Optional[str]
    ns: float


@dataclass(frozen=True)
class PlanEstimate:
    plan: Plan
    scans: tuple[ScanEstimate, ...]  # one per plan.scans, in order

    @property
    def ms(self) -> float:
        return (sum(scan.ns for scan in self.scans) + DERIVE_NS * len(self.plan.derived)
                + sum(_cuboid_ns(route) for route in self.plan.cuboids.values())) / 1e6


def _cuboid_ns(route) -> float:
    """The predicted cost of answering a role from the cuboid of ``route``."""
    return DERIVE_NS + CUBOID_CELL_NS * len(route.cells)


def _selection_ns(q: CubeQuery) -> float:
    """The predicted cost of a scan of q before it folds a row: its constant
    and its row selection, on the path execute_query selects rows by.  The
    least the scan can cost, known without its region's count."""
    pick = q.cube.index_slice(q.condition)
    return SCAN_NS + (MASK_ROW_NS * q.cube.row_count if pick is None
                      else INDEX_NS + SLICE_ROW_NS * pick[1])


def _region_rows(stats: CostStats, roles) -> int:
    """The rows a scan answering ``roles`` selects: the original's region,
    widened by each sibling among them."""
    regions = (stats.facts_org, stats.facts_sib_a, stats.facts_sib_b, stats.facts_all)
    return regions[("sibA" in roles) + 2 * ("sibB" in roles)]


def _estimate_scan(q: CubeQuery, rows: int) -> ScanEstimate:
    """The predicted cost of execute_query(q) over its region's ``rows``."""
    ns = _selection_ns(q)
    if rows == 0:
        return ScanEstimate(q, 0, 0, None, ns)
    layout = q.scan_layout
    space = None if layout is None else layout[1]
    chunks = 1 if space is None else scan_chunks(q, rows, space)
    path = fold_path(rows // chunks, space)  # equal chunks take one path
    if path == "dense":
        ns += DENSE_ROW_NS * rows + SPACE_NS * space * chunks
    else:
        ns += SORT_ROW_NS * rows * math.log2(rows)
    ns += SPARSE_ROW_NS * rows * (1.0 - rows / q.cube.row_count)
    return ScanEstimate(q, rows, chunks, path, ns)


def route_roles(fs: FacilitatorSet, stats: CostStats) -> dict:
    """The roles 'auto' answers from the cube's lattice: each non-empty role
    whose smallest usable cuboid is predicted cheaper than scanning it;
    role -> lattice.Route."""
    lattice = fs.request.cube.lattice
    routed = {}
    for role, slot in fs.slots().items():
        if slot.empty:
            continue
        route = lattice.route(slot.query)
        if route is None:
            continue
        ns = _cuboid_ns(route)
        if ns < _selection_ns(slot.query) or ns < _estimate_scan(
                slot.query, _region_rows(stats, (role,))).ns:
            routed[role] = route
    return routed


def estimate_plans(fs: FacilitatorSet, stats: CostStats,
                   cuboids: Optional[dict] = None) -> dict[str, PlanEstimate]:
    """Every strategy's plan over the roles not in ``cuboids`` (see
    route_roles), priced over exactly the scans it lists."""
    plans = [build_plan(name, fs, cuboids) for name in STRATEGIES]
    # each scan with the roles it answers (Min and Mid share siblings)
    unique = {id(q): (q, roles) for plan in plans for q, roles in zip(
        plan.scans, [plan.derived] * (plan.base is not None) + [(r,) for r in plan.scanned])}
    scans = {key: _estimate_scan(q, _region_rows(stats, roles))
             for key, (q, roles) in unique.items()}
    return {plan.name: PlanEstimate(plan, tuple(scans[id(q)] for q in plan.scans))
            for plan in plans}


def choose_plan(fs: FacilitatorSet, stats: CostStats,
                config: Optional[SelectorConfig] = None,
                cuboids: Optional[dict] = None) -> StrategyChoice:
    """The plan 'auto' runs: under the cost rule the plan predicted
    cheapest, under the paper rule choose_strategy's pick.  Either way the
    choice carries the chosen plan and every candidate's predicted time.
    The roles in ``cuboids`` (route_roles) are answered from the lattice
    by every candidate; without them the three fact plans are priced."""
    config = config or SelectorConfig()
    if config.rule == "cost" and cuboids and len(cuboids) + len(fs.missing) == len(ROLES):
        # Every plan answers every role from its cuboid and scans nothing:
        # the plans are the same, and so are their predictions.
        plan = build_plan(STRATEGIES[0], fs, cuboids)
        choice = StrategyChoice(plan.name, *_overlap(stats),
                                "every role from cuboids: no plan scans, so they tie")
        choice.predicted_ms = dict.fromkeys(STRATEGIES, PlanEstimate(plan, ()).ms)
        choice.plan = plan
        return choice
    plans = estimate_plans(fs, stats, cuboids)
    predicted = {name: estimate.ms for name, estimate in plans.items()}
    if config.rule == "paper":
        choice = choose_strategy(stats, config)
    else:
        best, runner_up = sorted(predicted, key=predicted.get)[:2]
        choice = StrategyChoice(best, *_overlap(stats),
                                f"predicted {best} {predicted[best]:.2f} ms < "
                                f"{runner_up} {predicted[runner_up]:.2f} ms")
    choice.predicted_ms = predicted
    choice.plan = plans[choice.chosen].plan
    return choice
