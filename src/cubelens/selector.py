"""Statistics-driven choice between Max-MQO and Mid-MQO.

The costs that matter are fact-table touches.  We count, exactly, the rows
matched by the detailed filter regions of the original query, the two
sibling queries and the all-encompassing query (popcounts cached with the
filter bitsets, which the subsequent execution reuses).  The regions
are the slot conditions of the request's FacilitatorSet, and the sibling
union is counted from the other three, without a union mask.  Max-MQO is
picked only when the sibling regions jointly cover a large share of the
all-encompassing region (they overlap enough for the single scan to pay off)
and the two sibling regions are not too imbalanced.  Everything else runs
Mid-MQO.  Min-MQO is never auto-selected; it exists as an explicit override
and as the correctness oracle.

When a sibling cannot be derived (no filter atom, or a filter at ALL), the
widening is vacuous and that region falls back to the original condition's
region; the slot is flagged as degraded, as is "all" whenever any
facilitator is missing, and the selector then stays on Mid-MQO.  This keeps
the containment chain facts_org <= facts_sA/facts_sB <= facts_A <= row_count
valid for every query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analyze import FacilitatorSet

DEFAULT_COVERAGE_THRESHOLD = 0.40
DEFAULT_IMBALANCE_THRESHOLD = 0.45


@dataclass
class SelectorConfig:
    coverage_threshold: float = DEFAULT_COVERAGE_THRESHOLD
    imbalance_threshold: float = DEFAULT_IMBALANCE_THRESHOLD
    enabled: bool = True


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


def estimate_stats(fs: FacilitatorSet) -> CostStats:
    """Exact region sizes via cached filter bitsets; no sampling."""
    org = fs.org.query.condition
    cond_a = org if fs.sib_a.empty else fs.sib_a.query.condition
    cond_b = org if fs.sib_b.empty else fs.sib_b.query.condition
    cube = fs.request.cube

    def count(condition) -> int:
        return cube.condition_count(condition.mask_atoms())

    facts_org, facts_a, facts_b = count(org), count(cond_a), count(cond_b)
    missing = fs.missing
    degraded = tuple(role for role in ("sibA", "sibB") if role in missing)
    return CostStats(
        facts_org=facts_org,
        facts_sib_a=facts_a,
        facts_sib_b=facts_b,
        facts_all=count(fs.widened_condition()),
        # Each sibling widens one atom and keeps the other, so the two
        # regions intersect exactly in the original's region.
        sibling_union=facts_a + facts_b - facts_org,
        row_count=cube.row_count,
        degraded=degraded + (("all",) if missing else ()),
    )


def choose_strategy(stats: CostStats, config: Optional[SelectorConfig] = None) -> StrategyChoice:
    """Max iff sibling coverage > threshold and sibling imbalance < threshold;
    Mid otherwise (and always Mid when the selector is disabled, the merged
    structure is missing, or the stats are degenerate)."""
    config = config or SelectorConfig()
    if not config.enabled:
        return StrategyChoice("mid", 0.0, 0.0, "selector disabled")
    if not stats.complete:
        return StrategyChoice("mid", 0.0, 0.0,
                              f"degraded structure ({', '.join(stats.degraded)})")
    if stats.facts_all == 0:
        return StrategyChoice("mid", 0.0, 0.0, "degenerate stats: empty all-encompassing region")

    coverage = stats.sibling_union / stats.facts_all
    hi = max(stats.facts_sib_a, stats.facts_sib_b)
    lo = min(stats.facts_sib_a, stats.facts_sib_b)
    imbalance = 0.0 if hi == 0 else 1.0 - lo / hi

    if coverage > config.coverage_threshold and imbalance < config.imbalance_threshold:
        return StrategyChoice("max", coverage, imbalance,
                              f"coverage {coverage:.2f} > {config.coverage_threshold:.2f} and "
                              f"imbalance {imbalance:.2f} < {config.imbalance_threshold:.2f}")
    return StrategyChoice("mid", coverage, imbalance,
                          f"coverage {coverage:.2f} / imbalance {imbalance:.2f} "
                          f"outside the Max-MQO region")
