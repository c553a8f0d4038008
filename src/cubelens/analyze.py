"""The ANALYZE operator: one request expands into five facilitator queries.

Given a two-grouper aggregate request, the operator derives:

* the original query itself,
* one sibling query per grouper dimension that widens that dimension's
  filter to the parent value and regroups at the former filter level
  (putting the filtered value in the context of its peers), and
* one drill-down query per grouper dimension that moves that grouper one
  level deeper.

Sibling/drill-down slots that cannot be derived (no filter atom, filter at
ALL, grouper already most detailed) degrade to explicit empty slots carrying
the reason; downstream execution treats them as no-ops.  All derivations are
pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .cube import DetailedCube
from .errors import (
    AlreadyMostDetailed,
    ConstraintViolation,
    NoFilterAtom,
    NoParentLevel,
)
from .hierarchy import Level
from .query import CellSet, CubeQuery, SelectionAtom, SelectionCondition

ROLES = ("org", "sibA", "sibB", "ddA", "ddB")

REASON_NO_FILTER_ATOM = "no filter atom"
REASON_FILTER_AT_ALL = "filter at ALL has no parent level"
REASON_MOST_DETAILED = "already most detailed"


def check_analyze_shape(groupers: Sequence[Level], atom_levels: Sequence[Level]) -> None:
    """The ANALYZE shape rules: two groupers from distinct dimensions, at most
    one atom per dimension, and no filter below its dimension's grouper.
    Raises ConstraintViolation."""
    if len(groupers) != 2:
        raise ConstraintViolation(f"ANALYZE takes exactly two groupers, got {len(groupers)}")
    if groupers[0].dimension_name == groupers[1].dimension_name:
        raise ConstraintViolation("the two groupers must come from distinct dimensions")
    by_dim: dict[str, Level] = {}
    for level in atom_levels:
        if level.dimension_name in by_dim:
            raise ConstraintViolation(f"two atoms on dimension {level.dimension_name}")
        by_dim[level.dimension_name] = level
    for g in groupers:
        level = by_dim.get(g.dimension_name)
        if level is not None and g.depth > level.depth:
            raise ConstraintViolation(f"filter on {level!r} sits below the grouper {g!r}")


@dataclass
class AnalyzeQuery:
    """A validated ANALYZE request: agg(measure) over exactly two groupers,
    with optional single-valued atoms on the grouper dimensions and an
    arbitrary conjunction over the others."""

    cube: DetailedCube
    condition: SelectionCondition
    groupers: tuple[Level, Level]
    measure_name: str
    measure_alias: str
    agg: str
    name: str = "analyze"

    def __post_init__(self):
        check_analyze_shape(self.groupers, [atom.level for atom in self.condition])
        self.cube.schema.measure(self.measure_name)  # raises UnknownMeasure
        for atom in self.condition:
            if not atom.is_single():
                raise ConstraintViolation(
                    f"ANALYZE atoms are single-valued; {atom.dimension_name} has "
                    f"{len(atom.values)} values"
                )

    def grouper(self, which: str) -> Level:
        return self.groupers[_which_index(which)]

    def atom(self, which: str) -> Optional[SelectionAtom]:
        return self.condition.atom_for(self.grouper(which).dimension_name)

    def original_query(self) -> CubeQuery:
        return CubeQuery(self.cube, self.condition, tuple(self.groupers),
                         self.measure_name, f"{self.measure_alias}_org", self.agg)


def _which_index(which) -> int:
    if which in (0, "alpha", "a", "A"):
        return 0
    if which in (1, "beta", "b", "B"):
        return 1
    raise ValueError(f"which must be 'alpha' or 'beta', got {which!r}")


@dataclass
class FacilitatorSlot:
    """One facilitator: either a runnable query or an empty slot + reason."""

    role: str
    query: Optional[CubeQuery] = None
    reason: Optional[str] = None

    @property
    def empty(self) -> bool:
        return self.query is None


@dataclass
class FacilitatorSet:
    """The five facilitators of one request: the only derivation of its
    structure, which merged bases, the selector and the strategies read."""

    request: AnalyzeQuery
    org: FacilitatorSlot
    sib_a: FacilitatorSlot
    sib_b: FacilitatorSlot
    dd_a: FacilitatorSlot
    dd_b: FacilitatorSlot

    def slots(self) -> dict[str, FacilitatorSlot]:
        return {"org": self.org, "sibA": self.sib_a, "sibB": self.sib_b,
                "ddA": self.dd_a, "ddB": self.dd_b}

    @property
    def missing(self) -> tuple[str, ...]:
        """Roles that could not be derived (empty slots)."""
        return tuple(role for role, slot in self.slots().items() if slot.empty)

    @cached_property
    def widened_condition(self) -> SelectionCondition:
        """The original condition with the widened atom of every derived
        sibling: the region of the all-encompassing query."""
        return self.widened(("sibA", "sibB"))

    def widened(self, roles) -> SelectionCondition:
        """The original condition with the widened atom of each derived
        sibling among ``roles``."""
        atoms = dict(self.request.condition.by_dimension)
        slots = self.slots()
        for g, role in zip(self.request.groupers, ("sibA", "sibB")):
            if role in roles and not slots[role].empty:
                atoms[g.dimension_name] = slots[role].query.condition.atom_for(g.dimension_name)
        return SelectionCondition(atoms.values())


@dataclass
class SlotResult:
    cells: Optional[CellSet] = None
    reason: Optional[str] = None
    exec_ns: int = 0


@dataclass
class AnalyzeResult:
    """Five facilitator results plus execution metadata.  Timing is filled
    by the command layer that drove the run."""

    slots: dict[str, SlotResult]
    strategy_requested: str
    strategy_used: str
    store_queries: int
    postprocess_ns: int = 0
    merged_exec_ns: int = 0
    fallback_reason: Optional[str] = None
    timing: object = None
    selector: object = None
    stats: object = None
    # Roles answered from a cuboid of the lattice, with the cuboid's levels.
    cuboids: dict[str, tuple[Level, ...]] = field(default_factory=dict)

    def facilitator_exec_ns(self) -> int:
        return self.merged_exec_ns + sum(s.exec_ns for s in self.slots.values())


# ---------------------------------------------------------------------------
# Facilitator derivation
# ---------------------------------------------------------------------------

def derive_sibling(aq: AnalyzeQuery, which) -> CubeQuery:
    """Sibling query for one grouper dimension: widen that dimension's atom
    to parent_level(filter level) = anc(filter value) and group at the
    former filter level."""
    idx = _which_index(which)
    dim_name = aq.groupers[idx].dimension_name
    atom = aq.condition.atom_for(dim_name)
    if atom is None:
        raise NoFilterAtom(f"no filter atom on grouper dimension {dim_name}")
    if atom.level.is_all:
        raise NoParentLevel(f"filter level {atom.level!r} has no parent")
    dim = aq.cube.schema.dimension(dim_name)
    parent = dim.parent_level(atom.level)
    widened = SelectionAtom(parent, (dim.anc_array(atom.level.depth, parent.depth)
                                     .item(atom.values[0]),))
    condition = aq.condition.replacing(dim_name, widened)
    groupers = list(aq.groupers)
    groupers[idx] = atom.level
    role = "sibA" if idx == 0 else "sibB"
    return CubeQuery(aq.cube, condition, tuple(groupers),
                     aq.measure_name, f"{aq.measure_alias}_{role}", aq.agg)


def derive_drilldown(aq: AnalyzeQuery, which) -> CubeQuery:
    """Drill-down query: the original with one grouper moved one level down."""
    idx = _which_index(which)
    grouper = aq.groupers[idx]
    if grouper.depth == 0:
        raise AlreadyMostDetailed(f"grouper {grouper!r} is already the most detailed level")
    dim = aq.cube.schema.dimension(grouper.dimension_name)
    groupers = list(aq.groupers)
    groupers[idx] = dim.child_level(grouper)
    role = "ddA" if idx == 0 else "ddB"
    return CubeQuery(aq.cube, aq.condition, tuple(groupers),
                     aq.measure_name, f"{aq.measure_alias}_{role}", aq.agg)


def _try_slot(role: str, derive, aq: AnalyzeQuery, which: str) -> FacilitatorSlot:
    try:
        return FacilitatorSlot(role, query=derive(aq, which))
    except NoFilterAtom:
        return FacilitatorSlot(role, reason=REASON_NO_FILTER_ATOM)
    except NoParentLevel:
        return FacilitatorSlot(role, reason=REASON_FILTER_AT_ALL)
    except AlreadyMostDetailed:
        return FacilitatorSlot(role, reason=REASON_MOST_DETAILED)


def build_facilitators(aq: AnalyzeQuery) -> FacilitatorSet:
    """Assemble the original plus the two siblings and two drill-downs,
    degrading underivable slots to empty-with-reason."""
    return FacilitatorSet(
        request=aq,
        org=FacilitatorSlot("org", query=aq.original_query()),
        sib_a=_try_slot("sibA", derive_sibling, aq, "alpha"),
        sib_b=_try_slot("sibB", derive_sibling, aq, "beta"),
        dd_a=_try_slot("ddA", derive_drilldown, aq, "alpha"),
        dd_b=_try_slot("ddB", derive_drilldown, aq, "beta"),
    )


def from_statement(stmt, cube: DetailedCube) -> AnalyzeQuery:
    """Bind a parsed ANALYZE statement to a loaded cube."""
    measure = cube.schema.measure(stmt.measure)
    condition = SelectionCondition(
        SelectionAtom(atom.level, (atom.code,)) for atom in stmt.atoms
    )
    return AnalyzeQuery(
        cube=cube,
        condition=condition,
        groupers=stmt.groupers,
        measure_name=measure.name,
        measure_alias=stmt.alias or measure.name,
        agg=stmt.agg,
        name=stmt.name or "analyze",
    )
