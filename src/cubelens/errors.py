"""Exception hierarchy for the cube engine.

Everything raised on purpose derives from CubeLensError so callers (and the
CLI) can separate engine failures from genuine bugs.
"""


class CubeLensError(Exception):
    """Base class for all engine errors."""


# --- hierarchy / dictionary errors -----------------------------------------

class UnknownLevel(CubeLensError):
    pass


class AmbiguousLevel(CubeLensError):
    pass


class UnknownMember(CubeLensError):
    pass


class UnknownMemberLabel(UnknownMember):
    """A fact row references a member label absent from its dimension."""


class LevelOrderViolation(CubeLensError):
    """Ancestor/descendant navigation requested in the wrong direction."""


class NoParentLevel(CubeLensError):
    """The level is ALL and has no parent to climb to."""


class AlreadyMostDetailed(CubeLensError):
    """The level is at depth 0 and cannot be drilled into."""


# --- cube store errors ------------------------------------------------------

class UnknownDimension(CubeLensError):
    pass


class UnknownMeasure(CubeLensError):
    pass


class SchemaMismatch(CubeLensError):
    """File columns do not line up with the declared schema."""


class ParseError(CubeLensError):
    """Malformed CSV/JSON input data."""


# --- query errors -----------------------------------------------------------

class InvalidQuery(CubeLensError):
    pass


class ConstraintViolation(CubeLensError):
    """A structurally valid statement breaks an operator constraint."""


class UsabilityViolation(CubeLensError):
    """Reaggregation was requested for a pair of queries that is not usable."""

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class NoFilterAtom(CubeLensError):
    """Sibling derivation needs a filter atom on the grouper dimension."""


class DegradedStructure(CubeLensError):
    """The all-encompassing merged query cannot be built for this request."""


class InvalidSpec(CubeLensError):
    """Synthetic dataset specification is not sane."""


class AnalyzeSyntaxError(CubeLensError):
    """Syntax error in an ANALYZE statement, with position information."""

    def __init__(self, message, offset, line, col, expected=()):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.offset = offset
        self.line = line
        self.col = col
        self.expected = tuple(expected)
