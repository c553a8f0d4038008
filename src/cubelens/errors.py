"""Exception hierarchy for the cube engine.

Everything raised on purpose derives from CubeLensError so callers (and the
CLI) can separate engine failures from genuine bugs.  Each class carries the
CLI's exit code for it: 2 for a data-file problem, 3 for a statement that
names or says something wrong, 4 for anything that fails in execution.
"""


class CubeLensError(Exception):
    """Base class for all engine errors."""

    exit_code = 4


# --- hierarchy / dictionary errors -----------------------------------------

class UnknownLevel(CubeLensError):
    exit_code = 3


class AmbiguousLevel(CubeLensError):
    exit_code = 3


class UnknownMember(CubeLensError):
    exit_code = 3


class UnknownMemberLabel(UnknownMember):
    """A fact row references a member label absent from its dimension: a
    data-file problem, unlike the unknown members a statement names."""

    exit_code = 2


class LevelOrderViolation(CubeLensError):
    """Ancestor/descendant navigation requested in the wrong direction."""


class NoParentLevel(CubeLensError):
    """The level is ALL and has no parent to climb to."""


class AlreadyMostDetailed(CubeLensError):
    """The level is at depth 0 and cannot be drilled into."""


# --- cube store errors ------------------------------------------------------

class UnknownDimension(CubeLensError):
    exit_code = 3


class UnknownMeasure(CubeLensError):
    exit_code = 3


class SchemaMismatch(CubeLensError):
    """File columns do not line up with the declared schema."""

    exit_code = 2


class ParseError(CubeLensError):
    """Malformed CSV/JSON input data."""

    exit_code = 2


# --- query errors -----------------------------------------------------------

class InvalidQuery(CubeLensError):
    pass


class ConstraintViolation(CubeLensError):
    """A structurally valid statement breaks an operator constraint."""

    exit_code = 3


class UsabilityViolation(CubeLensError):
    """Reaggregation was requested for a pair of queries that is not usable."""

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class SumOverflow(CubeLensError):
    """An integer sum's true value leaves the int64 range."""


class NoFilterAtom(CubeLensError):
    """Sibling derivation needs a filter atom on the grouper dimension."""


class InvalidSpec(CubeLensError):
    """Synthetic dataset specification is not sane."""

    exit_code = 2


class AnalyzeSyntaxError(CubeLensError):
    """Syntax error in an ANALYZE statement, with position information."""

    exit_code = 3

    def __init__(self, message, offset, line, col, expected=()):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.offset = offset
        self.line = line
        self.col = col
        self.expected = tuple(expected)
