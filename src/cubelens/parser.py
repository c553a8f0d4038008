"""Recursive-descent parser for the textual ANALYZE syntax.

Grammar (keywords case-insensitive, '∧' accepted for AND):

    ANALYZE aggfn '(' measure ')' [AS alias]
    FROM cube
    FOR atom (AND atom)*
    GROUP BY level ',' level
    [AS name]

    atom  := level '=' value
    level := IDENT | IDENT '.' IDENT          (bare names must be unambiguous)
    value := quoted string | bare word        (member labels match exactly)

Level and dimension identifiers resolve case-insensitively against the
loaded schema; member labels are case-sensitive.  Errors carry the byte
offset, line and column plus expected-token hints, and render as
"line:col: message".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .aggregate import AGG_FUNCTIONS
from .analyze import check_analyze_shape
from .cube import CubeSchema
from .errors import (
    AnalyzeSyntaxError,
    ConstraintViolation,
)
from .hierarchy import Level

KEYWORDS = {"analyze", "as", "from", "for", "and", "group", "by", "in"}

# Every match is one token after any whitespace: a quoted value, a word, a
# symbol, the end of the text, or a character no token starts with.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
      (?P<quoted>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
    | (?P<word>[A-Za-z0-9_][A-Za-z0-9_.\-/]*)
    | (?P<sym>[(),=∧])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")  # a quoted value's escaped character


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, ending with one 'eof' token.  Text
    ending in whitespace matches the end twice, with the whitespace and
    after it; the first match ends the list."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        token = (kind, m.group(kind), m.start(kind))
        if kind == "bad":
            raise _syntax_error(text, f"unexpected character {token[1]!r}", token[2],
                                ("identifier", "quoted value"))
        tokens.append(token)
        if kind == "eof":
            break
    return tokens


def _syntax_error(text: str, message: str, offset: int, expected) -> AnalyzeSyntaxError:
    """The error at ``offset``, with its 1-based line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return AnalyzeSyntaxError(message, offset, text.count("\n", 0, offset) + 1,
                              offset - line_start + 1, expected=expected)


@dataclass(frozen=True)
class ParsedAtom:
    level: Level
    label: str
    code: int


@dataclass(frozen=True)
class AnalyzeStatement:
    """Resolved AST of one ANALYZE statement."""

    agg: str
    measure: str
    alias: Optional[str]
    cube_name: str
    atoms: tuple[ParsedAtom, ...]
    groupers: tuple[Level, Level]
    name: Optional[str]


class _Parser:
    def __init__(self, text: str, schema: CubeSchema):
        self.text = text
        self.schema = schema
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- plumbing ---------------------------------------------------------
    # Tokens are (kind, text, offset); each expect_* returns the text it
    # consumed.

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> str:
        kind, text, _ = self.tokens[self.pos]
        if kind != "eof":
            self.pos += 1
        return text

    def error(self, message: str, offset: int, expected=()):
        raise _syntax_error(self.text, message, offset, expected)

    # The expect_* and at_* checks read the token in place and step past a
    # word or symbol themselves: they run on every token of every request.

    def expect_keyword(self, *words: str) -> str:
        kind, text, offset = self.tokens[self.pos]
        if kind == "word" and text.lower() in words:
            self.pos += 1
            return text
        self.error(f"expected {' or '.join(w.upper() for w in words)}, got {text or 'end of input'!r}",
                   offset, expected=tuple(w.upper() for w in words))

    def expect_sym(self, sym: str) -> str:
        kind, text, offset = self.tokens[self.pos]
        if kind == "sym" and text == sym:
            self.pos += 1
            return text
        self.error(f"expected {sym!r}, got {text or 'end of input'!r}", offset, expected=(sym,))

    def expect_word(self, what: str) -> str:
        kind, text, offset = self.tokens[self.pos]
        if kind == "word" and text.lower() not in KEYWORDS:
            self.pos += 1
            return text
        self.error(f"expected {what}, got {text or 'end of input'!r}", offset, expected=(what,))

    def at_keyword(self, *words: str) -> bool:
        kind, text, _ = self.tokens[self.pos]
        return kind == "word" and text.lower() in words

    def at_sym(self, sym: str) -> bool:
        kind, text, _ = self.tokens[self.pos]
        return kind == "sym" and text == sym

    # -- grammar ----------------------------------------------------------

    def parse(self) -> AnalyzeStatement:
        self.expect_keyword("analyze")
        kind, text, offset = self.peek()
        if not (kind == "word" and text.lower() in AGG_FUNCTIONS):
            self.error(f"expected an aggregate function, got {text!r}",
                       offset, expected=AGG_FUNCTIONS)
        agg = self.advance().lower()
        self.expect_sym("(")
        measure = self.expect_word("a measure name")
        self.expect_sym(")")

        alias = None
        if self.at_keyword("as"):
            self.advance()
            alias = self.expect_word("a measure alias")

        self.expect_keyword("from")
        cube_name = self.expect_word("a cube name")
        if cube_name.lower() != self.schema.cube_name.lower():
            raise ConstraintViolation(
                f"unknown cube {cube_name!r} (loaded cube is {self.schema.cube_name!r})"
            )

        self.expect_keyword("for")
        atoms = [self.parse_atom()]
        while self.at_keyword("and") or self.at_sym("∧"):
            self.advance()
            atoms.append(self.parse_atom())

        self.expect_keyword("group")
        self.expect_keyword("by")
        groupers = [self.parse_level_ref("a grouper level")]
        while self.at_sym(","):
            self.advance()
            groupers.append(self.parse_level_ref("a grouper level"))

        name = None
        if self.at_keyword("as"):
            self.advance()
            name = self.expect_word("a query name")

        kind, text, offset = self.peek()
        if kind != "eof":
            self.error(f"unexpected trailing input {text!r}", offset, expected=("end of input",))

        return self.finish(agg, measure, alias, cube_name, atoms, groupers, name)

    def parse_level_ref(self, what: str) -> Level:
        return self.schema.resolve_level(self.expect_word(what))  # UnknownLevel / AmbiguousLevel

    def parse_atom(self) -> ParsedAtom:
        level = self.parse_level_ref("a filter level")
        if self.at_keyword("in"):
            raise ConstraintViolation(
                "multi-valued atoms are not allowed in ANALYZE conditions"
            )
        self.expect_sym("=")
        kind, text, offset = self.peek()
        if kind == "quoted":
            self.advance()
            label = text[1:-1]
            if "\\" in label:
                label = _ESCAPE_RE.sub(r"\1", label)
        elif kind == "word" and text.lower() not in KEYWORDS:
            label = self.advance()
        else:
            self.error(f"expected a member value, got {text or 'end of input'!r}",
                       offset, expected=("quoted value", "bare value"))
        dim = self.schema.dimension(level.dimension_name)
        code = dim.member_code(level, label)  # UnknownMember on bad labels
        return ParsedAtom(level, label, code)

    def finish(self, agg, measure, alias, cube_name, atoms, groupers, name) -> AnalyzeStatement:
        check_analyze_shape(groupers, [atom.level for atom in atoms])
        return AnalyzeStatement(agg, measure, alias, cube_name, tuple(atoms),
                                (groupers[0], groupers[1]), name)


def parse(text: str, schema: CubeSchema) -> AnalyzeStatement:
    """Parse one ANALYZE statement against the loaded schema."""
    return _Parser(text, schema).parse()
