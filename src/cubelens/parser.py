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

from .analyze import check_analyze_shape
from .cube import CubeSchema
from .errors import (
    AnalyzeSyntaxError,
    ConstraintViolation,
)
from .hierarchy import Level

AGG_TOKENS = ("sum", "min", "max", "count")
KEYWORDS = {"analyze", "as", "from", "for", "and", "group", "by", "in"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<quoted>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<word>[A-Za-z0-9_][A-Za-z0-9_.\-/]*)
  | (?P<sym>[(),=∧])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'word' | 'quoted' | 'sym' | 'eof'
    text: str
    offset: int
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise AnalyzeSyntaxError(
                f"unexpected character {text[pos]!r}", pos, line, pos - line_start + 1,
                expected=("identifier", "quoted value"),
            )
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(Token(kind, chunk, pos, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", len(text), line, len(text) - line_start + 1))
    return tokens


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

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, token: Token, expected=()):
        raise AnalyzeSyntaxError(message, token.offset, token.line, token.col,
                                 expected=expected)

    def expect_keyword(self, *words: str) -> Token:
        tok = self.peek()
        if tok.kind == "word" and tok.text.lower() in words:
            return self.advance()
        self.error(f"expected {' or '.join(w.upper() for w in words)}, got {tok.text or 'end of input'!r}",
                   tok, expected=tuple(w.upper() for w in words))

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == sym:
            return self.advance()
        self.error(f"expected {sym!r}, got {tok.text or 'end of input'!r}", tok, expected=(sym,))

    def expect_word(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind == "word" and tok.text.lower() not in KEYWORDS:
            return self.advance()
        self.error(f"expected {what}, got {tok.text or 'end of input'!r}", tok, expected=(what,))

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.text.lower() in words

    # -- grammar ----------------------------------------------------------

    def parse(self) -> AnalyzeStatement:
        self.expect_keyword("analyze")
        agg_tok = self.peek()
        if not (agg_tok.kind == "word" and agg_tok.text.lower() in AGG_TOKENS):
            self.error(f"expected an aggregate function, got {agg_tok.text!r}",
                       agg_tok, expected=AGG_TOKENS)
        agg = self.advance().text.lower()
        self.expect_sym("(")
        measure = self.expect_word("a measure name").text
        self.expect_sym(")")

        alias = None
        if self.at_keyword("as"):
            self.advance()
            alias = self.expect_word("a measure alias").text

        self.expect_keyword("from")
        cube_tok = self.expect_word("a cube name")
        if cube_tok.text.lower() != self.schema.cube_name.lower():
            raise ConstraintViolation(
                f"unknown cube {cube_tok.text!r} (loaded cube is {self.schema.cube_name!r})"
            )

        self.expect_keyword("for")
        atoms = [self.parse_atom()]
        while True:
            tok = self.peek()
            if self.at_keyword("and") or (tok.kind == "sym" and tok.text == "∧"):
                self.advance()
                atoms.append(self.parse_atom())
            else:
                break

        self.expect_keyword("group")
        self.expect_keyword("by")
        groupers = [self.parse_level_ref("a grouper level")]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.advance()
            groupers.append(self.parse_level_ref("a grouper level"))

        name = None
        if self.at_keyword("as"):
            self.advance()
            name = self.expect_word("a query name").text

        tail = self.peek()
        if tail.kind != "eof":
            self.error(f"unexpected trailing input {tail.text!r}", tail, expected=("end of input",))

        return self.finish(agg, measure, alias, cube_tok.text, atoms, groupers, name)

    def parse_level_ref(self, what: str) -> Level:
        tok = self.expect_word(what)
        return self.schema.resolve_level(tok.text)  # UnknownLevel / AmbiguousLevel

    def parse_atom(self) -> ParsedAtom:
        level = self.parse_level_ref("a filter level")
        tok = self.peek()
        if tok.kind == "word" and tok.text.lower() == "in":
            raise ConstraintViolation(
                "multi-valued atoms are not allowed in ANALYZE conditions"
            )
        self.expect_sym("=")
        value_tok = self.peek()
        if value_tok.kind == "quoted":
            self.advance()
            label = re.sub(r"\\(.)", r"\1", value_tok.text[1:-1])
        elif value_tok.kind == "word" and value_tok.text.lower() not in KEYWORDS:
            self.advance()
            label = value_tok.text
        else:
            self.error(f"expected a member value, got {value_tok.text or 'end of input'!r}",
                       value_tok, expected=("quoted value", "bare value"))
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


def render(stmt: AnalyzeStatement) -> str:
    """Canonical text for a statement; re-parsing yields an identical AST."""
    parts = [f"ANALYZE {stmt.agg}({stmt.measure})"]
    if stmt.alias:
        parts.append(f"AS {stmt.alias}")
    parts.append(f"FROM {stmt.cube_name}")
    atom_texts = [
        f"{a.level.dimension_name}.{a.level.name} = '{_escape(a.label)}'" for a in stmt.atoms
    ]
    parts.append("FOR " + " AND ".join(atom_texts))
    parts.append("GROUP BY " + ", ".join(
        f"{g.dimension_name}.{g.name}" for g in stmt.groupers))
    if stmt.name:
        parts.append(f"AS {stmt.name}")
    return " ".join(parts)


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace("'", "\\'")
