"""The package runs on the oldest Python that pyproject.toml declares
(requires-python >= 3.10): every module parses as Python 3.10, and no
regular expression it compiles needs a later re module."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cubelens").glob("*.py"))
FLOOR = (3, 10)
# re functions whose first argument is a pattern
PATTERN_FUNCTIONS = {"compile", "match", "fullmatch", "search", "sub", "subn", "split",
                     "findall", "finditer"}


def needs_python_311_re(pattern: str) -> bool:
    """Whether ``pattern`` holds a possessive quantifier (``*+``, ``++``,
    ``?+``, ``{m,n}+``) or an atomic group ``(?>...)``, which Python's re
    accepts only from 3.11.  Escapes and character classes are skipped."""
    i, after_quantifier = 0, False
    while i < len(pattern):
        c = pattern[i]
        if c == "\\":
            i, after_quantifier = i + 2, False
            continue
        if c == "[":  # a class ends at the first "]" past its first member
            i += 2 if pattern.startswith("[^", i) else 1
            i = pattern.find("]", i + 1)
            if i < 0:
                return False
            i, after_quantifier = i + 1, False
            continue
        if pattern.startswith("(?>", i):
            return True
        if c == "+" and after_quantifier:
            return True
        if c in "*+?}":
            # "(?" opens a group, and "*?" is a lazy quantifier, not another one
            after_quantifier = not (c == "?" and (i == 0 or pattern[i - 1] in "(*+?}"))
        else:
            after_quantifier = False
        i += 1
    return False


def re_pattern_literals(tree: ast.AST):
    """(line, pattern) of every string literal passed as the pattern of a
    call of an ``re`` function."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.func.attr in PATTERN_FUNCTIONS and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            yield node.lineno, node.args[0].value


def test_the_checker_knows_the_311_forms():
    for pattern in (r"\s*+", r"a++", r"x?+", r"a{2,3}+", r"(?>ab)", r"[a]*+"):
        assert needs_python_311_re(pattern), pattern
    for pattern in (r"\s*", r"\++", r"[*+]+", r"a+?", r"a*?", r"(?:a)+", r"(?P<x>a)?",
                    r"[\]+]", r"a{2}", "\\\\+"):
        assert not needs_python_311_re(pattern), pattern


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_module_parses_and_compiles_on_the_floor(source):
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source),
                     feature_version=FLOOR)
    for line, pattern in re_pattern_literals(tree):
        assert not needs_python_311_re(pattern), f"{source.name}:{line}: {pattern!r}"
        re.compile(pattern)  # and it compiles here
