"""The README's Python examples import only names the package exports."""

import ast
import re
from pathlib import Path

import cubelens

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_imports_are_exported():
    imported = [alias.name
                for block in _python_blocks()
                for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "cubelens"
                for alias in node.names]
    assert imported  # the examples still import from the package root
    assert [name for name in imported if name not in cubelens.__all__] == []
    assert all(hasattr(cubelens, name) for name in cubelens.__all__)
