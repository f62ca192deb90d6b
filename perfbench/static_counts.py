"""Static counts of the program's sources, printed next to the metrics.

Per module: physical lines, code lines (not blank, not comment-only, not
docstrings), third-party call sites: call expressions whose callee is an
attribute of an imported `sympy`, `mpmath` or `numpy` module alias
(`sympy.factorint(...)`, `np.array(...)`, `mpmath.mpf(...)`), and
third-party uses: every attribute chain rooted at such an alias, called or
not (`map(sympy.Rational, ...)` is a use but not a call site).
"""

from __future__ import annotations

import ast
import os

THIRD_PARTY = ("sympy", "mpmath", "numpy")


def _aliases(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] in THIRD_PARTY:
                    names.add(a.asname or a.name.split(".")[0])
    return names


def _root_name(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def static_counts(src_dir: str) -> dict[str, tuple[int, int, int, int]]:
    """module -> (lines, code lines, third-party call sites, third-party uses)."""
    pkg = os.path.join(src_dir, "quadpencil")
    out = {}
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(pkg, fname)) as fh:
            text = fh.read()
        tree = ast.parse(text)
        aliases = _aliases(tree)
        calls = sum(
            1 for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and _root_name(node.func) in aliases
        )
        uses = sum(
            1 for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        )
        doc = _docstring_lines(tree)
        lines = text.splitlines()
        code = sum(
            1 for i, line in enumerate(lines, 1)
            if line.strip() and not line.strip().startswith("#") and i not in doc
        )
        out[fname[:-3]] = (len(lines), code, calls, uses)
    return out
