"""Layout guard: which source modules may use which third-party packages."""

import ast
import pathlib

import quadpencil

SRC = pathlib.Path(quadpencil.__file__).parent

# The one module allowed to import each third-party package.
OWNERS = {"sympy": "exact.py", "numpy": "localarith.py"}


def test_third_party_owners_and_no_evaluation():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [(node.module or "").split(".")[0]] if not node.level else []
            else:
                roots = []
            for root in roots:
                assert OWNERS.get(root, path.name) == path.name, f"{path.name} imports {root}"
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                assert name not in ("eval", "exec", "sympify"), f"{path.name} calls {name}"
