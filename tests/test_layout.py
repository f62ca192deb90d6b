"""Layout guard: which source modules may use which third-party packages."""

import ast
import collections
import pathlib
import re

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


def test_every_function_has_a_caller():
    # every function and method defined in the package (dunders exempt) is
    # named somewhere other than its own definition, in src, tests or scripts
    root = SRC.parent.parent
    files = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "scripts").glob("*.py")]
    text = "\n".join(path.read_text() for path in files)
    defined = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
    words = collections.Counter(re.findall(r"\w+", text))
    definitions = collections.Counter(re.findall(r"\bdef\s+(\w+)", text))
    assert sorted(name for name in defined if words[name] <= definitions[name]) == []
