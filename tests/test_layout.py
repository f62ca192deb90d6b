"""Layout guard: which source modules may use which third-party packages."""

import ast
import importlib
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


DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _used_names(tree, literals=False) -> set[str]:
    """Identifiers a syntax tree uses: names, attributes and imported names;
    with literals, also each part of a string constant that is a dotted
    identifier, such as perfbench's "RatPoly.__mul__"."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif literals and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            out.update(node.value.split("."))
    return out


def _definitions():
    """(qualified name, name, names its code uses) for every function, method
    and class of the package, and the names its module-level code uses.  A
    class's own code is its bases, decorators and the statements of its body
    that are not definitions; a function nested in a function belongs to it."""
    defs, module_level = [], set()

    def visit(stmts, prefix):
        for node in stmts:
            qual = f"{prefix}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.ClassDef):
                own = [*node.bases, *node.keywords, *node.decorator_list]
                own += [b for b in node.body if not isinstance(b, DEFS)]
                defs.append((qual, node.name, set().union(*map(_used_names, own))))
                visit(node.body, qual)
            elif isinstance(node, DEFS):
                defs.append((qual, node.name, _used_names(node)))
            elif "." not in prefix and not isinstance(node, (ast.Import, ast.ImportFrom)):
                module_level.update(_used_names(node))

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()).body, path.stem)
    return defs, module_level


def _overrides_outside(qual: str) -> bool:
    """A method that overrides one of a base class outside the package (such
    as argparse's `error`) is called by that library, not by name."""
    module, *owner, name = qual.split(".")
    cls = importlib.import_module(f"quadpencil.{module}")
    for part in owner:
        cls = getattr(cls, part)
    return any(hasattr(base, name) for base in cls.__mro__[1:]
               if not base.__module__.startswith("quadpencil"))


def test_every_function_has_a_caller():
    # every function, method and class of the package is reachable by name
    # from the verbs (cli.main), module-level code, the scripts or the
    # benchmark; perfbench names the targets it wraps as strings.  Dunder
    # methods are reached with their class.
    root = SRC.parent.parent
    defs, live = _definitions()
    for path in (root / "scripts").glob("*.py"):
        live |= _used_names(ast.parse(path.read_text()))
    for path in (root / "perfbench").glob("*.py"):
        live |= _used_names(ast.parse(path.read_text()), literals=True)
    reached = {"cli.main"}
    live |= next(body for qual, _, body in defs if qual == "cli.main")
    grew = True
    while grew:
        grew = False
        for qual, name, body in defs:
            if qual in reached:
                continue
            owner = qual.rsplit(".", 1)[0]
            method = owner in reached
            dunder = name.startswith("__") and name.endswith("__")
            if name in live or method and (dunder or _overrides_outside(qual)):
                reached.add(qual)
                live |= body
                grew = True
    unreachable = sorted(qual for qual, _, _ in defs if qual not in reached)
    assert not unreachable, "not reachable from the verbs: " + ", ".join(unreachable)
