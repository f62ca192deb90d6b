"""Layout guard: no source module uses a third-party package, only
cli.main maps errors to exit codes, and every definition is reachable from
the verbs."""

import ast
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import quadpencil

SRC = pathlib.Path(quadpencil.__file__).parent

# Packages no source module imports, at any depth: the tests and scripts
# use them as oracles, and the program is plain Python.
TEST_ONLY = ("sympy", "mpmath", "numpy")


def test_no_third_party_and_no_evaluation():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [(node.module or "").split(".")[0]] if not node.level else []
            else:
                roots = []
            for root in roots:
                assert root not in TEST_ONLY, f"{path.name} line {node.lineno} imports {root}"
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                assert name not in ("eval", "exec", "__import__", "import_module"), f"{path.name} calls {name}"


def test_cli_import_loads_no_numpy():
    # a fresh interpreter: the verbs' import chain loads none of them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = f"import sys, quadpencil.cli; print(sorted(set({TEST_ONLY!r}) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_only_main_maps_errors():
    # cli.main alone turns what a verb raises into an exit code and an
    # `error:` line: nothing else in cli.py writes to stderr or returns
    # from an except clause
    tree = ast.parse((SRC / "cli.py").read_text())
    tree.body = [node for node in tree.body if getattr(node, "name", None) != "main"]
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Attribute) and node.attr == "stderr"), \
            f"cli.py line {node.lineno} writes to stderr outside main"
        if isinstance(node, ast.ExceptHandler):
            assert not any(isinstance(n, ast.Return) for n in ast.walk(node)), \
                f"cli.py line {node.lineno} returns an exit code outside main"


def test_only_main_writes_reports():
    # the verbs return (payload, human, code), and cli.main alone adds the
    # report header, encodes the payload and writes it: nothing else in
    # cli.py prints, dumps JSON, touches stdout or names the schema
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in tree.body if getattr(node, "name", None) == "main")
    schema = next(node for node in tree.body if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "SCHEMA_VERSION")
    tree.body = [node for node in tree.body if node not in (main, schema)]
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        assert name not in ("print", "dumps", "stdout", "SCHEMA_VERSION"), \
            f"cli.py line {node.lineno} writes a report outside main"


def test_cli_reaches_no_module_through_another():
    # cli.py calls each module it uses by that module's own name, and only
    # selmersim builds a SelmerSystem: the simulator's internals stay in it
    modules = {path.stem for path in SRC.glob("*.py")}
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            inner = node.value
            assert not (isinstance(inner.value, ast.Name) and inner.value.id in modules
                        and inner.attr in modules), \
                f"cli.py line {node.lineno} reaches {inner.attr} through {inner.value.id}"
    for path in sorted(SRC.glob("*.py")):
        if path.name != "selmersim.py":
            assert "SelmerSystem(" not in path.read_text(), f"{path.name} builds a SelmerSystem"


def test_localarith_owns_local_verdicts():
    # localarith picks the places of a report and the procedure that
    # decides each, and returns values; cli only encodes them
    cli_names = _used_names(ast.parse((SRC / "cli.py").read_text()))
    owned = {"real_soluble", "padic_soluble", "split_soluble", "diagonal_model", "SWEEP_PRIMES"}
    assert not cli_names & owned, f"cli.py names {sorted(cli_names & owned)}"
    assert "rat_str" not in _used_names(ast.parse((SRC / "localarith.py").read_text())), \
        "localarith.py formats a rational"


def test_one_record_of_p_and_delta():
    # pencil.DeltaInvariant owns disc(P) and the norms: cli hands the record
    # to every stage and reads neither, and the stages take the record
    # first, with no disc or norms parameter beside it
    from quadpencil import galois, localarith, pencil

    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        assert not (isinstance(node, ast.Attribute) and node.attr in ("disc", "norms", "factor_reps")), \
            f"cli.py line {node.lineno} reads {node.attr}"
    for fn in (localarith.bad_set_s0, localarith.find_bT, galois.galois_group_quintic):
        params = list(inspect.signature(fn, eval_str=True).parameters.values())
        assert params[0].annotation is pencil.DeltaInvariant, f"{fn.__name__} takes {params[0]}"
        assert not {"disc", "norms"} & {p.name for p in params}, f"{fn.__name__} takes disc or norms"


def test_canon_inverts_nothing():
    # by Euler's identity every canonical Gram matrix is read off g mod P,
    # and the round trip compares delta classes through pencil.chart_poly:
    # canon inverts nothing in Q[t]/(P) and takes no power sums
    tree = ast.parse((SRC / "canon.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, DEFS)}
    named = (_used_names(tree) | defined) & {"inverse_mod", "Residue", "power_sums"}
    assert not named, f"canon.py names {sorted(named)}"


def test_one_padic_certificate_builder():
    # every p-adic "soluble" is one Hensel certificate, built in one
    # function: exactly one function of localarith (its own body, nested
    # definitions apart) names a witness key, and none keeps a second
    # valuation or the old rank test beside it
    keys = {"point_mod_p", "point_mod_pk", "minor_valuation"}
    builders, defined = [], set()
    for node in ast.walk(ast.parse((SRC / "localarith.py").read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
            work, named = list(node.body), set()
            while work:
                child = work.pop()
                if isinstance(child, DEFS):
                    continue
                if isinstance(child, ast.Constant) and isinstance(child.value, str):
                    named.add(child.value)
                named |= {getattr(child, "id", None), getattr(child, "attr", None), getattr(child, "arg", None)}
                work.extend(ast.iter_child_nodes(child))
            if named & keys:
                builders.append(node.name)
    assert len(builders) == 1, f"localarith.py builds p-adic certificates in {builders}"
    stale = defined & {"_val", "_jacobian_rank"}
    assert not stale, f"localarith.py defines {sorted(stale)}"


def test_one_owner_of_rational_denominators():
    # a RatPoly is integer numerators over one denominator (`num`, `den`):
    # no source line iterates its Fraction view `.coeffs` to read numerators
    # or denominators back.  cli's bound on the size of the reduced input
    # fractions (`_MAX_BITS`) validates outside input and is the exception.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if (re.search(r"\bfor\b.*\bin\b.*\.coeffs\b", line)
                    and re.search(r"\.(numerator|denominator)\b", line)
                    and not (path.name == "cli.py" and "_MAX_BITS" in line)):
                found.append(f"{path.name} {lineno}")
    assert not found, "lines that clear a RatPoly's denominators by hand: " + ", ".join(found)


def test_no_floating_point():
    # every verdict is exact: no source module names inf or nan or calls float
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not _used_names(tree) & {"inf", "nan"}, f"{path.name} names inf or nan"
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                assert getattr(node.func, "id", None) != "float", \
                    f"{path.name} line {node.lineno} calls float"


DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _used_names(tree, bare=True) -> set[str]:
    """Identifiers a syntax tree uses: attributes, imported names and, when
    bare, plain names."""
    out = set()
    for node in ast.walk(tree):
        if bare and isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def _benchmark_targets(tree) -> set[str]:
    """The parts of each attribute path that perfbench names in a tuple such
    as ("exact.RatPoly.mul", "quadpencil.exact", "RatPoly.__mul__", COUNTER),
    when the path resolves in that module by getattr.  Any other string is
    text: a metric name or a record kind names no definition."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Tuple):
            continue
        texts = [e.value if isinstance(e, ast.Constant) and isinstance(e.value, str) else ""
                 for e in node.elts]
        for module, path in zip(texts, texts[1:]):
            if not re.fullmatch(r"quadpencil\.\w+", module) or not path:
                continue
            obj = importlib.import_module(module)
            for part in path.split("."):
                obj = getattr(obj, part, None)
            if obj is not None:
                out.update(path.split("."))
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
    # benchmark.  The benchmark reaches a definition only through an
    # attribute, an import or a target tuple naming it as a string; its own
    # variables share names with the package by chance.  Dunder methods are
    # reached with their class.
    root = SRC.parent.parent
    defs, live = _definitions()
    for path in (root / "scripts").glob("*.py"):
        live |= _used_names(ast.parse(path.read_text()))
    for path in (root / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        live |= _used_names(tree, bare=False) | _benchmark_targets(tree)
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
