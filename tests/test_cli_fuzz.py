"""Fuzz the command line in-process: every input ends in a report (exit 0
or 2) or in exactly one `error:` line on stderr (exit 1), never in a
traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from quadpencil.cli import main
from quadpencil.pencil import Pencil, pencil_to_json
from reference import diag

IDENTITY_CONDITION = "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]"

# a smooth split pencil: the singular members sit at t = 1, -1/2, -2/3, -3/4, -1
BASE = pencil_to_json(Pencil(diag(1, -1, 2, -3, 5), diag(1, 2, -3, 4, -5)))


def refuse_float(text):
    raise AssertionError(f"float {text} in a report")


def run(argv, failed_check_reports=False):
    """Run one --json command line; a report (exit 0 or 2) is JSON without a
    single float in it, and an error (exit 1) is one line.  With
    failed_check_reports, exit 1 with nothing on stderr is a report too: a
    self-check that failed, such as a negative control that found no
    failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 1 and (err or not failed_check_reports):
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
    else:
        json.loads(out.getvalue(), parse_float=refuse_float)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Entries that are not exact rationals, or that are but break symmetry when
# put off the diagonal; huge numerators only go off the diagonal, so every
# pencil the verbs analyze keeps small entries.
junk = st.sampled_from(
    ["abc", "", "1/0", "0/0", "1e5", "nan", "inf", " 3 ", "0x10", "1//2", "--1",
     None, True, [], {}, 1.5, 7]
)
huge = st.integers(-10**400, 10**400).map(lambda n: f"{n}/7")
small = st.sampled_from(["0", "2", "-1/3", "1e2", 0, -4])


@st.composite
def pencil_texts(draw):
    data = json.loads(json.dumps(BASE))
    kind = draw(st.sampled_from(["drop", "shape", "entry", "diagonal", "top", "text"]))
    key = draw(st.sampled_from(["phi1", "phi2"]))
    if kind == "drop":
        for k in draw(st.sets(st.sampled_from(["phi1", "phi2"]), min_size=1)):
            del data[k]
    elif kind == "shape":
        rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        data[key] = draw(st.sampled_from(
            [[["1/1"] * cols for _ in range(rows)], [["1/1"] * 5] * 4 + [["1/1"] * cols],
             "1/1", None, 5, {"a": 1}, [[[["1/1"]]]]]
        ))
    elif kind == "entry":
        i, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        if i == j:
            j = (i + 1) % 5
        data[key][i][j] = draw(junk | huge)
    elif kind == "diagonal":
        i = draw(st.integers(0, 4))
        data[key][i][i] = draw(small | junk)
    elif kind == "top":
        data = draw(st.sampled_from([[], "phi1", 3, None, [BASE]]))
    text = json.dumps(data)
    if kind == "text":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=120, deadline=None)
@given(pencil_texts())
def test_pencil_files(workdir, text):
    path = workdir / "pencil.json"
    path.write_text(text)
    run(["--json", "analyze", str(path)])
    run(["--json", "local", str(path), "--places", "3"])


poly_text = st.text(alphabet="t0123456789+-*/^()., ;", max_size=20)


@settings(max_examples=100, deadline=None)
@given(poly_text, poly_text, st.text(alphabet="0123456789/-.", max_size=6))
def test_poly_and_delta_text(poly, delta, b):
    run(["--json", "canon", "--poly", poly, "--delta", delta])
    run(["--json", "kummer", "--poly", poly, "--delta", delta, "--b", b])
    run(["--json", "--prime-bound", "500", "search", "--poly", poly, "--delta", delta,
         "--conditions", IDENTITY_CONDITION])


conditions_text = st.text(alphabet="[]0123456789,-. ", max_size=40) | st.lists(
    st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=6), max_size=3
).map(json.dumps)


@settings(max_examples=80, deadline=None)
@given(conditions_text)
def test_conditions(workdir, conditions):
    path = workdir / "base.json"
    path.write_text(json.dumps(BASE))
    run(["--json", "--prime-bound", "500", "search", "--poly", "t^5-2",
         "--conditions", conditions])
    run(["--json", "--prime-bound", "500", "analyze", str(path), "--conditions", conditions])


dims_text = st.lists(
    st.sampled_from(["-2", "0", "1", "2", "3", "4", "18", "1000000", "a", "", " 2", "2.0"]),
    max_size=20,
).map(",".join) | st.text(alphabet="0123456789,- ", max_size=8)


@settings(max_examples=60, deadline=None)
@given(dims_text)
def test_dims(dims):
    run(["--json", "simulate", "--systems", "1", "--dims", dims])
    run(["--json", "simulate", "--systems", "1", "--dims", dims, "--negative-control"],
        failed_check_reports=True)
