"""In-process fuzzing of the CLI's input boundaries.

``verify --labels-file`` and ``experiment`` read JSON that the user
writes by hand; ``bounds``, ``solve sstar``, ``label repair``, ``label
tree`` and ``verify --kind graph`` read ".g" files; ``solve s``,
``solve irr``, ``label quadratic``, ``label two-step``, ``dual`` and
``verify --kind hypergraph`` read ".hg" files; ``gen runiform`` takes
any integer shape and any float edge probability; ``gen lowerbound``
takes eps and ``--delta`` as any float; ``pmf`` takes any integer shape
and window and any float margin.  Whatever the input, :func:`main` must
return 0, 1 or 2 without letting an exception escape, and a usage error
(exit 2) must print nothing on stdout and exactly one line on stderr.
JSON on stdout must be strict: ``NaN`` or ``Infinity`` fails the check.
The ".hg" commands run with warnings turned into errors, so a warning
escapes :func:`main` as well.
"""

import dataclasses
import json
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sumlabel import generators
from sumlabel.cli import main
from sumlabel.formats import parse_hypergraph, serialize_hypergraph

from helpers import graph_texts, hg_texts

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=5), children, max_size=3)),
    max_leaves=8,
)
# mostly near-valid labelings, so exits 0 and 1 are reached as well as 2
LABELS = st.one_of(
    JSON,
    st.lists(st.integers(-1, 8), max_size=4),
    st.fixed_dictionaries({"labels": st.lists(st.integers(1, 8), min_size=3, max_size=3)}),
    st.fixed_dictionaries({"labels": JSON}),
)

# a small valid runiform / shape batch: two seeds, 15 candidate edges each
BASE_CONFIG = {"kind": "runiform", "measure": "shape", "seeds": [1, 2], "n_vertices": 6,
               "uniformity": 2, "edge_probability": 0.5}
INT_LISTS = ("seeds", "sizes")
INTS = ("n_vertices", "uniformity", "edge_count", "node_budget")
REALS = ("edge_probability", "eps", "delta", "label_divisor")


def test_field_lists_name_every_config_field():
    # a field left out of these lists would go unchecked and unfuzzed
    fields = sorted(f.name for f in dataclasses.fields(generators.ExperimentConfig))
    assert sorted([*INT_LISTS, *INTS, *REALS, "kind", "measure"]) == fields
    assert sorted([*INT_LISTS, *generators._INT_FIELDS, *generators._REAL_FIELDS,
                   "kind", "measure"]) == fields


def right_type(field: str, value) -> bool:
    if field in INT_LISTS:
        return isinstance(value, list) and all(type(v) is int for v in value)
    if field in INTS:
        return type(value) is int or (field == "node_budget" and value is None)
    return type(value) in (int, float)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exit(code: int, out: str, err: str, fmt: str = "json") -> None:
    """``fmt`` is "json", "text" (key/value lines) or "hg": ".hg" text at
    exit 0 that parses and serializes back to itself, JSON at exit 1."""
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
    else:
        assert err == ""
        if fmt == "text":
            lines = out.splitlines()
            assert lines and all(": " in line for line in lines)
        elif fmt == "hg" and code == 0:
            assert serialize_hypergraph(parse_hypergraph(out)) == out
        else:
            json.loads(out, parse_constant=reject_constant)


def reject_constant(name: str):
    raise AssertionError(f"{name} is not JSON")


@settings(max_examples=200, deadline=None)
@given(LABELS)
def test_verify_labels_file(labels):
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / "full3.hg"
        instance.write_text("3 7\n1 0\n1 1\n1 2\n2 0 1\n2 0 2\n2 1 2\n3 0 1 2\n")
        labels_file = Path(tmp) / "labels.json"
        labels_file.write_text(json.dumps(labels))
        check_exit(*run_cli(["verify", str(instance), "--labels-file", str(labels_file)]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_experiment_field_of_wrong_type(data):
    field = data.draw(st.sampled_from(INT_LISTS + INTS + REALS), label="field")
    value = data.draw(JSON.filter(lambda v: not right_type(field, v)), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({**BASE_CONFIG, field: value}))
        code, out, err = run_cli(["experiment", str(config)])
    check_exit(code, out, err)
    assert code == 2 and err.startswith(f"error: {field} must be ")


# counts past 2**1024 do not fit a float; small ones reach exit 0; those
# past the generation guard exit 1 before any edge is built
SHAPE_COUNTS = (st.integers(1, 60) | st.integers(generators.GEN_GUARD + 1, 10**8)
                | st.integers(2**1000, 2**1100))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8) | SHAPE_COUNTS, m=SHAPE_COUNTS, eps=st.floats(0, 1) | st.floats())
def test_experiment_lowerbound_any_shape(n, m, eps):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"kind": "lowerbound", "measure": "shape", "seeds": [1],
                                      "n_vertices": n, "edge_count": m, "eps": eps}))
        check_exit(*run_cli(["experiment", str(config)]))


# argv after the instance path, per subcommand that reads a ".g" file
GRAPH_COMMANDS = {
    "bounds": (["bounds"], []),
    "solve sstar": (["solve", "sstar"], ["--budget", "20000"]),
    "label repair": (["label", "repair"], []),
    "label tree": (["label", "tree"], []),
    "verify": (["verify"], ["--kind", "graph", "--labels"]),
}


@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
@settings(max_examples=100, deadline=None)
@given(text=graph_texts(max_n=8, max_edges=12),
       labels=st.lists(st.integers(1, 8), min_size=9, max_size=9))
def test_graph_file(command, text, labels):
    before, after = GRAPH_COMMANDS[command]
    if command == "verify":
        # as many labels as the header declares vertices, when it declares 0 to 8
        head = next(iter(text.split()), "")
        count = int(head) if head.isdigit() else len(labels)
        after = [*after, ",".join(map(str, labels[:count]))]
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / "instance.g"
        instance.write_text(text)
        check_exit(*run_cli([*before, str(instance), *after]))


# argv after the instance path, per subcommand that reads a ".hg" file;
# small step budgets keep two-step's futile instances fast
HYPERGRAPH_COMMANDS = {
    "solve s": (["solve", "s"], ["--budget", "20000"]),
    "solve irr": (["solve", "irr"], ["--budget", "20000"]),
    "label quadratic": (["label", "quadratic"], []),
    "label two-step": (["label", "two-step"], ["--step1-budget", "20", "--step2-budget", "20"]),
    "dual": (["dual"], []),
    "verify": (["verify"], ["--kind", "hypergraph", "--labels"]),
}


@pytest.mark.parametrize("command", sorted(HYPERGRAPH_COMMANDS))
@settings(max_examples=100, deadline=None)
@given(text=hg_texts(), labels=st.lists(st.integers(1, 8), min_size=7, max_size=7))
def test_hypergraph_file(command, text, labels):
    before, after = HYPERGRAPH_COMMANDS[command]
    if command == "verify":
        # as many labels as the header declares vertices, when it declares 0 to 6
        head = next(iter(text.split()), "")
        count = int(head) if head.isdigit() else len(labels)
        after = [*after, ",".join(map(str, labels[:count]))]
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / "instance.hg"
        instance.write_text(text)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([*before, str(instance), *after])
    assert time.perf_counter() - start < 5.0
    check_exit(code, out, err, "hg" if command == "dual" else "json")


# n stays at most 16, so no shape past the size guard builds more than
# binom(16, 8) = 12,870 edges
@settings(max_examples=200, deadline=None)
@given(n=st.integers(max_value=16), r=st.integers(), p=st.floats())
def test_gen_runiform_any_shape(n, r, p):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runiform.hg"
        # "--" keeps a negative n, r or p from reading as an option
        check_exit(*run_cli(["gen", "runiform", f"--out={out}", "--", str(n), str(r), str(p)]))


# the core size is m ** (2 / (r + 1 + 2 delta)) for uniformity r, so deltas
# at and just above -(r + 1) / 2 are singular; other floats rarely land there
DELTAS = st.sampled_from([-1.5, -1.4999999, -2.0, -2.5]) | st.floats(-3, 2) | st.floats()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(1, 60), eps=st.floats(0, 1) | st.floats(),
       delta=DELTAS)
def test_gen_lowerbound_any_float(n, m, eps, delta):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "lowerbound.hg"
        # "--" keeps a negative eps such as -inf from reading as an option
        check_exit(*run_cli(["gen", "lowerbound", f"--delta={delta}", f"--out={out}", "--",
                             str(n), str(m), str(eps)]))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8) | SHAPE_COUNTS, m=SHAPE_COUNTS, eps=st.floats(0, 1) | st.floats(),
       delta=DELTAS)
def test_gen_lowerbound_any_shape(n, m, eps, delta):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "lowerbound.hg"
        check_exit(*run_cli(["gen", "lowerbound", f"--delta={delta}", f"--out={out}", "--",
                             str(n), str(m), str(eps)]))


# shapes inside the size guard stay small, so that building the Fractions
# is fast; each value past the guard is past it whatever the other one is.
# Valid small shapes are drawn most often, so exit 0 is reached as well.
PAST_GUARD = st.sampled_from([10**6, 10**8, 2**70])
SHAPE = st.integers(1, 12) | st.integers(-3, 12) | PAST_GUARD


@settings(max_examples=300, deadline=None)
@given(summands=SHAPE, n=SHAPE, window=st.none() | st.tuples(st.integers(), st.integers()),
       margin=st.none() | st.floats(), exact=st.booleans(), text=st.booleans())
def test_pmf_any_shape(summands, n, window, margin, exact, text):
    argv = ["--format", "text"] if text else []
    argv.append("pmf")
    if window is not None:
        argv += ["--window", *map(str, window)]
    if margin is not None:
        argv.append(f"--margin={margin}")
    if exact:
        argv.append("--exact")
    # "--" keeps a negative shape from reading as an option
    argv += ["--", str(summands), str(n)]
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 5.0
    check_exit(code, out, err, "text" if text else "json")
