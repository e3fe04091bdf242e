"""File formats and the command-line interface."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from sumlabel import (Graph, Hypergraph, ParseError, ValidationError, constructive, dual,
                      exact, uniform_sums)
from sumlabel.cli import main
from sumlabel.formats import parse_graph, parse_hypergraph, serialize_hypergraph

from helpers import (TWO_STEP_INSTANCES, caterpillar_tree, complete_graph,
                     complete_hypergraph, graph_as_hypergraph, graph_texts, hg_texts,
                     parse_graph_oracle, parse_hypergraph_oracle, path_graph, random_graph,
                     random_hypergraph, random_tree, serialize_graph,
                     serialize_hypergraph_oracle, star_graph)


class TestHypergraphFormat:
    def test_parse_basic(self):
        h = parse_hypergraph("2 2\n1 0\n2 0 1\n")
        assert h.vertex_count == 2
        assert [set(e) for e in h.edges] == [{0}, {0, 1}]

    def test_duplicate_edge_line_number(self):
        with pytest.raises(ValidationError, match="line 3"):
            parse_hypergraph("2 2\n1 0\n1 0\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(ValidationError, match="out of range"):
            parse_hypergraph("2 1\n1 5\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_hypergraph("2\n")
        with pytest.raises(ParseError):
            parse_hypergraph("a b\n1 0\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError):
            parse_hypergraph("2 3\n1 0\n1 1\n")

    def test_vertex_count_mismatch_inside_edge(self):
        with pytest.raises(ParseError, match="declares"):
            parse_hypergraph("3 1\n2 0 1 2\n")

    def test_round_trip(self):
        rng = Random(131)
        for _ in range(25):
            n = rng.randint(1, 6)
            h = random_hypergraph(rng, n, rng.randint(1, min(6, 2**n - 1)))
            text = serialize_hypergraph(h)
            again = parse_hypergraph(text)
            assert again.vertex_count == h.vertex_count and again.edges == h.edges
            assert serialize_hypergraph(again) == text

    def test_writer_matches_oracle(self):
        """Byte for byte, on seeded instances, their duals and padded
        copies with more vertices than vertex tokens."""
        rng = Random(163)
        for n, m, size in ((6, 20, 4), (400, 5000, 6), (5000, 3000, 3), (5000, 20000, 8)):
            h = random_hypergraph(rng, n, m, max_size=size)
            instances = [h, Hypergraph(n + 10**4, h.edges)]
            if m > n:
                instances.append(dual(h))
            for inst in instances:
                assert serialize_hypergraph(inst) == serialize_hypergraph_oracle(inst)

    def test_writer_memory_is_bounded_by_the_output(self):
        """Ids up to 10^6 in three short edges: a table of id names sized
        by n or by the largest id would take tens of megabytes."""
        h = Hypergraph(10**6, [(0,), (999_999,), (5, 77, 500_000)])
        tracemalloc.start()
        try:
            text = serialize_hypergraph(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == serialize_hypergraph_oracle(h)
        assert peak < 10**6

    @given(st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        edges = data.draw(
            st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=8, unique=True),
            label="edges")
        h = Hypergraph(n, edges)
        again = parse_hypergraph(serialize_hypergraph(h))
        assert again.vertex_count == n and again.edges == h.edges


def _parsed(text: str):
    """(vertex_count, edges) of ``parse_hypergraph``, or its error."""
    try:
        h = parse_hypergraph(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), exc.line
    return h.vertex_count, tuple(map(frozenset, h.edges))


def _oracle_parsed(text: str):
    try:
        return parse_hypergraph_oracle(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), exc.line


# one faulty edge line each, on 4 vertices, after a first edge line "1 0"
EDGE_FAULTS = {
    "non_integer": "1 x",
    "declared_k": "2 1",
    "empty_edge": "0",
    "repeated_vertex": "2 1 1",
    "out_of_range": "1 7",
    "negative": "1 -1",
    "duplicate": "1 0",
}


class TestParserAgainstOracle:
    """The parser returns what the earlier parser returned, which checked
    every line itself, or raises the same exception class with the same
    message and line."""

    @settings(max_examples=400)
    @given(hg_texts())
    def test_same_result_or_error(self, text):
        assert _parsed(text) == _oracle_parsed(text)

    @pytest.mark.parametrize("first", sorted(EDGE_FAULTS))
    @pytest.mark.parametrize("second", sorted(EDGE_FAULTS))
    def test_two_faulty_lines_report_the_first(self, first, second):
        text = f"4 4\n1 0\n{EDGE_FAULTS[first]}\n2 2 3\n{EDGE_FAULTS[second]}\n"
        expected = _oracle_parsed(text)
        assert expected[2] == 3
        assert _parsed(text) == expected

    @pytest.mark.parametrize("text,message", [
        ("", "empty input"),
        (" \n\t\r\n", "empty input"),
        ("4 x\n1 x\n", "line 1: non-integer token in '4 x'"),
        ("4\n1 x\n", "line 1: header must be 'n m'"),
        ("4 2 1\n1 0\n1 1\n", "line 1: header must be 'n m'"),
        ("4 3\n1 x\n0\n", "line 1: expected 3 edge lines, found 2"),
        ("0 2\n1 x\n0\n", "line 1: need at least one vertex"),
        ("-3 1\n2 1 1\n", "line 1: need at least one vertex"),
        ("4 2\n\n1 +3\n\x0b 2 -0 00\n", "line 5: repeated vertex inside an edge"),
        ("4 2\r\n1 3\x0c\x0c1 0x3\n", "line 4: non-integer token in '1 0x3'"),
        ("4 2\x1c1 3\n 1\t03 \n", "line 3: duplicate edge (first seen on line 2)"),
        ("4 1\n3 -1 1 0\n", "line 2: vertex -1 out of range [0, 4)"),
        # a rejected token on a last line without a newline, and on a header
        # after blank lines: the line number comes from where the pass stopped
        ("4 1\n1 x", "line 2: non-integer token in '1 x'"),
        ("\n\n4 x\n1 0\n", "line 3: non-integer token in '4 x'"),
        ("12 1\n2 0 1_1\n", "line 2: non-integer token in '2 0 1_1'"),
        ("12 1\n2 0 \u0663\n", "line 2: non-integer token in '2 0 \u0663'"),
        # more digits than int() converts
        pytest.param("12 1\n2 0 " + "1" * 5000 + "\n",
                     f"line 2: non-integer token in '2 0 {'1' * 5000}'", id="5000-digit-vertex"),
        pytest.param("1" * 5000 + " 1\n2 0 1\n",
                     f"line 1: non-integer token in '{'1' * 5000} 1'", id="5000-digit-header"),
    ])
    def test_fault_messages(self, text, message):
        got = _parsed(text)
        assert got == _oracle_parsed(text)
        assert got[1] == message

    def test_valid_file_with_odd_separators(self):
        text = "\n 3\t+2 \r\n\n2 0 +2\x1c\x0b 1 001\x0c"
        assert _parsed(text) == _oracle_parsed(text) == (3, (frozenset({0, 2}), frozenset({1})))


class TestGraphFormat:
    def test_parse_basic(self):
        g = parse_graph("3 2\n0 1\n2 1\n")
        assert g.vertex_count == 3 and g.edges == {(0, 1), (1, 2)}

    def test_loop_rejected(self):
        with pytest.raises(ValidationError, match="loop"):
            parse_graph("2 1\n1 1\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_graph("2 2\n0 1\n1 0\n")

    def test_round_trip(self):
        rng = Random(137)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            assert parse_graph(serialize_graph(g)).edges == g.edges


def _graph_parsed(text: str):
    """(vertex_count, edges) of ``parse_graph``, or its error."""
    try:
        g = parse_graph(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), exc.line
    return g.vertex_count, g.edges


def _graph_oracle_parsed(text: str):
    try:
        return parse_graph_oracle(text)
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _graph_expected(text: str):
    """The earlier parser's result, except for a negative vertex count: once
    the header and the number of edge lines pass, that is now reported on
    the header line, before any fault on a later line."""
    expected = _graph_oracle_parsed(text)
    header = next(((i, line.split()) for i, line in enumerate(text.splitlines(), start=1)
                   if line.split()), None)
    if len(expected) == 3 and header is not None and expected[2] != header[0] \
            and int(header[1][0]) < 0:
        return ValidationError, f"line {header[0]}: vertex count must be non-negative", header[0]
    return expected


# one faulty edge line each, on 4 vertices, after a first edge line "0 1"
GRAPH_EDGE_FAULTS = {
    "non_integer": "0 x",
    "one_token": "2",
    "three_tokens": "1 2 3",
    "loop": "2 2",
    "out_of_range": "0 7",
    "negative": "-1 0",
    "duplicate": "0 1",
    "duplicate_reversed": "1 0",
}


class TestGraphParserAgainstOracle:
    """The graph parser returns what the earlier parser returned, which
    checked every line itself, or raises the same exception class with the
    same message and line; a negative vertex count is the one listed
    change."""

    @settings(max_examples=400)
    @given(graph_texts())
    def test_same_result_or_error(self, text):
        assert _graph_parsed(text) == _graph_expected(text)

    @pytest.mark.parametrize("first", sorted(GRAPH_EDGE_FAULTS))
    @pytest.mark.parametrize("second", sorted(GRAPH_EDGE_FAULTS))
    def test_two_faulty_lines_report_the_first(self, first, second):
        text = f"4 4\n0 1\n{GRAPH_EDGE_FAULTS[first]}\n2 3\n{GRAPH_EDGE_FAULTS[second]}\n"
        expected = _graph_oracle_parsed(text)
        assert expected[2] == 3
        assert _graph_parsed(text) == expected

    @pytest.mark.parametrize("text,message", [
        ("", "empty input"),
        ("4 x\n0 x\n", "line 1: non-integer token in '4 x'"),
        ("4\n0 1\n", "line 1: header must be 'n m'"),
        ("4 3\n0 x\n", "line 1: expected 3 edge lines, found 1"),
        ("0 0\n", None),
        ("4 2\n\n0 +3\n\x0b 3 1 00\n", "line 5: graph edge line must be 'u v'"),
        ("4 2\r\n1 3\x0c\x0c1 0x3\n", "line 4: non-integer token in '1 0x3'"),
        ("4 2\x1c1 3\n 3\t01 \n", "line 3: duplicate edge (first seen on line 2)"),
        ("4 1\n-1 -1\n", "line 2: self-loop at vertex -1"),
        ("4 1\n5 -1\n", "line 2: vertex 5 out of range [0, 4)"),
        ("-1 1\n0 x\n", "line 1: vertex count must be non-negative"),
        ("4 1\n0 x", "line 2: non-integer token in '0 x'"),
        ("\n\n4 x\n0 1\n", "line 3: non-integer token in '4 x'"),
        ("3 1\n0 \u0661\n", "line 2: non-integer token in '0 \u0661'"),
        ("3 1\n0 1_0\n", "line 2: non-integer token in '0 1_0'"),
        pytest.param("3 1\n0 " + "1" * 5000 + "\n",
                     f"line 2: non-integer token in '0 {'1' * 5000}'", id="5000-digit-vertex"),
    ])
    def test_fault_messages(self, text, message):
        got = _graph_parsed(text)
        assert got == _graph_expected(text)
        if message is not None:
            assert got[1] == message

    @pytest.mark.parametrize("text,before", [
        ("-1 0\n", (ValueError, "vertex count must be non-negative", None)),
        ("-1 1\n0 1\n", (ValidationError, "line 2: vertex 0 out of range [0, -1)", 2)),
        ("\n-2 2\n0 1\n1 1\n", (ValidationError, "line 3: vertex 0 out of range [0, -2)", 3)),
    ])
    def test_negative_vertex_count_names_the_header(self, text, before):
        assert _graph_oracle_parsed(text) == before
        lineno = 2 if text.startswith("\n") else 1
        assert _graph_parsed(text) == (
            ValidationError, f"line {lineno}: vertex count must be non-negative", lineno)

    def test_valid_file_with_odd_separators(self):
        text = "\n 3\t+2 \r\n\n2 0\x1c\x0b 1 +002\x0c"
        expected = (3, frozenset({(0, 2), (1, 2)}))
        assert _graph_parsed(text) == _graph_oracle_parsed(text) == expected


def _respelled(rng: Random, text: str) -> str:
    """``text`` with about one token in eight spelled ``00k`` or ``+k``."""
    def spell(tok: str) -> str:
        return rng.choice(("00", "+")) + tok if rng.random() < 0.125 else tok
    return "".join(" ".join(map(spell, line.split())) + "\n" for line in text.splitlines())


@pytest.mark.parametrize("seed", range(3))
def test_respelled_tokens_parse_the_same(seed):
    """Canonical text and the same text with some tokens re-spelled parse
    equal."""
    rng = Random(seed)
    h = random_hypergraph(rng, 300, 600, max_size=6)
    text = serialize_hypergraph_oracle(h)
    respelled = _respelled(rng, text)
    assert respelled != text
    for again in (parse_hypergraph(text), parse_hypergraph(respelled)):
        assert again.vertex_count == h.vertex_count and again.edges == h.edges
    g = random_graph(rng, 120, 0.1)
    text = serialize_graph(g)
    respelled = _respelled(rng, text)
    assert respelled != text
    assert parse_graph(text) == parse_graph(respelled) == g


@pytest.mark.parametrize("parse,write", [(parse_hypergraph, serialize_hypergraph_oracle),
                                         (parse_graph, serialize_graph)],
                         ids=["hypergraph", "graph"])
def test_edges_share_one_int_per_vertex_id(parse, write):
    rng = Random(167)
    n = 5000
    if parse is parse_graph:
        instance = Graph(n, {tuple(sorted(rng.sample(range(n), 2))) for _ in range(20000)})
    else:
        instance = random_hypergraph(rng, n, 20000, max_size=10)
    parsed = parse(write(instance))
    assert len({id(v) for e in parsed.edges for v in e}) <= n


@pytest.mark.parametrize("call", [
    lambda: parse_hypergraph("1000000 1\n2 0 1\n"),
    lambda: parse_graph("1000000 1\n0 1\n"),
], ids=["parse_hypergraph", "parse_graph"])
def test_parse_memory_is_sized_by_the_input(call):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def _traced_parse_of_many_edges(m: int = 20000) -> tuple[int, int, int]:
    """``(edge_count, kept, peak)`` of a traced parse of a written file of
    ``m`` edges of 2 to 10 vertices over 5000 ids."""
    rng = Random(173)
    n = 5000
    edges: set[tuple[int, ...]] = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), rng.randint(2, 10)))))
    text = serialize_hypergraph_oracle(Hypergraph(n, sorted(edges)))
    tracemalloc.start()
    try:
        parsed = parse_hypergraph(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return parsed.edge_count, kept, peak


def test_parsed_hypergraph_keeps_under_200_bytes_per_edge():
    """A parse of 2 * 10**4 edges of 2 to 10 vertices keeps one tuple per
    edge, about 100 B, where one frozenset per edge kept about 570 B."""
    m = 20000
    edge_count, kept, _ = _traced_parse_of_many_edges(m)
    assert edge_count == m
    assert kept < 200 * m


def test_parse_peak_is_under_400_bytes_per_edge():
    """The same parse peaks at about 300 B per edge, since the reader holds
    one line's tokens at a time; a list of every token of the text took
    the peak to about 550 B per edge."""
    m = 20000
    edge_count, _, peak = _traced_parse_of_many_edges(m)
    assert edge_count == m
    assert peak < 400 * m


@pytest.fixture
def instances(tmp_path):
    full3 = tmp_path / "full3.hg"
    full3.write_text(serialize_hypergraph(complete_hypergraph(3)))
    k2 = tmp_path / "k2.hg"
    k2.write_text("2 1\n2 0 1\n")
    path3 = tmp_path / "path3.g"
    path3.write_text("3 2\n0 1\n1 2\n")
    h = random_hypergraph(Random(139), 8, 8, max_size=5)
    rand = tmp_path / "rand.hg"
    rand.write_text(serialize_hypergraph(h))
    tree = tmp_path / "tree.g"
    tree.write_text("4 3\n0 1\n1 2\n2 3\n")
    return tmp_path


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_solve_s(self, capsys, instances):
        code, out = self.run(capsys, "solve", "s", str(instances / "full3.hg"))
        payload = json.loads(out)
        assert code == 0 and payload["optimum"] == 4
        assert payload["witness"] and "nodes" in payload

    def test_solve_sstar_and_bounds(self, capsys, instances):
        code, out = self.run(capsys, "solve", "sstar", str(instances / "path3.g"))
        assert code == 0 and json.loads(out)["optimum"] == 2
        code, out = self.run(capsys, "bounds", str(instances / "path3.g"))
        payload = json.loads(out)
        assert code == 0 and payload["lower"] == 2 and payload["xi"] == 4

    def test_solve_irr_degenerate_exit_code(self, capsys, instances):
        code, out = self.run(capsys, "solve", "irr", str(instances / "k2.hg"))
        assert code == 1
        assert json.loads(out)["error"] == "DualDegenerate"

    @pytest.mark.parametrize("text,code,stdout", [
        ("3 1\n1 0\n", 1, '{"error": "DualDegenerate", '
                          '"message": "vertices with identical incidence sets: 1,2"}\n'),
        ("3 0\n", 1, '{"error": "DualDegenerate", '
                     '"message": "vertices with identical incidence sets: 0,1,2"}\n'),
        ("1 0\n", 2, ""),
    ], ids=["two-uncovered", "edgeless", "single-vertex-edgeless"])
    def test_solve_irr_refuses_tied_uncovered_vertices(self, capsys, tmp_path, text, code,
                                                       stdout):
        path = tmp_path / "instance.hg"
        path.write_text(text)
        assert main(["solve", "irr", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert captured.err == ("" if code == 1 else
                                "error: hypergraph has no edges, so its dual has no vertices\n")

    @pytest.mark.parametrize("text", ["1 0\n", "3 0\n"])
    def test_dual_of_edgeless_input_names_the_input(self, capsys, tmp_path, text):
        path = tmp_path / "instance.hg"
        path.write_text(text)
        assert main(["dual", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: hypergraph has no edges, so its dual has no vertices\n"

    def test_solve_sstar_on_vertexless_graph_names_the_graph(self, capsys, tmp_path):
        path = tmp_path / "empty.g"
        path.write_text("0 0\n")
        assert main(["solve", "sstar", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph has no vertices, so it has no closed neighborhoods\n"

    def test_dual_and_irr_print_nothing_on_stderr(self, tmp_path):
        # vertex 2 is uncovered: left out of the dual, with sum 0 under irr
        path = tmp_path / "uncovered.hg"
        path.write_text("3 2\n2 0 1\n1 1\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        for argv, expected in ((["dual"], "2 2\n1 0\n2 0 1\n"),
                               (["solve", "irr"],
                                '{"nodes": 2, "optimum": 1, "witness": [1, 1]}\n')):
            proc = subprocess.run([sys.executable, "-m", "sumlabel.cli", *argv, str(path)],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    def test_label_two_step_deterministic_bytes(self, capsys, instances):
        args = ("label", "two-step", str(instances / "rand.hg"), "--C", "4", "--seed", "7")
        _, first = self.run(capsys, *args)
        _, second = self.run(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert payload["verified"] is True
        assert payload["max_label"] <= payload["label_cap"]
        assert payload["seed"] == 7

    @pytest.mark.parametrize("text,labels", [("4 1\n4 0 1 2 3\n", "[1, 1, 1, 1]"),
                                             ("3 0\n", "[1, 1, 1]")], ids=["one-edge", "edgeless"])
    def test_label_two_step_trivial_input_prints_full_census(self, capsys, tmp_path, text,
                                                             labels):
        path = tmp_path / "trivial.hg"
        path.write_text(text)
        code, out = self.run(capsys, "label", "two-step", str(path))
        assert code == 0
        assert out == ('{"collision_census": {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}, '
                       f'"label_cap": 1, "labels": {labels}, "max_label": 1, "seed": 857536, '
                       '"step1_attempts": 0, "step2_attempts": 0, "verified": true}\n')

    def test_label_quadratic_budget_exhaustion_exit_one(self, capsys, tmp_path):
        # three singletons need three distinct labels in [9]; seed 2's first draw ties
        path = tmp_path / "singletons.hg"
        path.write_text("3 3\n1 0\n1 1\n1 2\n")
        code, out = self.run(capsys, "label", "quadratic", str(path), "--budget", "1",
                             "--seed", "2")
        assert code == 1
        assert json.loads(out) == {"error": "BudgetExhausted", "detail": {"attempts": 1},
                                   "message": "no distinguishing labeling in 1 quadratic attempts"}

    def test_label_quadratic_default_seed_echoed(self, capsys, instances):
        code, out = self.run(capsys, "label", "quadratic", str(instances / "rand.hg"))
        payload = json.loads(out)
        assert code == 0 and payload["verified"] is True
        assert payload["seed"] == 0xD15C0
        assert payload["max_label"] <= payload["max_allowed"]

    def test_label_repair_and_tree(self, capsys, instances):
        code, out = self.run(capsys, "label", "repair", str(instances / "path3.g"))
        payload = json.loads(out)
        assert code == 0 and payload["verified"] and payload["max_label"] <= payload["xi"]
        code, out = self.run(capsys, "label", "tree", str(instances / "tree.g"))
        payload = json.loads(out)
        assert code == 0 and payload["verified"] and payload["max_label"] <= payload["bound"]

    def test_dual_round_trip(self, capsys, instances, tmp_path):
        out_file = tmp_path / "dual.hg"
        code, out = self.run(capsys, "dual", str(instances / "full3.hg"), "--out", str(out_file))
        assert code == 0 and json.loads(out)["written"] == str(out_file)
        d = parse_hypergraph(out_file.read_text())
        assert d.vertex_count == 7 and d.edge_count == 3

    def test_gen_runiform_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "gen.hg"
        code, out = self.run(capsys, "gen", "runiform", "8", "2", "0.5",
                             "--seed", "3", "--out", str(out_file))
        meta = json.loads(out)
        assert code == 0 and meta["n"] == 8
        h = parse_hypergraph(out_file.read_text())
        assert h.edge_count == meta["m"]

    @pytest.mark.parametrize("argv", [["dual", "{full3}"], ["gen", "runiform", "8", "2", "0.5"],
                                      ["gen", "lowerbound", "100", "100", "0.9"]],
                             ids=["dual", "runiform", "lowerbound"])
    @pytest.mark.parametrize("target", ["directory", "missing_parent"])
    def test_unwritable_out_exits_two(self, capsys, instances, tmp_path, argv, target):
        out = tmp_path if target == "directory" else tmp_path / "missing" / "out.hg"
        argv = [a.format(full3=instances / "full3.hg") for a in argv]
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    def test_gen_lowerbound_stdout(self, capsys):
        code, out = self.run(capsys, "gen", "lowerbound", "100", "100", "0.9", "--seed", "2")
        assert code == 0
        h = parse_hypergraph(out)
        assert h.vertex_count == 100 and h.edge_count == 100

    @pytest.mark.parametrize("delta", ["-1.5", "-1.4999999", "-0.5", "nan", "inf"])
    def test_gen_lowerbound_rejects_bad_delta(self, capsys, delta):
        code, out = self.run(capsys, "gen", "lowerbound", "10", "20", "0.9", f"--delta={delta}")
        assert code == 1
        assert json.loads(out) == {"error": "InfeasibleParams",
                                   "message": "delta must be finite and non-negative"}

    def test_experiment_rejects_bad_delta(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"kind": "lowerbound", "measure": "shape", "seeds": [1],
                                        "n_vertices": 10, "edge_count": 20, "eps": 0.9,
                                        "delta": -1.5}))
        code, out = self.run(capsys, "experiment", str(cfg_file))
        assert code == 1
        assert json.loads(out) == {"error": "InfeasibleParams",
                                   "message": "delta must be finite and non-negative"}

    def test_gen_lowerbound_edge_count_past_the_float_range(self, capsys):
        code, out = self.run(capsys, "gen", "lowerbound", "1", str(10**400), "0.5")
        assert code == 1
        assert json.loads(out) == {"error": "TooLarge",
                                   "message": "edge count exceeds the float range"}

    def test_gen_lowerbound_edge_count_past_the_guard(self, capsys):
        code, out = self.run(capsys, "gen", "lowerbound", "20000", "5000001", "0.9")
        assert code == 1
        assert json.loads(out) == {"error": "TooLarge", "message":
                                   "5000001 edges exceed the generation guard of 5000000"}

    def test_experiment_edge_count_past_the_float_range(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"kind": "lowerbound", "measure": "shape", "seeds": [1],
                                        "n_vertices": 1, "edge_count": 10**400, "eps": 0.5}))
        code, out = self.run(capsys, "experiment", str(cfg_file))
        assert code == 1
        assert json.loads(out) == {"error": "TooLarge",
                                   "message": "edge count exceeds the float range"}

    def test_pmf_window_and_margin(self, capsys):
        code, out = self.run(capsys, "pmf", "2", "2", "--window", "2", "3", "--margin", "0")
        payload = json.loads(out)
        assert code == 0
        assert payload["probabilities"] == [0.25, 0.5, 0.25]
        assert payload["window"]["probability"] == 0.75
        # at C=0 the margin is peak * N / 5 <= 1/5
        assert 0 < payload["margin"]["value"] <= 0.2
        code, out = self.run(capsys, "pmf", "2", "2", "--exact")
        assert json.loads(out)["probabilities"] == ["1/4", "1/2", "1/4"]

    # at 1e308, 4.0 * C itself overflows to inf, and exp(inf) does not raise
    @pytest.mark.parametrize("margin", ["1000", "nan", "inf", "-inf", "1e308"])
    def test_pmf_margin_rejects_non_finite_and_overflow(self, capsys, margin):
        code = main(["pmf", "2", "5", f"--margin={margin}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert re.fullmatch(r"error: margin .*(finite|overflows).*\n", captured.err)

    @pytest.mark.parametrize("kind,field,value", [
        ("runiform", "eps", "NaN"),
        ("runiform", "edge_probability", "Infinity"),
        ("runiform", "label_divisor", "NaN"),
        ("lowerbound", "delta", "NaN"),
        ("lowerbound", "delta", "-Infinity"),
        # an int past float range used to escape as an OverflowError
        ("lowerbound", "delta", "1" + "0" * 400),
    ])
    def test_experiment_rejects_non_finite_reals(self, capsys, tmp_path, kind, field, value):
        # json.loads reads NaN and Infinity, non-standard constants, as floats
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(f'{{"kind": "{kind}", "measure": "shape", "n_vertices": 6, '
                            f'"uniformity": 2, "edge_count": 10, "{field}": {value}}}')
        code = main(["experiment", str(cfg_file)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {field} must be a finite number\n"

    def test_verify_exit_codes(self, capsys, instances):
        code, out = self.run(capsys, "verify", str(instances / "full3.hg"),
                             "--labels", "1,2,4")
        assert code == 0 and json.loads(out)["verified"] is True
        code, out = self.run(capsys, "verify", str(instances / "full3.hg"),
                             "--labels", "1,2,3")
        assert code == 1 and json.loads(out)["verified"] is False
        code, out = self.run(capsys, "verify", str(instances / "path3.g"),
                             "--labels", "1 1 2")
        assert code == 0 and json.loads(out)["verified"] is True

    @pytest.mark.parametrize("labels,bad", [("1_0 2 3", "1_0"), ("1,\u0662,3", "\u0662"),
                                            ("1 2 x", "x"),
                                            pytest.param("1 2 " + "1" * 5000, "1" * 5000,
                                                         id="5000-digit-label")])
    def test_verify_rejects_labels_that_are_not_decimals(self, capsys, instances, labels, bad):
        code = main(["verify", str(instances / "full3.hg"), "--labels", labels])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: non-integer label {bad!r}\n"

    @pytest.mark.parametrize("argv,argument,bad", [
        (["gen", "runiform", "\u0668", "2", "0.5"], "n", "\u0668"),
        (["gen", "runiform", "8", "2", "0.5", "--seed", "\u0661"], "--seed", "\u0661"),
        (["gen", "lowerbound", "10", "1_0", "0.9"], "m", "1_0"),
        (["solve", "s", "full3.hg", "--budget", "1_000"], "--budget", "1_000"),
        (["label", "two-step", "rand.hg", "--K", "1_0"], "--K", "1_0"),
        (["pmf", "3", "6", "--window", "1", "\u0668"], "--window", "\u0668"),
        pytest.param(["pmf", "1" * 5000, "3"], "summands", "1" * 5000, id="5000-digit-value"),
        (["gen", "runiform", " 8", "2", "0.5"], "n", " 8"),
        (["gen", "runiform", "8", "2", "0.5", "--seed", "7\n"], "--seed", "7\n"),
    ], ids=["arabic-indic-positional", "arabic-indic-option", "underscore-positional",
            "underscore-option", "underscore-two-step", "arabic-indic-window", None,
            "space-padded-positional", "newline-padded-option"])
    def test_int_arguments_read_the_file_grammar(self, capsys, instances, argv, argument, bad):
        argv = [str(instances / a) if a.endswith(".hg") else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        usage, error = captured.err.split("\n", 1)[0], captured.err.splitlines()[-1]
        prog = "sumlabel " + " ".join(argv[:1 if argv[0] == "pmf" else 2])
        assert usage.startswith(f"usage: {prog} ")
        assert error == f"{prog}: error: argument {argument}: non-integer value {bad!r}"

    @pytest.mark.parametrize("bad", ["\u0660.\u0665", "1_0", "0.5x", " 0.5", "0.5\n"],
                             ids=["arabic-indic", "underscore", "trailing-letter",
                                  "space-padded", "newline-padded"])
    @pytest.mark.parametrize("argv,argument", [
        (["gen", "runiform", "6", "2", "{}"], "p"),
        (["gen", "lowerbound", "10", "20", "{}"], "eps"),
        (["gen", "lowerbound", "10", "20", "0.9", "--delta", "{}"], "--delta"),
        (["label", "two-step", "rand.hg", "--C", "{}"], "--C"),
        (["pmf", "2", "3", "--margin", "{}"], "--margin"),
    ], ids=["runiform-p", "lowerbound-eps", "lowerbound-delta", "two-step-C", "pmf-margin"])
    def test_float_arguments_are_ascii_without_underscores(self, capsys, instances, argv,
                                                           argument, bad):
        argv = [str(instances / a) if a.endswith(".hg") else a.format(bad) for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        prog = "sumlabel " + " ".join(argv[:1 if argv[0] == "pmf" else 2])
        assert captured.err.splitlines()[-1] == (
            f"{prog}: error: argument {argument}: non-float value {bad!r}")

    def test_int_arguments_accept_signs_and_leading_zeros(self, capsys):
        assert main(["gen", "runiform", "+8", "002", "0.5", "--seed", "007"]) == 0
        respelled = capsys.readouterr().out
        assert main(["gen", "runiform", "8", "2", "0.5", "--seed", "7"]) == 0
        assert capsys.readouterr().out == respelled

    def test_verify_needs_labels(self, capsys, instances):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", str(instances / "full3.hg")])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert "one of the arguments --labels --labels-file is required" in captured.err

    def test_verify_rejects_both_label_sources(self, capsys, instances, tmp_path):
        labels = tmp_path / "labels.json"
        labels.write_text("[1, 2, 3]")  # fails, where --labels passes
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", str(instances / "full3.hg"), "--labels", "1,2,4",
                  "--labels-file", str(labels)])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert "argument --labels-file: not allowed with argument --labels" in captured.err

    @pytest.mark.parametrize("leaf,option", [
        *[("quadratic", o) for o in ("--C", "--K", "--P", "--step1-budget", "--step2-budget")],
        ("two-step", "--budget"),
        *[(leaf, o) for leaf in ("repair", "tree")
          for o in ("--seed", "--budget", "--C", "--K", "--P", "--step1-budget",
                    "--step2-budget")],
    ])
    def test_label_rejects_options_its_leaf_ignores(self, capsys, instances, leaf, option):
        file = "rand.hg" if leaf in ("quadratic", "two-step") else "tree.g"
        with pytest.raises(SystemExit) as exit_info:
            main(["label", leaf, str(instances / file), option, "2"])
        assert exit_info.value.code == 2 and capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["label", "--seed", "7", "quadratic", "rand.hg"],
                                      ["solve", "--budget", "5", "s", "full3.hg"]],
                             ids=["label", "solve"])
    def test_option_before_the_leaf_name_exits_two(self, capsys, instances, argv):
        argv = [str(instances / a) if "." in a else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2 and capsys.readouterr().out == ""

    def test_verify_labels_file(self, capsys, instances, tmp_path):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"labels": [1, 2, 4], "max_label": 4}))
        code, out = self.run(capsys, "verify", str(instances / "full3.hg"),
                             "--labels-file", str(labels))
        assert code == 0 and json.loads(out)["verified"] is True
        labels.write_text("[1, 2, 3]")  # bare array form
        code, out = self.run(capsys, "verify", str(instances / "full3.hg"),
                             "--labels-file", str(labels))
        assert code == 1 and json.loads(out)["verified"] is False

    @pytest.mark.parametrize("text", ["{}", '{"labels": null}', "[[1]]", "5", "[1.5, 2, 3]",
                                      "[true, 2, 3]", '{"labels": [1, 2.0, 4]}'])
    def test_verify_rejects_malformed_labels_file(self, capsys, instances, tmp_path, text):
        labels = tmp_path / "labels.json"
        labels.write_text(text)
        code = main(["verify", str(instances / "full3.hg"), "--labels-file", str(labels)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert re.fullmatch(r"error: labels file must hold a list of integers.*\n", captured.err)

    @pytest.mark.parametrize("field,value", [
        ("sizes", [1.5]), ("sizes", ["3"]), ("n_vertices", "5"), ("node_budget", "7"),
        ("edge_probability", "x"), ("eps", "0.5"), ("label_divisor", "a"), ("seeds", [{}]),
        ("seeds", [1.5]), ("seeds", 5), ("seeds", [1, True]), ("sizes", [3.0]),
        ("n_vertices", 5.0), ("uniformity", True), ("edge_count", None),
        ("node_budget", False), ("eps", True), ("delta", None), ("label_divisor", [4])])
    def test_experiment_rejects_wrong_field_type(self, capsys, tmp_path, field, value):
        cfg = {"kind": "runiform", "measure": "shape", "seeds": [1], "n_vertices": 5,
               field: value}
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps(cfg))
        code = main(["experiment", str(cfg_file)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert re.fullmatch(rf"error: {field} must be .*\n", captured.err)

    @pytest.mark.parametrize("text", [
        '[["kind", "runiform"], ["measure", "shape"], ["n_vertices", 5], ["seeds", [1]]]',
        '"kind"', "5", "null"], ids=["pairs", "string", "number", "null"])
    def test_experiment_rejects_config_that_is_not_an_object(self, capsys, tmp_path, text):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(text)
        code = main(["experiment", str(cfg_file)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: experiment config must be a JSON object\n"

    @pytest.mark.parametrize("command", ["verify", "experiment"])
    def test_too_deeply_nested_json_exit_two(self, capsys, instances, tmp_path, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 10**5 + "]" * 10**5)
        if command == "verify":
            argv = ["verify", str(instances / "full3.hg"), "--labels-file", str(deep)]
        else:
            argv = ["experiment", str(deep)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert re.fullmatch(r"error: invalid JSON .*recursion.*\n", captured.err)

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_label_quadratic_rejects_budget_below_one(self, capsys, instances, budget):
        code = main(["label", "quadratic", str(instances / "k2.hg"), f"--budget={budget}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: budget must be positive\n"

    @pytest.mark.parametrize("kind,file", [("s", "full3.hg"), ("sstar", "path3.g"),
                                           ("irr", "full3.hg")])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_solve_rejects_budget_below_one(self, capsys, instances, kind, file, budget):
        code = main(["solve", kind, str(instances / file), f"--budget={budget}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: node budget must be positive\n"

    def test_experiment_rejects_budget_below_one(self, capsys, tmp_path):
        cfg = {"kind": "complete", "measure": "exact_s", "sizes": [2], "node_budget": 0}
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps(cfg))
        code = main(["experiment", str(cfg_file)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: node budget must be positive\n"

    def test_experiment(self, capsys, tmp_path):
        cfg = {"kind": "complete", "measure": "exact_s", "sizes": [2, 3]}
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps(cfg))
        code, out = self.run(capsys, "experiment", str(cfg_file))
        payload = json.loads(out)
        assert code == 0
        assert [r["optimum"] for r in payload["records"]] == [2, 4]
        assert "elapsed" not in payload
        _, again = self.run(capsys, "experiment", str(cfg_file))
        assert out == again

    def test_experiment_timing_adds_elapsed(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"kind": "complete", "measure": "exact_s", "sizes": [2]}))
        _, plain = self.run(capsys, "experiment", str(cfg_file))
        code, out = self.run(capsys, "experiment", "--timing", str(cfg_file))
        payload = json.loads(out)
        assert code == 0 and payload["elapsed"] >= 0
        del payload["elapsed"]
        assert payload == json.loads(plain)

    def test_experiment_complete_runs_every_seed(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg = {"kind": "complete", "measure": "quadratic", "sizes": [3], "seeds": [1, 2, 3]}
        cfg_file.write_text(json.dumps(cfg))
        code, out = self.run(capsys, "experiment", str(cfg_file))
        payload = json.loads(out)
        assert code == 0 and payload["summary"] == {"runs": 3}
        assert [r["seed"] for r in payload["records"]] == [1, 2, 3]
        cfg_file.write_text(json.dumps({**cfg, "seeds": []}))
        code, out = self.run(capsys, "experiment", str(cfg_file))
        payload = json.loads(out)
        assert code == 0 and payload["config"]["seeds"] == [] and payload["records"] == []

    @pytest.mark.parametrize("extra,message", [
        ({"bogus": 1}, "bad experiment config: .*unexpected keyword argument 'bogus'"),
        ({"measure": "bogus"}, "measure must be one of .*"),
        ({"kind": "runiform", "sizes": [5, 6]}, "runiform experiments take no 'sizes'")],
        ids=["unknown-key", "measure", "sizes-on-runiform"])
    def test_experiment_rejects_unknown_key_and_measure(self, capsys, tmp_path, extra, message):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"kind": "complete", "measure": "exact_s", "sizes": [2],
                                        **extra}))
        code = main(["experiment", str(cfg_file)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert re.fullmatch(f"error: {message}\n", captured.err)

    def test_experiment_lowerbound_shape_matches_gen_metadata(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"kind": "lowerbound", "measure": "shape", "seeds": [2],
                                        "n_vertices": 100, "edge_count": 100, "eps": 0.9}))
        code, out = self.run(capsys, "experiment", str(cfg_file))
        assert code == 0
        record = json.loads(out)["records"][0]
        code, out = self.run(capsys, "gen", "lowerbound", "100", "100", "0.9", "--seed", "2",
                             "--out", str(tmp_path / "lb.hg"))
        assert code == 0
        meta = json.loads(out)
        del meta["written"], meta["seed"]
        assert {k: record[k] for k in meta} == meta and "uniformity" in meta

    def test_experiment_complete_size_past_guard_exit_one(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"kind": "complete", "measure": "exact_s",
                                        "sizes": [17]}))
        code, out = self.run(capsys, "experiment", str(cfg_file))
        assert code == 1
        assert json.loads(out) == {"error": "TooLarge", "message":
                                   "complete hypergraph on 17 vertices has 2**17-1 edges"}

    def test_parse_error_exit_two(self, capsys, instances, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("2 1\n1 9\n")
        code = main(["solve", "s", str(bad)])
        assert code == 2
        code = main(["solve", "s", str(tmp_path / "missing.hg")])
        assert code == 2

    def test_text_format(self, capsys, instances):
        code, out = self.run(capsys, "--format", "text", "bounds", str(instances / "path3.g"))
        assert code == 0 and "xi: 4" in out

    def test_budget_exhaustion_exit_one(self, capsys, instances):
        code, out = self.run(capsys, "solve", "s", str(instances / "full3.hg"),
                             "--budget", "2")
        assert code == 1
        assert json.loads(out) == {"error": "BudgetExhausted",
                                   "message": "node budget exhausted while testing N=3",
                                   "bracket": [3, 4], "detail": {"nodes": 3}}

    def test_budget_exhaustion_ceiling_counts_covered_vertices(self, capsys, tmp_path):
        # 197 of the 200 vertices are uncovered; labels 1, 2, 4 on the three
        # covered ones already distinguish, so the bracket top is 4, not 2**199
        path = tmp_path / "sparse.hg"
        path.write_text("200 3\n1 0\n1 1\n1 2\n")
        code, out = self.run(capsys, "solve", "s", str(path), "--budget", "1")
        assert code == 1
        assert json.loads(out)["bracket"] == [3, 4]

    @pytest.mark.parametrize("text,budget", [("3 3\n1 0\n1 1\n2 0 1\n", "1"),
                                             ("3 7\n1 0\n1 1\n1 2\n2 0 1\n2 0 2\n2 1 2\n"
                                              "3 0 1 2\n", "6")], ids=["pair", "full3"])
    def test_budget_running_out_at_the_ceiling_exits_zero(self, capsys, tmp_path, text, budget):
        # every N below the 2**(c - 1) ceiling is refuted, so the ceiling is the
        # optimum and powers of two in search order are the unbudgeted witness
        path = tmp_path / "instance.hg"
        path.write_text(text)
        code, out = self.run(capsys, "solve", "s", str(path), "--budget", budget)
        _, plain = self.run(capsys, "solve", "s", str(path))
        payload, unbudgeted = json.loads(out), json.loads(plain)
        assert code == 0
        assert payload["optimum"] == unbudgeted["optimum"]
        assert payload["witness"] == unbudgeted["witness"]
        assert payload["nodes"] == int(budget) + 1 <= unbudgeted["nodes"]

    def test_two_step_exhaustion_keeps_census(self, capsys, tmp_path):
        # label cap ceil(4/4) = 1 ties the special pair on every step-one draw
        path = tmp_path / "tied.hg"
        path.write_text("3 2\n2 0 1\n2 1 2\n")
        code, out = self.run(capsys, "label", "two-step", str(path))
        assert code == 1
        assert json.loads(out) == {
            "error": "BudgetExhausted",
            "message": "two-step labeler exhausted budgets (step1=1000, step2=0)",
            "detail": {"collision_census": {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0},
                       "step1_attempts": 1000, "step2_attempts": 0}}


def _raise(fault):
    def broken(*args, **kwargs):
        raise fault
    return broken


@pytest.mark.parametrize("fault", [AssertionError("unreachable: powers of two"),
                                   RecursionError("maximum recursion depth exceeded")],
                         ids=["assertion", "recursion"])
def test_internal_fault_exit_three(capsys, monkeypatch, instances, fault):
    monkeypatch.setattr(exact, "exact_s", _raise(fault))
    code = main(["solve", "s", str(instances / "full3.hg")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"internal error: {fault!r}\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_json_payload_exit_three(capsys, monkeypatch, value):
    monkeypatch.setattr(uniform_sums, "peak_probability_margin", lambda *args: value)
    code = main(["pmf", "2", "2", "--margin", "0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("internal error: AssertionError(")
    assert captured.err.count("\n") == 1


# argv and the exit code it gives; exit 3 comes from a patched library call
GC_RUNS = {
    0: ("bounds", "path3.g"),
    1: ("solve", "s", "full3.hg", "--budget", "2"),
    2: ("solve", "s", "missing.hg"),
    3: ("bounds", "path3.g"),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("code", sorted(GC_RUNS))
def test_gc_setting_restored(capsys, monkeypatch, instances, enabled, code):
    if code == 3:
        monkeypatch.setattr(constructive, "s_star_bounds", _raise(AssertionError("boom")))
    command, *rest = GC_RUNS[code]
    argv = [command] + [str(instances / a) if "." in a else a for a in rest]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["verify", str(instances / "full3.hg")])  # argparse exits 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_no_cyclic_garbage_grows_with_the_instance(capsys, tmp_path):
    """The collector stays off during a command, which is safe only while
    commands build acyclic data: what ``gc.collect`` finds afterwards
    (argparse's own cycles) must not grow with the input."""
    rng = Random(151)
    garbage = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for m in (50, 2000):
            path = tmp_path / f"m{m}.hg"
            path.write_text(serialize_hypergraph(random_hypergraph(rng, 40, m, max_size=6)))
            gc.collect()
            assert main(["label", "quadratic", str(path)]) == 0
            garbage.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    capsys.readouterr()
    assert garbage[1] <= garbage[0]


# `label two-step` stdout on fixed instances and seeds.  Labels, attempt
# counts and census follow from the seed's draw order alone, so a change
# to how the labeler checks its conditions must leave them byte-identical.
GOLDEN_RUNS = [
    ("c", ("--K", "4", "--P", "3", "--C", "0.5", "--seed", "194"),
     '{"collision_census": {"a": 0, "b": 0, "c": 1, "d": 0, "e": 0}, "label_cap": 200, '
     '"labels": [23, 55, 111, 105, 96, 55, 37, 195, 103, 183, 118, 163, 28, 162, 44, 43, 114, '
     '174, 57, 121, 107, 32, 200], "max_label": 200, "seed": 194, "step1_attempts": 2, '
     '"step2_attempts": 2, "verified": true}\n'),
    ("e", ("--K", "3", "--P", "2", "--C", "0.4", "--seed", "160"),
     '{"collision_census": {"a": 0, "b": 0, "c": 0, "d": 0, "e": 1}, "label_cap": 250, '
     '"labels": [127, 138, 233, 210, 55, 190, 110, 121, 4, 72, 211], "max_label": 233, '
     '"seed": 160, "step1_attempts": 1, "step2_attempts": 2, "verified": true}\n'),
    ("d", ("--K", "4", "--P", "3", "--C", "0.5", "--seed", "155"),
     '{"collision_census": {"a": 0, "b": 0, "c": 0, "d": 2, "e": 0}, "label_cap": 200, '
     '"labels": [185, 125, 149, 54, 16, 131, 150, 164, 56, 129, 139, 74, 31, 26, 111, 90, 176, '
     '149, 29], "max_label": 185, "seed": 155, "step1_attempts": 1, "step2_attempts": 3, '
     '"verified": true}\n'),
    ("retry", ("--K", "4", "--P", "3", "--C", "0.5", "--seed", "80"),
     '{"collision_census": {"a": 0, "b": 0, "c": 0, "d": 1, "e": 0}, "label_cap": 162, '
     '"labels": [76, 78, 17, 120, 122, 106, 72, 83, 112, 161, 157, 148, 151, 33], '
     '"max_label": 161, "seed": 80, "step1_attempts": 28, "step2_attempts": 2, '
     '"verified": true}\n'),
    ("wide", ("--C", "3", "--seed", "11"),
     '{"collision_census": {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}, "label_cap": 134, '
     '"labels": [116, 120, 116, 131, 49, 48, 132, 122, 48, 25, 115, 78, 37, 24, 11, 102, 116, '
     '41, 4, 17], "max_label": 132, "seed": 11, "step1_attempts": 1, "step2_attempts": 1, '
     '"verified": true}\n'),
    ("wide", (),
     '{"collision_census": {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}, "label_cap": 100, '
     '"labels": [64, 60, 41, 58, 42, 56, 39, 7, 2, 49, 99, 11, 63, 11, 34, 99, 48, 95, 49, 28], '
     '"max_label": 99, "seed": 857536, "step1_attempts": 1, "step2_attempts": 1, '
     '"verified": true}\n'),
]


@pytest.mark.parametrize("name,flags,expected", GOLDEN_RUNS)
def test_label_two_step_golden_stdout(capsys, tmp_path, name, flags, expected):
    path = tmp_path / f"{name}.hg"
    path.write_text(TWO_STEP_INSTANCES[name])
    assert main(["label", "two-step", str(path), *flags]) == 0
    assert capsys.readouterr().out == expected


# `label tree` stdout on fixed trees, recorded before the labeler kept its
# state incrementally: it must make the same choice at every step.
GOLDEN_TREE_RUNS = [
    ("edge", lambda: path_graph(2),
     '{"bound": 1, "labels": [1, 1], "max_label": 1, "max_leaf_neighbors": 1, "verified": '
     'true}\n'),
    ("caterpillar", lambda: caterpillar_tree([2, 2, 2]),
     '{"bound": 14, "labels": [1, 1, 1, 6, 7, 5, 4, 9, 2], "max_label": 9, '
     '"max_leaf_neighbors": 2, "verified": true}\n'),
    ("random300", lambda: random_tree(Random(300), 300),
     '{"bound": 596, "labels": [142, 40, 58, 69, 37, 20, 1, 20, 33, 38, 67, 94, 25, 113, '
     '76, 83, 7, 206, 39, 9, 2, 26, 251, 118, 4, 28, 19, 4, 11, 30, 12, 28, 197, 28, 31, '
     '219, 77, 129, 33, 87, 13, 58, 42, 45, 5, 218, 9, 25, 1, 84, 7, 72, 33, 105, 5, 25, '
     '6, 97, 87, 4, 113, 34, 15, 144, 120, 48, 69, 8, 115, 76, 7, 23, 2, 239, 24, 186, 7, '
     '36, 191, 4, 17, 55, 118, 77, 3, 39, 40, 45, 35, 177, 5, 50, 3, 1, 226, 7, 12, 64, '
     '14, 48, 7, 151, 58, 15, 55, 26, 2, 14, 222, 125, 4, 124, 55, 121, 46, 67, 102, 35, '
     '38, 132, 28, 120, 77, 2, 102, 124, 220, 52, 137, 1, 108, 38, 86, 50, 31, 59, 14, '
     '37, 166, 36, 161, 79, 164, 36, 31, 90, 149, 129, 28, 10, 24, 118, 3, 31, 50, 14, '
     '150, 31, 17, 234, 2, 17, 174, 16, 154, 9, 131, 3, 16, 42, 6, 11, 168, 17, 104, 202, '
     '63, 46, 49, 22, 25, 14, 125, 171, 4, 15, 4, 169, 65, 4, 10, 8, 67, 115, 43, 4, 154, '
     '176, 24, 223, 14, 12, 96, 17, 37, 6, 134, 25, 108, 33, 64, 4, 1, 80, 81, 59, 1, 60, '
     '4, 51, 42, 13, 15, 1, 5, 30, 12, 14, 239, 26, 6, 123, 106, 24, 13, 11, 12, 190, 13, '
     '17, 35, 205, 4, 3, 18, 43, 77, 2, 3, 222, 22, 116, 1, 26, 24, 38, 50, 99, 36, 190, '
     '57, 2, 97, 17, 50, 61, 55, 83, 10, 34, 10, 123, 19, 119, 55, 1, 2, 39, 12, 110, 83, '
     '43, 31, 34, 3, 29, 94, 10, 181, 10, 48, 165, 7, 2, 31, 265, 6, 4, 23, 1], '
     '"max_label": 265, "max_leaf_neighbors": 2, "verified": true}\n'),
    ("path50", lambda: path_graph(50),
     '{"bound": 97, "labels": [17, 14, 31, 11, 18, 38, 7, 9, 33, 9, 5, 26, 3, 39, 4, 10, '
     '24, 10, 21, 10, 21, 8, 21, 8, 6, 8, 14, 14, 2, 5, 16, 12, 4, 10, 11, 3, 13, 3, 4, '
     '10, 4, 1, 6, 5, 2, 3, 4, 1, 1, 2], "max_label": 39, "max_leaf_neighbors": 1, '
     '"verified": true}\n'),
]


@pytest.mark.parametrize("name,build,expected", GOLDEN_TREE_RUNS,
                         ids=[run[0] for run in GOLDEN_TREE_RUNS])
def test_label_tree_golden_stdout(capsys, tmp_path, name, build, expected):
    path = tmp_path / f"{name}.g"
    path.write_text(serialize_graph(build()))
    assert main(["label", "tree", str(path)]) == 0
    assert capsys.readouterr().out == expected


# `label repair` stdout on fixed graphs, recorded before the repair step
# read its label off a bitmask: same labels, xi and step count.
GOLDEN_REPAIR_RUNS = [
    ("path3", lambda: path_graph(3),
     '{"iterations": 1, "labels": [2, 1, 1], "max_label": 2, "verified": true, "xi": 4}\n'),
    ("clique4", lambda: complete_graph(4),
     '{"iterations": 0, "labels": [1, 1, 1, 1], "max_label": 1, "verified": true, "xi": 2}\n'),
    ("isolated", lambda: Graph(7, [(0, 1), (1, 2), (2, 3)]),
     '{"iterations": 3, "labels": [3, 1, 1, 1, 6, 7, 1], "max_label": 7, "verified": true, '
     '"xi": 14}\n'),
    ("disconnected", lambda: Graph(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (6, 7)]),
     '{"iterations": 3, "labels": [2, 1, 1, 4, 1, 2, 1, 1, 1], "max_label": 4, '
     '"verified": true, "xi": 20}\n'),
    ("random40", lambda: random_graph(Random(40), 40, 0.3),
     '{"iterations": 7, "labels": [10, 25, 60, 20, 50, 8, 1, 1, 1, 1, 1, 1, 1, 1, 33, 1, 1, '
     '1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], "max_label": 60, '
     '"verified": true, "xi": 398}\n'),
]


@pytest.mark.parametrize("name,build,expected", GOLDEN_REPAIR_RUNS,
                         ids=[run[0] for run in GOLDEN_REPAIR_RUNS])
def test_label_repair_golden_stdout(capsys, tmp_path, name, build, expected):
    path = tmp_path / f"{name}.g"
    path.write_text(serialize_graph(build()))
    assert main(["label", "repair", str(path)]) == 0
    assert capsys.readouterr().out == expected


# `bounds` stdout and the all-ones `verify --kind graph` verdict on the
# graphs above, recorded while closed sums were still compared on the
# graph side rather than as edge sums of the closed-neighbourhood
# hypergraph.  clique4's four twins make all-ones pass.
GOLDEN_GRAPH_CHECKS = {
    "path3": ('{"distinct_neighborhoods": 3, "lower": 2, "max_degree": 2, "min_degree": 1, '
              '"upper_loose": 9, "xi": 4}\n', False),
    "clique4": ('{"distinct_neighborhoods": 1, "lower": 1, "max_degree": 3, "min_degree": 3, '
                '"upper_loose": 16, "xi": 2}\n', True),
    "isolated": ('{"distinct_neighborhoods": 7, "lower": 3, "max_degree": 2, "min_degree": 0, '
                 '"upper_loose": 21, "xi": 14}\n', False),
    "disconnected": ('{"distinct_neighborhoods": 6, "lower": 2, "max_degree": 2, '
                     '"min_degree": 0, "upper_loose": 27, "xi": 20}\n', False),
    "random40": ('{"distinct_neighborhoods": 40, "lower": 3, "max_degree": 17, "min_degree": 8, '
                 '"upper_loose": 720, "xi": 398}\n', False),
}


@pytest.mark.parametrize("name,build,repaired", GOLDEN_REPAIR_RUNS,
                         ids=[run[0] for run in GOLDEN_REPAIR_RUNS])
def test_bounds_and_verify_graph_golden_stdout(capsys, tmp_path, name, build, repaired):
    bounds, all_ones_verified = GOLDEN_GRAPH_CHECKS[name]
    g = build()
    path = tmp_path / f"{name}.g"
    path.write_text(serialize_graph(g))
    assert main(["bounds", str(path)]) == 0
    assert capsys.readouterr().out == bounds
    # the repair labeling passes; all-ones fails unless twins cover every tie
    for labels, verified in ((json.loads(repaired)["labels"], True),
                             ([1] * g.vertex_count, all_ones_verified)):
        code = main(["verify", str(path), "--kind", "graph",
                     "--labels", ",".join(map(str, labels))])
        assert code == (0 if verified else 1)
        assert capsys.readouterr().out == (
            f'{{"labels": {labels}, "max_label": {max(labels)}, '
            f'"verified": {"true" if verified else "false"}}}\n')


# `solve` stdout on fixed instances, recorded before the search checked
# forward and used symmetry classes.  Optimum and witness must stay
# byte-identical; only the node count may change, so it is masked.
GOLDEN_SOLVE_RUNS = [
    ("s", "K4", lambda: serialize_hypergraph(complete_hypergraph(4)),
     '{"nodes": _, "optimum": 7, "witness": [3, 5, 6, 7]}\n'),
    ("s", "K5", lambda: serialize_hypergraph(complete_hypergraph(5)),
     '{"nodes": _, "optimum": 13, "witness": [3, 6, 11, 12, 13]}\n'),
    ("s", "rand6", lambda: serialize_hypergraph(random_hypergraph(Random(5), 6, 10)),
     '{"nodes": _, "optimum": 3, "witness": [3, 1, 3, 1, 2, 1]}\n'),
    ("s", "rand8", lambda: serialize_hypergraph(random_hypergraph(Random(8), 8, 9, max_size=4)),
     '{"nodes": _, "optimum": 3, "witness": [3, 2, 2, 1, 3, 2, 3, 1]}\n'),
    ("s", "g6_08",
     lambda: serialize_hypergraph(graph_as_hypergraph(random_graph(Random(6), 6, 0.8))),
     '{"nodes": _, "optimum": 9, "witness": [8, 1, 2, 3, 5, 9]}\n'),
    ("s", "twins", lambda: "5 4\n2 0 1\n3 0 1 2\n1 3\n2 3 4\n",
     '{"nodes": _, "optimum": 2, "witness": [1, 2, 1, 1, 1]}\n'),
    ("s", "uncovered", lambda: "7 4\n2 1 3\n2 3 5\n1 5\n3 1 3 5\n",
     '{"nodes": _, "optimum": 2, "witness": [1, 2, 1, 1, 1, 1, 1]}\n'),
    ("sstar", "path6", lambda: serialize_graph(path_graph(6)),
     '{"nodes": _, "optimum": 3, "witness": [1, 1, 1, 2, 3, 2]}\n'),
    ("sstar", "star5", lambda: serialize_graph(star_graph(5)),
     '{"nodes": _, "optimum": 4, "witness": [1, 1, 2, 3, 4]}\n'),
    ("sstar", "g8_04", lambda: serialize_graph(random_graph(Random(9), 8, 0.4)),
     '{"nodes": _, "optimum": 2, "witness": [1, 2, 1, 2, 1, 2, 2, 2]}\n'),
    ("sstar", "caterpillar", lambda: serialize_graph(caterpillar_tree([2, 1, 2])),
     '{"nodes": _, "optimum": 3, "witness": [1, 3, 3, 1, 2, 1, 2, 3]}\n'),
    ("irr", "chain", lambda: "4 4\n2 0 1\n2 1 2\n2 2 3\n3 0 2 3\n",
     '{"nodes": _, "optimum": 2, "witness": [1, 1, 2, 2]}\n'),
    ("irr", "rand7", lambda: serialize_hypergraph(random_hypergraph(Random(2), 5, 7, max_size=3)),
     '{"nodes": _, "optimum": 2, "witness": [2, 1, 1, 1, 2, 1, 2]}\n'),
]


@pytest.mark.parametrize("variant,name,build,expected", GOLDEN_SOLVE_RUNS,
                         ids=[f"{run[0]}-{run[1]}" for run in GOLDEN_SOLVE_RUNS])
def test_solve_golden_stdout(capsys, tmp_path, variant, name, build, expected):
    path = tmp_path / name
    path.write_text(build())
    assert main(["solve", variant, str(path)]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r'\{"nodes": [1-9][0-9]*, .*\n', out)
    assert re.sub(r'"nodes": [0-9]+', '"nodes": _', out) == expected


@pytest.mark.parametrize("text", ["2000 1\n2 0 1\n", "3000 0\n"], ids=["one_edge", "no_edges"])
def test_solve_s_on_thousands_of_vertices(capsys, tmp_path, text):
    path = tmp_path / "big.hg"
    path.write_text(text)
    start = time.perf_counter()
    code = main(["solve", "s", str(path)])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["optimum"] == 1
    assert payload["witness"] == [1] * int(text.split()[0])
    assert elapsed < 2.0


# `pmf` stdout, recorded before the convolution computed half the support
# and mirrored it.  The three long runs are compared by SHA-256 digest.
GOLDEN_PMF_RUNS = [
    (("pmf", "1", "1"),
     '{"n_values": 1, "probabilities": [1.0], "summands": 1, "support": [1, 1]}\n'),
    (("pmf", "3", "4", "--exact"),
     '{"n_values": 4, "probabilities": ["1/64", "3/64", "3/32", "5/32", "3/16", "3/16", '
     '"5/32", "3/32", "3/64", "1/64"], "summands": 3, "support": [3, 12]}\n'),
    (("pmf", "2", "2", "--window", "2", "3", "--margin", "0"),
     '{"margin": {"C": 0.0, "value": 0.15}, "n_values": 2, "probabilities": [0.25, 0.5, '
     '0.25], "summands": 2, "support": [2, 4], "window": {"hi": 3, "lo": 2, "probability": '
     '0.75}}\n'),
    (("pmf", "5", "3", "--exact", "--window", "6", "9"),
     '{"n_values": 3, "probabilities": ["1/243", "5/243", "5/81", "10/81", "5/27", "17/81", '
     '"5/27", "10/81", "5/81", "5/243", "1/243"], "summands": 5, "support": [5, 15], '
     '"window": {"hi": 9, "lo": 6, "probability": "95/243"}}\n'),
    (("pmf", "7", "2", "--exact", "--window", "8", "10", "--margin", "1.5"),
     '{"margin": {"C": 1.5, "value": 33.80292039226238}, "n_values": 2, "probabilities": '
     '["1/128", "7/128", "21/128", "35/128", "35/128", "21/128", "7/128", "1/128"], '
     '"summands": 7, "support": [7, 14], "window": {"hi": 10, "lo": 8, "probability": '
     '"63/128"}}\n'),
    (("pmf", "6", "5", "--margin", "0.75"),
     '{"margin": {"C": 0.75, "value": 1.613418412317061}, "n_values": 5, "probabilities": '
     '[6.4e-05, 0.000384, 0.001344, 0.003584, 0.008064, 0.015744, 0.027264, 0.042624, '
     '0.060864, 0.079744, 0.096384, 0.107904, 0.112064, 0.107904, 0.096384, 0.079744, '
     '0.060864, 0.042624, 0.027264, 0.015744, 0.008064, 0.003584, 0.001344, 0.000384, '
     '6.4e-05], "summands": 6, "support": [6, 30]}\n'),
    (("pmf", "2", "10", "--exact", "--window", "-3", "5"),
     '{"n_values": 10, "probabilities": ["1/100", "1/50", "3/100", "1/25", "1/20", "3/50", '
     '"7/100", "2/25", "9/100", "1/10", "9/100", "2/25", "7/100", "3/50", "1/20", "1/25", '
     '"3/100", "1/50", "1/100"], "summands": 2, "support": [2, 20], "window": {"hi": 5, '
     '"lo": -3, "probability": "1/10"}}\n'),
    (("--format", "text", "pmf", "3", "2", "--exact", "--window", "4", "5", "--margin", "0.5"),
     "margin: {'C': 0.5, 'value': 0.9236320123663313}\nn_values: 2\n"
     "probabilities: ['1/8', '3/8', '3/8', '1/8']\nsummands: 3\nsupport: [3, 6]\n"
     "window: {'lo': 4, 'hi': 5, 'probability': '3/4'}\n"),
    (("pmf", "40", "13", "--exact", "--window", "200", "300", "--margin", "1"),
     "sha256:d5bb763848309d959bedf99f216ad6535a650b7aa25f418a82acb4b68c248c04"),
    (("pmf", "31", "8", "--window", "100", "150", "--margin", "0.5"),
     "sha256:93cb80ef01ecd9754ea37830f5d6db89c4b7b3e167ab75f7f78a9277e8c34cc4"),
    (("pmf", "100", "50", "--exact"),
     "sha256:3d50cabaf01ba27cb4e24616c5bc00a0e08d817f66620fa9bfae1e9b1cc01434"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_PMF_RUNS,
                         ids=[" ".join(run[0]) for run in GOLDEN_PMF_RUNS])
def test_pmf_golden_stdout(capsys, argv, expected):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    if expected.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert out == expected


# Written files and stdout of the commands that write instance text, by
# SHA-256 digest, pinned against changes to the writer.  The dual's input
# is a seeded random hypergraph; the runiform runs at p = 0.0002 list
# fewer vertex tokens than vertices.
GOLDEN_WRITE_RUNS = [
    ("dual", 1, ("dual", "{input}", "--out", "{out}"),
     "2a80df7763360ee5c028fa9d77a5067997e9174209213a12982c46f99a8adb0a",
     "352e007d5aa96efcfa05e33a35bdf554dbe9ebb295b0d73a081c68acbae2ce42"),
    ("dual", 2, ("dual", "{input}", "--out", "{out}"),
     "bf878119172389fc41a87169eaeb05c154e4f34d6625809f65eeff129427331e",
     "94f8643b7f6b8fe55a219b5234137bf4ba644fdbbfb3ff46113f186e184a1f7f"),
    ("runiform", 1, ("gen", "runiform", "60", "3", "0.05", "--out", "{out}"),
     "4d1e42a3be72bee86ac7c0b06eb9cac9d25cd94e4c65f131886b85cc5bcd92e7",
     "c93f2f815798fe8971bfa0253cd4b92934493040b69e9cb94d4e943dc97c5750"),
    ("runiform", 2, ("gen", "runiform", "60", "3", "0.05", "--out", "{out}"),
     "a10308c6c2fb4d8812533dec08ccdc7c8aa65242ecb4079e669f13144739d30e",
     "c7b6b4e3a3e674777aa1b040cb7a7eabc5a4b6bbc7f17ad65308e647b9cea2be"),
    ("runiform_sparse", 1, ("gen", "runiform", "400", "2", "0.0002", "--out", "{out}"),
     "3d04d8e11638e761bdb599433e5409f7dceb9fe86d1f4c3168fd5f781328b956",
     "34202bdd888a311204ea2fb82f63f2a44d0774b9c489620ff8ef96c53c74a359"),
    ("runiform_sparse", 2, ("gen", "runiform", "400", "2", "0.0002", "--out", "{out}"),
     "7b3c6829f64c164145ee285c55e0e82640b55e0627e19ec4b436ab1ab4033af8",
     "c0f0f368f20e5d5ee219c0d6e384338769cadb2eb51d7900ca40103fb9f6443b"),
    ("lowerbound", 1, ("gen", "lowerbound", "200", "2000", "0.9"),
     "668b938a72c5f466696f9d8bc860b280b565b6d05255f6dfa64a7a2e42ab6840",
     None),
    ("lowerbound", 2, ("gen", "lowerbound", "200", "2000", "0.9"),
     "3e2879a7917a49e38ab00f48b68b15f00c9ad50d7e0f0f81313f072bd53b6471",
     None),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name,seed,argv,stdout,written", GOLDEN_WRITE_RUNS,
                         ids=[f"{run[0]}-{run[1]}" for run in GOLDEN_WRITE_RUNS])
def test_written_instance_golden_digests(capsys, tmp_path, name, seed, argv, stdout, written):
    source, out = tmp_path / "in.hg", tmp_path / "out.hg"
    source.write_text(serialize_hypergraph_oracle(
        random_hypergraph(Random(seed), 300, 400, max_size=6)))
    argv = [a.format(input=source, out=out) for a in argv]
    if argv[0] == "gen":
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out.replace(str(out), "out.hg").encode()) == stdout
    assert (_sha256(out.read_bytes()) if out.exists() else None) == written
