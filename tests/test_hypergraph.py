"""Data model and basic labeling checks."""

from itertools import combinations, product
from operator import is_, lt
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from sumlabel import (DimensionError, Graph, Hypergraph, Labeling, ValidationError,
                      closed_neighborhood_hypergraph, dual, edge_sums, gen_runiform,
                      is_distinguishing, is_vertex_sum_distinguishing, lower_bound_instance)
from sumlabel.formats import parse_hypergraph

from helpers import (complete_hypergraph, hypergraph_oracle, path_graph, random_graph,
                     random_hypergraph)


# what an edge may come as: a generator is read once, so each call gets its own
CONTAINERS = (list, tuple, set, frozenset, iter)


@st.composite
def constructor_inputs(draw):
    """``(vertex_count, [(container, vertices), ...])``: edges in any order,
    vertices in any order and repeated, copies of earlier edges, empty
    edges, out-of-range vertices and, rarely, no vertex at all."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6] * 3 + [0, -1]))
    top = max(n, 1)
    vertex = st.sampled_from(list(range(top)) * 4 + [-2, -1, top, top + 3])
    edges = draw(st.lists(st.lists(vertex, min_size=1, max_size=5), max_size=8))
    if edges and draw(st.booleans()):  # a copy of an earlier edge, reordered
        copy = draw(st.permutations(draw(st.sampled_from(edges))))
        edges.insert(draw(st.integers(0, len(edges))), copy)
    if draw(st.sampled_from([False] * 9 + [True])):
        edges.insert(draw(st.integers(0, len(edges))), [])
    return n, [(draw(st.sampled_from(CONTAINERS)), vs) for vs in edges]


def _edge_sets_or_error(build, n, spec):
    """``build(n, edges)`` with each edge in its container, as a tuple of
    frozensets, or its error's class, message, reason, edge and first."""
    try:
        return tuple(map(frozenset, build(n, [make(vs) for make, vs in spec])))
    except ValidationError as exc:
        return type(exc), str(exc), exc.reason, exc.edge, exc.first


def assert_canonical(h: Hypergraph) -> None:
    """``edges`` and ``incidence`` are tuples of strictly increasing int tuples."""
    assert type(h.edges) is tuple and type(h.incidence) is tuple
    for seq in (*h.edges, *h.incidence):
        assert type(seq) is tuple and {*map(type, seq)} <= {int}
        assert all(map(lt, seq, seq[1:]))


class TestConstructorAgainstOracle:
    """The constructor keeps the edge sets, and raises the errors, of the
    earlier one that stored one frozenset per edge."""

    @settings(max_examples=400)
    @given(constructor_inputs())
    def test_same_edge_sets_or_error(self, case):
        n, spec = case
        got = _edge_sets_or_error(lambda n, edges: Hypergraph(n, edges).edges, n, spec)
        assert got == _edge_sets_or_error(hypergraph_oracle, n, spec)
        if not got or got[0] is not ValidationError:
            assert_canonical(Hypergraph(n, [make(vs) for make, vs in spec]))

    def test_canonical_edges_are_kept_as_they_are(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        h = Hypergraph(3, edges)
        assert all(map(is_, h.edges, edges))
        assert all(map(is_, dual(h).edges, h.incidence))

    def test_only_edges_out_of_order_are_rebuilt(self):
        edges = [(0, 1), (2, 1), [2, 0, 2], (3,)]
        h = Hypergraph(4, edges)
        assert h.edges == ((0, 1), (1, 2), (0, 2), (3,))
        assert h.edges[0] is edges[0] and h.edges[3] is edges[3]

    @pytest.mark.parametrize("edge,named", [((-1, 0, 4), -1), ((-2, -1), -2),
                                            ((0, 7, 5), 5), ((9, 4), 4)])
    def test_names_the_smallest_out_of_range_vertex(self, edge, named):
        with pytest.raises(ValidationError) as err:
            Hypergraph(4, [(0,), edge])
        assert (err.value.edge, err.value.reason) == (1, f"vertex {named} out of range [0, 4)")


def _shuffled_text(rng: Random, h: Hypergraph) -> str:
    """The ".hg" text of ``h`` with the vertices of each line shuffled."""
    lines = [f"{h.vertex_count} {h.edge_count}"]
    for e in h.edges:
        vs = rng.sample(e, len(e))
        lines.append(" ".join(map(str, [len(vs), *vs])))
    return "\n".join(lines) + "\n"


class TestCanonicalShape:
    """Every way to make a hypergraph gives strictly increasing int tuples."""

    def test_parse_hypergraph_and_dual(self):
        rng = Random(181)
        h = random_hypergraph(rng, 30, 60, max_size=8)
        parsed = parse_hypergraph(_shuffled_text(rng, h))
        assert_canonical(parsed)
        assert [*map(set, parsed.edges)] == [*map(set, h.edges)]
        assert_canonical(dual(parsed))

    def test_generators(self):
        assert_canonical(gen_runiform(9, 3, 0.4, 5))
        assert_canonical(lower_bound_instance(100, 100, 0.9, seed=5).hypergraph)

    def test_closed_neighborhood_hypergraph(self):
        rng = Random(191)
        for _ in range(20):
            assert_canonical(closed_neighborhood_hypergraph(random_graph(rng, 12, 0.3)))


class TestConstruction:
    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            Hypergraph(0, [])

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError, match="empty"):
            Hypergraph(2, [set()])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(2, [{0, 5}])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph(3, [{0, 1}, {1, 0}])

    @pytest.mark.parametrize("edges,edge,first,reason", [
        ([{0}, set(), {1}], 1, None, "empty edge"),
        ([{0}, {1, 4}, {0}], 1, None, "vertex 4 out of range [0, 3)"),
        ([{0}, {1, -2}], 1, None, "vertex -2 out of range [0, 3)"),
        ([{0, 1}, {2}, (1, 0), {2}], 2, 0, "duplicate edge"),
    ])
    def test_validation_error_names_the_first_faulty_edge(self, edges, edge, first, reason):
        with pytest.raises(ValidationError) as err:
            Hypergraph(3, edges)
        assert isinstance(err.value, ValueError)
        assert (err.value.edge, err.value.first, err.value.reason) == (edge, first, reason)
        assert err.value.line is None

    def test_messages_name_the_edge_position(self):
        with pytest.raises(ValidationError, match=r"^edge 1 is empty$"):
            Hypergraph(2, [{0}, ()])
        with pytest.raises(ValidationError, match=r"^edge 0: vertex 5 out of range \[0, 2\)$"):
            Hypergraph(2, [{0, 5}])
        with pytest.raises(ValidationError, match=r"^duplicate edge \[0, 1\] at position 1$"):
            Hypergraph(2, [{0, 1}, (1, 0)])
        with pytest.raises(ValidationError, match="^hypergraph needs at least one vertex$"):
            Hypergraph(0, [])

    def test_graph_keeps_a_repeated_pair_once(self):
        assert Graph(3, [(0, 1), (1, 0), (0, 1)]).edges == {(0, 1)}

    def test_graph_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(2, [(1, 1)])

    def test_labeling_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Labeling([1, 0])

    @pytest.mark.parametrize("values", [[1.7, 2.2], ["3", 1], [True, 2], [2, 3.0], [1, None]])
    def test_labeling_rejects_non_int_values(self, values):
        with pytest.raises(ValueError, match="^labels must be positive integers$"):
            Labeling(values)

    @pytest.mark.parametrize("n,pairs,edge,reason,message", [
        (-1, [], None, "vertex count must be non-negative", "vertex count must be non-negative"),
        (3, [(0, 1), (2, 2), (0, 5)], 1, "self-loop at vertex 2", "self-loop at vertex 2"),
        (3, [(0, 1), (5, -1)], 1, "vertex 5 out of range [0, 3)",
         "edge (5,-1) out of range [0, 3)"),
        (3, [(1, 0), (0, -1)], 1, "vertex -1 out of range [0, 3)",
         "edge (0,-1) out of range [0, 3)"),
    ])
    def test_graph_validation_error_names_the_first_faulty_pair(self, n, pairs, edge, reason,
                                                                message):
        with pytest.raises(ValidationError) as err:
            Graph(n, pairs)
        assert isinstance(err.value, ValueError)
        assert (err.value.edge, err.value.reason, str(err.value)) == (edge, reason, message)

    def test_labeling_max(self):
        assert Labeling([2, 7, 1]).max_label == 7


class TestEdgeSums:
    def test_two_edges_all_ones(self):
        h = Hypergraph(2, [{0}, {0, 1}])
        assert edge_sums(h, Labeling([1, 1])) == (1, 2)

    def test_powers_on_full_triple(self):
        # all 7 nonempty subsets of {0,1,2} in size-then-lex order
        h = complete_hypergraph(3)
        assert edge_sums(h, Labeling([1, 2, 4])) == (1, 2, 4, 3, 5, 6, 7)

    def test_path_shaped(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}])
        assert edge_sums(h, Labeling([1, 1, 2])) == (2, 3)

    def test_dimension_mismatch(self):
        h = Hypergraph(2, [{0}])
        with pytest.raises(DimensionError):
            edge_sums(h, Labeling([1, 1, 1]))


class TestIsDistinguishing:
    def test_distinct_singletons(self):
        h = Hypergraph(2, [{0}, {1}])
        assert is_distinguishing(h, Labeling([1, 2]))
        assert not is_distinguishing(h, Labeling([1, 1]))

    def test_full_triple_with_colliding_labels(self):
        # sums of {2} and {0,1} both equal 3
        assert not is_distinguishing(complete_hypergraph(3), Labeling([1, 2, 3]))

    @given(st.data())
    def test_matches_definition(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        edges = data.draw(
            st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=6, unique=True),
            label="edges")
        values = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n), label="labels")
        h, f = Hypergraph(n, edges), Labeling(values)
        sums = edge_sums(h, f)
        assert is_distinguishing(h, f) == (len(set(sums)) == len(sums))

    def test_all_singletons_force_injective(self):
        # with every singleton an edge, the singleton sums are the labels
        rng = Random(19)
        for _ in range(25):
            n = rng.randint(2, 4)
            h = random_hypergraph(rng, n, rng.randint(1, 3))
            h = Hypergraph(n, {*map(frozenset, h.edges), *(frozenset({v}) for v in range(n))})
            for values in product(range(1, 4), repeat=n):
                if is_distinguishing(h, Labeling(values)):
                    assert len(set(values)) == n


class TestVertexSums:
    def test_single_edge_pair_exempt(self):
        g = Graph(2, [(0, 1)])
        assert is_vertex_sum_distinguishing(g, Labeling([1, 1]))

    def test_path_all_ones_fails(self):
        assert not is_vertex_sum_distinguishing(path_graph(3), Labeling([1, 1, 1]))

    def test_path_distinct(self):
        g = path_graph(3)
        assert edge_sums(closed_neighborhood_hypergraph(g), Labeling([1, 1, 2])) == (2, 4, 3)
        assert is_vertex_sum_distinguishing(g, Labeling([1, 1, 2]))

    @pytest.mark.parametrize("n,values", [(3, [1, 1]), (3, [1, 1, 1, 1]), (0, [1])])
    def test_wrong_length_raises_dimension_error(self, n, values):
        g = path_graph(n) if n else Graph(0, [])
        with pytest.raises(DimensionError) as info:
            is_vertex_sum_distinguishing(g, Labeling(values))
        assert str(info.value) == f"labeling has {len(values)} values, instance has {n} vertices"

    @given(st.data())
    def test_closed_sums_match_bruteforce(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                           else st.just([]), label="edges")
        values = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n), label="labels")
        g, f = Graph(n, chosen), Labeling(values)
        closed = [frozenset(u for u in range(n) if u == v or (min(u, v), max(u, v)) in g.edges)
                  for v in range(n)]
        expected = {closed[v]: sum(values[u] for u in closed[v]) for v in range(n)}
        # one edge per closed-neighbourhood class, carrying that class's sum
        h = closed_neighborhood_hypergraph(g)
        assert dict(zip(map(frozenset, h.edges), edge_sums(h, f))) == expected


class TestPowersOfTwo:
    # exact_s's ceiling 2**(c - 1) rests on this: distinct vertex sets have
    # distinct binary sums
    @pytest.mark.parametrize("n", range(2, 11))
    def test_distinguishes_random_hypergraphs(self, n):
        rng = Random(1000 + n)
        f = Labeling([1 << i for i in range(n)])
        for _ in range(200):
            m = rng.randint(1, min(2 * n, 2**n - 1))
            h = random_hypergraph(rng, n, m)
            assert is_distinguishing(h, f)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_distinguishes_complete_hypergraph(self, n):
        # all 2**n - 1 vertex sets at once, the case the ceiling covers
        assert is_distinguishing(complete_hypergraph(n), Labeling([1 << i for i in range(n)]))


def test_incidence_sets():
    h = Hypergraph(3, [{0, 1}, {1, 2}])
    assert tuple(map(frozenset, h.incidence)) == (
        frozenset({0}), frozenset({0, 1}), frozenset({1}))


def test_incidence_matches_membership():
    rng = Random(149)
    for _ in range(50):
        n = rng.randint(1, 9)
        h = random_hypergraph(rng, n, rng.randint(0, min(12, 2**n - 1)))
        assert tuple(map(frozenset, h.incidence)) == tuple(
            frozenset(i for i, e in enumerate(h.edges) if v in e) for v in range(n))


def test_full_triple_edge_order_is_size_then_lex():
    h = complete_hypergraph(3)
    assert [tuple(sorted(e)) for e in h.edges] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert list(combinations(range(3), 2)) == [(0, 1), (0, 2), (1, 2)]
