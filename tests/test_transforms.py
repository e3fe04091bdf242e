"""Structural transformations: dual, neighborhoods, and the split embedding."""

import warnings
from collections import Counter
from itertools import product
from random import Random

import pytest

from sumlabel import (DualDegenerate, Graph, Hypergraph, Labeling, ShapeError, ValidationError,
                      closed_neighborhood_hypergraph, dual, is_distinguishing,
                      is_vertex_sum_distinguishing)

from helpers import (all_graphs, closed_neighborhood_groups_oracle, complete_graph, dual_oracle,
                     is_vertex_sum_distinguishing_oracle, path_graph, random_graph,
                     random_hypergraph, split_embed)


def edge_sets(h: Hypergraph) -> list[set[int]]:
    return [set(e) for e in h.edges]


class TestDual:
    def test_two_overlapping_edges(self):
        d = dual(Hypergraph(3, [{0, 1}, {1, 2}]))
        assert d.vertex_count == 2
        assert edge_sets(d) == [{0}, {0, 1}, {1}]

    def test_nested_edges(self):
        d = dual(Hypergraph(2, [{0, 1}, {1}]))
        assert d.vertex_count == 2
        assert edge_sets(d) == [{0}, {0, 1}]

    def test_single_edge_is_degenerate(self):
        with pytest.raises(DualDegenerate) as err:
            dual(Hypergraph(2, [{0, 1}]))
        assert (0, 1) in err.value.groups
        # the two uncovered vertices share an empty incidence set but are no group
        with pytest.raises(DualDegenerate) as err:
            dual(Hypergraph(4, [{0, 1}]))
        assert err.value.groups == [(0, 1)]
        with pytest.raises(DualDegenerate) as err:
            dual(Hypergraph(6, [{0, 1}, {2, 3}, {2, 3, 4}]))
        assert err.value.groups == [(0, 1), (2, 3)]

    def test_uncovered_vertex_skipped_without_warning(self):
        h = Hypergraph(3, [{0}, {0, 1}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = dual(h)
        assert d.vertex_count == 2 and edge_sets(d) == [{0, 1}, {1}]

    def test_matches_earlier_dual(self):
        # seeded hypergraphs with n <= 7: edgeless ones, twins and uncovered
        # vertices included.  Same dual, or the same error, and no warning;
        # an edgeless input is named as such, where the earlier dual
        # reported its own empty vertex set.
        rng = Random(29)
        seen: Counter[str] = Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(1200):
                n = rng.randint(1, 7)
                h = random_hypergraph(rng, n, rng.randint(0, min(8, 2**n - 1)))
                if not h.edge_count:
                    with pytest.raises(ValidationError, match="^hypergraph has no edges"):
                        dual(h)
                    seen["edgeless"] += 1
                    continue
                try:
                    expected, skipped = dual_oracle(h)
                except (DualDegenerate, ValidationError) as exc:
                    with pytest.raises(type(exc)) as err:
                        dual(h)
                    assert str(err.value) == str(exc)
                    assert getattr(err.value, "groups", None) == getattr(exc, "groups", None)
                    seen[type(exc).__name__] += 1
                    continue
                d = dual(h)
                assert (d.vertex_count, d.edges) == (expected.vertex_count, expected.edges)
                seen["uncovered" if skipped else "covered"] += 1
        assert len(seen) == 4 and min(seen.values()) >= 50, seen

    def test_involution_on_clean_instances(self):
        rng = Random(7)
        done = 0
        while done < 100:
            n = rng.randint(1, 5)
            h = random_hypergraph(rng, n, rng.randint(1, min(6, 2**n - 1)))
            incidences = h.incidence
            if any(not inc for inc in incidences) or len(set(incidences)) < h.vertex_count:
                continue
            done += 1
            d = dual(h)
            assert d.vertex_count == h.edge_count
            assert d.edge_count <= h.vertex_count
            dd = dual(d)
            assert dd.vertex_count == h.vertex_count
            assert dd.edges == h.edges


class TestClosedNeighborhoods:
    def test_path(self):
        h = closed_neighborhood_hypergraph(path_graph(3))
        assert edge_sets(h) == [{0, 1}, {0, 1, 2}, {1, 2}]

    def test_k2_collapses(self):
        h = closed_neighborhood_hypergraph(Graph(2, [(0, 1)]))
        assert edge_sets(h) == [{0, 1}]

    def test_edgeless(self):
        h = closed_neighborhood_hypergraph(Graph(3, []))
        assert edge_sets(h) == [{0}, {1}, {2}]

    def test_vertexless_graph_rejected(self):
        with pytest.raises(ValidationError, match="^graph has no vertices"):
            closed_neighborhood_hypergraph(Graph(0, []))

    @staticmethod
    def _assert_edges_follow_groups(g):
        # one edge per group, in the order of each group's smallest vertex
        groups = closed_neighborhood_groups_oracle(g)
        expected = tuple(g.closed_neighborhood(vs[0]) for vs in groups)
        assert tuple(map(frozenset, closed_neighborhood_hypergraph(g).edges)) == expected

    def test_groups_and_vertex_check_match_earlier_code(self):
        verdicts: Counter[bool] = Counter()
        for n in range(1, 6):
            labelings = [Labeling(values) for values in product((1, 2), repeat=n)]
            for g in all_graphs(n):
                self._assert_edges_follow_groups(g)
                for f in labelings:
                    verdict = is_vertex_sum_distinguishing(g, f)
                    assert verdict == is_vertex_sum_distinguishing_oracle(g, f)
                    verdicts[verdict] += 1
        rng = Random(31)
        for _ in range(500):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.random())
            self._assert_edges_follow_groups(g)
            labelings = [Labeling([rng.randint(1, 3) for _ in range(n)]) for _ in range(3)]
            for f in [*labelings, Labeling([1 << i for i in range(n)])]:
                verdict = is_vertex_sum_distinguishing(g, f)
                assert verdict == is_vertex_sum_distinguishing_oracle(g, f)
                verdicts[verdict] += 1
        assert min(verdicts[True], verdicts[False]) > 1000, verdicts

    def test_equivalence_with_vertex_check(self):
        # same verdict from the graph-side oracle and the hypergraph-side check
        rng = Random(11)
        for n in range(1, 6):
            for g in all_graphs(n):
                h = closed_neighborhood_hypergraph(g)
                for _ in range(3):
                    f = Labeling([rng.randint(1, 4) for _ in range(n)])
                    assert is_vertex_sum_distinguishing_oracle(g, f) == is_distinguishing(h, f)


class TestOpenNeighborhoods:
    def test_complement_identity(self):
        rng = Random(13)
        for _ in range(50):
            n = rng.randint(2, 6)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.6])
            comp = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if (u, v) not in g.edges])
            for v in range(n):
                assert g.adjacency[v] == set(range(n)) - comp.closed_neighborhood(v)


class TestSplitEmbed:
    def test_two_edge_example(self):
        g, b_map = split_embed(Hypergraph(2, [{0}, {0, 1}]))
        assert g.vertex_count == 4
        assert b_map == (2, 3)
        assert g.edges == {(0, 1), (0, 2), (1, 2), (1, 3)}

    def test_singleton(self):
        g, b_map = split_embed(Hypergraph(1, [{0}]))
        assert g.vertex_count == 2 and g.edges == {(0, 1)} and b_map == (2 - 1,)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            split_embed(Hypergraph(3, [{0, 1}]))

    def test_restriction_of_solver_witness(self):
        h = Hypergraph(2, [{0}, {0, 1}])
        g, b_map = split_embed(h)
        from sumlabel import exact_s_star

        witness = exact_s_star(g).witness
        assert is_vertex_sum_distinguishing(g, witness)
        restricted = Labeling([witness.values[b] for b in b_map])
        assert is_distinguishing(h, restricted)

    def test_restriction_property_exhaustively(self):
        rng = Random(17)
        for _ in range(50):
            n = rng.randint(1, 4)
            h = random_hypergraph(rng, n, n)
            g, b_map = split_embed(h)
            cap = 2 if n >= 3 else 3
            for values in product(range(1, cap + 1), repeat=g.vertex_count):
                f = Labeling(values)
                if is_vertex_sum_distinguishing(g, f):
                    restricted = Labeling([values[b] for b in b_map])
                    assert is_distinguishing(h, restricted)


def test_complete_graph_single_closed_class():
    assert closed_neighborhood_hypergraph(complete_graph(4)).edge_count == 1
