"""Degree bounds, the repair labeler, and the tree labeler."""

import time
from random import Random

import pytest

from sumlabel import (Graph, ShapeError, exact_s_star, is_vertex_sum_distinguishing,
                      leaf_stat, repair_labeler, s_star_bounds, tree_labeler)
from sumlabel.hypergraph import Labeling

from helpers import (broom_tree, caterpillar_tree, complete_graph, path_graph, random_graph,
                     random_tree, repair_labeler_oracle, spider_tree, star_graph,
                     tree_labeler_oracle)


class TestBounds:
    def test_clique(self):
        rep = s_star_bounds(complete_graph(4))
        assert rep.distinct_neighborhood_count == 1
        assert rep.min_degree == rep.max_degree == 3
        assert rep.lower == 1
        assert rep.xi == 2

    def test_disjoint_cliques(self):
        # K_4 together with K_2: two closed-neighborhood classes
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)])
        rep = s_star_bounds(g)
        assert rep.distinct_neighborhood_count == 2
        assert rep.min_degree == 1 and rep.max_degree == 3
        assert rep.lower == 1

    def test_path(self):
        rep = s_star_bounds(path_graph(3))
        assert rep.distinct_neighborhood_count == 3
        assert (rep.min_degree, rep.max_degree) == (1, 2)
        assert rep.lower == 2
        assert rep.xi == 4

    def test_loose_upper(self):
        rng = Random(101)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.random())
            rep = s_star_bounds(g)
            assert rep.lower <= rep.xi
            if g.edge_count > 0:  # the loose chain needs a nonempty graph
                assert rep.xi <= rep.upper_loose == (rep.max_degree + 1) * n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_edgeless_xi_above_loose_upper(self, n):
        # n singleton closed neighborhoods: s* = n = (Delta+1) n < xi = n + 1
        g = Graph(n, [])
        rep = s_star_bounds(g)
        assert rep.upper_loose == n == exact_s_star(g).optimum < rep.xi == n + 1


class TestRepair:
    def test_path(self):
        res = repair_labeler(path_graph(3))
        assert is_vertex_sum_distinguishing(path_graph(3), res.labeling)
        assert res.labeling.max_label <= 4

    def test_clique_needs_no_steps(self):
        res = repair_labeler(complete_graph(4))
        assert res.labeling.values == (1, 1, 1, 1)
        assert res.steps == ()

    def test_edgeless_graph(self):
        g = Graph(4, [])
        res = repair_labeler(g)
        assert is_vertex_sum_distinguishing(g, res.labeling)
        assert res.labeling.max_label <= res.xi == 5

    def test_random_graphs_with_trace_invariants(self):
        rng = Random(103)
        for _ in range(60):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.choice((0.15, 0.4, 0.7, 0.95)))
            res = repair_labeler(g)
            assert is_vertex_sum_distinguishing(g, res.labeling)
            assert res.labeling.max_label <= res.xi
            assert len(res.steps) <= n * (n - 1) // 2
            counts = [s.bad_pairs_before for s in res.steps]
            assert all(a > b for a, b in zip(counts, counts[1:]))
            assert all(1 <= s.new_label <= res.xi and s.new_label != s.old_label
                       for s in res.steps)

    @staticmethod
    def _assert_matches_oracle(g):
        res, expected = repair_labeler(g), repair_labeler_oracle(g)
        assert (res.labeling.values, res.xi, res.steps) == (
            expected.labeling.values, expected.xi, expected.steps)
        return res

    def test_matches_earlier_repair(self):
        # same labels, xi and steps (bad-pair counts included) as the
        # version that rescanned every checkable pair at each step
        rng = Random(109)
        stepped = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 16), rng.choice((0.0, 0.15, 0.4, 0.7, 0.95)))
            stepped += bool(self._assert_matches_oracle(g).steps)
        assert stepped >= 100, stepped

    def test_matches_earlier_repair_with_isolated_vertices(self):
        # an isolated vertex x has N[x] = {x}, so the forbidden mask is the
        # outside sums shifted by 0
        rng = Random(113)
        relabeled_isolated = 0
        for _ in range(150):
            n, extra = rng.randint(0, 12), rng.randint(1, 5)
            core = random_graph(rng, n, rng.choice((0.2, 0.5, 0.9)))
            g = Graph(n + extra, core.edges)
            res = self._assert_matches_oracle(g)
            relabeled_isolated += any(s.vertex >= n for s in res.steps)
        assert relabeled_isolated >= 30, relabeled_isolated

    def test_matches_earlier_repair_on_disconnected_graphs(self):
        rng = Random(127)
        stepped = 0
        for _ in range(150):
            parts = [random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.6, 1.0)))
                     for _ in range(rng.randint(2, 4))]
            edges, offset = [], 0
            for part in parts:
                edges += [(a + offset, b + offset) for a, b in part.edges]
                offset += part.vertex_count
            stepped += bool(self._assert_matches_oracle(Graph(offset, edges)).steps)
        assert stepped >= 50, stepped

    def test_deterministic(self):
        g = random_graph(Random(107), 10, 0.5)
        a, b = repair_labeler(g), repair_labeler(g)
        assert a.labeling.values == b.labeling.values and a.steps == b.steps


class TestLeafStat:
    def test_star(self):
        stat = leaf_stat(star_graph(5))
        assert stat.max_leaf_neighbors == 4 and stat.vertex == 0

    def test_path_four(self):
        assert leaf_stat(path_graph(4)).max_leaf_neighbors == 1

    def test_two_vertices(self):
        stat = leaf_stat(path_graph(2))
        assert stat.max_leaf_neighbors == 1 and stat.vertex == 0

    def test_rejects_non_tree(self):
        with pytest.raises(ShapeError):
            leaf_stat(complete_graph(3))


class TestTreeLabeler:
    def test_star_hits_bound(self):
        t = star_graph(5)
        f = tree_labeler(t)
        assert is_vertex_sum_distinguishing(t, f)
        assert f.max_label <= 2 * 5 - 2 - 4 == 4

    def test_path_four(self):
        t = path_graph(4)
        f = tree_labeler(t)
        assert is_vertex_sum_distinguishing(t, f)
        assert f.max_label <= 2 * 4 - 2 - 1

    def test_edge(self):
        assert tree_labeler(path_graph(2)).values == (1, 1)

    def test_rejects_cycle_and_disconnected(self):
        with pytest.raises(ShapeError):
            tree_labeler(complete_graph(3))
        with pytest.raises(ShapeError):
            tree_labeler(Graph(4, [(0, 1), (2, 3), (1, 2), (0, 2)]))
        with pytest.raises(ShapeError):
            tree_labeler(Graph(1, []))
        # n - 1 edges, but vertex 3 is cut off
        with pytest.raises(ShapeError, match="graph is not connected"):
            tree_labeler(Graph(4, [(0, 1), (1, 2), (0, 2)]))

    def test_random_trees_within_bound(self):
        rng = Random(109)
        for _ in range(60):
            n = rng.randint(3, 25)
            t = random_tree(rng, n)
            f = tree_labeler(t)
            assert is_vertex_sum_distinguishing(t, f)
            assert f.max_label <= 2 * n - 2 - leaf_stat(t).max_leaf_neighbors

    def test_never_beats_the_exact_optimum(self):
        from sumlabel import exact_s_star

        rng = Random(211)
        for _ in range(20):
            n = rng.randint(3, 8)
            t = random_tree(rng, n)
            exact = exact_s_star(t).optimum
            f = tree_labeler(t)
            assert exact <= f.max_label <= 2 * n - 2 - leaf_stat(t).max_leaf_neighbors

    def test_caterpillar(self):
        # spine 0-1-2 with two leaves on each spine vertex
        t = caterpillar_tree([2, 2, 2])
        f = tree_labeler(t)
        assert is_vertex_sum_distinguishing(t, f)
        assert f.max_label <= 2 * t.vertex_count - 2 - 2


def _oracle_trees(family):
    """Seeded trees of one shape; 3,188 over all families."""
    rng = Random(f"tree-oracle-{family}")
    if family == "random_small":
        return [random_tree(rng, rng.randint(2, 60)) for _ in range(2400)]
    if family == "random_large":
        return [random_tree(rng, rng.randint(60, 400)) for _ in range(40)]
    if family == "path":
        return [path_graph(n) for n in range(2, 151)]
    if family == "star":
        return [star_graph(n) for n in range(2, 151)]
    if family == "broom":
        return [broom_tree(rng.randint(1, 40), rng.randint(1, 60)) for _ in range(150)]
    if family == "caterpillar":
        return [caterpillar_tree([rng.randint(0, 4) for _ in range(rng.randint(2, 30))])
                for _ in range(150)]
    assert family == "spider"
    return [spider_tree([rng.randint(1, 10) for _ in range(rng.randint(1, 8))])
            for _ in range(150)]


class TestTreeLabelerAgainstOracle:
    """The incremental labeler must make the oracle's choice at every step."""

    @pytest.mark.parametrize("family", ["random_small", "random_large", "path", "star",
                                        "broom", "caterpillar", "spider"])
    def test_same_labels_as_oracle(self, family):
        for t in _oracle_trees(family):
            assert tree_labeler(t).values == tree_labeler_oracle(t)

    def test_ties_on_the_maximum_leaf_count(self):
        # spine vertices 0, 2 and 4 (and later others) tie on the most leaves;
        # the smallest tied vertex loses a leaf first
        for legs in ([2, 0, 2], [2, 2, 2], [3, 1, 3, 1, 3], [1, 3, 0, 3, 1], [2, 1, 2, 1]):
            t = caterpillar_tree(legs)
            assert tree_labeler(t).values == tree_labeler_oracle(t), legs

    def test_anchor_that_becomes_a_leaf(self):
        # legs 0-1-2, 0-3-4, 0-5-6: removing 2 makes 1 a leaf of 0, and the
        # next removal takes 1 from 0's leaves; on re-insertion 1 and 3 stop
        # being leaves of 0 when 2 and 4 come back
        for lengths in ([2, 2, 2], [2, 3], [3, 3, 3], [1, 2, 2, 4], [2, 2, 2, 2, 2]):
            t = spider_tree(lengths)
            assert tree_labeler(t).values == tree_labeler_oracle(t), lengths

    def test_leaf_takes_the_anchors_old_sum(self):
        # the path 2 - 0 - 3 - 4 - 1: leaf 2 comes back last, on anchor 0,
        # whose closed sum is then values[0] + values[3].  Label 2 gives
        # leaf 2 that very sum, which is free because 0's sum moves up.
        t = Graph(5, [(0, 2), (0, 3), (1, 4), (3, 4)])
        f = tree_labeler(t)
        assert f.values == tree_labeler_oracle(t) == (3, 1, 2, 2, 1)
        assert f.values[0] + f.values[2] == f.values[0] + f.values[3]


class TestTreeLabelerScale:
    @staticmethod
    def _assert_labeled_in_time(t):
        n = t.vertex_count
        start = time.perf_counter()
        f = tree_labeler(t)
        elapsed = time.perf_counter() - start
        assert is_vertex_sum_distinguishing(t, f)
        assert f.max_label <= 2 * n - 2 - leaf_stat(t).max_leaf_neighbors
        assert elapsed < 10.0

    @pytest.mark.parametrize("shape", ["random", "path", "caterpillar", "broom"])
    def test_five_thousand_vertices(self, shape):
        if shape == "random":
            t = random_tree(Random(5000), 5000)
        elif shape == "path":
            t = path_graph(5000)
        elif shape == "caterpillar":
            t = caterpillar_tree([i % 4 for i in range(2000)])
        else:
            # the hub's leaves come back last, onto a closed sum that has
            # grown far beyond 2n
            t = broom_tree(2500, 2500)
        assert t.vertex_count == 5000
        self._assert_labeled_in_time(t)

    def test_twenty_thousand_vertex_random_tree(self):
        t = random_tree(Random(20000), 20000)
        assert t.vertex_count == 20000
        self._assert_labeled_in_time(t)


def test_repair_rejects_empty_vertex_set():
    with pytest.raises(ValueError):
        repair_labeler(Graph(0, []))


def test_all_ones_verified_outside_repair():
    # sanity: the all-ones labeling distinguishes iff degrees split the classes
    g = path_graph(3)
    assert not is_vertex_sum_distinguishing(g, Labeling([1, 1, 1]))
