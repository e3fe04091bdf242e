"""Exact solver against the brute-force enumeration oracle and the earlier
recursive search."""

from itertools import combinations
from random import Random

import pytest

from sumlabel import (BudgetExhausted, DualDegenerate, Graph, Hypergraph,
                      closed_neighborhood_hypergraph, dual, exact_irr, exact_s, exact_s_star,
                      is_distinguishing, s_star_bounds)
from sumlabel.exact import DEFAULT_NODE_BUDGET, _static_vertex_order, symmetry_classes

from helpers import (OracleTooLarge, brute_force_decide, brute_force_min_max_label,
                     brute_force_s_star, complete_graph, complete_hypergraph, decide,
                     exact_search_oracle, graph_as_hypergraph, oracle_enumerate, path_graph,
                     random_graph, random_hypergraph, star_graph, symmetry_classes_oracle)


class TestDecideLabeling:
    def test_full_triple_infeasible_at_three(self):
        assert decide(complete_hypergraph(3), 3) is None
        assert brute_force_decide(complete_hypergraph(3), 3) is None

    def test_full_triple_feasible_at_four(self):
        f = decide(complete_hypergraph(3), 4)
        assert f is not None and f.max_label <= 4
        assert is_distinguishing(complete_hypergraph(3), f)

    def test_trivial_singleton(self):
        f = decide(Hypergraph(1, [{0}]), 1)
        assert f is not None and f.values == (1,)

    def test_agrees_with_oracle_on_random_instances(self):
        rng = Random(23)
        for _ in range(500):
            n = rng.randint(1, 4)
            h = random_hypergraph(rng, n, rng.randint(1, min(5, 2**n - 1)))
            cap = rng.randint(1, 6)
            mine = decide(h, cap)
            oracle = oracle_enumerate(h, cap)
            assert (mine is None) == (oracle is None)
            if mine is not None:
                assert mine.max_label <= cap and is_distinguishing(h, mine)


class TestOracle:
    def test_infeasible(self):
        assert oracle_enumerate(Hypergraph(2, [{0}, {1}]), 1) is None

    def test_lexicographically_first(self):
        f = oracle_enumerate(Hypergraph(2, [{0}, {1}]), 2)
        assert f is not None and f.values == (1, 2)

    def test_guard(self):
        with pytest.raises(OracleTooLarge):
            oracle_enumerate(Hypergraph(20, [{0}, {1}]), 10**7)


class TestExactS:
    def test_complete_triple(self):
        assert exact_s(complete_hypergraph(3)).optimum == 4

    def test_two_singletons_and_pair(self):
        h = Hypergraph(2, [{0}, {1}, {0, 1}])
        assert exact_s(h).optimum == 2 == brute_force_min_max_label(h)

    def test_single_edge(self):
        assert exact_s(Hypergraph(3, [{0, 1, 2}])).optimum == 1

    def test_matches_bruteforce_on_random_instances(self):
        rng = Random(29)
        for _ in range(40):
            n = rng.randint(1, 4)
            h = random_hypergraph(rng, n, rng.randint(1, min(6, 2**n - 1)))
            res = exact_s(h)
            assert res.optimum == brute_force_min_max_label(h)
            assert is_distinguishing(h, res.witness)
            assert res.witness.max_label <= res.optimum

    def test_upper_bound_power_of_two(self):
        rng = Random(31)
        for _ in range(30):
            n = rng.randint(1, 5)
            h = random_hypergraph(rng, n, rng.randint(1, min(8, 2**n - 1)))
            assert exact_s(h).optimum <= 2 ** (n - 1)

    def test_adding_edges_never_decreases(self):
        rng = Random(37)
        for _ in range(25):
            n = rng.randint(2, 4)
            m = rng.randint(1, min(4, 2**n - 2))
            h = random_hypergraph(rng, n, m)
            present = set(h.edges)
            candidates = [e for e in complete_hypergraph(n).edges if e not in present]
            extra = rng.choice(candidates)
            bigger = Hypergraph(n, list(h.edges) + [extra])
            assert exact_s(bigger).optimum >= exact_s(h).optimum

    def test_decision_brackets_optimum(self):
        rng = Random(41)
        for _ in range(25):
            n = rng.randint(2, 4)
            h = random_hypergraph(rng, n, rng.randint(2, min(6, 2**n - 1)))
            s = exact_s(h).optimum
            assert decide(h, s) is not None
            assert decide(h, s - 1) is None if s > 1 else True

    def test_budget_exhaustion_reports_bracket(self):
        h = complete_hypergraph(4)
        with pytest.raises(BudgetExhausted) as err:
            exact_s(h, node_budget=10)
        lo, hi = err.value.bracket
        assert lo <= 7 <= hi  # the true optimum (7, by enumeration) stays inside

    def test_budget_on_a_uniform_instance_counts_every_accepted_label(self):
        # a 2-uniform graph: the reflection cap applies; the refutation at
        # N = 13 takes 41,651 nodes (see TestNodeCounts)
        h = graph_as_hypergraph(random_graph(Random(1), 9, 0.5))
        for budget, bracket in ((1000, (13, 256)), (41651 + 1000, (14, 256))):
            with pytest.raises(BudgetExhausted) as err:
                exact_s(h, budget)
            assert err.value.bracket == bracket
            assert err.value.detail == {"nodes": budget + 1}
        with pytest.raises(BudgetExhausted) as err:
            decide(h, 13, node_budget=500)
        assert err.value.detail == {"nodes": 501}

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        h = Hypergraph(2, [(0,), (1,), (0, 1)])
        g = path_graph(3)
        for solve in (lambda: decide(h, 2, budget), lambda: exact_s(h, budget),
                      lambda: exact_s_star(g, budget), lambda: exact_irr(h, budget)):
            with pytest.raises(ValueError, match="node budget must be positive"):
                solve()

    def test_bracket_ceiling_counts_covered_vertices_only(self):
        # 3 of 200 vertices covered: the ceiling is 2**(3 - 1), not 2**199
        h = Hypergraph(200, [(0,), (1,), (2,)])
        with pytest.raises(BudgetExhausted) as err:
            exact_s(h, node_budget=1)
        assert err.value.bracket == (3, 4)
        # with four covered vertices among nine the top is 2**3
        h = Hypergraph(9, [(1, 4), (4, 6), (6, 8), (1, 6, 8)])
        with pytest.raises(BudgetExhausted) as err:
            exact_s(h, node_budget=1)
        assert err.value.bracket[1] == 8

    def test_budget_running_out_at_the_ceiling_returns_powers_of_two(self):
        # 2 of 200 vertices covered: the start bound 2 is the ceiling 2**(2 - 1)
        res = exact_s(Hypergraph(200, [(0,), (1,), (0, 1)]), node_budget=1)
        assert res.optimum == 2 and res.witness.values == (1, 2) + (1,) * 198
        assert res.nodes_per_bound == {2: res.nodes_expanded}

    def test_no_budget_closes_the_bracket_on_three_vertices(self):
        # every edge set over 3 vertices; c <= 3 is the only case that reaches
        # the ceiling, and there the search's witness is powers of two in order
        subsets = [c for k in (1, 2, 3) for c in combinations(range(3), k)]
        at_ceiling = 0
        for mask in range(1, 2 ** len(subsets)):
            h = Hypergraph(3, [e for i, e in enumerate(subsets) if mask >> i & 1])
            plain = exact_s(h, node_budget=None)
            order = _static_vertex_order(h)
            ceiling = 2 ** (len(order) - 1)
            if plain.optimum == ceiling:
                at_ceiling += 1
                assert all(plain.witness.values[v] == 2**d for d, v in enumerate(order))
            for budget in range(1, plain.nodes_expanded + 1):
                try:
                    res = exact_s(h, budget)
                except BudgetExhausted as err:
                    lo, hi = err.bracket
                    assert lo < hi == ceiling
                else:
                    assert (res.optimum, res.witness) == (plain.optimum, plain.witness)
        assert at_ceiling == 11

    def test_edgeless_ceiling(self):
        res = exact_s(Hypergraph(5, []))
        assert res.optimum == 1 and res.witness.values == (1,) * 5

    def test_deterministic(self):
        h = complete_hypergraph(4)
        a, b = exact_s(h), exact_s(h)
        assert a.optimum == b.optimum
        assert a.witness.values == b.witness.values
        assert a.nodes_expanded == b.nodes_expanded


class TestExactSStar:
    def test_path(self):
        assert exact_s_star(path_graph(3)).optimum == 2

    def test_star(self):
        assert exact_s_star(star_graph(4)).optimum == 3

    def test_clique(self):
        assert exact_s_star(complete_graph(4)).optimum == 1

    def test_equals_neighborhood_hypergraph_solve(self):
        # the search starts at the degree bound of s_star_bounds, edgeless graphs included
        rng = Random(43)
        edgeless = 0
        for _ in range(400):
            n = rng.randint(1, 11)
            p = rng.choice((0.0, 0.2, 0.4, 0.6))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            edgeless += g.edge_count == 0
            res = exact_s_star(g)
            plain = exact_s(closed_neighborhood_hypergraph(g))
            assert (res.optimum, res.witness, res.nodes_expanded, res.nodes_per_bound) == (
                plain.optimum, plain.witness, plain.nodes_expanded, plain.nodes_per_bound)
            assert min(res.nodes_per_bound) == s_star_bounds(g).lower
        assert edgeless > 0

    def test_exhaustive_against_direct_enumeration(self):
        # every graph on up to 4 vertices, against a solver-free full scan
        from helpers import all_graphs

        for n in range(1, 5):
            for g in all_graphs(n):
                assert exact_s_star(g).optimum == brute_force_s_star(g)


class TestExactIrr:
    def test_two_overlapping_edges(self):
        assert exact_irr(Hypergraph(3, [{0, 1}, {1, 2}])).optimum == 2

    def test_single_vertex(self):
        assert exact_irr(Hypergraph(1, [{0}])).optimum == 1

    def test_degenerate(self):
        with pytest.raises(DualDegenerate):
            exact_irr(Hypergraph(2, [{0, 1}]))

    def test_one_uncovered_vertex_allowed(self):
        # vertex 2 sums to 0, below the sums 1 and 2 of vertices 0 and 1
        res = exact_irr(Hypergraph(3, [{0, 1}, {1}]))
        assert res.optimum == 1 and res.witness.values == (1, 1)

    def test_two_uncovered_vertices_degenerate(self):
        # vertices 1 and 2 sum to 0 under every labeling
        with pytest.raises(DualDegenerate) as err:
            exact_irr(Hypergraph(3, [{0}]))
        assert err.value.groups == [(1, 2)]
        with pytest.raises(DualDegenerate, match="0,1,2"):
            exact_irr(Hypergraph(3, []))

    def test_refuses_exactly_on_shared_incidence(self):
        rng = Random(43)
        outcomes = dict.fromkeys(("uncovered pair", "twins", "one uncovered", "covered"), 0)
        for _ in range(600):
            n = rng.randint(1, 5)
            h = random_hypergraph(rng, n, rng.randint(1, min(6, 2**n - 1)))
            if len(set(h.incidence)) < n:
                with pytest.raises(DualDegenerate):
                    exact_irr(h)
                uncovered = sum(not inc for inc in h.incidence)
                outcomes["uncovered pair" if uncovered > 1 else "twins"] += 1
                continue
            w = exact_irr(h).witness.values
            sums = [sum(w[e] for e in inc) for inc in h.incidence]
            assert len(w) == h.edge_count and len(set(sums)) == n
            outcomes["one uncovered" if 0 in sums else "covered"] += 1
        assert min(outcomes.values()) >= 15, outcomes

    def test_equals_dual_solve(self):
        rng = Random(47)
        done = 0
        while done < 15:
            n = rng.randint(1, 4)
            h = random_hypergraph(rng, n, rng.randint(1, min(5, 2**n - 1)))
            inc = h.incidence
            if any(not i for i in inc) or len(set(inc)) < n:
                continue
            done += 1
            assert exact_irr(h).optimum == exact_s(dual(h)).optimum


def _irr_instances(rng: Random, count: int):
    """Random hypergraphs whose vertices lie in distinct, nonempty edge sets."""
    found = []
    while len(found) < count:
        n = rng.randint(2, 6)
        h = random_hypergraph(rng, n, rng.randint(2, min(7, 2**n - 1)), max_size=3)
        inc = h.incidence
        if all(inc) and len(set(inc)) == n:
            found.append(h)
    return found


class TestSearchAgainstRecursiveOracle:
    """The forward-checking search with symmetry classes must return the
    same optimum and the same witness as the earlier recursive search."""

    @staticmethod
    def check(res, h):
        optimum, witness = exact_search_oracle(h)
        assert (res.optimum, res.witness.values) == (optimum, witness)
        assert sum(res.nodes_per_bound.values()) == res.nodes_expanded
        assert max(res.nodes_per_bound) == res.optimum
        assert res.symmetry_classes == len(symmetry_classes_oracle(h))

    def test_exact_s_random_hypergraphs(self):
        rng = Random(53)
        for _ in range(340):
            n = rng.randint(1, 6)
            h = random_hypergraph(rng, n, rng.randint(1, min(10, 2**n - 1)))
            self.check(exact_s(h), h)

    def test_exact_s_sparse_on_seven_and_eight_vertices(self):
        rng = Random(59)
        for _ in range(40):
            n = rng.randint(7, 8)
            h = random_hypergraph(rng, n, rng.randint(1, 8), max_size=4)
            self.check(exact_s(h), h)

    def test_exact_s_dense_graphs_full_of_twins(self):
        rng = Random(61)
        seen = set()
        for _ in range(30):
            h = graph_as_hypergraph(random_graph(rng, 6, 0.8))
            if h.edge_count and h.edges not in seen:
                seen.add(h.edges)
                self.check(exact_s(h), h)

    def test_exact_s_star(self):
        rng = Random(67)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 8), rng.choice((0.3, 0.5)))
            self.check(exact_s_star(g), closed_neighborhood_hypergraph(g))

    def test_exact_irr(self):
        for h in _irr_instances(Random(71), 40):
            self.check(exact_irr(h), dual(h))

    def test_exact_s_random_uniform_hypergraphs(self):
        # one edge size: the search also caps reflected labelings
        rng = Random(79)
        first_class_sizes = set()
        for _ in range(300):
            r = rng.randint(1, 3)
            n = rng.randint(r + 1, 6)
            edges = [e for e in combinations(range(n), r) if rng.random() < 0.5]
            if edges:
                h = Hypergraph(n, edges)
                self.check(exact_s(h), h)
                first_class_sizes.add(_first_class_size(h) > 1)
        assert first_class_sizes == {False, True}

    def test_exact_s_complete_uniform_hypergraphs(self):
        # one class, so the cap sits at the last depth
        for r in (2, 3):
            for n in range(r, 7):
                h = Hypergraph(n, list(combinations(range(n), r)))
                self.check(exact_s(h), h)

    def test_exact_s_uniform_with_classmates_of_the_first_vertex(self):
        # the depth-0 vertex has a classmate, so the cap lands below depth 0
        bipartite = [Hypergraph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
                     for a in (2, 3) for b in (2, 3, 4)]
        cycle = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        triangles_on_an_axis = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)])
        for h in bipartite + [cycle, triangles_on_an_axis]:
            assert _first_class_size(h) > 1
            self.check(exact_s(h), h)


def _first_class_size(h: Hypergraph) -> int:
    """Size of the symmetry class of the vertex the search labels first."""
    first = _static_vertex_order(h)[0]
    return next(len(c) for c in symmetry_classes(h) if first in c)


class TestNodeCounts:
    """Nodes per bound.  Hypergraphs with edges of several sizes get no
    reflection cap, so their counts are those of the earlier search loop."""

    @staticmethod
    def mixed_sizes(h: Hypergraph) -> bool:
        return len({len(e) for e in h.edges}) > 1

    def test_complete_hypergraphs(self):
        assert exact_s(complete_hypergraph(4)).nodes_per_bound == {4: 12, 5: 21, 6: 35, 7: 37}
        assert exact_s(complete_hypergraph(5)).nodes_per_bound == {
            7: 55, 8: 90, 9: 134, 10: 210, 11: 306, 12: 445, 13: 306}

    def test_closed_neighborhood_hypergraph(self):
        g = random_graph(Random(7), 11, 0.3)
        assert self.mixed_sizes(closed_neighborhood_hypergraph(g))
        assert exact_s_star(g).nodes_per_bound == {2: 445, 3: 1383}

    def test_dual(self):
        h = random_hypergraph(Random(27), 6, 8, max_size=3)
        assert self.mixed_sizes(dual(h))
        assert exact_irr(h).nodes_per_bound == {2: 75, 3: 13}

    def test_reflection_cuts_the_refutation_on_graphs(self):
        # the first vertex has a classmate: the cap sits at a deeper depth;
        # without it the refutation at N = 13 took 76,848 nodes
        h = graph_as_hypergraph(random_graph(Random(1), 9, 0.5))
        assert _first_class_size(h) == 2
        res = exact_s(h)
        assert res.nodes_per_bound == {13: 41651, 14: 39161}
        assert res.witness.values == (10, 1, 5, 3, 13, 12, 14, 2, 7)
        # the first vertex is alone in its class: the cap sits at depth 0;
        # without it the refutation at N = 10 took 7,966 nodes
        h = graph_as_hypergraph(random_graph(Random(7), 8, 0.5))
        assert _first_class_size(h) == 1
        res = exact_s(h)
        assert res.nodes_per_bound == {10: 3983, 11: 703}
        assert res.witness.values == (4, 1, 11, 8, 6, 11, 2, 10)


class TestSymmetryClasses:
    def test_twins(self):
        h = Hypergraph(4, [{0, 1}, {0, 1, 2}, {3}])
        assert symmetry_classes(h) == [[0, 1], [2], [3]]

    def test_complete_hypergraph_is_one_class(self):
        for n in range(1, 6):
            assert symmetry_classes(complete_hypergraph(n)) == [list(range(n))]

    def test_symmetric_pair_sharing_an_edge(self):
        # 0 and 1 share {0, 1} and are not twins; exchanging them swaps {0, 2} and {1, 2}
        h = Hypergraph(4, [{0, 1}, {0, 2}, {1, 2}, {2, 3}])
        assert symmetry_classes(h) == [[0, 1], [2], [3]]

    def test_symmetric_pair_sharing_no_edge(self):
        h = Hypergraph(4, [{0, 2}, {1, 2}, {2}, {3}])
        assert symmetry_classes(h) == [[0, 1], [2], [3]]

    def test_near_miss_is_not_merged(self):
        # 0 and 1 share an edge, have equal degrees and edge sizes, but
        # exchanging them sends {0, 2} to {1, 2}, which is not an edge; only
        # the double exchange (0 1)(2 3) is a symmetry
        h = Hypergraph(4, [{0, 1}, {0, 2}, {1, 3}])
        assert symmetry_classes(h) == [[0], [1], [2], [3]]

    def test_uncovered_vertices_are_left_out(self):
        assert symmetry_classes(Hypergraph(5, [{1, 3}])) == [[1, 3]]

    def test_agrees_with_brute_force(self):
        rng = Random(73)
        for _ in range(300):
            n = rng.randint(1, 7)
            if rng.random() < 0.5:
                h = random_hypergraph(rng, n, rng.randint(1, min(9, 2**n - 1)))
            else:
                g = random_graph(rng, n, rng.choice((0.5, 0.8)))
                if not g.edge_count:
                    continue
                h = graph_as_hypergraph(g)
            assert symmetry_classes(h) == symmetry_classes_oracle(h)


class TestLunnon:
    def test_complete_hypergraph_on_six_within_default_budget(self):
        # Lunnon (Math. Comp. 1988): the least maximum of a 6-set with
        # distinct subset sums is 24, reached by {11, 17, 20, 22, 23, 24}
        res = exact_s(complete_hypergraph(6))
        assert res.optimum == 24
        assert res.witness.values == (11, 17, 20, 22, 23, 24)
        assert res.nodes_expanded <= DEFAULT_NODE_BUDGET
        assert res.symmetry_classes == 1


class TestIterativeSearch:
    def test_long_path_of_pairs_does_not_recurse(self):
        # 1200 disjoint pairs: far deeper than Python's recursion limit
        h = Hypergraph(2400, [{v, v + 1} for v in range(0, 2400, 2)])
        res = exact_s(h)
        assert is_distinguishing(h, res.witness)

    def test_uncovered_vertices_take_label_one(self):
        res = exact_s(Hypergraph(6, [{1, 4}, {1}, {4}]))
        assert res.witness.values == (1, 1, 1, 1, 2, 1)
        assert res.symmetry_classes == 1

    def test_no_edges(self):
        res = exact_s(Hypergraph(4, []))
        assert (res.optimum, res.witness.values, res.nodes_expanded) == (1, (1, 1, 1, 1), 0)
