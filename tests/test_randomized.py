"""Randomized labelers: pair classification, step conditions, retry loops."""

import dataclasses
import tracemalloc
from collections import Counter
from itertools import combinations
from fractions import Fraction
from math import ceil, exp
from random import Random

import pytest

from sumlabel import (BudgetExhausted, Hypergraph, TwoStepConfig, classify_edges,
                      exact_collision_probability, is_distinguishing,
                      quadratic_random_labeling, randomized, step_one_successful,
                      two_step_labeling)
from sumlabel.randomized import PAIR_TYPES

from sumlabel.formats import parse_hypergraph

from helpers import (TWO_STEP_INSTANCES, census_type_oracle, pair_classes_oracle,
                     random_hypergraph, skew_oracle, two_step_oracle)


def mixed_instance(rng: Random, n: int, m: int, max_size: int = 10) -> Hypergraph:
    return random_hypergraph(rng, n, m, max_size=max_size)


class TestConfig:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TwoStepConfig(label_divisor=20.0, dangerous_cutoff=64, stray_limit=16)
        with pytest.raises(ValueError):
            TwoStepConfig(dangerous_cutoff=10, stray_limit=16)

    @pytest.mark.parametrize("field,value,message", [
        ("label_divisor", 0, "label_divisor must be positive"),
        ("label_divisor", -1.0, "label_divisor must be positive"),
        ("step1_budget", 0, "budgets must be positive"),
        ("step2_budget", -2, "budgets must be positive")])
    def test_non_positive_divisor_and_budgets_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TwoStepConfig(**{field: value})

    def test_label_cap_is_exact_ceiling(self):
        cfg = TwoStepConfig(label_divisor=3.0)
        assert cfg.label_cap(40) == ceil(Fraction(1600, 3)) == 534
        assert TwoStepConfig(label_divisor=4.0).label_cap(10) == 25


def draw_popular(cls, cap: int, rng: Random) -> dict[int, int]:
    """One step-one draw as the two-step labeler makes it: a uniform label
    in [cap] for each popular vertex, in vertex order."""
    return {v: rng.randint(1, cap) for v in sorted(cls.popular)}


def popular_sums(h: Hypergraph, partial: dict[int, int]) -> list[int]:
    """P(e) of every edge: the sum of the labels ``partial`` gives its
    popular vertices."""
    return [sum(partial.get(v, 0) for v in e) for e in h.edges]


def special_pairs(cls) -> set[tuple[int, int]]:
    """The pairs (i, j), i < j, of edges with equal stray parts."""
    return {(i, j) for i, j in combinations(range(len(cls.stray)), 2)
            if cls.stray[i] == cls.stray[j]}


class TestClassifyEdges:
    def test_two_singletons_are_special(self):
        h = Hypergraph(2, [{0}, {1}])
        cls = classify_edges(h, dangerous_cutoff=3, stray_limit=2)
        # threshold 4/27 < 1, so one dangerous pair makes both vertices popular
        assert cls.popular == {0, 1}
        assert cls.pair_type(0, 1, 0, 0) == census_type_oracle("special", 0, 0)
        assert special_pairs(cls) == {(0, 1)} and cls.newly_dangerous == ()
        assert pair_classes_oracle(h, 3, 2) == ({0, 1}, {(0, 1): "special"})

    def test_disjoint_large_edges_not_dangerous(self):
        k = 3
        h = Hypergraph(2 * (k + 1), [frozenset(range(k + 1)),
                                     frozenset(range(k + 1, 2 * (k + 1)))])
        cls = classify_edges(h, dangerous_cutoff=k, stray_limit=2)
        assert cls.popular == frozenset()
        assert cls.pair_type(0, 1, 0, 0) == census_type_oracle("other", 0, 0)
        assert special_pairs(cls) == set() and cls.newly_dangerous == ()
        assert pair_classes_oracle(h, k, 2) == (set(), {(0, 1): "other"})

    def test_cutoff_must_exceed_stray_limit(self):
        with pytest.raises(ValueError):
            classify_edges(Hypergraph(2, [{0}, {1}]), dangerous_cutoff=3, stray_limit=3)

    def test_popularity_bound_on_random_instances(self):
        rng = Random(59)
        for _ in range(100):
            n = rng.randint(2, 8)
            h = random_hypergraph(rng, n, rng.randint(1, min(8, 2**n - 1)))
            for cutoff, stray in ((3, 2), (6, 4)):
                cls = classify_edges(h, cutoff, stray)
                assert len(cls.popular) <= cutoff**4

    def test_invariant_under_edge_permutation(self):
        rng = Random(61)
        h = random_hypergraph(rng, 6, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        h2 = Hypergraph(6, [h.edges[i] for i in perm])

        def by_edges(g, cls):
            types = {frozenset((g.edges[i], g.edges[j])): cls.pair_type(i, j, 0, 0)
                     for i, j in combinations(range(g.edge_count), 2)}
            strays = ({g.edges[i] for i, part in enumerate(cls.stray) if part == own}
                      for own in cls.stray)
            groups = {frozenset(c) for c in strays if len(c) > 1}
            newly = {frozenset((g.edges[i], g.edges[j])) for i, j in cls.newly_dangerous}
            return cls.popular, types, groups, newly

        a = by_edges(h, classify_edges(h, 4, 2))
        b = by_edges(h2, classify_edges(h2, 4, 2))
        assert a == b
        popular, classes = pair_classes_oracle(h, 4, 2)
        assert a[0] == popular
        assert a[1] == {frozenset((h.edges[i], h.edges[j])): census_type_oracle(kind, 0, 0)
                        for (i, j), kind in classes.items()}

    def test_every_pair_has_exactly_one_type(self):
        rng = Random(67)
        for _ in range(20):
            h = mixed_instance(rng, 10, 8, max_size=6)
            cls = classify_edges(h, 5, 3)
            popular, classes = pair_classes_oracle(h, 5, 3)
            assert cls.popular == popular
            for (i, j), kind in classes.items():
                assert cls.pair_type(i, j, 0, 0) == census_type_oracle(kind, 0, 0)
            assert special_pairs(cls) == {key for key, kind in classes.items()
                                          if kind == "special"}
            assert len(set(cls.newly_dangerous)) == len(cls.newly_dangerous)
            assert set(cls.newly_dangerous) == {key for key, kind in classes.items()
                                                if kind == "newly"}


class TestQuadratic:
    def test_tiny_instance(self):
        h = Hypergraph(2, [{0}, {1}])
        res = quadratic_random_labeling(h, seed=5)
        assert is_distinguishing(h, res.labeling)
        assert res.labeling.max_label <= 4

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, budget):
        # checked before the shortcut for fewer than two edges
        for h in (Hypergraph(2, [{0}, {1}]), Hypergraph(3, [{0, 1}])):
            with pytest.raises(ValueError, match="budget must be positive"):
                quadratic_random_labeling(h, budget=budget)

    def test_single_edge_shortcut(self):
        h = Hypergraph(3, [{0, 1}])
        res = quadratic_random_labeling(h, seed=1)
        assert res.labeling.values == (1, 1, 1) and res.attempts == 0

    def test_deterministic(self):
        rng = Random(71)
        h = mixed_instance(rng, 8, 8, max_size=5)
        a = quadratic_random_labeling(h, seed=99)
        b = quadratic_random_labeling(h, seed=99)
        assert a.labeling.values == b.labeling.values and a.attempts == b.attempts

    def test_union_bound_via_exact_collisions(self):
        # the per-pair collision probability behind the union bound is <= 1/m^2
        rng = Random(73)
        h = mixed_instance(rng, 6, 5, max_size=4)
        cap = h.edge_count**2
        for i in range(h.edge_count):
            for j in range(i + 1, h.edge_count):
                p = exact_collision_probability(h.edges[i], h.edges[j], cap)
                assert p <= Fraction(1, cap)


class TestStepOne:
    def test_empty_popular_set(self):
        h = Hypergraph(12, [frozenset(range(6)), frozenset(range(6, 12))])
        cfg = TwoStepConfig(label_divisor=2.0, dangerous_cutoff=5, stray_limit=3)
        cls = classify_edges(h, cfg.dangerous_cutoff, cfg.stray_limit)
        assert cls.popular == frozenset() and cls.edges is h.edges
        # no special and no newly dangerous pairs: vacuously successful
        diag = step_one_successful(cls, cfg, popular_sums(h, {}))
        assert diag.ok and diag.near_tie_count == 0 and not diag.special_violations

    def test_reproducible_and_in_range(self):
        rng = Random(79)
        h = mixed_instance(rng, 8, 8, max_size=5)
        cfg = TwoStepConfig(label_divisor=4.0, seed=3)
        cls = classify_edges(h, cfg.dangerous_cutoff, cfg.stray_limit)
        cap = cfg.label_cap(h.edge_count)
        a = draw_popular(cls, cap, Random(3))
        assert a == draw_popular(cls, cap, Random(3))
        assert all(1 <= v <= cap for v in a.values())
        assert set(a) == set(cls.popular)
        # the labeler draws the same way: its popular labels are the first
        # draw from its seed that passes the step-one check
        rng, attempts = Random(cfg.seed), 1
        partial = draw_popular(cls, cap, rng)
        while not step_one_successful(cls, cfg, popular_sums(h, partial)).ok:
            partial, attempts = draw_popular(cls, cap, rng), attempts + 1
        res = two_step_labeling(h, cfg)
        assert attempts > 1 and res.step1_attempts == attempts
        assert {v: res.labeling.values[v] for v in cls.popular} == partial

    def test_special_pair_tie_fails(self):
        h = Hypergraph(2, [{0}, {1}])
        cfg = TwoStepConfig(label_divisor=3.5, dangerous_cutoff=6, stray_limit=4)
        cls = classify_edges(h, cfg.dangerous_cutoff, cfg.stray_limit)
        diag = step_one_successful(cls, cfg, popular_sums(h, {0: 1, 1: 1}))
        assert not diag.ok and diag.special_violations == [(0, 1)]
        diag = step_one_successful(cls, cfg, popular_sums(h, {0: 1, 1: 2}))
        assert diag.ok and diag.special_violations == [] and diag.near_tie_count == 0

    def test_near_tie_boundary(self):
        # the one newly dangerous pair ({0}, {0, 1, 2, 4, 5}) has skew
        # -(f(1) + f(5)); the stray cap is 2 * ceil(16 / 1.5) = 22
        h = Hypergraph(6, [{0}, {1, 2, 3}, {2, 3, 5}, {0, 1, 2, 4, 5}])
        cfg = TwoStepConfig(label_divisor=1.5, dangerous_cutoff=3, stray_limit=2)
        cls = classify_edges(h, cfg.dangerous_cutoff, cfg.stray_limit)
        assert cls.popular == {1, 5} and cls.newly_dangerous == ((0, 3),)
        diag = step_one_successful(cls, cfg, popular_sums(h, {1: 11, 5: 11}))
        assert diag.near_tie_count == 1
        diag = step_one_successful(cls, cfg, popular_sums(h, {1: 11, 5: 12}))
        assert diag.near_tie_count == 0

    def test_near_tie_allowance_arithmetic(self):
        h = random_hypergraph(Random(83), 10, 10, max_size=6)
        cfg = TwoStepConfig(label_divisor=4.0)
        cls = classify_edges(h, cfg.dangerous_cutoff, cfg.stray_limit)
        partial = draw_popular(cls, cfg.label_cap(h.edge_count), Random(2))
        diag = step_one_successful(cls, cfg, popular_sums(h, partial))
        assert diag.near_tie_allowance == pytest.approx(100 * exp(-16))
        # the allowance is below one, so any near tie at all must fail the check
        assert diag.near_tie_count == 0 or not diag.ok


class TestTwoStep:
    def test_output_verified_and_capped(self):
        rng = Random(89)
        for _ in range(10):
            h = mixed_instance(rng, 12, 12, max_size=8)
            cfg = TwoStepConfig(label_divisor=3.0, seed=rng.randrange(2**32))
            res = two_step_labeling(h, cfg)
            assert is_distinguishing(h, res.labeling)
            assert res.labeling.max_label <= res.label_cap == cfg.label_cap(12)

    def test_trivial_instances(self):
        res = two_step_labeling(Hypergraph(4, [{0, 1, 2, 3}]))
        assert res.labeling.values == (1, 1, 1, 1)
        # the census names all five types on every path, zero draws included
        for h in (Hypergraph(4, [{0, 1, 2, 3}]), Hypergraph(3, [])):
            res = two_step_labeling(h)
            assert (res.step1_attempts, res.step2_attempts) == (0, 0)
            assert res.collision_census == {t: 0 for t in PAIR_TYPES}

    def test_deterministic_including_stats(self):
        rng = Random(97)
        h = mixed_instance(rng, 14, 14, max_size=8)
        cfg = TwoStepConfig(label_divisor=3.0, seed=1234)
        a = two_step_labeling(h, cfg)
        b = two_step_labeling(h, cfg)
        assert a.labeling.values == b.labeling.values
        assert (a.step1_attempts, a.step2_attempts) == (b.step1_attempts, b.step2_attempts)
        assert a.collision_census == b.collision_census

    def test_census_counts_step_two_collisions(self):
        # large sparse edges: no dangerous pairs, empty popular set, so all
        # collision pressure lands on step two as type (d)
        h = random_hypergraph(Random(9), 30, 12)
        cfg = TwoStepConfig(label_divisor=2.9, dangerous_cutoff=4, stray_limit=3, seed=3)
        res = two_step_labeling(h, cfg)
        assert res.step2_attempts == 3
        assert res.collision_census == {"a": 0, "b": 0, "c": 0, "d": 2, "e": 0}
        assert is_distinguishing(h, res.labeling)

    def test_budget_exhaustion_when_cap_collapses(self):
        # three same-size edges with label cap 1 can never be distinguished
        h = Hypergraph(3, [{0}, {1}, {2}])
        cfg = TwoStepConfig(label_divisor=9.5, dangerous_cutoff=64, stray_limit=16,
                            step1_budget=50, step2_budget=5)
        assert cfg.label_cap(3) == 1
        with pytest.raises(BudgetExhausted) as err:
            two_step_labeling(h, cfg)
        assert set(err.value.detail["collision_census"]) == set(PAIR_TYPES)

    def test_protected_pair_tie_is_internal_error(self, monkeypatch):
        # a step-one check that waves every draw through: labels in [2] on
        # vertices 0-2 always tie two P values of the one special group
        real = randomized.step_one_successful
        monkeypatch.setattr(randomized, "step_one_successful", lambda *args: dataclasses.replace(
            real(*args), special_violations=[], near_tie_count=0))
        h = Hypergraph(3, [{0}, {1}, {0, 1}, {2}])
        with pytest.raises(AssertionError, match="collided after a successful step one"):
            two_step_labeling(h, TwoStepConfig(label_divisor=15.0))


def small_cutoff_configs(seed: int, count: int):
    """Seeded small instances with small K, where special, dangerous,
    newly dangerous and other pairs all occur."""
    rng = Random(seed)
    for _ in range(count):
        h = random_hypergraph(rng, rng.randint(10, 24), rng.randint(6, 12),
                              max_size=rng.randint(3, 10))
        cutoff = rng.randint(3, 5)
        stray = rng.randint(2, cutoff - 1)
        yield rng, h, TwoStepConfig(label_divisor=rng.uniform(0.3, 0.6), dangerous_cutoff=cutoff,
                                    stray_limit=stray, seed=rng.randrange(2**32),
                                    step1_budget=30, step2_budget=10)


def labeler_outcome(h: Hypergraph, cfg: TwoStepConfig) -> tuple:
    try:
        res = two_step_labeling(h, cfg)
    except BudgetExhausted as exc:
        d = exc.detail
        return None, d["step1_attempts"], d["step2_attempts"], d["collision_census"]
    return list(res.labeling.values), res.step1_attempts, res.step2_attempts, res.collision_census


class TestAgainstPairOracle:
    """The per-edge classification and labeler against brute force over pairs."""

    def test_popular_set_step_one_and_pair_types(self):
        kinds = Counter()
        types = Counter()
        for rng, h, cfg in small_cutoff_configs(101, 60):
            m = h.edge_count
            cls = classify_edges(h, cfg.dangerous_cutoff, cfg.stray_limit)
            popular, classes = pair_classes_oracle(h, cfg.dangerous_cutoff, cfg.stray_limit)
            assert cls.popular == popular
            kinds.update(classes.values())
            stray_cap = cfg.stray_limit * cfg.label_cap(m)
            allowance = m * m * exp(-4.0 * cfg.label_divisor)
            for _ in range(4):
                # labels in [3] make popular-side ties common
                labels = [rng.randint(1, 3) for _ in range(h.vertex_count)]
                skews = {key: skew_oracle(h, popular, labels, *key) for key in classes}
                violations = [key for key, kind in classes.items()
                              if kind == "special" and skews[key] == 0]
                near_ties = sum(1 for key, kind in classes.items()
                                if kind == "newly" and abs(skews[key]) <= stray_cap)
                sums = popular_sums(h, {v: labels[v] for v in popular})
                diag = step_one_successful(cls, cfg, sums)
                assert diag.special_violations == violations
                assert diag.near_tie_count == near_ties
                assert diag.ok == (not violations and near_ties <= allowance)
                for (i, j), kind in classes.items():
                    skew = skews[(i, j)]
                    assert sums[i] - sums[j] == skew
                    # a cap of 1 separates types b and c at these label sizes
                    expected = census_type_oracle(kind, skew, stray_cap=1)
                    assert cls.pair_type(i, j, skew, 1) == expected
                    types[expected] += 1
        assert set(kinds) == {"special", "dangerous", "newly", "other"}
        assert set(types) == set(PAIR_TYPES)

    def test_labeler_replays_pair_oracle(self):
        outcomes = Counter()
        for _, h, cfg in small_cutoff_configs(103, 150):
            got = labeler_outcome(h, cfg)
            assert got == two_step_oracle(h, cfg)
            assert got[3]["a"] == got[3]["b"] == 0
            outcomes[got[0] is None] += 1
        assert outcomes[True] and outcomes[False]
        # the default constants at the benchmark's scale, where every
        # covered vertex is popular
        rng = Random(107)
        for m in (40, 80, 120):
            h = random_hypergraph(rng, m, m, max_size=10)
            cfg = TwoStepConfig(seed=rng.randrange(2**32))
            got = labeler_outcome(h, cfg)
            assert got == two_step_oracle(h, cfg)
            assert got[3]["a"] == got[3]["b"] == 0

    @pytest.mark.parametrize("name,flags", [("c", (4, 3, 0.5, 194)), ("e", (3, 2, 0.4, 160)),
                                            ("d", (4, 3, 0.5, 155)), ("retry", (4, 3, 0.5, 80))])
    def test_census_types_match_pair_oracle(self, name, flags):
        cutoff, stray, divisor, seed = flags
        h = parse_hypergraph(TWO_STEP_INSTANCES[name])
        cfg = TwoStepConfig(label_divisor=divisor, dangerous_cutoff=cutoff, stray_limit=stray,
                            seed=seed)
        got = labeler_outcome(h, cfg)
        assert got == two_step_oracle(h, cfg)
        if name in "cde":
            assert got[3][name] > 0


class TestPerEdgeScale:
    def test_popular_and_free_counts(self):
        # below m = 512 at K = 64 the threshold m**2 / K**3 is under one, so
        # every vertex in some but not all edges is popular
        h = random_hypergraph(Random(107), 60, 60, max_size=10)
        res = two_step_labeling(h, TwoStepConfig(seed=5))
        covered = {v for e in h.edges for v in e}
        everywhere = set.intersection(*(set(e) for e in h.edges))
        assert res.popular_count == len(covered - everywhere)
        assert res.popular_count + res.free_count == h.vertex_count
        trivial = two_step_labeling(Hypergraph(3, [{0, 1}]))
        assert (trivial.popular_count, trivial.free_count) == (0, 3)

    def test_two_thousand_edges_in_linear_memory(self):
        # one object per edge pair would need gigabytes at this size
        rng = Random(109)
        n = m = 2000
        edges: set[frozenset[int]] = set()
        while len(edges) < m:
            edges.add(frozenset(rng.sample(range(n), rng.randint(1, 10))))
        h = Hypergraph(n, sorted(edges, key=sorted))
        cfg = TwoStepConfig(seed=3)
        tracemalloc.start()
        try:
            res = two_step_labeling(h, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert is_distinguishing(h, res.labeling)
        assert res.labeling.max_label <= res.label_cap == cfg.label_cap(m)
        assert peak < 64 * 2**20
