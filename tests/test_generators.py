"""Instance generators, parameter formulas, and the experiment runner."""

from collections import Counter
from itertools import combinations
from math import comb, factorial, isqrt, log, sqrt

import pytest
from hypothesis import given, settings, strategies as st

from sumlabel import (ExperimentConfig, InfeasibleParams, ParamsOutOfRange, TooLarge,
                      gen_runiform, lower_bound_instance, lower_bound_params,
                      quadratic_random_labeling, run_experiment)
from sumlabel.generators import GEN_GUARD

from helpers import complete_hypergraph, lower_bound_edges_oracle

# an eps that selects each uniformity r (the smallest r with eps > 2/(r+1))
EPS_FOR = {2: 0.9, 3: 0.6, 4: 0.45, 5: 0.35, 6: 0.3}
# (r, N) with binom(N, r) <= 10**4 at which every m from smallest_m up to
# binom(N, r) can be asked for; r = 6 has none, since binom(N, 6) passes
# N**3.5 only above 10**4
SMALL_CORES = [(r, n) for r in range(2, 6) for n in range(r, 150)
               if isqrt(n ** (r + 1)) < comb(n, r) <= 10**4]


def smallest_m(core: int, r: int) -> int:
    """The first m past core**((r+1)/2), the smallest m whose core
    floor(m**(2/(r+1))) is ``core`` clear of float rounding."""
    return isqrt(core ** (r + 1)) + 1


def core_instance(core: int, r: int, m: int, seed: int):
    """lower_bound_instance at uniformity r with exactly ``core`` core
    vertices and no padding: delta puts m**(2/(r+1+2*delta)) at core + 1/2,
    or is 0 when m**(2/(r+1)) is below that already."""
    delta = max(0.0, (2 * log(m) / log(core + 0.5) - r - 1) / 2)
    gen = lower_bound_instance(core, m, EPS_FOR[r], seed, delta)
    assert (gen.uniformity, gen.core_vertex_count) == (r, core)
    return gen


class TestLowerBoundParams:
    def test_reference_point(self):
        p = lower_bound_params(2, 10_000)
        assert p.density_coefficient == pytest.approx(sqrt(52.0), rel=1e-15)
        assert p.edge_probability == pytest.approx(sqrt(52.0) * sqrt(log(10_000)) / 100.0,
                                                   rel=1e-12)
        assert p.label_budget == 10**8 // 8 == 12_500_000
        assert p.expected_edges == pytest.approx(p.edge_probability * comb(10_000, 2), rel=1e-12)

    def test_small_vertex_count_out_of_range(self):
        with pytest.raises(ParamsOutOfRange):
            lower_bound_params(2, 100)

    def test_label_budget_positive(self):
        # floor(N**r / (2 r r!)) >= 1 exactly when N**r >= 2 r r!
        for r in (2, 3, 4):
            threshold = 2 * r * factorial(r)
            for n in range(2, 30):
                assert (n**r // threshold >= 1) == (n**r >= threshold)

    def test_validation(self):
        with pytest.raises(ValueError):
            lower_bound_params(1, 50)


class TestGenRuniform:
    def test_extreme_probabilities(self):
        assert gen_runiform(6, 2, 0.0, seed=1).edge_count == 0
        assert gen_runiform(6, 2, 1.0, seed=1).edge_count == comb(6, 2)

    def test_seed_determinism(self):
        a = gen_runiform(10, 3, 0.4, seed=42)
        b = gen_runiform(10, 3, 0.4, seed=42)
        c = gen_runiform(10, 3, 0.4, seed=43)
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_guard(self):
        with pytest.raises(TooLarge):
            gen_runiform(500, 5, 0.1)

    def test_uniformity(self):
        h = gen_runiform(8, 3, 0.5, seed=7)
        assert all(len(e) == 3 for e in h.edges)


class TestLowerBoundInstance:
    def test_reference_shape(self):
        gen = lower_bound_instance(100, 100, 0.9, seed=5)
        assert gen.uniformity == 2
        assert gen.core_vertex_count == 17
        assert gen.padding_vertices == 83
        h = gen.hypergraph
        assert h.vertex_count == 100 and h.edge_count == 100
        assert all(max(e) < 17 for e in h.edges)

    def test_various_shapes(self):
        for n, m, eps in ((50, 80, 0.8), (30, 60, 0.7), (40, 50, 0.95)):
            gen = lower_bound_instance(n, m, eps, seed=11)
            h = gen.hypergraph
            assert h.vertex_count == n and h.edge_count == m
            assert gen.padding_vertices == n - gen.core_vertex_count
            assert all(len(e) == gen.uniformity for e in h.edges)

    def test_whole_core(self):
        # m = 21 puts the core at floor(21**(2/3)) = 7, whose 21 pairs are all taken
        gen = lower_bound_instance(7, 21, 0.9, seed=1, delta=0.0)
        assert gen.core_vertex_count == 7 and gen.padding_vertices == 0
        assert gen.hypergraph.edges == tuple(combinations(range(7), 2))

    def test_edges_in_lexicographic_order(self):
        for n, m, eps in ((100, 100, 0.9), (50, 80, 0.8), (60, 300, 0.6)):
            edges = lower_bound_instance(n, m, eps, seed=3).hypergraph.edges
            assert all(a < b for a, b in zip(edges, edges[1:]))

    def test_left_out_pair_is_uniform(self):
        # a 7-vertex core carrying 20 of its 21 pairs leaves one out; over
        # 2,100 seeds each pair should be left out about 100 times, and the
        # chi-squared statistic (20 degrees of freedom) stays below its
        # 0.999 quantile, 45.3
        pairs = list(combinations(range(7), 2))
        left_out = Counter()
        for seed in range(2_100):
            gen = lower_bound_instance(7, 20, 0.9, seed=seed, delta=0.0)
            assert gen.core_vertex_count == 7
            left_out.update(set(pairs) - set(gen.hypergraph.edges))
        assert sum(left_out.values()) == 2_100
        assert sum((left_out[e] - 100) ** 2 / 100 for e in pairs) < 45.3

    @pytest.mark.parametrize("r,core", [(2, 20), (3, 12), (4, 14), (5, 16), (6, 21)])
    def test_matches_enumeration_oracle(self, r, core):
        # m = 1 cannot be asked for (m >= n >= N >= r), so the sparsest draw
        # is the smallest m that gives this core
        t = comb(core, r)
        for m in (smallest_m(core, r), t - 1, t):
            for seed in (1, 2, 3):
                edges = core_instance(core, r, m, seed).hypergraph.edges
                assert edges == lower_bound_edges_oracle(core, r, m, seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_enumeration_oracle_on_drawn_shapes(self, data):
        r, core = data.draw(st.sampled_from(SMALL_CORES), label="r, core")
        m = data.draw(st.integers(smallest_m(core, r), comb(core, r)), label="m")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        edges = core_instance(core, r, m, seed).hypergraph.edges
        assert edges == lower_bound_edges_oracle(core, r, m, seed)

    def test_binom_past_the_guard_generates(self):
        # binom(334, 3) = 6,154,284 r-sets, more than the guard, yet only
        # the 200,000 drawn ones are built
        gen = lower_bound_instance(400, 200_000, 0.6, seed=1)
        assert (gen.uniformity, gen.core_vertex_count) == (3, 334)
        assert comb(334, 3) > GEN_GUARD
        edges = gen.hypergraph.edges
        assert len(edges) == 200_000
        assert all(len(e) == 3 and 0 <= e[0] < e[1] < e[2] < 334 for e in edges)
        assert all(a < b for a, b in zip(edges, edges[1:]))

    def test_eps_guard(self):
        with pytest.raises(InfeasibleParams):
            lower_bound_instance(100, 100, 0.01, seed=1)
        with pytest.raises(InfeasibleParams):
            lower_bound_instance(100, 100, 1.5, seed=1)

    def test_core_too_small(self):
        # tiny m gives a core too small to carry the edges
        with pytest.raises(InfeasibleParams):
            lower_bound_instance(3, 3, 0.9, seed=1)

    def test_seed_determinism(self):
        a = lower_bound_instance(60, 90, 0.8, seed=2).hypergraph
        b = lower_bound_instance(60, 90, 0.8, seed=2).hypergraph
        assert a.edges == b.edges


class TestExperiments:
    def test_complete_reference_values(self):
        cfg = ExperimentConfig(kind="complete", measure="exact_s", sizes=(3, 4))
        report = run_experiment(cfg)
        # n=4 is 7, not 8: {3,5,6,7} has all 15 subset sums distinct, and
        # enumeration rules out max 6, so powers of two stop being optimal here
        assert [r["s"] for r in report.records] == [4, 7]
        assert report.summary["min_s"] == 4 and report.summary["max_s"] == 7

    def test_reports_reproducible(self):
        cfg = ExperimentConfig(kind="runiform", measure="exact_s", seeds=tuple(range(20)),
                               n_vertices=6, uniformity=2, edge_probability=0.8)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a == b  # elapsed excluded from comparison
        assert a.to_mapping() == b.to_mapping()
        assert all(r["s"] is not None for r in a.records)
        assert a.summary["min_s"] <= a.summary["median_s"] <= a.summary["max_s"]

    def test_complete_runs_every_seed_for_every_size(self):
        cfg = ExperimentConfig(kind="complete", measure="quadratic", sizes=(2, 3),
                               seeds=(1, 2, 3))
        report = run_experiment(cfg)
        assert [(r["n"], r["seed"]) for r in report.records] == [
            (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
        for r in report.records:
            res = quadratic_random_labeling(complete_hypergraph(r["n"]), r["seed"])
            assert (r["attempts"], r["max_label"]) == (res.attempts, res.labeling.max_label)
        # no seeds, no records, as for the other kinds
        empty = run_experiment(ExperimentConfig(kind="complete", measure="quadratic",
                                                sizes=(3,), seeds=()))
        assert empty.records == () and empty.summary == {"runs": 0}

    def test_two_step_measure(self):
        cfg = ExperimentConfig(kind="runiform", measure="two_step", seeds=(1, 2),
                               n_vertices=10, uniformity=3, edge_probability=0.1,
                               label_divisor=3.0)
        report = run_experiment(cfg)
        assert all("max_label" in r and r["max_label"] <= r["label_cap"]
                   for r in report.records)

    def test_quadratic_measure(self):
        cfg = ExperimentConfig(kind="runiform", measure="quadratic", seeds=(1, 2),
                               n_vertices=8, uniformity=2, edge_probability=0.5)
        report = run_experiment(cfg)
        assert all(r["attempts"] >= 1 and r["max_label"] <= r["m"] ** 2
                   for r in report.records)

    def test_exhausted_budget_records_the_bracket(self):
        cfg = ExperimentConfig(kind="complete", measure="exact_s", sizes=(4,), node_budget=10)
        report = run_experiment(cfg)
        # K4 has s = 7; the budget runs out at the start bound ceil(15 / 4)
        assert report.records == ({"seed": cfg.seeds[0], "n": 4, "m": 15, "s": None,
                                   "bracket": [4, 8]},)
        assert report.summary == {"runs": 1}

    def test_exhausted_two_step_budget_keeps_every_record(self):
        cfg = ExperimentConfig(kind="runiform", measure="two_step", seeds=tuple(range(6)),
                               n_vertices=6, uniformity=2, edge_probability=0.6,
                               label_divisor=15)
        records = run_experiment(cfg).records
        assert [r["seed"] for r in records] == list(range(6))
        for r in records:
            assert set(r) == {"seed", "n", "m", "step1_attempts", "step2_attempts",
                              "max_label", "label_cap"}
            assert r["label_cap"] == -(-r["m"] ** 2 // 15)
        exhausted = [r["seed"] for r in records if r["max_label"] is None]
        assert exhausted == [1, 2, 3, 5]
        assert all((r["step1_attempts"], r["step2_attempts"]) == (1000, 0)
                   for r in records if r["max_label"] is None)
        assert all(r["max_label"] <= r["label_cap"] for r in records if r["max_label"])

    def test_lowerbound_shape_records(self):
        cfg = ExperimentConfig(kind="lowerbound", measure="shape", seeds=(3,),
                               n_vertices=50, edge_count=80, eps=0.8)
        rec = run_experiment(cfg).records[0]
        assert rec["n"] == 50 and rec["m"] == 80 and rec["padding"] == 50 - rec["core"]

    def test_config_validation_and_round_trip(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="bogus", measure="exact_s")
        with pytest.raises(ValueError):
            ExperimentConfig(kind="complete", measure="exact_s")
        cfg = ExperimentConfig(kind="complete", measure="exact_s", sizes=(3,))
        assert ExperimentConfig.from_mapping(cfg.to_mapping()) == cfg
        listed = ExperimentConfig(kind="complete", measure="exact_s", sizes=[3])
        assert listed == cfg and hash(listed) == hash(cfg) and listed.sizes == (3,)
        with pytest.raises(ValueError, match="sizes must be a list of integers"):
            ExperimentConfig(kind="complete", measure="exact_s", sizes=[True])

    def test_config_accepts_int_reals_and_unbounded_budget(self):
        cfg = ExperimentConfig.from_mapping({
            "kind": "runiform", "measure": "exact_s", "seeds": [1], "n_vertices": 4,
            "edge_probability": 1, "eps": 0, "delta": 0, "label_divisor": 3,
            "node_budget": None})
        assert run_experiment(cfg).records[0]["s"] is not None
