"""Instance generators, parameter formulas, and the experiment runner."""

from math import comb, factorial, log, sqrt
from random import Random

import pytest

from sumlabel import (ExperimentConfig, Hypergraph, InfeasibleParams, Labeling,
                      ParamsOutOfRange, TooLarge, gen_runiform, is_distinguishing,
                      lower_bound_instance, lower_bound_params, run_experiment,
                      sum_class_histogram)


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

    def test_top_up_to_exactly_m(self):
        # a 300-vertex core at p ~ 0.994 samples about 44,580 of the 44,850
        # pairs, so the missing edges are drawn from the pairs left out
        m = 44_845
        gen = lower_bound_instance(300, m, 0.9, seed=1, delta=0.377)
        assert gen.core_vertex_count == 300 and gen.padding_vertices == 0
        assert gen.edge_probability * comb(300, 2) < m - 200
        assert gen.hypergraph.edge_count == m

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


class TestSumClassHistogram:
    def test_distinct_sums(self):
        hist = sum_class_histogram(3, 2, Labeling([1, 2, 3]))
        assert hist == {3: 1, 4: 1, 5: 1}

    def test_with_collision(self):
        hist = sum_class_histogram(3, 2, Labeling([1, 1, 2]))
        assert hist == {2: 1, 3: 2}

    def test_totals_partition(self):
        rng = Random(113)
        for _ in range(10):
            n, r = rng.randint(3, 7), rng.randint(1, 3)
            f = Labeling([rng.randint(1, 9) for _ in range(n)])
            assert sum(sum_class_histogram(n, r, f).values()) == comb(n, r)

    def test_flat_histogram_iff_distinguishing(self):
        rng = Random(127)
        from itertools import combinations

        for _ in range(10):
            n, r = rng.randint(3, 6), 2
            f = Labeling([rng.randint(1, 6) for _ in range(n)])
            h = Hypergraph(n, combinations(range(n), r))
            flat = all(v == 1 for v in sum_class_histogram(n, r, f).values())
            assert flat == is_distinguishing(h, f)


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

    def test_config_accepts_int_reals_and_unbounded_budget(self):
        cfg = ExperimentConfig.from_mapping({
            "kind": "runiform", "measure": "exact_s", "seeds": [1], "n_vertices": 4,
            "edge_probability": 1, "eps": 0, "delta": 0, "label_divisor": 3,
            "node_budget": None})
        assert run_experiment(cfg).records[0]["s"] is not None
