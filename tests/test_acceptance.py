"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute.  Criterion 1 checks s of the complete hypergraph against
Lunnon's published distinct-subset-sum optima (2, 4, 7 at n = 2, 3, 4)
and against the brute-force oracle in `helpers`.  Powers of two,
2**(n-1), are only an upper bound and are optimal only up to n = 3: at
n = 4 the labels {3,5,6,7} give 15 pairwise-distinct subset sums.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, floor, sqrt
from random import Random

import numpy as np

from sumlabel import (DualDegenerate, Labeling, TwoStepConfig,
                      closed_neighborhood_hypergraph, dual,
                      exact_collision_probability, exact_irr, exact_s, exact_s_star,
                      gen_runiform, is_distinguishing, is_vertex_sum_distinguishing,
                      iter_sum_pmfs, leaf_stat, lower_bound_instance, lower_bound_params,
                      merge_inequality_check, peak_probability_margin, repair_labeler,
                      s_star_bounds, split_embed, sum_pmf, tree_labeler, two_step_labeling)

from helpers import (all_graphs, brute_force_min_max_label, complete_hypergraph,
                     random_graph, random_hypergraph, random_tree, star_graph)


def report(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_complete_hypergraph_exact_values():
    start = time.perf_counter()
    got = {n: exact_s(complete_hypergraph(n)).optimum for n in (2, 3, 4)}
    elapsed = time.perf_counter() - start
    # Optimal distinct-subset-sum maxima: W. F. Lunnon, "Integer sets with
    # distinct subset-sums", Math. Comp. 50 (1988).
    want = {2: 2, 3: 4, 4: 7}
    oracle = {n: brute_force_min_max_label(complete_hypergraph(n)) for n in want}
    ok = got == want == oracle and elapsed < 10.0
    report(1, ok, f"got={got} want={want} oracle={oracle} elapsed={elapsed:.2f}s")


def test_criterion_02_star_tightness():
    failures = []
    for n in range(3, 9):
        t = star_graph(n)
        l_value = leaf_stat(t).max_leaf_neighbors
        optimum = exact_s_star(t).optimum
        if not (optimum == n - 1 == 2 * n - 2 - l_value):
            failures.append((n, optimum))
        f = tree_labeler(t)
        if not (is_vertex_sum_distinguishing(t, f) and f.max_label <= n - 1):
            failures.append((n, "labeler", f.max_label))
    report(2, not failures, f"stars n=3..8, failures={failures}")


def test_criterion_03_degree_bound_bracketing():
    checked = 0
    violations = []
    for n in range(1, 6):
        for g in all_graphs(n):
            rep = s_star_bounds(g)
            # solve through the neighborhood hypergraph so the bracket is
            # checked against a solver that never saw the degree bound
            s = exact_s(closed_neighborhood_hypergraph(g)).optimum
            checked += 1
            if not rep.lower <= s <= rep.xi:
                violations.append((n, sorted(g.edges), rep.lower, s, rep.xi))
    report(3, not violations, f"{checked} graphs, violations={violations[:3]}")


def test_criterion_04_equivalence_identities():
    rng = Random(211)
    failures = 0
    for _ in range(100):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        if exact_s_star(g).optimum != exact_s(closed_neighborhood_hypergraph(g)).optimum:
            failures += 1
    for _ in range(50):
        n = rng.randint(1, 4)
        h = random_hypergraph(rng, n, n)
        embedded, _ = split_embed(h)
        if exact_s(h).optimum > exact_s_star(embedded).optimum:
            failures += 1
    report(4, failures == 0, f"100 graph identities + 50 embeddings, failures={failures}")


def test_criterion_05_repair_labeler():
    rng = Random(223)
    failures = []
    graphs = []
    while len(graphs) < 200:
        n = rng.randint(2, 20)
        g = random_graph(rng, n, rng.choice((0.1, 0.25, 0.5, 0.75, 0.95)))
        if g.edge_count >= 1:
            graphs.append(g)
    for g in graphs:
        n = g.vertex_count
        res = repair_labeler(g)
        rep = s_star_bounds(g)
        checks = [
            is_vertex_sum_distinguishing(g, res.labeling),
            res.labeling.max_label <= res.xi <= (rep.max_degree + 1) * n,
            len(res.steps) <= n * (n - 1) // 2,
        ]
        counts = [s.bad_pairs_before for s in res.steps]
        checks.append(all(a > b for a, b in zip(counts, counts[1:])))
        rerun = repair_labeler(g)
        checks.append(rerun.labeling.values == res.labeling.values and rerun.steps == res.steps)
        if not all(checks):
            failures.append((n, checks))
    report(5, not failures, f"200 graphs, failures={failures[:3]}")


def test_criterion_06_tree_labeler():
    rng = Random(227)
    failures = []
    for _ in range(500):
        n = rng.randint(3, 60)
        t = random_tree(rng, n)
        f = tree_labeler(t)
        bound = 2 * n - 2 - leaf_stat(t).max_leaf_neighbors
        if not (is_vertex_sum_distinguishing(t, f) and f.max_label <= bound):
            failures.append((n, f.max_label, bound))
    report(6, not failures, f"500 trees, failures={failures[:3]}")


def test_criterion_07_quadratic_failure_rate():
    rng = Random(0xD15C0)
    h = random_hypergraph(rng, 10, 10, max_size=6)
    m = h.edge_count
    cap = m * m
    attempts = 10**4
    draw_rng = Random(229)
    fails = 0
    for _ in range(attempts):
        f = Labeling(draw_rng.randint(1, cap) for _ in range(h.vertex_count))
        if is_distinguishing(h, f):
            assert f.max_label <= cap
        else:
            fails += 1
    rate = fails / attempts
    bound = (m - 1) / (2 * m)
    threshold = bound + 5 * sqrt(bound * (1 - bound) / attempts)
    report(7, rate < threshold, f"rate={rate:.4f} < bound+5se={threshold:.4f}")


def test_criterion_08_two_step_labeler():
    cap = ceil(Fraction(1600, 3))
    failures = []
    for i in range(20):
        h = random_hypergraph(Random(1000 + i), 40, 40, max_size=10)
        cfg = TwoStepConfig(label_divisor=3.0, dangerous_cutoff=64, stray_limit=16,
                            seed=i, step1_budget=1000, step2_budget=1000)
        try:
            res = two_step_labeling(h, cfg)  # protected-pair checks run every attempt
        except AssertionError as exc:
            failures.append((i, f"protected-pair check fired: {exc}"))
            continue
        if not (is_distinguishing(h, res.labeling) and res.labeling.max_label <= cap):
            failures.append((i, res.labeling.max_label))
    report(8, not failures, f"20 instances n=m=40, cap={cap}, failures={failures[:3]}")


def test_criterion_09_probability_engine():
    problems = []

    for ell, n in ((1, 2), (3, 7), (10, 4), (25, 9)):
        pmf = sum_pmf(ell, n)
        if sum(pmf.probabilities) != 1 or abs(float(sum(pmf.probabilities)) - 1.0) > 1e-12:
            problems.append(("normalization", ell, n))

    scanned = 0
    for n in range(1, 61):
        for pmf in iter_sum_pmfs(n, 50):
            c = pmf.counts
            scanned += 1
            if c != c[::-1]:
                problems.append(("symmetry", pmf.summands, n))
            mid = len(c) // 2
            if any(c[i] > c[i + 1] for i in range(mid)):
                problems.append(("unimodality", pmf.summands, n))

    merge_failures = 0
    for num in range(1, 100):
        p = Fraction(num, 100)
        for t1 in range(2, 201):
            for t2 in range(t1 + 2, 203):
                conv1, decrease = merge_inequality_check(p, t1, t2)
                if not (conv1 and decrease):
                    merge_failures += 1
    if merge_failures:
        problems.append(("merge-grid", merge_failures))

    subsets = [frozenset(c) for k in range(0, 5) for c in combinations(range(4), k)]
    for n in range(1, 21):
        for i in range(len(subsets)):
            for j in range(i + 1, len(subsets)):
                if exact_collision_probability(subsets[i], subsets[j], n) > Fraction(1, n):
                    problems.append(("collision", n, sorted(subsets[i]), sorted(subsets[j])))

    draws = 10**6
    for idx, (ell, n) in enumerate([(2, 3), (2, 10), (5, 3), (5, 10), (10, 3), (10, 10)]):
        np_rng = np.random.default_rng(4200 + idx)
        sums = np_rng.integers(1, n + 1, size=(draws, ell)).sum(axis=1)
        observed = np.bincount(sums, minlength=ell * n + 1)
        pmf = sum_pmf(ell, n)
        for t in range(pmf.support_base, pmf.support_max + 1):
            p = float(pmf.prob(t))
            se = sqrt(draws * p * (1 - p))
            if abs(observed[t] - draws * p) > 4 * se:
                problems.append(("monte-carlo", ell, n, t))

    report(9, not problems, f"claim-0 scans={scanned}, merge grid 99x19900, "
                            f"problems={problems[:3]}")


def test_criterion_10_peak_and_tail_certificates():
    problems = []
    margin = peak_probability_margin(200, 50, 1.0)
    if not margin <= 1.0:
        problems.append(("margin", margin))
    doubled = sum_pmf(400, 50)
    peak_at, _ = doubled.max_point()
    if peak_at != 200 * 51:
        problems.append(("peak-location", peak_at))
    for ell, root in ((8, 4), (27, 9)):
        for n in (5, 10):
            pmf = sum_pmf(ell, n)
            threshold = root * n  # ell**(2/3) * n, exact for cubes
            mean = Fraction(ell * (n + 1), 2)
            lo_cut = floor(mean - threshold)
            hi_cut = ceil(mean + threshold)
            tail = pmf.window(pmf.support_base, lo_cut) + pmf.window(hi_cut, pmf.support_max)
            if tail > Fraction(1, ell):
                problems.append(("tail", ell, n, float(tail)))
    report(10, not problems, f"margin={margin:.4f}, problems={problems}")


def test_criterion_11_generators():
    problems = []
    for n, r, p in ((30, 2, 0.2), (12, 3, 0.5), (20, 2, 0.8)):
        total_possible = comb(n, r)
        total_edges = sum(gen_runiform(n, r, p, seed).edge_count for seed in range(200))
        mean = 200 * total_possible * p
        se = sqrt(200 * total_possible * p * (1 - p))
        if abs(total_edges - mean) > 4 * se:
            problems.append(("binomial", n, r, p, total_edges, mean))

    for n, m, eps in ((100, 100, 0.9), (50, 80, 0.8), (40, 50, 0.95)):
        gen = lower_bound_instance(n, m, eps, seed=7)
        h = gen.hypergraph
        shape_ok = (h.vertex_count == n and h.edge_count == m
                    and gen.padding_vertices == n - gen.core_vertex_count
                    and all(max(e) < gen.core_vertex_count for e in h.edges))
        if not shape_ok:
            problems.append(("shape", n, m, eps))

    import mpmath

    mpmath.mp.dps = 50
    ref_q = mpmath.sqrt(52)
    ref_p = ref_q * mpmath.sqrt(mpmath.log(10**4)) / mpmath.mpf(100)
    params = lower_bound_params(2, 10**4)
    if abs(params.density_coefficient - float(ref_q)) > 5e-10 * float(ref_q):
        problems.append(("q", params.density_coefficient))
    if abs(params.edge_probability - float(ref_p)) > 5e-10 * float(ref_p):
        problems.append(("p", params.edge_probability))
    if params.label_budget != 12_500_000:
        problems.append(("s", params.label_budget))
    report(11, not problems, f"problems={problems}")


def test_criterion_12_duality():
    rng = Random(233)
    clean_checked = 0
    degenerate_checked = 0
    problems = []
    while clean_checked < 50 or degenerate_checked < 10:
        n = rng.randint(1, 5)
        h = random_hypergraph(rng, n, rng.randint(1, min(5, 2**n - 1)))
        nonempty = [inc for inc in h.incidence if inc]
        has_duplicates = len(set(nonempty)) < len(nonempty)
        covered = all(inc for inc in h.incidence)
        try:
            d = dual(h)
            raised = False
        except DualDegenerate:
            raised = True
        if raised != has_duplicates:
            problems.append(("degenerate-detection", sorted(map(sorted, h.edges))))
            break
        if has_duplicates:
            degenerate_checked += 1
            continue
        if not covered or clean_checked >= 50:
            continue
        clean_checked += 1
        if exact_irr(h).optimum != exact_s(d).optimum:
            problems.append(("irr-identity", sorted(map(sorted, h.edges))))
        dd = dual(d)
        if dd.vertex_count != h.vertex_count or dd.edges != h.edges:
            problems.append(("involution", sorted(map(sorted, h.edges))))
    report(12, not problems,
           f"{clean_checked} clean + {degenerate_checked} degenerate, problems={problems[:3]}")
