"""Seeded inputs, timed operations and independent correctness checks for
the four benchmark workloads.

Each workload is built from ``(seed, size)``: the seed fixes every input,
and ``size`` is ``"full"`` for measured runs or ``"tiny"`` for warm-up and
self-tests.  A workload is a list of :class:`Op`; ``Op.run`` is the only
timed part and calls the library, ``Op.check`` recomputes the answer in
benchmark code (edge sums, closed-neighborhood sums, label caps, published
optima, PMF moments) and returns the operation's deterministic counters.
No check reuses the library's own verification.

Library callables are looked up on the ``sumlabel`` package at call time,
so wrappers installed by the tracer are the ones that run.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import exp
from pathlib import Path
from random import Random
from typing import Any, Callable

import sumlabel
import sumlabel.cli
import sumlabel.uniform_sums

WORKLOADS = ("bulk_io", "exact_search", "pair_labelers", "probability")


class CheckFailed(Exception):
    """An operation returned an answer the benchmark's own check rejects."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict[str, Any]]
    # untimed, before every run: drops library caches so each round does the same work
    reset: Callable[[], None] | None = None
    last_s: float = 0.0  # duration of the latest timed run


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- inputs


def random_edges(rng: Random, n: int, m: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """m distinct edges on [0, n) with sizes uniform in [lo, hi], sorted inside."""
    seen: set[tuple[int, ...]] = set()
    edges = []
    while len(edges) < m:
        e = tuple(sorted(rng.sample(range(n), rng.randint(lo, hi))))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return edges


def random_graph_edges(rng: Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def random_tree_edges(rng: Random, n: int) -> list[tuple[int, int]]:
    """Uniform labeled tree on n >= 2 vertices from a random Pruefer sequence."""
    import heapq

    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def hg_text(n: int, edges: list[tuple[int, ...]]) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{len(e)} " + " ".join(map(str, sorted(e))) for e in edges)
    return "\n".join(lines) + "\n"


def complete_edges(n: int) -> list[tuple[int, ...]]:
    return [c for k in range(1, n + 1) for c in combinations(range(n), k)]


def permuted(rng: Random, n: int, edges: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Relabel vertices and shuffle edge order: an isomorphic copy."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [tuple(sorted(perm[v] for v in e)) for e in edges]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- checks


def check_distinct_edge_sums(edges, labels, n: int, cap: int | None = None) -> None:
    _require(len(labels) == n, f"expected {n} labels, got {len(labels)}")
    _require(all(isinstance(x, int) and x >= 1 for x in labels), "labels must be positive")
    if cap is not None:
        _require(max(labels) <= cap, f"max label {max(labels)} exceeds cap {cap}")
    sums = [sum(labels[v] for v in e) for e in edges]
    _require(len(set(sums)) == len(sums), "two edges share a label sum")


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def check_closed_sums(n: int, edges, labels, cap: int | None = None) -> None:
    """Closed-neighborhood sums differ whenever closed neighborhoods differ."""
    _require(len(labels) == n, f"expected {n} labels, got {len(labels)}")
    _require(min(labels) >= 1, "labels must be positive")
    if cap is not None:
        _require(max(labels) <= cap, f"max label {max(labels)} exceeds cap {cap}")
    adj = _adjacency(n, edges)
    by_sum: dict[int, frozenset[int]] = {}
    for v in range(n):
        closed = frozenset(adj[v] | {v})
        s = sum(labels[u] for u in closed)
        other = by_sum.setdefault(s, closed)
        _require(other == closed, f"closed-neighborhood sum {s} repeats")


def degree_xi(n: int, edges) -> int:
    adj = _adjacency(n, edges)
    return max((n - len(a) - 1) * (len(a) + 1) + 2 for a in adj)


def max_leaf_neighbors(n: int, edges) -> int:
    adj = _adjacency(n, edges)
    return max(sum(1 for w in adj[v] if len(adj[w]) == 1) for v in range(n))


# ---------------------------------------------------------------- bulk_io

BULK_SIZES = {"full": (20_000, 100_000, 200, 0.08, (2000, 20000)),
              "tiny": (60, 200, 12, 0.3, (20, 60))}


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = sumlabel.cli.main(argv)
    return code, buf.getvalue()


def _expect_json(code: int, out: str) -> dict[str, Any]:
    _require(code == 0, f"exit code {code}")
    return json.loads(out)


def build_bulk_io(seed: int, size: str, workdir: Path) -> list[Op]:
    """Linear per-edge work through the CLI: parse, construct, incidence,
    serialize and JSON output on one large seeded hypergraph."""
    n, m, gen_n, gen_p, (lb_n, lb_m) = BULK_SIZES[size]
    rng = Random(seed)
    edges = random_edges(rng, n, m, 2, 10)
    hg = workdir / "bulk.hg"
    hg.write_text(hg_text(n, edges))
    labels_file, dual_file, gen_file = (workdir / "labels.json", workdir / "dual.hg",
                                        workdir / "gen.hg")

    incidence: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            incidence[v].append(i)
    expected_dual = hg_text(m, [tuple(inc) for inc in incidence if inc])
    gen_rng = Random(seed)
    expected_gen = hg_text(gen_n, [c for c in combinations(range(gen_n), 3)
                                   if gen_rng.random() < gen_p])

    def check_label(res):
        payload = _expect_json(*res)
        labels = payload["labels"]
        check_distinct_edge_sums(edges, labels, n, cap=m * m)
        _require(payload["verified"] is True, "label output not marked verified")
        labels_file.write_text(json.dumps({"labels": labels}))  # input of the verify op
        return {"stdout": digest(res[1]), "attempts": payload["attempts"]}

    def check_verify(res):
        payload = _expect_json(*res)
        _require(payload["verified"] is True, "verify rejected the quadratic labeling")
        return {"stdout": digest(res[1])}

    def check_written(path: Path, expected: str):
        def check(res):
            payload = _expect_json(*res)
            _require(payload["written"] == str(path), "wrong output path reported")
            _require(path.read_text() == expected, f"{path.name} differs from the expected text")
            # the scratch directory name differs per run, so it is left out of the digest
            stdout = res[1].replace(str(path), path.name)
            return {"stdout": digest(stdout), "file": digest(expected)}
        return check

    def check_lowerbound(res):
        code, out = res
        _require(code == 0, f"exit code {code}")
        lines = out.splitlines()
        _require(lines[0] == f"{lb_n} {lb_m}" and len(lines) == lb_m + 1, "wrong shape")
        rows = {tuple(map(int, line.split())) for line in lines[1:]}
        _require(len(rows) == lb_m, "duplicate edges")
        _require(len({r[0] for r in rows}) == 1, "edges are not uniform")
        _require(all(r[0] == len(r) - 1 and 0 <= min(r[1:]) and max(r[1:]) < lb_n
                     for r in rows), "malformed edge line")
        return {"stdout": digest(out)}

    s = str(seed)
    ops = [
        Op("label_quadratic", lambda: _cli(["label", "quadratic", str(hg), "--seed", s]),
           check_label),
        Op("verify", lambda: _cli(["verify", str(hg), "--labels-file", str(labels_file)]),
           check_verify),
        Op("dual", lambda: _cli(["dual", str(hg), "--out", str(dual_file)]),
           check_written(dual_file, expected_dual)),
        Op("gen_runiform", lambda: _cli(["gen", "runiform", str(gen_n), "3", str(gen_p),
                                         "--seed", s, "--out", str(gen_file)]),
           check_written(gen_file, expected_gen)),
        Op("gen_lowerbound", lambda: _cli(["gen", "lowerbound", str(lb_n), str(lb_m), "0.9",
                                           "--seed", s]),
           check_lowerbound),
    ]
    return ops


# ---------------------------------------------------------------- exact_search

# s of the complete hypergraph on [n] is Lunnon's optimal distinct-subset-sum
# maximum (Math. Comp. 1988): 1, 2, 4, 7, 13, 24, ...
LUNNON = {3: 4, 4: 7, 5: 13}

# Fixed ladders: (vertices, edge probability, generator seed) -> optimum,
# recorded at the benchmark's first commit.  The run seed only relabels
# vertices and reorders edges, which leaves every optimum unchanged while
# keeping the search effort close across seeds (fresh random graphs would
# vary by three orders of magnitude).
S_LADDER = {
    "full": {(8, 0.5, 1): 10, (8, 0.5, 2): 6, (8, 0.5, 3): 6, (8, 0.5, 4): 8, (8, 0.5, 5): 10,
             (8, 0.5, 6): 4, (9, 0.4, 1): 7, (9, 0.4, 2): 7, (9, 0.4, 3): 8, (9, 0.4, 4): 10,
             (9, 0.4, 5): 11, (9, 0.4, 6): 7, (10, 0.3, 1): 8, (10, 0.3, 2): 11,
             (10, 0.3, 3): 6, (10, 0.3, 4): 6, (10, 0.3, 5): 8, (10, 0.3, 6): 7},
    "tiny": {(6, 0.5, 1): 7}}
SSTAR_LADDER = {
    "full": {(12, 0.3, 1): 3, (12, 0.3, 2): 3, (12, 0.3, 3): 3, (12, 0.3, 4): 4,
             (12, 0.3, 5): 3, (12, 0.3, 6): 3, (12, 0.3, 7): 4, (12, 0.3, 8): 3},
    "tiny": {(7, 0.3, 1): 3}}
IRR_LADDER = {
    "full": {(7, 0.25, 1): 2, (7, 0.25, 2): 3, (7, 0.25, 3): 2, (7, 0.25, 4): 3,
             (7, 0.25, 5): 2, (7, 0.25, 6): 2},
    "tiny": {(5, 0.4, 1): 2}}
COMPLETE = {"full": (4, 5), "tiny": (3, 4)}


def _ladder_edges(n: int, p: float, g: int, uniformity: int) -> list[tuple[int, ...]]:
    rng = Random(1000 * g + n)
    return [c for c in combinations(range(n), uniformity) if rng.random() < p]


def _irr_instance(n: int, p: float, g: int) -> list[tuple[int, ...]]:
    """First 3-uniform draw (from generator seed g) whose covered vertices
    have pairwise distinct incidence sets, so irr is defined."""
    for attempt in range(1000):
        edges = _ladder_edges(n, p, 100 * g + attempt, 3)
        inc = [frozenset(i for i, e in enumerate(edges) if v in e) for v in range(n)]
        covered = [s for s in inc if s]
        if len(edges) >= 2 and len(set(covered)) == len(covered):
            return edges
    raise RuntimeError("no irr ladder instance found")


def build_exact_search(seed: int, size: str, workdir: Path) -> list[Op]:
    """The exact search on complete hypergraphs and fixed, relabeled ladders."""
    rng = Random(seed)
    ops = []

    def solve_s(name, n, edges, expected):
        h = sumlabel.Hypergraph(n, edges)

        def check(res):
            _require(res.optimum == expected, f"optimum {res.optimum}, expected {expected}")
            labels = list(res.witness.values)
            check_distinct_edge_sums(edges, labels, n, cap=expected)
            return {"optimum": res.optimum, "nodes": res.nodes_expanded}
        ops.append(Op(name, lambda: sumlabel.exact_s(h), check))

    for n in COMPLETE[size]:
        solve_s(f"s_K{n}", n, permuted(rng, n, complete_edges(n)), LUNNON[n])
    for (n, p, g), opt in S_LADDER[size].items():
        solve_s(f"s_G{n}_{g}", n, permuted(rng, n, _ladder_edges(n, p, g, 2)), opt)

    for (n, p, g), opt in SSTAR_LADDER[size].items():
        edges = permuted(rng, n, _ladder_edges(n, p, g, 2))
        graph = sumlabel.Graph(n, edges)

        def check(res, n=n, edges=edges, opt=opt):
            _require(res.optimum == opt, f"s* {res.optimum}, expected {opt}")
            check_closed_sums(n, edges, list(res.witness.values), cap=opt)
            return {"optimum": res.optimum, "nodes": res.nodes_expanded}
        ops.append(Op(f"sstar_G{n}_{g}", lambda graph=graph: sumlabel.exact_s_star(graph), check))

    for (n, p, g), opt in IRR_LADDER[size].items():
        edges = permuted(rng, n, _irr_instance(n, p, g))
        h = sumlabel.Hypergraph(n, edges)

        def check(res, n=n, edges=edges, opt=opt):
            _require(res.optimum == opt, f"irr {res.optimum}, expected {opt}")
            weights = list(res.witness.values)
            _require(len(weights) == len(edges) and max(weights) == opt, "bad edge labeling")
            sums = [sum(w for w, e in zip(weights, edges) if v in e) for v in range(n)]
            covered = [s for v, s in enumerate(sums) if any(v in e for e in edges)]
            _require(len(set(covered)) == len(covered), "two vertices share an incident sum")
            return {"optimum": res.optimum, "nodes": res.nodes_expanded}
        ops.append(Op(f"irr_H{n}_{g}", lambda h=h: sumlabel.exact_irr(h), check))
    return ops


# ---------------------------------------------------------------- pair_labelers

PAIR_SIZES = {"full": ((200, 300, 400), 120, 1000), "tiny": ((12, 20), 10, 12)}


def build_pair_labelers(seed: int, size: str, workdir: Path) -> list[Op]:
    """Labelers whose cost grows with the number of edge or vertex pairs."""
    two_step_sizes, repair_n, tree_n = PAIR_SIZES[size]
    rng = Random(seed)
    ops = []
    for m in two_step_sizes:
        edges = random_edges(rng, m, m, 1, 10)
        h = sumlabel.Hypergraph(m, edges)
        cfg = sumlabel.TwoStepConfig(seed=seed)
        cap = -(-m * m // 4)  # ceil(m^2 / C) at the default C = 4

        def check(res, m=m, edges=edges, cap=cap):
            check_distinct_edge_sums(edges, list(res.labeling.values), m, cap=cap)
            _require(res.label_cap == cap, f"label cap {res.label_cap}, expected {cap}")
            return {"step1_attempts": res.step1_attempts, "step2_attempts": res.step2_attempts,
                    "census": sorted(res.collision_census.items())}
        ops.append(Op(f"two_step_{m}", lambda h=h, cfg=cfg: sumlabel.two_step_labeling(h, cfg),
                      check))

    repair_edges = random_graph_edges(rng, repair_n, 0.2)
    repair_graph = sumlabel.Graph(repair_n, repair_edges)
    xi = degree_xi(repair_n, repair_edges)

    def check_repair(res):
        _require(res.xi == xi, f"xi {res.xi}, expected {xi}")
        check_closed_sums(repair_n, repair_edges, list(res.labeling.values), cap=xi)
        return {"repair_steps": len(res.steps), "max_label": res.labeling.max_label}
    ops.append(Op(f"repair_{repair_n}", lambda: sumlabel.repair_labeler(repair_graph),
                  check_repair))

    tree_edges = random_tree_edges(rng, tree_n)
    tree = sumlabel.Graph(tree_n, tree_edges)
    tree_cap = 2 * tree_n - 2 - max_leaf_neighbors(tree_n, tree_edges)

    def check_tree(f):
        check_closed_sums(tree_n, tree_edges, list(f.values), cap=tree_cap)
        return {"max_label": f.max_label}
    ops.append(Op(f"tree_{tree_n}", lambda: sumlabel.tree_labeler(tree), check_tree))
    return ops


# ---------------------------------------------------------------- probability

# the peak margin stays above 1 below about 2 * 130 summands
PROB_SIZES = {"full": ((200, 50), 60, 50, 30, 24), "tiny": ((150, 3), 6, 5, 6, 4)}


def _check_moments(pmf, ell: int, n: int) -> None:
    """Total n^ell, mean ell(n+1)/2 and variance ell(n^2-1)/12, exactly."""
    c = pmf.counts
    _require(len(c) == ell * (n - 1) + 1, "wrong support length")
    total = n**ell
    _require(sum(c) == total, "counts do not total n^ell")
    s1 = sum(i * x for i, x in enumerate(c, start=ell))
    _require(2 * s1 == total * ell * (n + 1), "wrong mean")
    s2 = sum(i * i * x for i, x in enumerate(c, start=ell))
    # 12 (E[X^2] - E[X]^2) = ell (n^2 - 1), multiplied through by total^2
    _require(12 * (s2 * total - s1 * s1) == total * total * ell * (n * n - 1), "wrong variance")


def build_probability(seed: int, size: str, workdir: Path) -> list[Op]:
    """Exact sum-of-uniforms arithmetic; builds no hypergraph."""
    (ell, n_values), family_n, family_len, t_max, pairs = PROB_SIZES[size]
    rng = Random(seed)
    ops = []

    # The peak margin of peak_probability_margin(ell, n_values, 1.0) is computed here
    # from the one timed PMF of 2 * ell uniforms, so that PMF is built once per round.
    def check_peak(pmf):
        _check_moments(pmf, 2 * ell, n_values)
        centre = ell * (n_values + 1)
        top = pmf.counts[centre - 2 * ell]
        _require(max(pmf.counts) == top and pmf.counts.index(top) == centre - 2 * ell,
                 f"peak not at {centre}")
        peak = Fraction(top, n_values ** (2 * ell))
        _require(pmf.max_point() == (centre, peak), "max_point disagrees with the counts")
        margin = float(peak) * n_values * exp(4.0) / 5.0
        _require(0 < margin <= 1, f"peak margin {margin} above 1")
        return {"peak": digest(str(peak)), "margin": repr(margin)}
    ops.append(Op("sum_pmf", lambda: sumlabel.sum_pmf(2 * ell, n_values), check_peak))

    def family():
        return [list(sumlabel.iter_sum_pmfs(n, family_len)) for n in range(1, family_n + 1)]

    def check_family(pmfs):
        for n, fam in enumerate(pmfs, start=1):
            _require([p.summands for p in fam] == list(range(1, family_len + 1)), "bad family")
            for p in fam:
                _check_moments(p, p.summands, n)
        return {"pmfs": sum(len(f) for f in pmfs)}
    ops.append(Op("iter_sum_pmfs", family, check_family))

    grid = [(Fraction(k, 100), t1, t2) for k in range(1, 100)
            for t1 in range(2, t_max + 1) for t2 in range(t1 + 2, t_max + 3)]

    def merge_grid():
        return [sumlabel.merge_inequality_check(p, t1, t2) for p, t1, t2 in grid]

    def check_grid(results):
        bad = sum(1 for r in results if not (r.conv1_holds and r.decrease_holds))
        _require(bad == 0, f"{bad} merge-grid failures")
        return {"grid": len(results)}
    # merge_inequality_check memoises its big-integer power comparison
    ops.append(Op("merge_grid", merge_grid, check_grid,
                  reset=sumlabel.uniform_sums._decrease_holds.cache_clear))

    subsets = []
    for _ in range(pairs):
        # unions of at most 6 vertices keep n^6 under the library's 10^8 guard
        a = frozenset(rng.sample(range(6), rng.randint(1, 3)))
        b = frozenset(rng.sample(range(6), rng.randint(1, 3)))
        if a != b:
            subsets.append((a, b, rng.randint(2, 20)))

    def collisions():
        return [sumlabel.exact_collision_probability(a, b, n) for a, b, n in subsets]

    def check_collisions(probs):
        for (a, b, n), q in zip(subsets, probs):
            _require(0 <= q <= Fraction(1, n), f"collision probability {q} above 1/{n}")
        return {"collisions": digest(str(probs))}
    ops.append(Op("collisions", collisions, check_collisions))
    return ops


BUILDERS = {"bulk_io": build_bulk_io, "exact_search": build_exact_search,
            "pair_labelers": build_pair_labelers, "probability": build_probability}


def build(name: str, seed: int, size: str, workdir: Path) -> list[Op]:
    return BUILDERS[name](seed, size, workdir)
