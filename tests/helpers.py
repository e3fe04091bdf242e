"""Shared instance generators and independent brute-force oracles.

The oracles here deliberately re-derive answers from first principles
(full enumeration over labelings) so that solver tests never check the
search against itself.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations, compress, product
from math import ceil, comb, exp
from operator import le
from random import Random

from hypothesis import strategies as st

from sumlabel import (BudgetExhausted, DualDegenerate, Graph, Hypergraph, Labeling, ParseError,
                      ShapeError, ValidationError, is_distinguishing, s_star_bounds)
from sumlabel.constructive import RepairResult, RepairStep
from sumlabel.exact import _Search


# Instance files for the two-step labeler.  With small K and C, "c", "e"
# and "d" meet collisions of those census types and "retry" needs 28
# step-one draws (see the golden CLI test); "wide" suits the default K.
TWO_STEP_INSTANCES = {
    "c": "23 10\n1 20\n2 2 22\n2 3 17\n2 11 12\n2 11 14\n2 13 21\n3 2 6 12\n3 13 14 17\n"
         "4 4 11 13 20\n4 5 7 14 15\n",
    "e": "11 10\n1 6\n2 9 10\n3 4 8 10\n4 0 2 4 9\n4 0 6 7 9\n5 0 5 6 8 9\n7 1 2 3 4 5 7 9\n"
         "7 2 4 5 6 7 8 9\n8 0 1 3 4 5 6 8 10\n8 1 2 3 5 7 8 9 10\n",
    "d": "19 10\n1 3\n2 2 3\n2 3 10\n4 1 4 5 12\n4 1 6 16 18\n4 3 9 11 16\n5 0 1 9 14 15\n"
         "5 1 2 7 10 11\n6 0 1 2 14 15 16\n6 3 8 12 13 17 18\n",
    "retry": "14 9\n1 2\n2 3 10\n3 2 7 9\n3 3 4 10\n3 3 5 12\n5 0 1 5 10 13\n6 0 5 6 8 12 13\n"
             "7 0 2 3 6 9 11 13\n9 0 3 4 5 7 9 10 11 13\n",
    "wide": "20 20\n1 4\n1 6\n1 11\n2 1 5\n2 5 12\n2 5 19\n2 15 19\n3 2 9 10\n3 4 5 13\n"
            "3 6 10 17\n3 9 10 15\n4 0 1 14 18\n4 0 11 13 17\n4 3 7 12 17\n5 0 2 9 10 18\n"
            "5 0 4 14 17 19\n5 0 6 7 8 13\n5 0 8 11 14 16\n6 0 1 5 8 11 13\n6 0 5 6 9 12 19\n",
}


def complete_hypergraph(n: int) -> Hypergraph:
    edges = [c for k in range(1, n + 1) for c in combinations(range(n), k)]
    return Hypergraph(n, edges)


def star_graph(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    return Graph(n, [(0, v) for v in range(1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_hypergraph(rng: Random, n: int, m: int, max_size: int | None = None) -> Hypergraph:
    """m distinct nonempty random subsets of [0, n)."""
    limit = min(max_size or n, n)
    available = sum(comb(n, k) for k in range(1, limit + 1))
    if m > available:
        raise ValueError(f"only {available} distinct edges exist, asked for {m}")
    edges: set[frozenset[int]] = set()
    while len(edges) < m:
        k = rng.randint(1, limit)
        edges.add(frozenset(rng.sample(range(n), k)))
    return Hypergraph(n, sorted(edges, key=lambda e: (len(e), sorted(e))))


def lower_bound_edges_oracle(core: int, r: int, m: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """The r-sets of [0, core) at the m lexicographic ranks of one seeded
    ``Random(seed).sample``, found by marking all binom(core, r) ranks and
    walking every r-set in lexicographic order."""
    marks = bytearray(comb(core, r))
    for i in Random(seed).sample(range(len(marks)), m):
        marks[i] = 1
    return tuple(compress(combinations(range(core), r), marks))


def graph_as_hypergraph(g: Graph) -> Hypergraph:
    """The 2-uniform hypergraph with the edges of g."""
    return Hypergraph(g.vertex_count, sorted(g.edges))


def split_embed(h: Hypergraph) -> tuple[Graph, tuple[int, ...]]:
    """Embed an n-vertex, n-edge hypergraph into a graph on 2n vertices.

    Vertices 0..n-1 form a clique A (one per hyperedge), vertices n..2n-1
    an independent set B (one per hypergraph vertex), and a_i is joined
    to b_j exactly when edge i contains vertex j.  Any vertex
    sum-distinguishing labeling of the result, restricted to B, is
    distinguishing on ``h``.

    Returns the graph and the map from hypergraph vertex j to graph
    vertex n + j.
    """
    n = h.vertex_count
    if h.edge_count != n:
        raise ShapeError(f"embedding needs |E| = |V|, got {h.edge_count} edges on {n} vertices")
    edges = [(i, k) for i in range(n) for k in range(i + 1, n)]
    for i, e in enumerate(h.edges):
        edges.extend((i, n + j) for j in e)
    return Graph(2 * n, edges), tuple(range(n, 2 * n))


def serialize_graph(g: Graph) -> str:
    """The ".g" text of g, edges in sorted order."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def random_graph(rng: Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_tree(rng: Random, n: int) -> Graph:
    """Uniform labeled tree via a random Pruefer sequence."""
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)[:2]
    edges.append((u, w))
    return Graph(n, edges)


def all_graphs(n: int):
    """Every graph on n vertices (raw enumeration over edge subsets)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def hypergraph_oracle(vertex_count: int, edges) -> tuple[frozenset[int], ...]:
    """The edges of ``Hypergraph(vertex_count, edges)`` as the earlier
    constructor stored them, one frozenset per edge, with its checks run
    edge by edge: the same edge sets, or a :class:`ValidationError` with
    the same reason, edge and first.  Of several out-of-range vertices in
    one edge, the smallest is named."""
    if vertex_count < 1:
        raise ValidationError("hypergraph needs at least one vertex",
                              reason="need at least one vertex")
    normalized = tuple(map(frozenset, edges))
    first: dict[frozenset[int], int] = {}
    for pos, edge in enumerate(normalized):
        if not edge:
            raise ValidationError(f"edge {pos} is empty", reason="empty edge", edge=pos)
        for v in sorted(edge):
            if not 0 <= v < vertex_count:
                reason = f"vertex {v} out of range [0, {vertex_count})"
                raise ValidationError(f"edge {pos}: {reason}", reason=reason, edge=pos)
        if edge in first:
            raise ValidationError(f"duplicate edge {sorted(edge)} at position {pos}",
                                  reason="duplicate edge", edge=pos, first=first[edge])
        first[edge] = pos
    return normalized


def dual_oracle(h: Hypergraph) -> tuple[Hypergraph, list[int]]:
    """The earlier ``dual``, which grouped vertices by incidence set before
    building the dual.  It returns the uncovered vertices it skipped,
    where that version warned about them."""
    groups: dict[frozenset[int], list[int]] = defaultdict(list)
    skipped = []
    for v, inc in enumerate(h.incidence):
        if not inc:
            skipped.append(v)
        else:
            groups[inc].append(v)
    colliding = [tuple(vs) for vs in groups.values() if len(vs) > 1]
    if colliding:
        raise DualDegenerate(colliding)
    edges = [h.incidence[v] for v in range(h.vertex_count) if h.incidence[v]]
    return Hypergraph(h.edge_count, edges), skipped


def closed_neighborhood_groups_oracle(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The earlier ``closed_neighborhood_groups``, which sorted the groups
    by their smallest vertex."""
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(g.closed_neighborhood(v), []).append(v)
    return tuple(tuple(vs) for vs in sorted(groups.values(), key=lambda vs: vs[0]))


def closed_sums_oracle(g: Graph, f: Labeling) -> tuple[int, ...]:
    """Closed-neighborhood label sum of every vertex, read off ``g.edges``
    without the library's adjacency or closed-neighborhood hypergraph."""
    n, values = g.vertex_count, f.values
    assert len(values) == n
    return tuple(
        sum(values[u] for u in range(n) if u == v or (min(u, v), max(u, v)) in g.edges)
        for v in range(n))


def is_vertex_sum_distinguishing_oracle(g: Graph, f: Labeling) -> bool:
    """The earlier ``is_vertex_sum_distinguishing``, which kept one sum per
    closed neighborhood in its own frozenset-keyed dict."""
    sums = closed_sums_oracle(g, f)
    by_class: dict[frozenset[int], int] = {}
    for v in range(g.vertex_count):
        by_class[g.closed_neighborhood(v)] = sums[v]
    return len(set(by_class.values())) == len(by_class)


def brute_force_min_max_label(h: Hypergraph) -> int:
    """Smallest N admitting a distinguishing labeling, by raw enumeration."""
    n = h.vertex_count
    bound = 1 << (n - 1)
    for cap in range(1, bound + 1):
        for values in product(range(1, cap + 1), repeat=n):
            if max(values) == cap and is_distinguishing(h, Labeling(values)):
                return cap
    raise AssertionError("powers of two should always work")


def brute_force_s_star(g: Graph) -> int:
    """s*(G) by full enumeration: the least cap under which some labeling
    is vertex sum-distinguishing."""
    cap = 1
    while True:
        for values in product(range(1, cap + 1), repeat=g.vertex_count):
            if is_vertex_sum_distinguishing_oracle(g, Labeling(values)):
                return cap
        cap += 1


def brute_force_decide(h: Hypergraph, cap: int) -> tuple[int, ...] | None:
    """First distinguishing labeling with labels <= cap, in lexicographic
    order, by raw enumeration."""
    for values in product(range(1, cap + 1), repeat=h.vertex_count):
        if is_distinguishing(h, Labeling(values)):
            return values
    return None


def decide(h: Hypergraph, max_label: int, node_budget: int | None = None) -> Labeling | None:
    """One decision step of the exact search: the labeling it finds with
    all labels <= max_label, checked to be distinguishing, or None."""
    found = _Search(h, node_budget).decide(max_label)
    if found is not None:
        assert is_distinguishing(h, found)
    return found


def loop_decide_oracle(search: _Search, max_label: int) -> Labeling | None:
    """The exact search's decision step as the hand-written loop that ran
    before the search was compiled per instance: the same set-up tables
    (``order``, ``singles``, ``multis``, ``previous``, ``reflect_at``),
    walked by one interpreted loop over depths that undoes ``used`` with an
    XOR on backtracking.  Adds the labels it accepts to ``search.nodes``
    and raises the same ``BudgetExhausted``, so the compiled search must
    match it witness for witness and node for node."""
    size = len(search.order)
    singles, multis, previous = search.singles, search.multis, search.previous
    last = search.reflect_at
    budget = search.node_budget if search.node_budget is not None else 1 << 64
    nodes = search.nodes
    labels = [0] * size + [1]
    candidates = [0] * size  # labels still to try at each depth, as a bitmask
    partials = [0] * size  # bitmask of the partial sums of the edges completed there
    used = 0
    top = (1 << (max_label + 1)) - 1
    d = 0
    try:
        while d < size:
            c = mask = forbidden = 0
            for j in singles[d]:
                p = labels[j]
                if mask >> p & 1:
                    break
                mask |= 1 << p
                forbidden |= used >> p
            else:
                for members in multis[d]:
                    p = 0
                    for j in members:
                        p += labels[j]
                    if mask >> p & 1:
                        break
                    mask |= 1 << p
                    forbidden |= used >> p
                else:
                    c = top & ~forbidden & -(1 << labels[previous[d]])
                    if d == last:
                        cap = max_label + 1 - labels[0] if d else (max_label + 1) // 2
                        c &= (2 << cap) - 1
            partials[d] = mask
            while not c:
                d -= 1
                if d < 0:
                    return None
                used ^= partials[d] << labels[d]
                c = candidates[d]
            low = c & -c
            candidates[d] = c ^ low
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(f"node budget {budget} exhausted",
                                      detail={"nodes": nodes})
            x = low.bit_length() - 1
            labels[d] = x
            used |= partials[d] << x
            d += 1
    finally:
        search.nodes = nodes
    return search.labeling(labels)


ORACLE_GUARD = 10**8


class OracleTooLarge(Exception):
    """The brute-force enumeration oracle would exceed its size guard."""


def oracle_enumerate(h: Hypergraph, max_label: int) -> Labeling | None:
    """Scan all max_label**n labelings in lexicographic order and return the
    first distinguishing one, or None.  Ground-truth oracle for the exact
    search's decision step (:func:`decide`); guarded to at most 10**8
    candidates."""
    n = h.vertex_count
    if max_label**n > ORACLE_GUARD:
        raise OracleTooLarge(f"{max_label}**{n} labelings exceed the enumeration guard")
    for values in product(range(1, max_label + 1), repeat=n):
        f = Labeling(values)
        if is_distinguishing(h, f):
            return f
    return None


def _oracle_static_vertex_order(h: Hypergraph) -> list[int]:
    """Fixed assignment order: greedily pick the vertex that completes the
    most edges given what is already assigned, breaking ties by incident
    edge count and then by index.  Computed once so the search is
    deterministic."""
    n = h.vertex_count
    remaining = [len(e) for e in h.edges]
    unassigned = set(range(n))
    order = []
    while unassigned:
        best, best_key = -1, None
        for v in sorted(unassigned):
            completes = sum(1 for i in h.incidence[v] if remaining[i] == 1)
            key = (completes, len(h.incidence[v]), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        unassigned.remove(best)
        for i in h.incidence[best]:
            remaining[i] -= 1
    return order


class _OracleSearch:
    """Depth-first label assignment with collision pruning on completed edges."""

    def __init__(self, h: Hypergraph, node_budget: int | None):
        self.h = h
        self.order = _oracle_static_vertex_order(h)
        self.incident = [sorted(h.incidence[v]) for v in range(h.vertex_count)]
        self.node_budget = node_budget
        self.nodes = 0

    def decide(self, max_label: int) -> Labeling | None:
        h = self.h
        n = h.vertex_count
        values = [0] * n
        partial = [0] * h.edge_count
        remaining = [len(e) for e in h.edges]
        sum_count: dict[int, int] = {}

        def assign(depth: int) -> bool:
            if depth == n:
                return True
            v = self.order[depth]
            inc = self.incident[v]
            for label in range(1, max_label + 1):
                self.nodes += 1
                if self.node_budget is not None and self.nodes > self.node_budget:
                    raise BudgetExhausted(
                        f"node budget {self.node_budget} exhausted", detail={"nodes": self.nodes}
                    )
                values[v] = label
                touched = 0
                completed = []
                ok = True
                for i in inc:
                    partial[i] += label
                    remaining[i] -= 1
                    touched += 1
                    if remaining[i] == 0:
                        s = partial[i]
                        c = sum_count.get(s, 0)
                        sum_count[s] = c + 1
                        completed.append(i)
                        if c:
                            ok = False
                            break
                if ok and assign(depth + 1):
                    return True
                for i in completed:
                    s = partial[i]
                    if sum_count[s] == 1:
                        del sum_count[s]
                    else:
                        sum_count[s] -= 1
                for i in inc[:touched]:
                    partial[i] -= label
                    remaining[i] += 1
            values[v] = 0
            return False

        if assign(0):
            return Labeling(values)
        return None


def exact_search_oracle(h: Hypergraph) -> tuple[int, tuple[int, ...]]:
    """Optimum and witness of the exact solver by its earlier recursive
    search (no forward checking, no symmetry classes), trying N = 1, 2, ...
    The witness is the lexicographically first distinguishing labeling in
    the search order at the optimum, whatever bound the solver starts from,
    so the library must return the same one."""
    search = _OracleSearch(h, None)
    bound = 1
    while True:
        found = search.decide(bound)
        if found is not None:
            return bound, found.values
        bound += 1


def symmetry_classes_oracle(h: Hypergraph) -> list[list[int]]:
    """Classes of covered vertices that a transposition maps onto each
    other, by exchanging every pair and rebuilding the whole edge set.
    Each vertex's partners must form a partition (the relation is an
    equivalence); classes are sorted and ordered by smallest member."""
    edges = set(map(frozenset, h.edges))
    covered = [v for v in range(h.vertex_count) if h.incidence[v]]

    def exchangeable(u: int, v: int) -> bool:
        swap = {u: v, v: u}
        return {frozenset(swap.get(w, w) for w in e) for e in edges} == edges

    partners = {v: tuple(u for u in covered if exchangeable(u, v)) for v in covered}
    classes = sorted(set(partners.values()))
    assert sorted(v for members in classes for v in members) == covered
    return [list(members) for members in classes]


def pair_classes_oracle(h: Hypergraph, cutoff: int, stray_limit: int):
    """Popular set and class of every edge pair, by brute force over pairs.

    A pair is dangerous when its symmetric difference has at most
    ``cutoff`` vertices; a vertex is popular when it lies in the
    symmetric differences of at least m**2 / cutoff**3 dangerous pairs.
    Classes: "special" (no non-popular vertex in the symmetric
    difference), "dangerous" (other dangerous pairs), "newly" (at most
    ``stray_limit`` non-popular vertices) and "other".
    """
    edges = tuple(map(frozenset, h.edges))
    m = len(edges)
    pairs = list(combinations(range(m), 2))
    hits = [0] * h.vertex_count
    for i, j in pairs:
        diff = edges[i] ^ edges[j]
        if len(diff) <= cutoff:
            for v in diff:
                hits[v] += 1
    threshold = Fraction(m * m, cutoff**3)
    popular = {v for v in range(h.vertex_count) if hits[v] >= threshold}
    classes = {}
    for i, j in pairs:
        diff = edges[i] ^ edges[j]
        strays = diff - popular
        if not strays:
            classes[(i, j)] = "special"
        elif len(diff) <= cutoff:
            classes[(i, j)] = "dangerous"
        elif len(strays) <= stray_limit:
            classes[(i, j)] = "newly"
        else:
            classes[(i, j)] = "other"
    return popular, classes


def skew_oracle(h: Hypergraph, popular, labels, i: int, j: int) -> int:
    """Popular labels of e_i minus e_j summed over the symmetric difference."""
    first, second = frozenset(h.edges[i]), frozenset(h.edges[j])
    return (sum(labels[v] for v in (first - second) & popular)
            - sum(labels[v] for v in (second - first) & popular))


def census_type_oracle(kind: str, skew: int, stray_cap: int) -> str:
    if kind == "newly":
        return "b" if abs(skew) > stray_cap else "c"
    return {"special": "a", "dangerous": "e", "other": "d"}[kind]


def two_step_oracle(h: Hypergraph, cfg) -> tuple:
    """Replay of the two-step labeler with every condition checked pair by
    pair: the same draws in the same order, so for a given seed it must
    give the same labels, attempt counts and census.  Returns (labels or
    None when the budgets run out, step-one attempts, step-two attempts,
    census)."""
    m, n = h.edge_count, h.vertex_count
    cap = max(1, ceil(Fraction(m * m) / Fraction(cfg.label_divisor)))
    stray_cap = cfg.stray_limit * cap
    allowance = m * m * exp(-4.0 * cfg.label_divisor)
    popular, classes = pair_classes_oracle(h, cfg.dangerous_cutoff, cfg.stray_limit)
    free = [v for v in range(n) if v not in popular]
    census = {t: 0 for t in "abcde"}
    rng = Random(cfg.seed)
    step1 = step2 = 0
    while step1 < cfg.step1_budget:
        step1 += 1
        labels = [0] * n
        for v in sorted(popular):
            labels[v] = rng.randint(1, cap)
        skews = {key: skew_oracle(h, popular, labels, *key) for key in classes}
        if any(classes[key] == "special" and skews[key] == 0 for key in classes):
            continue
        if sum(classes[key] == "newly" and abs(skews[key]) <= stray_cap
               for key in classes) > allowance:
            continue
        for _ in range(cfg.step2_budget if free else 1):
            step2 += 1
            for v in free:
                labels[v] = rng.randint(1, cap)
            sums = [sum(labels[v] for v in e) for e in h.edges]
            colliding = [key for key in classes if sums[key[0]] == sums[key[1]]]
            if not colliding:
                return labels, step1, step2, census
            for key in colliding:
                census[census_type_oracle(classes[key], skews[key], stray_cap)] += 1
    return None, step1, step2, census


def repair_labeler_oracle(g: Graph) -> RepairResult:
    """The earlier ``repair_labeler``, which rescanned every pair of
    vertices with distinct closed neighborhoods at each step.

    Vertex sum-distinguishing labeling with max label at most xi, by
    strictly-decreasing bad-pair repair from the all-ones start.

    Fully deterministic: the lexicographically smallest bad pair is
    repaired, the relabeled vertex is the pair's first element when the
    two are non-adjacent and otherwise the smallest vertex in the
    closed-neighborhood symmetric difference, and the smallest
    admissible new value is used.
    """
    n = g.vertex_count
    if n < 1:
        raise ValueError("repair needs at least one vertex")
    xi = s_star_bounds(g).xi
    closed = [g.closed_neighborhood(v) for v in range(n)]
    checkable = [
        (u, v) for u in range(n) for v in range(u + 1, n) if closed[u] != closed[v]
    ]
    values = [1] * n
    steps: list[RepairStep] = []
    prev_bad: int | None = None
    max_iterations = n * (n - 1) // 2 + 1
    for _ in range(max_iterations):
        sums = closed_sums_oracle(g, Labeling(values))
        bad = [(u, v) for u, v in checkable if sums[u] == sums[v]]
        if prev_bad is not None:
            assert len(bad) < prev_bad, "bad-pair count failed to decrease"
        if not bad:
            f = Labeling(values)
            assert is_vertex_sum_distinguishing_oracle(g, f) and f.max_label <= xi
            return RepairResult(f, xi, tuple(steps))
        prev_bad = len(bad)
        u, v = bad[0]
        if v not in g.adjacency[u]:
            x = u
        else:
            x = min(closed[u] ^ closed[v])
        inside = closed[x]
        outside = [y for y in range(n) if y not in inside]
        # forbidden values: the old label, and every t that would equate a
        # shifted inside sum with an unshifted outside sum
        forbidden = {values[x]}
        for y in inside:
            for y2 in outside:
                forbidden.add(sums[y2] - sums[y] + values[x])
        t = next((t for t in range(1, xi + 1) if t not in forbidden), None)
        assert t is not None, "forbidden set covered the whole label range"
        steps.append(RepairStep(prev_bad, x, values[x], t))
        values[x] = t
    raise AssertionError("repair exceeded the bad-pair iteration bound")


def caterpillar_tree(legs) -> Graph:
    """Spine 0 - 1 - ... - k-1 with legs[i] leaves hanging off spine vertex i."""
    k = len(legs)
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for spine, count in enumerate(legs):
        for _ in range(count):
            edges.append((spine, nxt))
            nxt += 1
    return Graph(nxt, edges)


def spider_tree(lengths) -> Graph:
    """Center 0 with one path of lengths[i] vertices hanging off it per leg."""
    edges = []
    nxt = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def broom_tree(path_length: int, leaves: int) -> Graph:
    """Path 0 - 1 - ... - path_length-1 with ``leaves`` extra leaves on
    vertex 0, the hub."""
    n = path_length + leaves
    return Graph(n, [(i, i + 1) for i in range(path_length - 1)]
                 + [(0, w) for w in range(path_length, n)])

def _oracle_leaf_stat_from_adj(adj: dict[int, set[int]]) -> tuple[int, int]:
    best_v, best_count = -1, -1
    for v in sorted(adj):
        count = sum(1 for w in adj[v] if len(adj[w]) == 1)
        if count > best_count:
            best_v, best_count = v, count
    return best_count, best_v


def _oracle_is_star(adj: dict[int, set[int]]) -> bool:
    return sum(1 for v in adj if len(adj[v]) >= 2) <= 1


def tree_labeler_oracle(t: Graph) -> tuple[int, ...]:
    """Labels of the tree labeler computed the slow, direct way: each peel
    step rescans every vertex for its leaf count, and each re-insertion
    rebuilds every closed sum and the whole forbidden set.  O(n^2); the
    incremental library version must make the same choice at every step,
    so for every tree it must return the same labels."""
    n = t.vertex_count
    adj = {v: set(t.adjacency[v]) for v in range(n)}

    removals: list[tuple[int, int, int]] = []
    while not _oracle_is_star(adj):
        l_value, u = _oracle_leaf_stat_from_adj(adj)
        v = min(w for w in adj[u] if len(adj[w]) == 1)
        removals.append((v, u, 2 * len(adj) - 2 - l_value))
        adj[u].discard(v)
        del adj[v]

    values: dict[int, int] = {}
    star_vertices = sorted(adj)
    center = max(star_vertices, key=lambda v: (len(adj[v]), -v))
    values[center] = 1
    for rank, v in enumerate(w for w in star_vertices if w != center):
        values[v] = rank + 1

    for v, u, cap in reversed(removals):
        sums = {w: values[w] + sum(values[x] for x in adj[w]) for w in adj}
        # leaves of u once v is back: v itself plus u's current leaf neighbors
        leaves_of_u = {w for w in adj[u] if len(adj[w]) == 1}
        forbidden = set()
        for w in adj:
            if w == u:
                continue
            forbidden.add(sums[w] - values[u])
            if w not in leaves_of_u:
                forbidden.add(sums[w] - sums[u])
        value = next((x for x in range(1, cap + 1) if x not in forbidden), None)
        assert value is not None, "no admissible label within the tree bound"
        values[v] = value
        adj[u].add(v)
        adj[v] = {u}

    return tuple(values[v] for v in range(n))


def _oracle_convolve_next(counts: list[int], n: int) -> list[int]:
    """One more uniform summand: sliding-window sum of width n."""
    m = len(counts)
    out = [0] * (m + n - 1)
    window = 0
    for i in range(m + n - 1):
        if i < m:
            window += counts[i]
        if i - n >= 0:
            window -= counts[i - n]
        out[i] = window
    return out


def sum_pmf_oracle(summands: int, n_values: int) -> tuple[int, ...]:
    """Outcome counts of a sum of ``summands`` i.i.d. uniforms on [n_values]
    by the earlier full-length sliding-window convolution, which neither
    uses prefix sums nor relies on the symmetry of the result."""
    counts = [1] * n_values
    for _ in range(summands - 1):
        counts = _oracle_convolve_next(counts, n_values)
    return tuple(counts)


def sum_pmf_family_oracle(n_values: int, max_summands: int):
    """Counts for 1..max_summands summands by the same convolution, one
    step per member."""
    counts = [1] * n_values
    yield tuple(counts)
    for _ in range(2, max_summands + 1):
        counts = _oracle_convolve_next(counts, n_values)
        yield tuple(counts)


def pmf_checks_oracle(summands: int, n_values: int, counts: tuple[int, ...]) -> None:
    """``Pmf``'s checks as it ran them before its fast path, one whole-tuple
    pass each in a fixed order: raises the ValueError of the first that
    fails."""
    ell, n, c = summands, n_values, counts
    if ell < 1 or n < 1:
        raise ValueError("summands and n_values must be positive")
    if len(c) != ell * (n - 1) + 1:
        raise ValueError("counts length does not match the support")
    if min(c) < 0:
        raise ValueError("negative count")
    if sum(c) != n**ell:
        raise ValueError("counts do not total n_values**summands")
    if c != c[::-1]:
        raise ValueError("counts not symmetric about the mean")
    # for even length the pair straddling the middle is equal by symmetry
    half = c[: (len(c) + 1) // 2]
    if not all(map(le, half, half[1:])):
        raise ValueError("counts not unimodal about the mean")


def binomial_tail_le_one(p: Fraction, t: int) -> Fraction:
    """g(t) = Pr[Binomial(t, p) <= 1] as an exact fraction, by the literal
    formula: oracle for ``merge_inequality_check``, which compares only
    the factors g(t) = (1-p)**(t-1) * (1 + (t-1) p)."""
    return (1 - p) ** t + t * p * (1 - p) ** (t - 1)


def _oracle_int_fields(line: str, lineno: int) -> list[int]:
    """The integers of a line whose tokens are each an optional sign
    followed by ASCII digits that int() converts."""
    tokens = line.split()
    for tok in tokens:
        digits = tok[1:] if tok[0] in "+-" else tok
        if not digits or any(c not in "0123456789" for c in digits):
            raise ParseError(f"non-integer token in {line!r}", lineno)
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"non-integer token in {line!r}", lineno) from exc


def _oracle_data_lines(text: str) -> list[tuple[int, str]]:
    return [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]


def parse_hypergraph_oracle(text: str) -> tuple[int, tuple[frozenset[int], ...]]:
    """``(vertex_count, edges)`` of a ".hg" text by the earlier line-by-line
    parser, which runs every format and semantic check itself, line by
    line, and builds no ``Hypergraph``.  Reference for
    ``formats.parse_hypergraph``: same result, or the same exception class
    and message."""
    lines = _oracle_data_lines(text)
    if not lines:
        raise ParseError("empty input")
    lineno, header = lines[0]
    head = _oracle_int_fields(header, lineno)
    if len(head) != 2:
        raise ParseError("header must be 'n m'", lineno)
    n, m = head
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", lineno)
    if n < 1:
        raise ValidationError("need at least one vertex", lineno)
    edges: list[frozenset[int]] = []
    seen: dict[frozenset[int], int] = {}
    for lineno, line in lines[1:]:
        fields = _oracle_int_fields(line, lineno)
        if not fields:
            raise ParseError("empty edge line", lineno)
        k, vertices = fields[0], fields[1:]
        if k != len(vertices):
            raise ParseError(f"edge declares {k} vertices but lists {len(vertices)}", lineno)
        edge = frozenset(vertices)
        if not edge:
            raise ValidationError("empty edge", lineno)
        if len(edge) != len(vertices):
            raise ValidationError("repeated vertex inside an edge", lineno)
        for v in sorted(edge):
            if not 0 <= v < n:
                raise ValidationError(f"vertex {v} out of range [0, {n})", lineno)
        if edge in seen:
            raise ValidationError(f"duplicate edge (first seen on line {seen[edge]})", lineno)
        seen[edge] = lineno
        edges.append(edge)
    return n, tuple(edges)


def parse_graph_oracle(text: str) -> tuple[int, frozenset[tuple[int, int]]]:
    """``(vertex_count, edges)`` of a ".g" text by the earlier line-by-line
    parser, which runs every format and semantic check itself, line by
    line.  It builds no ``Graph``; its last check is the one the earlier
    ``Graph`` made, a negative vertex count with no line number.
    Reference for ``formats.parse_graph``: same result, or the same
    exception class and message."""
    lines = _oracle_data_lines(text)
    if not lines:
        raise ParseError("empty input")
    lineno, header = lines[0]
    head = _oracle_int_fields(header, lineno)
    if len(head) != 2:
        raise ParseError("header must be 'n m'", lineno)
    n, m = head
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", lineno)
    edges: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    for lineno, line in lines[1:]:
        fields = _oracle_int_fields(line, lineno)
        if len(fields) != 2:
            raise ParseError("graph edge line must be 'u v'", lineno)
        u, v = fields
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}", lineno)
        for w in (u, v):
            if not 0 <= w < n:
                raise ValidationError(f"vertex {w} out of range [0, {n})", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValidationError(f"duplicate edge (first seen on line {seen[key]})", lineno)
        seen[key] = lineno
        edges.append(key)
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return n, frozenset(edges)


def serialize_hypergraph_oracle(h: Hypergraph) -> str:
    """The ".hg" text of ``h`` with one ``str()`` per token: the header,
    then per edge, in stored order, its size and its sorted vertices.
    Reference for ``formats.serialize_hypergraph``: the same bytes."""
    lines = [f"{h.vertex_count} {h.edge_count}\n"]
    for e in h.edges:
        tokens = [str(len(e))] + [str(v) for v in sorted(e)]
        lines.append(" ".join(tokens) + "\n")
    return "".join(lines)


LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c")
BAD_TOKENS = ("x", "1.5", "0x1", "--1", "1e3", "+-2", "1_0", "\u0663")


@st.composite
def int_token(draw, value: int) -> str:
    """``value`` as a token the parsers accept: plain, with a + sign or
    with leading zeros; rarely a token that is no decimal integer at all,
    some of which (``1_0``, a non-ASCII digit) ``int()`` would read."""
    style = draw(st.sampled_from(["plain"] * 30 + ["plus", "zeros", "bad"]))
    if style == "bad":
        return draw(st.sampled_from(BAD_TOKENS))
    if style == "plus" and value >= 0:
        return f"+{value}"
    if style == "zeros" and value >= 0:
        return f"00{value}"
    return str(value)


@st.composite
def hg_texts(draw) -> str:
    """".hg" texts near the format: mostly valid, with blank and
    whitespace-only lines, mixed line breaks and separators, signs, and
    every fault the parser reports, often several in one file."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6] * 3 + [0, -1]))
    vertex = st.sampled_from(list(range(max(n, 1))) * 4 + [-1, max(n, 1)] * 2)
    unique = draw(st.sampled_from([True, True, False]))
    edges = draw(st.lists(st.lists(vertex, min_size=1, max_size=4, unique=unique), max_size=6))
    if edges and draw(st.booleans()):  # a copy of an earlier edge
        copy = draw(st.permutations(draw(st.sampled_from(edges))))
        edges.insert(draw(st.integers(0, len(edges))), copy)
    if draw(st.sampled_from([False] * 9 + [True])):
        edges.insert(draw(st.integers(0, len(edges))), [])
    m = len(edges) + draw(st.sampled_from([0] * 10 + [-1, 1]))
    header = [n, m] + draw(st.sampled_from([[]] * 20 + [[1]]))
    if draw(st.sampled_from([False] * 29 + [True])):
        header = header[:1]
    rows = [header]
    for vs in edges:
        rows.append([len(vs) + draw(st.sampled_from([0] * 10 + [-1, 1])), *vs])
    lines = []
    for row in rows:
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
        tokens = [draw(int_token(v)) for v in row]
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
        pad = draw(st.sampled_from(["", "", "", " ", "\t"]))
        lines.append(pad + sep.join(tokens) + pad)
    return "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)


@st.composite
def graph_texts(draw, max_n: int = 6, max_edges: int = 8) -> str:
    """".g" texts near the format: mostly valid (half of them trees), with
    blank and whitespace-only lines, mixed line breaks and separators,
    signs, and every fault the parser reports (wrong token counts, loops,
    out-of-range and negative vertices, a pair repeated in either
    orientation, a negative vertex count), often several in one file."""
    n = draw(st.sampled_from(list(range(max_n + 1)) * 3 + [-1, -2]))
    if n >= 2 and draw(st.booleans()):  # a tree: vertex v hangs off an earlier one
        pairs = [draw(st.permutations([draw(st.integers(0, v - 1)), v])) for v in range(1, n)]
    else:
        vertex = st.sampled_from(list(range(max(n, 1))) * 4 + [-1, max(n, 1)] * 2)
        pairs = draw(st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=max_edges))
    if pairs and draw(st.booleans()):  # a copy of an earlier pair
        copy = draw(st.permutations(draw(st.sampled_from(pairs))))
        pairs.insert(draw(st.integers(0, len(pairs))), copy)
    m = len(pairs) + draw(st.sampled_from([0] * 10 + [-1, 1]))
    header = [n, m] + draw(st.sampled_from([[]] * 20 + [[1]]))
    if draw(st.sampled_from([False] * 29 + [True])):
        header = header[:1]
    rows = [header]
    for pair in pairs:
        extra = draw(st.sampled_from([0] * 12 + [-1, 1]))
        rows.append(pair[:extra] if extra < 0 else pair + [0] * extra)
    lines = []
    for row in rows:
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
        tokens = [draw(int_token(v)) for v in row]
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
        pad = draw(st.sampled_from(["", "", "", " ", "\t"]))
        lines.append(pad + sep.join(tokens) + pad)
    return "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)
