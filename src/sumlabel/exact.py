"""Exact minimum-max-label solvers at desk scale.

``exact_s`` finds the smallest N admitting a distinguishing labeling with
labels in [N] by trying N = lower bound, lower bound + 1, ... in turn.
Each try is a depth-first search (:class:`_Search`) that labels the
covered vertices in a fixed order, smallest label first, and returns the
first labeling it completes: the lexicographically first distinguishing
labeling in search order.  Exhausting every N below the reported optimum
is the optimality proof; termination is guaranteed because powers of two
on the c covered vertices always work, so s(H) <= 2**(c-1).

The search keeps the sums of the completed edges in one int bitmask and
checks forward: on entering a vertex it rules out, in one pass over the
edges that vertex completes, every label that would repeat a sum, so each
label it accepts keeps all completed sums distinct.  Vertices that a
transposition maps onto each other (see :func:`symmetry_classes`) take
non-decreasing labels along the search order, which cuts the symmetric
copies of each subtree without changing the labeling found.

When every edge has the same size r, the search also skips reflected
labelings.  The map x -> N + 1 - x sends each edge sum s to r(N + 1) - s,
so it keeps sums distinct, and re-sorting the labels within each class
keeps the class constraint.  The labeling the search returns is
lexicographically no later than its own reflection, so the last member of
the first vertex's class takes a label of at most N + 1 minus the first
vertex's label (at most (N + 1) / 2 if that class has one member).  The
search caps that one depth and returns the same witness, or the same
refutation, at every N; on hypergraphs with edges of several sizes the
map does not keep sums distinct and no cap is applied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import BudgetExhausted, DualDegenerate
from .hypergraph import Graph, Hypergraph, Labeling, is_distinguishing
from .transforms import closed_neighborhood_hypergraph, dual

DEFAULT_NODE_BUDGET = 10**7


@dataclass
class SolveResult:
    """Outcome of an exact solve: the optimum, a verified witness, and
    search-effort counters.

    ``nodes_expanded`` counts the labels the search accepted over every
    bound tried, and ``nodes_per_bound`` splits that count by bound N.
    ``symmetry_classes`` is the number of transposition-symmetry classes
    among the searched (covered) vertices.
    """

    optimum: int
    witness: Labeling
    nodes_expanded: int
    elapsed: float
    nodes_per_bound: dict[int, int]
    symmetry_classes: int


def _static_vertex_order(h: Hypergraph) -> list[int]:
    """Fixed assignment order of the covered vertices: greedily pick the
    vertex that completes the most edges given what is already assigned,
    breaking ties by incident edge count and then by smallest index.

    A lazy max-heap holds ``(completes, degree, -v)``; ``completes`` only
    grows, so a vertex's newest entry pops before its older ones, which
    are then skipped as already assigned.
    Each edge keeps the sum of its unassigned vertex ids, so when one
    vertex is left that sum names it.  O((n + sum |e|) log n).  Uncovered
    vertices complete nothing and are left out: they always take label 1.
    """
    incidence = h.incidence
    remaining = [len(e) for e in h.edges]
    id_sum = [sum(e) for e in h.edges]
    completes = [0] * h.vertex_count
    for i, size in enumerate(remaining):
        if size == 1:
            completes[id_sum[i]] += 1
    heap = [(-completes[v], -len(inc), v) for v, inc in enumerate(incidence) if inc]
    heapify(heap)
    assigned = [False] * h.vertex_count
    order = []
    while heap:
        v = heappop(heap)[2]
        if assigned[v]:
            continue
        assigned[v] = True
        order.append(v)
        for i in incidence[v]:
            remaining[i] -= 1
            id_sum[i] -= v
            if remaining[i] == 1:
                last = id_sum[i]
                completes[last] += 1
                heappush(heap, (-completes[last], -len(incidence[last]), last))
    return order


def _swap_is_symmetry(edges, edge_set, incidence, u: int, v: int) -> bool:
    """True iff exchanging u and v maps the edge set onto itself.  Edges
    holding both or neither are fixed, so only the others are mapped."""
    for i in incidence[u] ^ incidence[v]:
        e = edges[i]
        image = e - {u} | {v} if u in e else e - {v} | {u}
        if image not in edge_set:
            return False
    return True


def symmetry_classes(h: Hypergraph) -> list[list[int]]:
    """Classes of covered vertices under "exchanging u and v maps the edge
    set onto itself", each sorted, ordered by smallest member.

    The relation is an equivalence: if (u v) and (v w) are symmetries, so
    is (u w) = (u v)(v w)(u v).  Classes are found by hashing, not by
    testing every pair: twins share their incidence set; vertices that
    never share an edge are exchangeable exactly when their sets
    {e - u : e contains u} are equal (that set holds an edge through v
    whenever u and v share one, so equal sets also rule sharing out); and
    the remaining merges are tested directly, at most once per pair of
    classes of equal degree that meet in an edge.
    """
    n = h.vertex_count
    edges, incidence = h.edges, h.incidence
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u: int, v: int) -> None:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    covered = [v for v in range(n) if incidence[v]]
    for key in (lambda v: incidence[v],
                lambda v: frozenset(edges[i] - {v} for i in incidence[v])):
        first: dict = {}
        for v in covered:
            union(first.setdefault(key(v), v), v)

    edge_set = set(edges)
    refuted: set[tuple[int, int]] = set()
    for e in edges:
        reps = sorted({find(v) for v in e})
        for a, u in enumerate(reps):
            for v in reps[a + 1:]:
                ru, rv = sorted((find(u), find(v)))
                if ru == rv or len(incidence[ru]) != len(incidence[rv]) or (ru, rv) in refuted:
                    continue
                if _swap_is_symmetry(edges, edge_set, incidence, ru, rv):
                    union(ru, rv)
                else:
                    refuted.add((ru, rv))

    classes: dict[int, list[int]] = {}
    for v in covered:
        classes.setdefault(find(v), []).append(v)
    return list(classes.values())


class _Search:
    """Iterative depth-first search with forward checking over the covered
    vertices, in :func:`_static_vertex_order`.

    Set-up, once per instance: for each depth, the edges that the vertex
    at that depth completes, split into ``singles`` (the one earlier depth
    of a two-member edge) and ``multis`` (the tuple of earlier depths of
    any other edge); the depth of the previous vertex of the same symmetry
    class; and, on uniform hypergraphs, the depth ``reflect_at`` that
    carries the reflection cap.

    Entering a depth computes those edges' partial sums p.  Two equal
    partials would give two equal sums whatever the label, so the subtree
    is dead.  Otherwise label x repeats a completed sum exactly when bit
    x + p of ``used`` (the bitmask of completed edge sums) is set, so the
    candidates are the clear bits of ``OR(used >> p)`` within [lo, N],
    where lo is the label of the previous vertex of the same class (1 if
    none).  Accepting x sets bits x + p in ``used``; backtracking clears
    them.  A *node* is one accepted label.

    Symmetry: let (u v) map the edge set onto itself and u come first in
    search order.  If a distinguishing labeling f has f(u) > f(v), then f
    with the two labels exchanged is distinguishing too (its edge sums are
    those of f, permuted), has the same maximum, and is lexicographically
    smaller in search order.  So the first labeling in that order, which
    the search without the class constraint would return, already has
    non-decreasing labels within each class: the constraint leaves the
    optimum and the witness unchanged and only prunes.

    Reflection, when every edge has size r: let ``first`` be the vertex at
    depth 0 and ``last`` the deepest member of its class.  Take a
    class-sorted distinguishing labeling f with labels in [N], map every
    label x to N + 1 - x, and re-sort the labels within each class.  Each
    edge sum s becomes r(N + 1) - s, so the sums stay distinct; each class
    is made of transpositions that map the edge set onto itself, so the
    re-sort keeps them distinct too.  The result f' is distinguishing,
    class-sorted and inside [N], and f'(first) = N + 1 - f(last).  The
    first labeling f* in search order is lexicographically no later than
    f*', so f*(first) <= N + 1 - f*(last).  The search therefore accepts
    at ``last`` only labels <= N + 1 - f(first), or, when ``last`` is
    ``first`` itself, only labels <= (N + 1) // 2.  f* obeys that cap, so
    the capped search returns the same witness, or the same None, at
    every N.
    """

    def __init__(self, h: Hypergraph, node_budget: int | None):
        if node_budget is not None and node_budget < 1:
            raise ValueError("node budget must be positive")
        self.h = h
        self.order = _static_vertex_order(h)
        size = len(self.order)
        depth_of = [0] * h.vertex_count
        for d, v in enumerate(self.order):
            depth_of[v] = d
        singles: list[list[int]] = [[] for _ in self.order]
        multis: list[list[tuple[int, ...]]] = [[] for _ in self.order]
        for e in h.edges:
            *earlier, d = sorted(depth_of[v] for v in e)
            if len(earlier) == 1:
                singles[d].append(earlier[0])
            else:
                multis[d].append(tuple(earlier))
        self.singles = [tuple(js) for js in singles]
        self.multis = [tuple(ms) for ms in multis]
        classes = symmetry_classes(h)
        self.symmetry_classes = len(classes)
        self.previous = [size] * size  # depth ``size`` holds the label 1 in ``decide``
        self.reflect_at = -1
        uniform = len({len(e) for e in h.edges}) == 1
        for members in classes:
            depths = sorted(depth_of[v] for v in members)
            for before, d in zip(depths, depths[1:]):
                self.previous[d] = before
            if uniform and depths[0] == 0:
                self.reflect_at = depths[-1]
        self.node_budget = node_budget
        self.nodes = 0

    def decide(self, max_label: int) -> Labeling | None:
        size = len(self.order)
        singles, multis, previous = self.singles, self.multis, self.previous
        last = self.reflect_at
        budget = self.node_budget if self.node_budget is not None else 1 << 64
        nodes = self.nodes
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
            self.nodes = nodes
        return self.labeling(labels)

    def labeling(self, labels: list[int]) -> Labeling:
        """The labeling giving ``labels[d]`` to the vertex at depth d and 1
        to every uncovered vertex."""
        values = [1] * self.h.vertex_count
        for v, x in zip(self.order, labels):
            values[v] = x
        return Labeling(values)


def _quick_lower_bound(h: Hypergraph) -> int:
    """All m sums are distinct integers inside [min_size, max_size * N]."""
    if h.edge_count == 0:
        return 1
    sizes = [len(e) for e in h.edges]
    lo, hi = min(sizes), max(sizes)
    need = h.edge_count + lo - 1
    return max(1, -(-need // hi))


def exact_s(h: Hypergraph, node_budget: int | None = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Smallest N such that a distinguishing labeling with labels in [N]
    exists, with a verified witness.

    Tries N from :func:`_quick_lower_bound` up to the ceiling 2**(c - 1)
    for c covered vertices, which powers of two on them reach.  Practical
    only at desk scale (roughly n <= 12 or few edges).  When the node
    budget runs out, raises :class:`BudgetExhausted` carrying the bracket
    of N values still in play, unless it runs out at the ceiling: every
    smaller N is then refuted, so the ceiling is returned with the
    labeling that gives 2**d to the vertex at depth d of the search order.
    On c <= 3 that is the witness the search finds.  On c >= 4 the ceiling
    is never tried: Lunnon's {3, 5, 6, 7} has distinct subset sums, and so
    has {1} joined to twice such a set, so s < 2**(c - 1).
    """
    start = time.perf_counter()
    search = _Search(h, node_budget)
    ceiling = 1 << max(len(search.order) - 1, 0)
    nodes_per_bound: dict[int, int] = {}
    for bound in range(_quick_lower_bound(h), ceiling + 1):
        before = search.nodes
        try:
            witness = search.decide(bound)
        except BudgetExhausted as exc:
            if bound < ceiling:
                raise BudgetExhausted(
                    f"node budget exhausted while testing N={bound}",
                    bracket=(bound, ceiling),
                    detail={"nodes": search.nodes},
                ) from exc
            witness = search.labeling([1 << d for d in range(len(search.order))])
        nodes_per_bound[bound] = search.nodes - before
        if witness is not None:
            assert is_distinguishing(h, witness)
            return SolveResult(bound, witness, search.nodes, time.perf_counter() - start,
                               nodes_per_bound, search.symmetry_classes)
    raise AssertionError("unreachable: powers of two give a labeling at the ceiling")


def exact_s_star(g: Graph, node_budget: int | None = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Smallest max label of a vertex sum-distinguishing labeling of ``g``:
    ``exact_s`` of its closed-neighborhood hypergraph.

    That hypergraph has n' edges of sizes delta + 1 ... Delta + 1, so the
    search starts at ceil((n' + delta) / (Delta + 1)), the lower end of
    :func:`~sumlabel.constructive.s_star_bounds`.
    """
    return exact_s(closed_neighborhood_hypergraph(g), node_budget)


def exact_irr(h: Hypergraph, node_budget: int | None = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Irregularity strength: minimum max edge-label making all per-vertex
    incident sums distinct.  Computed as ``exact_s`` of the dual, which
    leaves uncovered vertices out: one of them is fine, since its sum 0 is
    below every positive sum.  Two vertices in exactly the same edges, two
    uncovered ones included, raise :class:`DualDegenerate` since no
    irregular labeling can exist."""
    uncovered = tuple(v for v, inc in enumerate(h.incidence) if not inc)
    if len(uncovered) > 1:
        raise DualDegenerate([uncovered])
    return exact_s(dual(h), node_budget)
