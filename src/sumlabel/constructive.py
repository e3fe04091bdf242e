"""Deterministic constructive labelers for graphs.

``repair_labeler`` starts from all-ones and repeatedly relabels one
vertex so that the number of bad pairs (distinct closed neighborhoods,
equal sums) strictly decreases; the relabeled value avoids every sum
equation that could create a new bad pair, and the degree bound xi =
max_v (n - d(v) - 1)(d(v) + 1) + 2 always leaves an admissible value.
Each step reads that value off a bitmask of the forbidden labels, built
from one shift of the outside sums per distinct inside sum.

``tree_labeler`` peels leaves off a maximum-leaf-degree vertex down to a
star, labels the star directly, and reattaches each leaf with the
smallest value avoiding all collision equations, staying within
2n - 2 - L where L is the maximum number of leaves on one vertex.  The
peel takes O(n log n); each re-insertion reads two windows of a bitset of
the closed sums, O(n) bytes of C-level work and O(1) Python steps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import comb

from .errors import ShapeError
from .hypergraph import Graph, Labeling, _ties
from .transforms import closed_neighborhood_hypergraph, is_vertex_sum_distinguishing


@dataclass(frozen=True)
class DegreeBoundsReport:
    """Degree-based bracket for the minimum max label of a vertex
    sum-distinguishing labeling."""

    distinct_neighborhood_count: int
    min_degree: int
    max_degree: int
    xi: int
    lower: int
    upper_loose: int


def s_star_bounds(g: Graph) -> DegreeBoundsReport:
    """Bracket ceil((n' + delta) / (Delta + 1)) <= s*(G) <= xi, and
    xi <= (Delta+1) n when G has an edge.

    n' counts the distinct closed neighborhoods, the edges of
    :func:`closed_neighborhood_hypergraph`.  The lower bound is
    meaningful for graphs with at least one edge, but all fields are
    computed regardless.  An edgeless graph has xi = n + 1 above
    (Delta+1) n = n, which is s*(G) itself: its closed neighborhoods are
    n singletons, so the labels must be distinct.
    """
    n = g.vertex_count
    if n < 1:
        raise ValueError("bounds need at least one vertex")
    degrees = [g.degree(v) for v in range(n)]
    dmin, dmax = min(degrees), max(degrees)
    n_distinct = closed_neighborhood_hypergraph(g).edge_count
    xi = _xi(n, degrees)
    lower = -(-(n_distinct + dmin) // (dmax + 1))
    return DegreeBoundsReport(n_distinct, dmin, dmax, xi, lower, (dmax + 1) * n)


def _xi(n: int, degrees: list[int]) -> int:
    """The degree bound xi = max over v of (n - d(v) - 1)(d(v) + 1) + 2."""
    return max((n - d - 1) * (d + 1) + 2 for d in degrees)


def _bitset(positions: list[int]) -> bytearray:
    """Little-endian bitset with the given bit positions set."""
    bits = bytearray((max(positions, default=0) >> 3) + 1)
    for p in positions:
        bits[p >> 3] |= 1 << (p & 7)
    return bits


def _set_bit(bits: bytearray, p: int) -> None:
    i = p >> 3
    if i >= len(bits):
        bits.extend(bytes(i + 1 - len(bits)))
    bits[i] |= 1 << (p & 7)


def _window(bits: bytearray, start: int, width: int) -> int:
    """Bits start .. start + width - 1 of the bitset as an int (bit i is
    bit start + i), read in O(width / 8) bytes."""
    chunk = int.from_bytes(bits[start >> 3:(start + width + 7) >> 3], "little")
    return chunk >> (start & 7) & ((1 << width) - 1)


@dataclass(frozen=True)
class RepairStep:
    bad_pairs_before: int
    vertex: int
    old_label: int
    new_label: int


@dataclass
class RepairResult:
    labeling: Labeling
    xi: int
    steps: tuple[RepairStep, ...]

    def to_mapping(self) -> dict:
        return {"max_label": self.labeling.max_label, "xi": self.xi,
                "iterations": len(self.steps)}


def repair_labeler(g: Graph) -> RepairResult:
    """Vertex sum-distinguishing labeling with max label at most xi, by
    strictly-decreasing bad-pair repair from the all-ones start.

    Fully deterministic: the lexicographically smallest bad pair is
    repaired, the relabeled vertex is the pair's first element when the
    two are non-adjacent and otherwise the smallest vertex in the
    closed-neighborhood symmetric difference, and the smallest
    admissible new value is used.

    The closed sums are kept up to date (relabeling x moves those of
    N[x] only), bad pairs are counted per group of tied sums, not
    listed, and the new value is the lowest clear bit of the forbidden
    mask: a step costs O(n) Python operations and at most |N[x]| shifts
    of an int as wide as the largest sum.
    """
    n = g.vertex_count
    if n < 1:
        raise ValueError("repair needs at least one vertex")
    xi = _xi(n, [g.degree(v) for v in range(n)])
    closed = [g.closed_neighborhood(v) for v in range(n)]
    twin_ids: dict[frozenset[int], int] = {}  # one per closed neighbourhood
    twin = [twin_ids.setdefault(c, len(twin_ids)) for c in closed]
    values = [1] * n
    steps: list[RepairStep] = []
    prev_bad: int | None = None
    max_iterations = n * (n - 1) // 2 + 1
    sums = [len(c) for c in closed]  # the closed sums under all-ones
    for _ in range(max_iterations):
        # a bad pair is two tied vertices with different closed neighbourhoods
        # (not twins); the groups come in order of first vertex, so the first
        # group with a bad pair holds the smallest: its first vertex and the
        # next non-twin
        bad, pair = 0, None
        for vs in _ties(sums):
            count = comb(len(vs), 2) - sum(comb(len(t), 2) for t in _ties(twin[v] for v in vs))
            if count and pair is None:
                pair = vs[0], next(v for v in vs if twin[v] != twin[vs[0]])
            bad += count
        if prev_bad is not None:
            assert bad < prev_bad, "bad-pair count failed to decrease"
        if not bad:
            f = Labeling(values)
            assert is_vertex_sum_distinguishing(g, f) and f.max_label <= xi
            return RepairResult(f, xi, tuple(steps))
        prev_bad = bad
        u, v = pair
        if v not in g.adjacency[u]:
            x = u
        else:
            x = min(closed[u] ^ closed[v])
        # forbidden values, as bits: the old label, and every t that would
        # equate a shifted inside sum with an unshifted outside sum, i.e.
        # bit t of outside >> (sums[y] - values[x]) for y inside; each shift
        # is >= 0 because x is in N[y].  Bit 0 stands for no label.
        inside = closed[x]
        outside = int.from_bytes(
            _bitset([sums[y] for y in range(n) if y not in inside]), "little")
        forbidden = 1 << values[x] | 1
        for shift in {sums[y] - values[x] for y in inside}:
            forbidden |= outside >> shift
        t = (~forbidden & (forbidden + 1)).bit_length() - 1
        assert t <= xi, "forbidden set covered the whole label range"
        steps.append(RepairStep(prev_bad, x, values[x], t))
        for y in inside:  # relabeling x moves the sums of N[x] only
            sums[y] += t - values[x]
        values[x] = t
    raise AssertionError("repair exceeded the bad-pair iteration bound")


@dataclass(frozen=True)
class LeafStat:
    """Largest number of leaf neighbors over all vertices, with the
    smallest vertex attaining it."""

    max_leaf_neighbors: int
    vertex: int


def _check_tree(g: Graph) -> None:
    n = g.vertex_count
    if n < 2:
        raise ShapeError("tree operations need at least two vertices")
    if g.edge_count != n - 1:
        raise ShapeError(f"a tree on {n} vertices has {n - 1} edges, got {g.edge_count}")
    seen = {0}
    stack = [0]
    while stack:
        w = stack.pop()
        for x in g.adjacency[w]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    if len(seen) != n:
        raise ShapeError("graph is not connected")


def _leaf_counts(t: Graph) -> list[int]:
    """Number of leaf neighbors of each vertex."""
    adj = t.adjacency
    return [sum(1 for w in adj[v] if len(adj[w]) == 1) for v in range(t.vertex_count)]


def leaf_stat(t: Graph) -> LeafStat:
    _check_tree(t)
    counts = _leaf_counts(t)
    best = max(counts)
    return LeafStat(best, counts.index(best))


def tree_labeler(t: Graph) -> Labeling:
    """Vertex sum-distinguishing labeling of a tree; for n >= 3 the max
    label stays within 2n - 2 - L(T).

    Stars are the base case: leaves get 1..n-1 in index order and the
    center gets 1.  Otherwise a leaf hanging off a maximum-leaf-degree
    vertex is removed, the smaller tree is labeled, and the leaf
    receives the smallest value avoiding every equation that could
    create an equal-sum pair.  Ties go to the smallest vertex: the
    smallest anchor among those with the most leaves, and its smallest
    leaf.

    The peel takes O(n log n): leaf counts, the number of non-leaf
    vertices and the heaps that pick the next anchor and leaf are
    updated per removal, not rescanned.  Re-insertion keeps the closed
    sums up to date, with the set of sums held as a bitset; each leaf's
    label is the lowest clear bit of two cap-wide windows of that bitset,
    so a re-insertion costs O(1) Python steps and O(n) bytes read, however
    large a hub's sum grows.
    """
    _check_tree(t)
    n = t.vertex_count
    adj = [set(t.adjacency[v]) for v in range(n)]

    # peel to a star, remembering (leaf, anchor, value cap) per removal
    leaf_count = _leaf_counts(t)
    inner = sum(1 for v in range(n) if len(adj[v]) >= 2)
    # lazy max-heap of (-leaf count, vertex): an entry is current while its
    # count is the vertex's count.  A peeled leaf keeps count 0 and never
    # reaches the top, because some vertex of the remaining tree has a leaf.
    anchors = [(-count, v) for v, count in enumerate(leaf_count)]
    heapq.heapify(anchors)
    # min-heap of each vertex's leaf neighbors; filled in increasing order,
    # so each list starts out sorted
    leaves: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        if len(adj[w]) == 1:
            leaves[next(iter(adj[w]))].append(w)
    removals: list[tuple[int, int, int]] = []
    while inner > 1:
        while -anchors[0][0] != leaf_count[anchors[0][1]]:
            heapq.heappop(anchors)
        u = anchors[0][1]
        v = heapq.heappop(leaves[u])
        removals.append((v, u, 2 * (n - len(removals)) - 2 - leaf_count[u]))
        adj[u].discard(v)
        leaf_count[u] -= 1
        heapq.heappush(anchors, (-leaf_count[u], u))
        if len(adj[u]) == 1:  # u is now a leaf of its last neighbor
            inner -= 1
            (w,) = adj[u]
            leaf_count[w] += 1
            heapq.heappush(anchors, (-leaf_count[w], w))
            heapq.heappush(leaves[w], u)

    values = [0] * n
    peeled = {v for v, _, _ in removals}
    star_vertices = [v for v in range(n) if v not in peeled]
    center = max(star_vertices, key=lambda v: (len(adj[v]), -v))
    values[center] = 1
    for rank, v in enumerate(w for w in star_vertices if w != center):
        values[v] = rank + 1

    sums = [0] * n
    for w in star_vertices:
        sums[w] = values[w] + sum(values[x] for x in adj[w])
    # For n >= 3 the closed sums stay pairwise distinct: the star has at
    # least two leaves, and each re-insertion below gives v and u sums no
    # other vertex holds (and v's is below u's).  So a set of sums, kept as
    # a bitset, says who holds what.
    occupied = _bitset([sums[w] for w in star_vertices])

    for v, u, cap in reversed(removals):
        # Labeling v with x gives v the closed sum values[u] + x and raises
        # sums[u] by x; no other sum moves.  Reject x when another vertex
        # already holds either new sum, so u's own sum leaves the bitset
        # first.  No leaf w of u holds the second: values[w] + values[u] <=
        # sums[u].  Bit x of each window stands for label x; bit 0 for none.
        value_u, sum_u = values[u], sums[u]
        occupied[sum_u >> 3] &= ~(1 << (sum_u & 7))
        blocked = (_window(occupied, value_u, cap + 1)
                   | _window(occupied, sum_u, cap + 1) | 1)
        value = (~blocked & (blocked + 1)).bit_length() - 1
        assert value <= cap, "no admissible label within the tree bound"
        values[v] = value
        sums[u] = sum_u + value
        sums[v] = value_u + value
        _set_bit(occupied, sums[u])
        _set_bit(occupied, sums[v])

    f = Labeling(values)
    assert is_vertex_sum_distinguishing(t, f)
    return f
