"""Structural transformations between graphs and hypergraphs.

Covers the dual hypergraph, closed/open neighborhood hypergraphs, the
clique-plus-independent-set embedding of an n-vertex n-edge hypergraph
into a 2n-vertex graph, and the singleton-edge reduction that forces
labelings to be injective.
"""

from __future__ import annotations

from .errors import DualDegenerate, EmptyNeighborhood, ShapeError, ValidationError
from .hypergraph import Graph, Hypergraph, closed_neighborhood_groups


def dual(h: Hypergraph) -> Hypergraph:
    """Dual hypergraph: one vertex per edge of ``h``; one edge per vertex
    of ``h``, namely its incidence set.

    Vertices of ``h`` contained in no edge are left out (isolated vertices
    are legitimate padding).  Two vertices with the same nonempty
    incidence set give duplicate dual edges, which the
    :class:`Hypergraph` constructor rejects; that case raises
    :class:`DualDegenerate` naming every such group.
    """
    try:
        return Hypergraph(h.edge_count, [inc for inc in h.incidence if inc])
    except ValidationError as exc:
        if exc.first is None:
            raise
    groups: dict[frozenset[int], list[int]] = {}
    for v, inc in enumerate(h.incidence):
        if inc:
            groups.setdefault(inc, []).append(v)
    raise DualDegenerate([tuple(vs) for vs in groups.values() if len(vs) > 1])


def closed_neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """Hypergraph whose edges are the distinct closed neighborhoods of ``g``.

    Coinciding neighborhoods collapse to a single edge, so the result may
    have fewer than ``vertex_count`` edges; :func:`closed_neighborhood_groups`
    reports the collapsed groups.
    """
    edges = [g.closed_neighborhood(group[0]) for group in closed_neighborhood_groups(g)]
    return Hypergraph(g.vertex_count, edges)


def open_neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """Hypergraph whose edges are the distinct open neighborhoods N(v).

    N(v) in ``g`` equals V minus the closed neighborhood of v in the
    complement graph, so this variant reduces to the closed one on the
    complement.  Isolated vertices have empty neighborhoods and are
    rejected.
    """
    isolated = [v for v in range(g.vertex_count) if not g.adjacency[v]]
    if isolated:
        raise EmptyNeighborhood(f"isolated vertices {isolated} have empty open neighborhoods")
    edges_seen: dict[frozenset[int], None] = {}
    for v in range(g.vertex_count):
        edges_seen.setdefault(g.adjacency[v], None)
    return Hypergraph(g.vertex_count, list(edges_seen))


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


def injective_reduction(h: Hypergraph) -> Hypergraph:
    """Add every missing singleton edge.

    In the result, any distinguishing labeling has pairwise distinct
    singleton sums, i.e. is injective on the vertices.
    """
    present = {e for e in h.edges if len(e) == 1}
    extra = [frozenset({v}) for v in range(h.vertex_count) if frozenset({v}) not in present]
    return Hypergraph(h.vertex_count, list(h.edges) + extra)
