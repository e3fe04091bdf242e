"""Structural transformations between graphs and hypergraphs.

Covers the dual hypergraph, which turns irr into s, and the closed
neighborhood hypergraph, which turns s* into s and through which graph
labelings are checked.
"""

from __future__ import annotations

from .errors import DualDegenerate, ValidationError
from .hypergraph import Graph, Hypergraph, Labeling, _check_length, is_distinguishing


def dual(h: Hypergraph) -> Hypergraph:
    """Dual hypergraph: one vertex per edge of ``h``; one edge per vertex
    of ``h``, namely its incidence set.

    Vertices of ``h`` contained in no edge are left out (isolated vertices
    are legitimate padding).  Two vertices with the same nonempty
    incidence set give duplicate dual edges, which the
    :class:`Hypergraph` constructor rejects; that case raises
    :class:`DualDegenerate` naming every such group.  A hypergraph with
    no edges has no dual and raises :class:`ValidationError`.
    """
    if not h.edge_count:
        raise ValidationError("hypergraph has no edges, so its dual has no vertices")
    try:
        return Hypergraph(h.edge_count, [inc for inc in h.incidence if inc])
    except ValidationError:
        pass  # the only fault left is a duplicate edge
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, inc in enumerate(h.incidence):
        if inc:
            groups.setdefault(inc, []).append(v)
    raise DualDegenerate([tuple(vs) for vs in groups.values() if len(vs) > 1])


def closed_neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """Hypergraph whose edges are the distinct closed neighborhoods of ``g``.

    Edge i is the closed neighborhood of the i-th smallest vertex whose
    closed neighborhood differs from those of all smaller vertices, so
    coinciding neighborhoods (twins) collapse to one edge, placed at the
    smallest of them.  A graph with no vertices has no closed
    neighborhoods and raises :class:`ValidationError`.
    """
    if not g.vertex_count:
        raise ValidationError("graph has no vertices, so it has no closed neighborhoods")
    closed: dict[tuple[int, ...], None] = {}
    for v, adj in enumerate(g.adjacency):
        members = [v, *adj]
        members.sort()
        closed[tuple(members)] = None  # a twin's equal neighbourhood keeps the first place
    return Hypergraph(g.vertex_count, closed)


def is_vertex_sum_distinguishing(g: Graph, f: Labeling) -> bool:
    """True iff closed-neighborhood sums differ for every pair of vertices
    with distinct closed neighborhoods, that is, iff ``f`` distinguishes
    :func:`closed_neighborhood_hypergraph` of ``g``.

    A labeling whose length is not ``g.vertex_count`` raises
    :class:`DimensionError`, also on a graph with no vertices.
    """
    _check_length(g.vertex_count, f)
    return is_distinguishing(closed_neighborhood_hypergraph(g), f)
