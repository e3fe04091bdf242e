"""Structural transformations between graphs and hypergraphs.

Covers the dual hypergraph, which turns irr into s, and the closed
neighborhood hypergraph, which turns s* into s.
"""

from __future__ import annotations

from .errors import DualDegenerate, ValidationError
from .hypergraph import Graph, Hypergraph, closed_neighborhood_groups


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
    groups: dict[frozenset[int], list[int]] = {}
    for v, inc in enumerate(h.incidence):
        if inc:
            groups.setdefault(inc, []).append(v)
    raise DualDegenerate([tuple(vs) for vs in groups.values() if len(vs) > 1])


def closed_neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """Hypergraph whose edges are the distinct closed neighborhoods of ``g``.

    Coinciding neighborhoods collapse to a single edge, so the result may
    have fewer than ``vertex_count`` edges; :func:`closed_neighborhood_groups`
    reports the collapsed groups.  A graph with no vertices has no closed
    neighborhoods and raises :class:`ValidationError`.
    """
    if not g.vertex_count:
        raise ValidationError("graph has no vertices, so it has no closed neighborhoods")
    edges = [g.closed_neighborhood(group[0]) for group in closed_neighborhood_groups(g)]
    return Hypergraph(g.vertex_count, edges)
