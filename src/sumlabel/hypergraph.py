"""Core data model: hypergraphs, simple graphs, and vertex labelings.

A labeling with positive integer values is *sum distinguishing* for a
hypergraph when all hyperedge label-sums are pairwise distinct.

Vertex indices are 0-based everywhere; label values are 1-based
positive integers.  A hyperedge is a tuple of vertices in strictly
increasing order, and a vertex's incidence is a tuple of edge indices
in increasing order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, lt
from typing import Hashable, Iterable

from .errors import DimensionError, ValidationError


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph on vertices ``0..vertex_count-1`` with an ordered
    sequence of distinct, nonempty hyperedges.

    Each edge is stored as a tuple of its vertices in strictly increasing
    order: a vertex repeated inside an input edge collapses, and two
    edges holding the same vertices are equal.  An input edge that is
    already such a tuple is kept as it is.

    Duplicate edges are rejected at construction: two equal edges can
    never receive distinct sums, so instances containing them have no
    distinguishing labeling at all.

    This is the one place where a hypergraph's vertex count, empty
    edges, vertex range and duplicate edges are checked.  A violation
    raises :class:`ValidationError` (a ``ValueError``) that names the
    first offending edge by its index.
    """

    vertex_count: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, vertex_count: int, edges: Iterable[Iterable[int]]):
        if vertex_count < 1:
            raise ValidationError("hypergraph needs at least one vertex",
                                  reason="need at least one vertex")
        # an edge already strictly increasing is kept as the same object
        normalized = tuple([e if all(map(lt, e, e[1:])) else tuple(sorted(set(e)))
                            for e in map(tuple, edges)])
        # whole-tuple passes; the per-edge scan only runs to name the first fault
        if normalized:
            if not (all(normalized) and min(map(itemgetter(0), normalized)) >= 0
                    and max(map(itemgetter(-1), normalized)) < vertex_count
                    and len(set(normalized)) == len(normalized)):
                _raise_first_fault(vertex_count, normalized)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", normalized)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the indices of the edges containing it, ascending."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return tuple(map(tuple, inc))


def _raise_first_fault(vertex_count: int, edges: tuple[tuple[int, ...], ...]) -> None:
    """Raise :class:`ValidationError` for the first edge, in order, that is
    empty, holds a vertex outside [0, vertex_count) (its smallest such
    vertex is named) or repeats an earlier edge."""
    first: dict[tuple[int, ...], int] = {}
    for pos, edge in enumerate(edges):
        if not edge:
            raise ValidationError(f"edge {pos} is empty", reason="empty edge", edge=pos)
        if edge[0] < 0 or edge[-1] >= vertex_count:
            v = edge[0] if edge[0] < 0 else edge[bisect_left(edge, vertex_count)]
            reason = f"vertex {v} out of range [0, {vertex_count})"
            raise ValidationError(f"edge {pos}: {reason}", reason=reason, edge=pos)
        if edge in first:
            raise ValidationError(f"duplicate edge {list(edge)} at position {pos}",
                                  reason="duplicate edge", edge=pos, first=first[edge])
        first[edge] = pos


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph; edges are unordered distinct pairs.  Like
    :class:`Hypergraph`, the one checker of its vertex count, self-loops,
    vertex range and duplicate edges: a pair listed twice, in either
    order, raises :class:`ValidationError` naming both positions."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise ValidationError("vertex count must be non-negative")
        normalized: dict[tuple[int, int], int] = {}  # pair -> first position
        for pos, (u, v) in enumerate(edges):
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}", edge=pos)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                w = v if 0 <= u < vertex_count else u
                raise ValidationError(f"edge ({u},{v}) out of range [0, {vertex_count})",
                                      reason=f"vertex {w} out of range [0, {vertex_count})",
                                      edge=pos)
            first = normalized.setdefault((min(u, v), max(u, v)), pos)
            if first != pos:
                raise ValidationError(f"duplicate edge ({u},{v}) at position {pos}",
                                      reason="duplicate edge", edge=pos, first=first)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self.adjacency[v] | {v}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class Labeling:
    """Positive ``int`` labels (no bool, float or str), one per vertex."""

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        vals = tuple(values)
        if not vals:
            raise ValueError("labeling must be nonempty")
        if {*map(type, vals)} != {int} or min(vals) < 1:
            raise ValueError("labels must be positive integers")
        object.__setattr__(self, "values", vals)

    @property
    def max_label(self) -> int:
        return max(self.values)

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def all_ones(n: int) -> "Labeling":
        return Labeling((1,) * n)


def _check_length(n: int, f: Labeling) -> None:
    if len(f) != n:
        raise DimensionError(f"labeling has {len(f)} values, instance has {n} vertices")


def _ties(keys: Iterable[Hashable]) -> list[list[int]]:
    """Positions of ``keys`` that share a key: one ascending list per key
    held at two or more positions, in order of first position."""
    groups: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return [g for g in groups.values() if len(g) > 1]


def edge_sums(h: Hypergraph, f: Labeling) -> tuple[int, ...]:
    """Label-sum of every hyperedge, in edge order."""
    _check_length(h.vertex_count, f)
    label = f.values.__getitem__
    return tuple([sum(map(label, e)) for e in h.edges])


def is_distinguishing(h: Hypergraph, f: Labeling) -> bool:
    """True iff all hyperedge sums are pairwise distinct."""
    sums = edge_sums(h, f)
    return len(set(sums)) == len(sums)

