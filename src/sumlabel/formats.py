"""Text formats for instances and JSON payloads for labelings.

Hypergraph (".hg"): first line "n m", then m lines "k v_1 ... v_k".
Graph (".g"): first line "n m", then m lines "u v".
All tokens are whitespace-separated ASCII decimals; vertex indices are
0-based.  Serialization is canonical (edges in stored order, vertices
sorted within an edge), so parse(serialize(x)) == x.

Where hypergraph files are validated: :func:`parse_hypergraph` checks
only the format (header, number of edge lines, integer tokens, each
line's declared k, repeated vertices inside an edge), in whole-list
passes over one flat list of integers.  The semantic checks (vertex
count, empty edge, vertex range, duplicate edge) run once, in the
:class:`Hypergraph` constructor; the parser turns the edge index of the
constructor's :class:`ValidationError` into a line number.  When a file
has several faults, the one on the earliest line is reported, with the
same message a line-by-line check would give.  Graph files are still
checked line by line in :func:`parse_graph`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, compress, count, repeat
from operator import add, ne, sub
from typing import Any

from .errors import ParseError, ValidationError
from .hypergraph import Graph, Hypergraph, Labeling


def _int_fields(line: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise ParseError(f"non-integer token in {line!r}", lineno) from exc


def _data_lines(text: str) -> list[tuple[int, str]]:
    return [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]


def _non_integer(text: str, lineno: int) -> ParseError:
    line = text.splitlines()[lineno - 1]
    return ParseError(f"non-integer token in {line!r}", lineno)


def _leading_integers(tokens: list[str]) -> list[int]:
    """The values of the tokens before the first non-integer one."""
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            break
    return values


def parse_hypergraph(text: str) -> Hypergraph:
    counts = list(map(len, map(str.split, text.splitlines())))
    linenos = list(compress(count(1), counts))  # line number of each data line
    sizes = list(filter(None, counts))  # token count of each data line
    if not sizes:
        raise ParseError("empty input")
    ends = list(accumulate(sizes))  # one past each data line's last token
    try:
        values = list(map(int, text.split()))
    except ValueError:
        values = _leading_integers(text.split())
    int_rows = bisect_right(ends, len(values))  # data lines made of integers only
    if not int_rows:
        raise _non_integer(text, linenos[0])
    if sizes[0] != 2:
        raise ParseError("header must be 'n m'", linenos[0])
    n, m = values[0], values[1]
    if len(sizes) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(sizes) - 1}", linenos[0])

    # edge i sits on data line i + 1: its declared k at token ends[i], its
    # vertices after it up to ends[i + 1]
    int_edges = int_rows - 1
    starts = ends[:int_edges]
    ks = list(map(values.__getitem__, starts))
    listed = list(map(sub, sizes[1:int_rows], repeat(1)))
    bad_k = next(compress(count(), map(ne, ks, listed)), int_edges)
    edges = list(map(frozenset, map(values.__getitem__,
                                    map(slice, map(add, starts[:bad_k], repeat(1)),
                                        ends[1:bad_k + 1]))))
    repeated = next(compress(count(), map(ne, map(len, edges), ks)), bad_k)

    # the first format fault sits at edge `repeated`, so semantic faults on
    # earlier lines, which the constructor finds, are reported before it
    try:
        h = Hypergraph(n, edges if repeated == m else edges[:repeated])
    except ValidationError as exc:
        reason = exc.reason
        if exc.first is not None:
            reason += f" (first seen on line {linenos[exc.first + 1]})"
        raise ValidationError(reason, linenos[0 if exc.edge is None else exc.edge + 1]) from exc
    if repeated == m:
        return h
    lineno = linenos[repeated + 1]
    if repeated < bad_k:
        raise ValidationError("repeated vertex inside an edge", lineno)
    if repeated < int_edges:
        raise ParseError(f"edge declares {ks[repeated]} vertices but lists {listed[repeated]}",
                         lineno)
    raise _non_integer(text, lineno)


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.vertex_count} {h.edge_count}"]
    for e in h.edges:
        vs = sorted(e)
        lines.append(f"{len(vs)} " + " ".join(map(str, vs)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty input")
    lineno, header = lines[0]
    head = _int_fields(header, lineno)
    if len(head) != 2:
        raise ParseError("header must be 'n m'", lineno)
    n, m = head
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", lineno)
    edges: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    for lineno, line in lines[1:]:
        fields = _int_fields(line, lineno)
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
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def labeling_payload(f: Labeling, verified: bool, **extra: Any) -> dict[str, Any]:
    """The canonical JSON object for a labeling result."""
    payload: dict[str, Any] = {
        "labels": list(f.values),
        "max_label": f.max_label,
        "verified": bool(verified),
    }
    payload.update(extra)
    return payload
