"""Text formats for instances.

Hypergraph (".hg"): first line "n m", then m lines "k v_1 ... v_k".
Graph (".g"): first line "n m", then m lines "u v".
Tokens are separated by whitespace; each is an optional sign followed
by ASCII digits (``7``, ``+7``, ``007`` and ``-0`` are read; ``1_0``,
``٣`` and ``0x3`` are not).  Vertex indices are 0-based.  Hypergraph
serialization is canonical (edges in stored order, each as the sorted
vertex tuple the :class:`Hypergraph` stores), so parsing it gives the
hypergraph back.

Both parsers read the text in one pass (:func:`_read_rows`): each line
is split once and its tokens are mapped, into one tuple per line,
through a table from spelling to ``int`` owned by the call, which checks
a spelling against the grammar and converts it the first time it is
seen.  So all edges of a parse share one ``int`` per spelling (one per
vertex id in a written file), the table holds at most one entry per
distinct token, and only one line's tokens are alive at a time.  Reading
stops at the first line holding a rejected token: a non-decimal, or one
of more digits than ``int`` converts.

The parsers check only the format: header, number of edge lines,
integer tokens, each line's token count, and a vertex repeated inside a
hyperedge.  The semantic checks run once, in the constructor
(:class:`Hypergraph`: vertex count, empty edge, vertex range, duplicate
edge; :class:`Graph`: vertex count, self-loop, vertex range, duplicate
edge), and the parser turns the edge index of its
:class:`ValidationError` into a line number.  Of several faults, the one
on the earliest line is reported.  The hypergraph parser hands each
edge line's vertices to the constructor as a tuple; the constructor
collapses a repeated vertex, so the parser finds one as an edge that
came out shorter than its line.
"""

from __future__ import annotations

import re
from itertools import compress, count, repeat
from operator import itemgetter, ne

from .errors import ParseError, ValidationError
from .hypergraph import Graph, Hypergraph

_DECIMAL = re.compile(r"[+-]?[0-9]+")


class _Integers(dict):
    """Spelling -> value of the tokens one call reads.  A miss checks the
    spelling against the token grammar and converts it once, so a hit is a
    plain dict lookup and every use of a spelling shares one ``int``.  A
    rejected token raises ``ValueError(token)``."""

    def __missing__(self, token: str) -> int:
        try:
            if _DECIMAL.fullmatch(token):
                value = self[token] = int(token)
                return value
        except ValueError:  # more digits than int() converts
            pass
        raise ValueError(token)


def integers(tokens: list[str]) -> list[int]:
    """The values of ``tokens``, each an optional sign followed by ASCII
    digits; ``ValueError(token)`` names the first token that is not, or
    that ``int`` rejects."""
    return list(map(_Integers().__getitem__, tokens))


def _read_rows(text: str):
    """The reader both parsers share: ``(n, m, linenos, rows, bad)``, after
    the checks of the header and of the number of edge lines.  ``rows``
    holds the values of each edge line, as a tuple, before the first line
    with a rejected token; ``bad`` is the :class:`ParseError` of that line,
    or ``None``."""
    lines = text.splitlines()
    rows: list[tuple[int, ...]] = []  # one per line read, () for a blank one
    bad = None
    try:
        # extend keeps the rows made before a rejected token stops the chain
        rows.extend(map(tuple, map(map, repeat(_Integers().__getitem__),
                                   map(str.split, lines))))
    except ValueError:
        bad = ParseError(f"non-integer token in {lines[len(rows)]!r}", len(rows) + 1)
    linenos = list(compress(count(1), rows))  # line number of each data line
    if bad is not None:
        linenos += compress(count(bad.line), map(str.strip, lines[bad.line - 1:]))
    if not linenos:
        raise ParseError("empty input")
    rows = list(filter(None, rows))
    if not rows:
        raise bad
    header = rows.pop(0)
    if len(header) != 2:
        raise ParseError("header must be 'n m'", linenos[0])
    n, m = header
    if len(linenos) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(linenos) - 1}", linenos[0])
    return n, m, linenos, rows, bad


def _at_line(exc: ValidationError, linenos: list[int]) -> ValidationError:
    """A constructor's :class:`ValidationError` with its edge index turned
    into a line number (the header's when no edge is named; edge i sits
    on data line i + 1)."""
    reason = exc.reason
    if exc.first is not None:
        reason += f" (first seen on line {linenos[exc.first + 1]})"
    return ValidationError(reason, linenos[0 if exc.edge is None else exc.edge + 1])


def parse_hypergraph(text: str) -> Hypergraph:
    n, m, linenos, rows, bad = _read_rows(text)

    # edge i sits on data line i + 1: its declared k, then its vertices
    ks = list(map(itemgetter(0), rows))
    edges = list(map(itemgetter(slice(1, None)), rows))
    del rows
    int_edges = len(edges)
    bad_k = next(compress(count(), map(ne, ks, map(len, edges))), int_edges)

    # the first format fault sits at edge bad_k, after every edge the
    # constructor sees; a repeated vertex comes before the constructor's
    # faults on its line and later ones
    try:
        h = Hypergraph(n, edges if bad_k == int_edges else edges[:bad_k])
    except ValidationError as exc:
        named = -1 if exc.edge is None else exc.edge
        repeated = next(compress(count(), map(ne, map(len, map(set, edges[:named + 1])), ks)),
                        None)
        if repeated is None:
            raise _at_line(exc, linenos) from exc
    else:
        repeated = next(compress(count(), map(ne, map(len, h.edges), ks)), bad_k)
        if repeated == m:
            return h
    lineno = linenos[repeated + 1]
    if repeated < bad_k:
        raise ValidationError("repeated vertex inside an edge", lineno)
    if repeated < int_edges:
        raise ParseError(f"edge declares {ks[repeated]} vertices but lists "
                         f"{len(edges[repeated])}", lineno)
    raise bad


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.vertex_count} {h.edge_count}"]
    for e in h.edges:
        lines.append(f"{len(e)} " + " ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n, m, linenos, rows, bad = _read_rows(text)

    # edge i sits on data line i + 1; the constructor's faults all sit on
    # the lines before the first one that is not a pair
    bad_size = next(compress(count(), map(ne, map(len, rows), repeat(2))), len(rows))
    try:
        g = Graph(n, rows[:bad_size])
    except ValidationError as exc:
        raise _at_line(exc, linenos) from exc
    if bad_size == m:
        return g
    if bad_size < len(rows):
        raise ParseError("graph edge line must be 'u v'", linenos[bad_size + 1])
    raise bad
