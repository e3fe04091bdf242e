"""Text formats for instances.

Hypergraph (".hg"): first line "n m", then m lines "k v_1 ... v_k".
Graph (".g"): first line "n m", then m lines "u v".
Tokens are separated by whitespace; each is an optional sign followed
by ASCII digits (``7``, ``+7``, ``007`` and ``-0`` are read; ``1_0``,
``٣`` and ``0x3`` are not).  Vertex indices are 0-based.  Hypergraph
serialization is canonical (edges in stored order, each as the sorted
vertex tuple the :class:`Hypergraph` stores), so parsing it gives the
hypergraph back.

Both parsers read the text in whole-list passes over one flat tuple of
integers (:func:`_read_rows`) and check only the format: header, number
of edge lines, integer tokens, each line's token count, and a vertex
repeated inside a hyperedge or a pair repeated in a graph file.  The
semantic checks run once, in the constructor (:class:`Hypergraph`:
vertex count, empty edge, vertex range, duplicate edge; :class:`Graph`:
vertex count, self-loop, vertex range), and the parser turns the edge
index of its :class:`ValidationError` into a line number.  Of several
faults, the one on the earliest line is reported.  The hypergraph
parser hands each edge line to the constructor as a tuple slice of the
values; the constructor collapses a repeated vertex, so the parser finds
one as an edge that came out shorter than its line.

A text that is all ASCII and has no ``_`` (every file the writer makes)
is read in one pass, since ``int`` then accepts exactly the grammar
above.  That pass converts each distinct token once, through a dict
from spelling to ``int`` owned by the call, so all edges of the parse
share one ``int`` per spelling (one per vertex id in a written file) and
the dict holds at most one entry per token.  Any other text, or one
with a token ``int`` rejects (a non-decimal, or more digits than ``int``
converts), is read token by token up to the first rejected token.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress, count, repeat, takewhile
from operator import add, ne, sub

from .errors import ParseError, ValidationError
from .hypergraph import Graph, Hypergraph


def _non_integer(text: str, lineno: int) -> ParseError:
    line = text.splitlines()[lineno - 1]
    return ParseError(f"non-integer token in {line!r}", lineno)


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def leading_integers(tokens: list[str]) -> list[int]:
    """The values of the tokens before the first one that is not an
    optional sign followed by ASCII digits, or that ``int`` rejects."""
    values = []
    for tok in takewhile(_DECIMAL.fullmatch, tokens):
        try:
            values.append(int(tok))
        except ValueError:  # more digits than int() converts
            break
    return values


def _token_values(text: str) -> tuple[int, ...]:
    """:func:`leading_integers` of the tokens of ``text``; read with one
    ``int`` per distinct token when ``int`` accepts exactly the token
    grammar on ``text``."""
    tokens = text.split()
    if text.isascii() and "_" not in text:  # then int() reads exactly [+-]?[0-9]+
        spellings = dict.fromkeys(tokens)
        try:
            ids = dict(zip(spellings, map(int, spellings)))
        except ValueError:
            pass  # a spelling int() rejects: leading_integers names it
        else:
            return tuple(map(ids.__getitem__, tokens))
    return tuple(leading_integers(tokens))


def _read_rows(text: str):
    """The reader both parsers share: ``(n, m, linenos, sizes, ends, values,
    int_rows)``, after the checks of the header and of the number of edge
    lines.  ``values`` holds the tokens up to the first non-integer one."""
    counts = list(map(len, map(str.split, text.splitlines())))
    linenos = list(compress(count(1), counts))  # line number of each data line
    sizes = list(filter(None, counts))  # token count of each data line
    if not sizes:
        raise ParseError("empty input")
    ends = list(accumulate(sizes))  # one past each data line's last token
    values = _token_values(text)
    int_rows = bisect_right(ends, len(values))  # data lines made of integers only
    if not int_rows:
        raise _non_integer(text, linenos[0])
    if sizes[0] != 2:
        raise ParseError("header must be 'n m'", linenos[0])
    n, m = values[0], values[1]
    if len(sizes) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(sizes) - 1}", linenos[0])
    return n, m, linenos, sizes, ends, values, int_rows


def _at_line(exc: ValidationError, linenos: list[int]) -> ValidationError:
    """A constructor's :class:`ValidationError` with its edge index turned
    into a line number (the header's when no edge is named; edge i sits
    on data line i + 1)."""
    reason = exc.reason
    if exc.first is not None:
        reason += f" (first seen on line {linenos[exc.first + 1]})"
    return ValidationError(reason, linenos[0 if exc.edge is None else exc.edge + 1])


def parse_hypergraph(text: str) -> Hypergraph:
    n, m, linenos, sizes, ends, values, int_rows = _read_rows(text)

    # edge i sits on data line i + 1: its declared k at token ends[i], its
    # vertices after it up to ends[i + 1]
    int_edges = int_rows - 1
    starts = ends[:int_edges]
    ks = list(map(values.__getitem__, starts))
    listed = list(map(sub, sizes[1:int_rows], repeat(1)))
    bad_k = next(compress(count(), map(ne, ks, listed)), int_edges)
    edges = list(map(values.__getitem__, map(slice, map(add, starts[:bad_k], repeat(1)),
                                                ends[1:bad_k + 1])))

    # the first format fault sits at edge bad_k, after every edge the
    # constructor sees; a repeated vertex comes before the constructor's
    # faults on its line and later ones
    try:
        h = Hypergraph(n, edges)
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
        raise ParseError(f"edge declares {ks[repeated]} vertices but lists {listed[repeated]}",
                         lineno)
    raise _non_integer(text, lineno)


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.vertex_count} {h.edge_count}"]
    for e in h.edges:
        lines.append(f"{len(e)} " + " ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n, m, linenos, sizes, _, values, int_rows = _read_rows(text)

    # edge i sits on data line i + 1 and, while every earlier line has two
    # tokens, at values[2 + 2i] and values[3 + 2i]
    int_edges = int_rows - 1
    bad_size = next(compress(count(), map(ne, sizes[1:int_rows], repeat(2))), int_edges)
    flat = iter(values[2:2 + 2 * bad_size])
    pairs = list(zip(flat, flat))
    seen: dict[tuple[int, int], int] = {}
    firsts = list(map(seen.setdefault, map(tuple, map(sorted, pairs)), count()))
    repeated = next(compress(count(), map(ne, firsts, count())), bad_size)

    try:
        g = Graph(n, pairs if repeated == len(pairs) else pairs[:repeated])
    except ValidationError as exc:
        raise _at_line(exc, linenos) from exc
    if repeated == m:
        return g
    lineno = linenos[repeated + 1]
    if repeated < bad_size:
        raise ValidationError(
            f"duplicate edge (first seen on line {linenos[firsts[repeated] + 1]})", lineno)
    if repeated < int_edges:
        raise ParseError("graph edge line must be 'u v'", lineno)
    raise _non_integer(text, lineno)
