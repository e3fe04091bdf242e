"""Exception hierarchy shared across the library."""

from __future__ import annotations


class SumLabelError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(SumLabelError):
    """A labeling's length does not match the instance's vertex count."""


class ShapeError(SumLabelError):
    """Input has the wrong shape for the operation (e.g. a tree labeler given a non-tree)."""


class DualDegenerate(SumLabelError):
    """Two vertices share an identical incidence set, so their incident
    sums tie under every edge labeling and no irregular labeling can exist:
    a nonempty shared set is a duplicate edge of the dual, an empty one two
    uncovered vertices."""

    def __init__(self, groups: list[tuple[int, ...]]):
        self.groups = groups
        detail = "; ".join(",".join(map(str, g)) for g in groups)
        super().__init__(f"vertices with identical incidence sets: {detail}")


class BudgetExhausted(SumLabelError):
    """A search or retry budget ran out before a definite answer.

    ``bracket`` (when set) is a (lo, hi) pair bounding the true optimum;
    ``detail`` carries solver- or labeler-specific statistics.
    """

    def __init__(self, message: str, *, bracket: tuple[int, int] | None = None,
                 detail: dict | None = None):
        self.bracket = bracket
        self.detail = detail or {}
        super().__init__(message)


class TooLarge(SumLabelError):
    """Requested computation exceeds a memory/size guard."""


class ParamsOutOfRange(SumLabelError):
    """Derived parameters leave their valid range (e.g. edge probability > 1)."""


class InfeasibleParams(SumLabelError):
    """No instance with the requested shape exists for these parameters."""


class ParseError(SumLabelError):
    """Malformed instance file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ValidationError(SumLabelError, ValueError):
    """Syntactically valid input that violates a semantic invariant.

    Parsers set ``line``.  The constructors of ``Hypergraph`` and ``Graph``
    set ``reason`` (the message without a position), ``edge`` (the index
    of the offending edge, None for the vertex count) and, for a duplicate
    edge, ``first`` (the index of its earlier copy), so that a parser can
    report the fault by line number.
    """

    def __init__(self, message: str, line: int | None = None, *, reason: str | None = None,
                 edge: int | None = None, first: int | None = None):
        self.line = line
        self.reason = message if reason is None else reason
        self.edge = edge
        self.first = first
        super().__init__(message if line is None else f"line {line}: {message}")
