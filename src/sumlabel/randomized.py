"""Las Vegas randomized labelers.

``quadratic_random_labeling`` draws labels uniformly from [m**2]; a
union bound over edge pairs makes each attempt fail with probability
below 1/2, so a handful of retries suffices.

``two_step_labeling`` targets the much smaller range [ceil(m**2 / C)].
Edge pairs are first classified by the size and popularity structure of
their symmetric differences; step one fixes the labels of the popular
vertices until every special pair is forced apart and near-ties among
newly dangerous pairs are rare, then step two draws the remaining
labels until verification succeeds.  Both procedures only ever return
verified labelings; the probabilistic analysis is replaced by
verify-and-retry, so budgets, not tail bounds, are the failure mode.
A successful step one rules out ties of type (a) and (b) pairs for every
step-two draw, so such a tie is an internal error; the collision census
of a failed verification checks for it.

The two-step labeler builds no per-pair objects.  Step one leaves the
free slots of its label list 0, so the list's edge sums are P(e), the
sum of the popular labels in e.  With stray(e) = e minus the popular
set, two identities turn every pair condition into per-edge quantities:

* the skew of (e, e') is P(e) - P(e'), since the popular labels of the
  intersection cancel;
* (e, e') is special exactly when stray(e) == stray(e'), since its
  symmetric difference then avoids every non-popular vertex.

Special pairs are thus the pairs inside a group of edges with equal
stray parts, and newly dangerous pairs, being non-dangerous, need
|e| + |e'| > K, so only such pairs are ever visited.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, exp

from .errors import BudgetExhausted
from .hypergraph import Hypergraph, Labeling, _ties, is_distinguishing

DEFAULT_SEED = 0xD15C0

PAIR_TYPES = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class TwoStepConfig:
    """Constants of the two-step labeler.

    ``label_divisor`` (CLI flag --C) sets the label range ceil(m**2 / C);
    ``dangerous_cutoff`` (--K) bounds the symmetric-difference size of a
    dangerous pair; ``stray_limit`` (--P) caps the non-popular vertices a
    newly dangerous pair may have.  The ordering K > P > C is required.
    """

    label_divisor: float = 4.0
    dangerous_cutoff: int = 64
    stray_limit: int = 16
    seed: int = DEFAULT_SEED
    step1_budget: int = 1000
    step2_budget: int = 1000

    def __post_init__(self):
        if not self.label_divisor > 0:
            raise ValueError("label_divisor must be positive")
        if not self.dangerous_cutoff > self.stray_limit > self.label_divisor:
            raise ValueError("need dangerous_cutoff > stray_limit > label_divisor")
        if self.step1_budget < 1 or self.step2_budget < 1:
            raise ValueError("budgets must be positive")

    def label_cap(self, edge_count: int) -> int:
        """ceil(m**2 / C), computed exactly."""
        return max(1, ceil(Fraction(edge_count * edge_count) / Fraction(self.label_divisor)))


@dataclass(frozen=True)
class PairClassification:
    """Popular set and the per-edge quantities that classify every pair.

    ``edges`` is the hypergraph's own edge tuple, and ``stray[i]`` the
    non-popular vertices of edge i; the special pairs are exactly the
    pairs of edges with equal stray parts.  ``newly_dangerous`` lists the
    newly dangerous pairs as index pairs (i, j) with i < j.
    """

    dangerous_cutoff: int
    stray_limit: int
    popular: frozenset[int]
    edges: tuple[tuple[int, ...], ...]
    stray: tuple[frozenset[int], ...]
    newly_dangerous: tuple[tuple[int, int], ...]

    def pair_type(self, i: int, j: int, skew: int, stray_cap: int) -> str:
        """One of the five types of the edge pair (i, j): (a) special,
        (e) dangerous non-special, (b)/(c) newly dangerous with popular-side
        ``skew`` above/at most ``stray_cap``, (d) remaining non-dangerous."""
        if self.stray[i] == self.stray[j]:
            return "a"
        if len(set(self.edges[i]).symmetric_difference(self.edges[j])) <= self.dangerous_cutoff:
            return "e"
        if _newly_dangerous(self.stray[i], self.stray[j], self.stray_limit):
            return "b" if abs(skew) > stray_cap else "c"
        return "d"


def _newly_dangerous(stray_i: frozenset[int], stray_j: frozenset[int], stray_limit: int) -> bool:
    """Whether a non-dangerous pair with these stray parts is newly
    dangerous: not special, and at most ``stray_limit`` non-popular
    vertices (the symmetric difference of the stray parts)."""
    return stray_i != stray_j and len(stray_i ^ stray_j) <= stray_limit


def _non_dangerous_pairs(edges: tuple[frozenset[int], ...], cutoff: int):
    """Yield (i, j, e_i ^ e_j), i < j, for every pair whose symmetric
    difference has more than ``cutoff`` vertices.

    Only pairs with |e_i| + |e_j| > cutoff can qualify, so only those are
    visited: edges are sorted by size and each one's partners found by
    bisection.
    """
    order = sorted(range(len(edges)), key=lambda i: len(edges[i]))
    sizes = [len(edges[i]) for i in order]
    for p, i in enumerate(order):
        for q in range(max(p + 1, bisect_right(sizes, cutoff - sizes[p])), len(order)):
            j = order[q]
            diff = edges[i] ^ edges[j]
            if len(diff) > cutoff:
                yield min(i, j), max(i, j), diff


def classify_edges(h: Hypergraph, dangerous_cutoff: int, stray_limit: int) -> PairClassification:
    """Classify every unordered pair of hyperedges through per-edge quantities.

    A pair is dangerous when its symmetric difference has at most
    ``dangerous_cutoff`` vertices; a vertex is popular when it lies in
    the symmetric difference of at least m**2 / dangerous_cutoff**3
    dangerous pairs (compared exactly); a pair is special when its whole
    symmetric difference is popular; a non-dangerous, non-special pair
    is newly dangerous when at most ``stray_limit`` of its
    symmetric-difference vertices are non-popular.

    With P(e) the sum of the popular labels in e and stray(e) = e minus
    the popular set, the skew of (e, e') is P(e) - P(e') and the pair is
    special exactly when stray(e) == stray(e').  The result therefore
    holds per-edge quantities only, in O(n + m) memory plus the newly
    dangerous pairs.
    """
    if not dangerous_cutoff > stray_limit:
        raise ValueError("need dangerous_cutoff > stray_limit")
    edges = tuple(map(frozenset, h.edges))  # set algebra below runs on these
    m = len(edges)
    n = h.vertex_count
    # v lies in the symmetric difference of deg(v) * (m - deg(v)) pairs; its
    # dangerous count leaves out the non-dangerous ones among them
    degree = [0] * n
    for e in edges:
        for v in e:
            degree[v] += 1
    non_dangerous = [0] * n
    for _, _, diff in _non_dangerous_pairs(edges, dangerous_cutoff):
        for v in diff:
            non_dangerous[v] += 1

    # popularity threshold m**2 / K**3, exact comparison
    cube = dangerous_cutoff**3
    popular = frozenset(
        v for v in range(n) if (degree[v] * (m - degree[v]) - non_dangerous[v]) * cube >= m * m
    )
    assert len(popular) <= dangerous_cutoff**4, "popularity bound violated"

    stray = tuple(e - popular for e in edges)
    # newly dangerous pairs are non-dangerous, so they are among the pairs
    # visited above
    newly = tuple((i, j) for i, j, _ in _non_dangerous_pairs(edges, dangerous_cutoff)
                  if _newly_dangerous(stray[i], stray[j], stray_limit))
    return PairClassification(dangerous_cutoff, stray_limit, popular, h.edges, stray, newly)


@dataclass
class QuadraticResult:
    labeling: Labeling
    attempts: int


def quadratic_random_labeling(h: Hypergraph, seed: int = DEFAULT_SEED,
                              budget: int = 64) -> QuadraticResult:
    """Uniform labels from [m**2], redrawn until verification succeeds.

    Each attempt fails with probability at most binom(m,2)/m**2 < 1/2, so
    the budget is hit with probability below 2**-budget.  Instances with
    fewer than two edges have nothing to distinguish and get all-ones.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    m = h.edge_count
    if m <= 1:
        return QuadraticResult(Labeling.all_ones(h.vertex_count), 0)
    cap = m * m
    rng = random.Random(seed)
    for attempt in range(1, budget + 1):
        f = Labeling(rng.randint(1, cap) for _ in range(h.vertex_count))
        if is_distinguishing(h, f):
            return QuadraticResult(f, attempt)
    raise BudgetExhausted(f"no distinguishing labeling in {budget} quadratic attempts",
                          detail={"attempts": budget})


@dataclass
class StepOneDiagnostics:
    """The step-one check of one draw: the tied special pairs in
    lexicographic order, and the count of near ties among newly dangerous
    pairs with its allowance m**2 * e**(-4C)."""

    special_violations: list[tuple[int, int]]
    near_tie_count: int
    near_tie_allowance: float

    @property
    def ok(self) -> bool:
        return not self.special_violations and self.near_tie_count <= self.near_tie_allowance


def step_one_successful(cls: PairClassification, cfg: TwoStepConfig,
                        popular_sums: list[int]) -> StepOneDiagnostics:
    """Check the two step-one success conditions on one draw's P(e) per edge.

    (1) every special pair has nonzero popular-side skew, and (2) at most
    m**2 * e**(-4C) newly dangerous pairs have |skew| <= stray_limit * N.
    Since the skew of (e, e') is P(e) - P(e') and a pair is special when
    its edges share their stray part, (1) says no two edges share both
    their stray part and their P(e).
    """
    m = len(popular_sums)
    stray_cap = cfg.stray_limit * cfg.label_cap(m)
    violations: list[tuple[int, int]] = []
    for same in _ties(zip(cls.stray, popular_sums)):
        violations.extend(combinations(same, 2))
    violations.sort()
    near_ties = sum(1 for i, j in cls.newly_dangerous
                    if abs(popular_sums[i] - popular_sums[j]) <= stray_cap)
    return StepOneDiagnostics(violations, near_ties, m * m * exp(-4.0 * cfg.label_divisor))


@dataclass
class TwoStepResult:
    """A verified labeling and the effort behind it.

    ``popular_count`` vertices were fixed in step one and ``free_count``
    were drawn in step two; with m**2 < K**3 every vertex in some but not
    all edges is popular, so step two draws only the rest.
    """

    labeling: Labeling
    label_cap: int
    step1_attempts: int
    step2_attempts: int
    popular_count: int
    free_count: int
    collision_census: dict[str, int]


def two_step_labeling(h: Hypergraph, cfg: TwoStepConfig | None = None) -> TwoStepResult:
    """Verified distinguishing labeling with max label at most ceil(m**2/C).

    Step one is redrawn until successful (at most step1_budget draws in
    total); after each success, step two draws the non-popular labels up
    to step2_budget times and verifies.  The colliding pairs of every
    failed verification are tallied by type in ``collision_census``; a
    colliding pair of type (a) or (b) after a successful step one is an
    internal error and raises :class:`AssertionError` from that census.
    Raises :class:`BudgetExhausted` (census attached) if the budgets run
    out.  Each draw is one label list, its free slots 0 until step two;
    it works on per-edge quantities only, in O(n + m) memory plus the
    newly dangerous pairs.
    """
    cfg = cfg or TwoStepConfig()
    m = h.edge_count
    n = h.vertex_count
    if m <= 1:
        return TwoStepResult(Labeling.all_ones(n), cfg.label_cap(m), 0, 0, 0, n,
                             {t: 0 for t in PAIR_TYPES})

    cls = classify_edges(h, cfg.dangerous_cutoff, cfg.stray_limit)
    cap = cfg.label_cap(m)
    stray_cap = cfg.stray_limit * cap
    rng = random.Random(cfg.seed)
    popular = sorted(cls.popular)
    free = sorted(set(range(n)) - cls.popular)
    census: dict[str, int] = {t: 0 for t in PAIR_TYPES}
    edges = h.edges

    step1_attempts = 0
    step2_attempts = 0
    while step1_attempts < cfg.step1_budget:
        step1_attempts += 1
        # popular labels drawn in vertex order, so every seed replays; the
        # free slots are still 0, so the edge sums are P(e)
        values = [0] * n
        for v in popular:
            values[v] = rng.randint(1, cap)
        label = values.__getitem__
        popular_sums = [sum(map(label, e)) for e in edges]
        if not step_one_successful(cls, cfg, popular_sums).ok:
            continue
        # with no free vertices, redrawing step two cannot change anything
        for _ in range(cfg.step2_budget if free else 1):
            step2_attempts += 1
            for v in free:
                values[v] = rng.randint(1, cap)
            colliding = _ties(sum(map(label, e)) for e in edges)
            if not colliding:
                f = Labeling(values)
                assert is_distinguishing(h, f) and f.max_label <= cap
                return TwoStepResult(f, cap, step1_attempts, step2_attempts,
                                     len(cls.popular), len(free), census)
            for g in colliding:
                for x, y in combinations(g, 2):
                    kind = cls.pair_type(x, y, popular_sums[x] - popular_sums[y], stray_cap)
                    # the edges of a special pair share their free part, so
                    # their sums differ by the nonzero skew; a type (b) skew
                    # exceeds any gap the free labels can close
                    if kind in ("a", "b"):
                        raise AssertionError(f"type ({kind}) pair {(x, y)} collided "
                                             "after a successful step one")
                    census[kind] += 1
    raise BudgetExhausted(
        f"two-step labeler exhausted budgets (step1={step1_attempts}, step2={step2_attempts})",
        detail={"collision_census": census, "step1_attempts": step1_attempts,
                "step2_attempts": step2_attempts},
    )
