"""Seeded instance generators.

``gen_runiform`` samples every r-subset independently (the r-uniform
analogue of the binomial random graph).  ``lower_bound_instance``
assembles hard-to-distinguish instances at a requested (n, m) shape:
it picks the uniformity from the hardness exponent, draws exactly m
r-uniform edges on a smaller core vertex set and pads with isolated
vertices.  ``gen_runiform`` walks all binom(N, r) r-sets, so it refuses
more than ``GEN_GUARD`` of them; ``lower_bound_instance`` unranks only
the m sampled ranks, so it refuses more than ``GEN_GUARD`` edges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from math import comb, exp, factorial, floor, inf, log, sqrt
from random import Random

from .errors import InfeasibleParams, ParamsOutOfRange, TooLarge
from .hypergraph import Hypergraph

DEFAULT_SEED = 0xD15C0  # of every seeded call given none, the labelers' too
GEN_GUARD = 5 * 10**6
UNIFORMITY_CAP = 64


@dataclass(frozen=True)
class LowerBoundParams:
    """Parameters of the random r-uniform hypergraph used by the hard
    instance construction: edge probability sqrt(13 r r!) *
    sqrt(ln N / N**(r-1)) and label budget floor(N**r / (2 r r!))."""

    uniformity: int
    vertex_count: int
    density_coefficient: float
    edge_probability: float
    label_budget: int
    expected_edges: float


def lower_bound_params(uniformity: int, vertex_count: int) -> LowerBoundParams:
    """Evaluate the hard-instance parameters at (r, N).

    Raises :class:`ParamsOutOfRange` when the edge probability exceeds 1,
    i.e. when N is too small for this uniformity's sampling regime.
    """
    r, n = uniformity, vertex_count
    if r < 2 or n < 2:
        raise ValueError("need uniformity >= 2 and at least two vertices")
    q = sqrt(13.0 * r * factorial(r))
    p = q * sqrt(log(n)) * exp(-0.5 * (r - 1) * log(n))
    if p > 1.0:
        raise ParamsOutOfRange(f"edge probability {p:.6g} > 1 at r={r}, N={n}")
    budget = n**r // (2 * r * factorial(r))
    return LowerBoundParams(r, n, q, p, budget, p * comb(n, r))


def gen_runiform(vertex_count: int, uniformity: int, p: float, seed: int = DEFAULT_SEED) -> Hypergraph:
    """Each of the binom(N, r) possible r-edges independently with
    probability p, deterministically per seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if uniformity < 1 or uniformity > vertex_count:
        raise ValueError(f"uniformity {uniformity} out of range for {vertex_count} vertices")
    if comb(vertex_count, uniformity) > GEN_GUARD:
        raise TooLarge(f"binom({vertex_count},{uniformity}) exceeds the enumeration guard")
    rng = Random(seed)
    edges = [c for c in combinations(range(vertex_count), uniformity) if rng.random() < p]
    return Hypergraph(vertex_count, edges)


@dataclass(frozen=True)
class GeneratedInstance:
    """A generated hypergraph plus its construction metadata (uniformity,
    core size, padding); ``to_mapping`` reports them with the shape, as
    ``gen lowerbound --out`` and ``lowerbound`` experiment records do."""

    hypergraph: Hypergraph
    uniformity: int
    core_vertex_count: int
    padding_vertices: int

    def to_mapping(self) -> dict:
        h = self.hypergraph
        return {"n": h.vertex_count, "m": h.edge_count, "uniformity": self.uniformity,
                "core": self.core_vertex_count, "padding": self.padding_vertices}


def lower_bound_instance(n: int, m: int, eps: float, seed: int = DEFAULT_SEED,
                         delta: float = 0.1) -> GeneratedInstance:
    """Hard instance with exactly n vertices and m edges.

    The uniformity is the smallest r >= 2 with eps > 2/(r+1); the core
    has N = floor(m**(2/(r+1+2*delta))) vertices; the edges are a uniform
    m-subset of the core's r-sets, one seeded draw of their ranks, each
    rank unranked straight into its r-set, in lexicographic order; the
    remaining n - N vertices stay isolated.  Time and memory grow with m,
    not with binom(N, r); an m above ``GEN_GUARD`` or too large for a
    float raises :class:`TooLarge`.
    """
    if not 0.0 < eps < 1.0:
        raise InfeasibleParams("eps must lie strictly between 0 and 1")
    if not 0.0 <= delta < inf:
        raise InfeasibleParams("delta must be finite and non-negative")
    if not 1 <= n <= m:
        raise InfeasibleParams("need 1 <= n <= m")
    r = 2
    while eps <= 2.0 / (r + 1):
        r += 1
        if r > UNIFORMITY_CAP:
            raise InfeasibleParams(f"no admissible uniformity below {UNIFORMITY_CAP} for eps={eps}")
    try:
        core = floor(m ** (2.0 / (r + 1 + 2.0 * delta)))
    except OverflowError:  # m does not fit a float
        raise TooLarge("edge count exceeds the float range") from None
    if core > n:
        raise InfeasibleParams(f"core size {core} exceeds the {n} available vertices")
    if core < r or comb(core, r) < m:
        raise InfeasibleParams(f"core of {core} vertices cannot carry {m} {r}-uniform edges")
    if m > GEN_GUARD:
        raise TooLarge(f"{m} edges exceed the generation guard of {GEN_GUARD}")
    # lex rank i of an r-set is top - (colex rank of its mirror v -> core-1-v);
    # unrank the colex ranks one element at a time, largest first
    top = comb(core, r) - 1
    ranks = [top - i for i in sorted(Random(seed).sample(range(top + 1), m))]
    columns = []
    for k in range(r, 0, -1):
        table = [comb(c, k) for c in range(core)]
        picks = [bisect_right(table, j) - 1 for j in ranks]
        ranks = [j - table[c] for j, c in zip(ranks, picks)]
        columns.append([core - 1 - c for c in picks])
    h = Hypergraph(n, list(zip(*columns)))
    return GeneratedInstance(h, r, core, n - core)
