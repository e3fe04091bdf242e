"""Seeded instance generators and a deterministic experiment runner.

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

import statistics
import time
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from itertools import combinations
from math import comb, exp, factorial, floor, inf, log, sqrt
from random import Random
from sys import float_info
from typing import Any

from .errors import BudgetExhausted, InfeasibleParams, ParamsOutOfRange, TooLarge
from .exact import DEFAULT_NODE_BUDGET, exact_s
from .hypergraph import Hypergraph
from .randomized import DEFAULT_SEED, TwoStepConfig, quadratic_random_labeling, two_step_labeling

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
    """A generated hypergraph plus the construction metadata tests care
    about (core size, padding)."""

    hypergraph: Hypergraph
    uniformity: int
    core_vertex_count: int
    padding_vertices: int


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


_KINDS = ("complete", "runiform", "lowerbound")
_MEASURES = ("exact_s", "quadratic", "two_step", "shape")
_INT_FIELDS = ("n_vertices", "uniformity", "edge_count", "node_budget")
_REAL_FIELDS = ("edge_probability", "eps", "delta", "label_divisor")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of a seeded experiment batch.

    Integer fields (``seeds`` and ``sizes`` element-wise) must be ``int``
    and real fields ``int`` or ``float`` within the finite float range,
    never ``bool``; ``node_budget`` may be None for an unbounded search.
    A wrong type or a real outside that range is a ValueError naming the
    field.  ``seeds`` and ``sizes`` may be given as lists and are stored
    as tuples.
    """

    kind: str
    measure: str
    seeds: tuple[int, ...] = (DEFAULT_SEED,)
    sizes: tuple[int, ...] = ()
    n_vertices: int = 0
    uniformity: int = 2
    edge_probability: float = 0.5
    edge_count: int = 0
    eps: float = 0.5
    delta: float = 0.1
    node_budget: int | None = DEFAULT_NODE_BUDGET
    label_divisor: float = 4.0

    def __post_init__(self):
        # exact type tests: bool, JSON's true/false, is a subclass of int
        for name in ("seeds", "sizes"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not all(type(v) is int for v in values):
                raise ValueError(f"{name} must be a list of integers")
            object.__setattr__(self, name, tuple(values))
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (type(value) is int or (name == "node_budget" and value is None)):
                raise ValueError(f"{name} must be an integer")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if type(value) not in (int, float):
                raise ValueError(f"{name} must be a number")
            # json.loads reads NaN, Infinity and ints too large for a float;
            # the comparisons are exact for ints and false for NaN
            if not -float_info.max <= value <= float_info.max:
                raise ValueError(f"{name} must be a finite number")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.measure not in _MEASURES:
            raise ValueError(f"measure must be one of {_MEASURES}")
        if self.kind == "complete" and not self.sizes:
            raise ValueError("complete experiments need 'sizes'")

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        # a JSON array or scalar is no config file
        if not isinstance(data, Mapping):
            raise ValueError("experiment config must be a JSON object")
        return cls(**data)

    def to_mapping(self) -> dict[str, Any]:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass
class ExperimentReport:
    """Per-seed records plus a summary.  Everything except ``elapsed`` is a
    pure function of the config, so reports compare equal across reruns."""

    config: dict[str, Any]
    records: tuple[dict[str, Any], ...]
    summary: dict[str, Any]
    elapsed: float = field(default=0.0, compare=False)

    def to_mapping(self, include_timing: bool = False) -> dict[str, Any]:
        out = {"config": self.config, "records": list(self.records), "summary": self.summary}
        if include_timing:
            out["elapsed"] = self.elapsed
        return out


def _instance_for(config: ExperimentConfig, seed: int, size: int | None) -> tuple[Hypergraph, dict]:
    if config.kind == "complete":
        if size > 16:
            raise TooLarge(f"complete hypergraph on {size} vertices has 2**{size}-1 edges")
        edges = [c for k in range(1, size + 1) for c in combinations(range(size), k)]
        return Hypergraph(size, edges), {"n": size, "m": len(edges)}
    if config.kind == "runiform":
        h = gen_runiform(config.n_vertices, config.uniformity, config.edge_probability, seed)
        return h, {"n": h.vertex_count, "m": h.edge_count}
    gen = lower_bound_instance(config.n_vertices, config.edge_count, config.eps, seed, config.delta)
    h = gen.hypergraph
    return h, {"n": h.vertex_count, "m": h.edge_count, "core": gen.core_vertex_count,
               "padding": gen.padding_vertices}


def _measure(config: ExperimentConfig, h: Hypergraph, seed: int) -> dict[str, Any]:
    if config.measure == "exact_s":
        try:
            res = exact_s(h, config.node_budget)
            return {"s": res.optimum, "nodes": res.nodes_expanded}
        except BudgetExhausted as exc:
            return {"s": None, "bracket": list(exc.bracket or ())}
    if config.measure == "quadratic":
        res = quadratic_random_labeling(h, seed)
        return {"attempts": res.attempts, "max_label": res.labeling.max_label}
    if config.measure == "two_step":
        cfg = TwoStepConfig(label_divisor=config.label_divisor, seed=seed)
        try:
            out = two_step_labeling(h, cfg)
        except BudgetExhausted as exc:
            return {"step1_attempts": exc.detail["step1_attempts"],
                    "step2_attempts": exc.detail["step2_attempts"],
                    "max_label": None, "label_cap": cfg.label_cap(h.edge_count)}
        return {"step1_attempts": out.step1_attempts, "step2_attempts": out.step2_attempts,
                "max_label": out.labeling.max_label, "label_cap": out.label_cap}
    return {}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured batch; the report is reproducible from (config,
    seeds) alone."""
    start = time.perf_counter()
    records = []
    # size-major, so a one-seed batch keeps its record order
    sizes = config.sizes if config.kind == "complete" else (None,)
    tasks = [(seed, size) for size in sizes for seed in config.seeds]
    for seed, size in tasks:
        h, shape = _instance_for(config, seed, size)
        record = {"seed": seed, **shape, **_measure(config, h, seed)}
        records.append(record)
    s_values = [r["s"] for r in records if r.get("s") is not None]
    summary: dict[str, Any] = {"runs": len(records)}
    if s_values:
        summary.update(min_s=min(s_values), median_s=statistics.median(s_values),
                       max_s=max(s_values))
    return ExperimentReport(config.to_mapping(), tuple(records), summary,
                            time.perf_counter() - start)
