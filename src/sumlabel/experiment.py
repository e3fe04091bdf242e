"""Deterministic experiment batches: per seed, the instance's shape and the
measure's result mapping as the CLI prints it, or its exit-1 error object."""

from __future__ import annotations

import statistics
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from itertools import combinations
from sys import float_info
from typing import Any

from .errors import BudgetExhausted, TooLarge
from .exact import DEFAULT_NODE_BUDGET, exact_s
from .generators import DEFAULT_SEED, gen_runiform, lower_bound_instance
from .hypergraph import Hypergraph
from .randomized import TwoStepConfig, quadratic_random_labeling, two_step_labeling

_KINDS = ("complete", "runiform", "lowerbound")
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
            raise ValueError(f"measure must be one of {tuple(_MEASURES)}")
        if self.kind == "complete" and not self.sizes:
            raise ValueError("complete experiments need 'sizes'")
        if self.kind != "complete" and self.sizes:
            raise ValueError(f"{self.kind} experiments take no 'sizes'")

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        # a JSON array or scalar is no config file
        if not isinstance(data, Mapping):
            raise ValueError("experiment config must be a JSON object")
        return cls(**data)

    def to_mapping(self) -> dict[str, Any]:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


_MEASURES = {
    "exact_s": lambda config, h, seed: exact_s(h, config.node_budget).to_mapping(),
    "quadratic": lambda config, h, seed: quadratic_random_labeling(h, seed).to_mapping(),
    "two_step": lambda config, h, seed: two_step_labeling(
        h, TwoStepConfig(label_divisor=config.label_divisor, seed=seed)).to_mapping(),
    "shape": lambda config, h, seed: {},
}


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
    return gen.hypergraph, gen.to_mapping()


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured batch; the report is reproducible from (config,
    seeds) alone."""
    start = time.perf_counter()
    records = []
    # size-major, so a one-seed batch keeps its record order
    sizes = config.sizes if config.kind == "complete" else (None,)
    for seed, size in [(seed, size) for size in sizes for seed in config.seeds]:
        h, shape = _instance_for(config, seed, size)
        try:
            result = _MEASURES[config.measure](config, h, seed)
        except BudgetExhausted as exc:
            result = exc.to_mapping()
        records.append({"seed": seed, **shape, **result})
    s_values = [r["optimum"] for r in records if "optimum" in r]
    summary: dict[str, Any] = {"runs": len(records)}
    if s_values:
        summary.update(min_s=min(s_values), median_s=statistics.median(s_values),
                       max_s=max(s_values))
    return ExperimentReport(config.to_mapping(), tuple(records), summary,
                            time.perf_counter() - start)
