"""Command-line front end.

Subcommands: solve {s|sstar|irr}, label {quadratic|two-step|repair|tree},
bounds, dual, gen {runiform|lowerbound}, pmf, experiment, verify.
Output is JSON by default (--format text for key/value lines) and is
byte-identical across reruns with the same inputs and seed; whenever
--seed is omitted the fixed default seed is used and echoed in the
output.  Exit codes: 0 success, 1 infeasibility-type results (degenerate
dual, exhausted budgets, failed verification), 2 usage or parse errors,
3 internal faults (an ``AssertionError`` or ``RecursionError``, reported
as one ``internal error:`` line on stderr, without a traceback).

:func:`main` turns the cyclic garbage collector off while one command
runs and restores the caller's setting afterwards: every command builds
acyclic data, which reference counting frees, so collector passes would
only rescan the objects the command has just built.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import constructive, exact, formats, generators, randomized, transforms, uniform_sums
from .errors import (BudgetExhausted, DimensionError, DualDegenerate, EmptyNeighborhood,
                     InfeasibleParams, ParamsOutOfRange, ParseError, ShapeError,
                     SumLabelError, TooLarge, ValidationError)
from .hypergraph import Graph, Hypergraph, Labeling, is_distinguishing, is_vertex_sum_distinguishing

DEFAULT_SEED = randomized.DEFAULT_SEED

_USAGE_ERRORS = (ParseError, ValidationError, ShapeError, DimensionError, ValueError)
_RESULT_ERRORS = (DualDegenerate, BudgetExhausted, EmptyNeighborhood, InfeasibleParams,
                  ParamsOutOfRange, TooLarge)
_INTERNAL_ERRORS = (AssertionError, RecursionError)


def _emit(payload: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def _error_payload(exc: SumLabelError) -> dict[str, Any]:
    """JSON error of an infeasibility-type result, keeping the partial
    results an exhausted budget carries."""
    payload: dict[str, Any] = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, BudgetExhausted):
        if exc.bracket is not None:
            payload["bracket"] = list(exc.bracket)
        payload["detail"] = exc.detail
    return payload


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_or_print(text: str, path: str | None, meta: dict[str, Any]) -> dict[str, Any] | None:
    """Write ``text`` to ``path`` and return ``meta`` with the path, or
    print ``text`` to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return None
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SumLabelError(f"cannot write {path}: {exc}") from exc
    return {"written": path, **meta}


def _load_hypergraph(path: str) -> Hypergraph:
    return formats.parse_hypergraph(_read(path))


def _load_graph(path: str) -> Graph:
    return formats.parse_graph(_read(path))


def _cmd_solve(args) -> dict[str, Any]:
    if args.variant == "sstar":
        res = exact.exact_s_star(_load_graph(args.file), args.budget)
    elif args.variant == "irr":
        res = exact.exact_irr(_load_hypergraph(args.file), args.budget)
    else:
        res = exact.exact_s(_load_hypergraph(args.file), args.budget)
    return {"optimum": res.optimum, "witness": list(res.witness.values),
            "nodes": res.nodes_expanded}


def _verified_payload(instance, f: Labeling, **extra) -> dict[str, Any]:
    if isinstance(instance, Graph):
        ok = is_vertex_sum_distinguishing(instance, f)
    else:
        ok = is_distinguishing(instance, f)
    return formats.labeling_payload(f, ok, **extra)


def _cmd_label(args) -> dict[str, Any]:
    if args.algorithm == "quadratic":
        h = _load_hypergraph(args.file)
        res = randomized.quadratic_random_labeling(h, args.seed, args.budget)
        return _verified_payload(h, res.labeling, attempts=res.attempts, seed=args.seed,
                                 max_allowed=max(1, h.edge_count) ** 2)
    if args.algorithm == "two-step":
        h = _load_hypergraph(args.file)
        cfg = randomized.TwoStepConfig(
            label_divisor=args.C, dangerous_cutoff=args.K, stray_limit=args.P,
            seed=args.seed, step1_budget=args.step1_budget, step2_budget=args.step2_budget)
        res = randomized.two_step_labeling(h, cfg)
        return _verified_payload(
            h, res.labeling, seed=args.seed, label_cap=res.label_cap,
            step1_attempts=res.step1_attempts, step2_attempts=res.step2_attempts,
            collision_census=res.collision_census)
    if args.algorithm == "repair":
        g = _load_graph(args.file)
        res = constructive.repair_labeler(g)
        return _verified_payload(g, res.labeling, xi=res.xi, iterations=len(res.steps))
    g = _load_graph(args.file)
    f = constructive.tree_labeler(g)
    stat = constructive.leaf_stat(g)
    bound = 2 * g.vertex_count - 2 - stat.max_leaf_neighbors
    return _verified_payload(g, f, bound=bound, max_leaf_neighbors=stat.max_leaf_neighbors)


def _cmd_bounds(args) -> dict[str, Any]:
    rep = constructive.s_star_bounds(_load_graph(args.file))
    return {"distinct_neighborhoods": rep.distinct_neighborhood_count,
            "min_degree": rep.min_degree, "max_degree": rep.max_degree,
            "xi": rep.xi, "lower": rep.lower, "upper_loose": rep.upper_loose}


def _cmd_dual(args) -> dict[str, Any] | None:
    d = transforms.dual(_load_hypergraph(args.file))
    return _write_or_print(formats.serialize_hypergraph(d), args.out,
                           {"n": d.vertex_count, "m": d.edge_count})


def _cmd_gen(args) -> dict[str, Any] | None:
    if args.model == "runiform":
        h = generators.gen_runiform(args.n, args.r, args.p, args.seed)
        meta: dict[str, Any] = {"n": h.vertex_count, "m": h.edge_count, "seed": args.seed}
    else:
        gen = generators.lower_bound_instance(args.n, args.m, args.eps, args.seed, args.delta)
        h = gen.hypergraph
        meta = {"n": h.vertex_count, "m": h.edge_count, "seed": args.seed,
                "uniformity": gen.uniformity, "core": gen.core_vertex_count,
                "padding": gen.padding_vertices}
    return _write_or_print(formats.serialize_hypergraph(h), args.out, meta)


def _format_fraction(q: Fraction, exact_mode: bool):
    return f"{q.numerator}/{q.denominator}" if exact_mode else float(q)


def _cmd_pmf(args) -> dict[str, Any]:
    pmf = uniform_sums.sum_pmf(args.summands, args.n)
    payload: dict[str, Any] = {
        "summands": args.summands, "n_values": args.n,
        "support": [pmf.support_base, pmf.support_max],
        "probabilities": [_format_fraction(p, args.exact) for p in pmf.probabilities],
    }
    if args.window:
        lo, hi = args.window
        payload["window"] = {"lo": lo, "hi": hi,
                             "probability": _format_fraction(pmf.window(lo, hi), args.exact)}
    if args.margin is not None:
        payload["margin"] = {"C": args.margin,
                             "value": uniform_sums.peak_probability_margin(
                                 args.summands, args.n, args.margin)}
    return payload


def _cmd_experiment(args) -> dict[str, Any]:
    try:
        raw = json.loads(_read(args.config))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON config: {exc}") from exc
    try:
        config = generators.ExperimentConfig.from_mapping(raw)
    except TypeError as exc:
        raise ValidationError(f"bad experiment config: {exc}") from exc
    report = generators.run_experiment(config)
    return report.to_mapping(include_timing=args.timing)


def _parse_labels(args) -> Labeling:
    if args.labels is not None:
        return Labeling(int(tok) for tok in args.labels.replace(",", " ").split())
    try:
        data = json.loads(_read(args.labels_file))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ParseError(f"invalid JSON labels file: {exc}") from exc
    values = data.get("labels") if isinstance(data, dict) else data
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ParseError("labels file must hold a list of integers or {\"labels\": [...]}")
    return Labeling(values)


def _cmd_verify(args) -> tuple[dict[str, Any], int]:
    f = _parse_labels(args)
    kind = args.kind
    if kind == "auto":
        kind = "graph" if args.file.endswith(".g") else "hypergraph"
    instance = _load_graph(args.file) if kind == "graph" else _load_hypergraph(args.file)
    payload = _verified_payload(instance, f)
    return payload, 0 if payload["verified"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sumlabel",
                                     description="Sum-distinguishing labelings of hypergraphs.")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact minimum max label")
    p.set_defaults(func=_cmd_solve)
    p.add_argument("variant", choices=("s", "sstar", "irr"))
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=exact.DEFAULT_NODE_BUDGET,
                   help="search node budget")

    p = sub.add_parser("label", help="construct a distinguishing labeling")
    p.set_defaults(func=_cmd_label)
    p.add_argument("algorithm", choices=("quadratic", "two-step", "repair", "tree"))
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=64, help="quadratic retry budget")
    p.add_argument("--C", type=float, default=4.0, help="label range divisor")
    p.add_argument("--K", type=int, default=64, help="dangerous-pair size cutoff")
    p.add_argument("--P", type=int, default=16, help="non-popular vertex allowance")
    p.add_argument("--step1-budget", type=int, default=1000)
    p.add_argument("--step2-budget", type=int, default=1000)

    p = sub.add_parser("bounds", help="degree-based bracket for a graph")
    p.set_defaults(func=_cmd_bounds)
    p.add_argument("file")

    p = sub.add_parser("dual", help="dual hypergraph")
    p.set_defaults(func=_cmd_dual)
    p.add_argument("file")
    p.add_argument("--out")

    p = sub.add_parser("gen", help="generate instances")
    p.set_defaults(func=_cmd_gen)
    gensub = p.add_subparsers(dest="model", required=True)
    pr = gensub.add_parser("runiform")
    pr.add_argument("n", type=int)
    pr.add_argument("r", type=int)
    pr.add_argument("p", type=float)
    pr.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pr.add_argument("--out")
    pl = gensub.add_parser("lowerbound")
    pl.add_argument("n", type=int)
    pl.add_argument("m", type=int)
    pl.add_argument("eps", type=float)
    pl.add_argument("--delta", type=float, default=0.1)
    pl.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pl.add_argument("--out")

    p = sub.add_parser("pmf", help="exact sum-of-uniforms distribution")
    p.set_defaults(func=_cmd_pmf)
    p.add_argument("summands", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"))
    p.add_argument("--margin", type=float, metavar="C",
                   help="peak margin of the doubled sum at constant C")
    p.add_argument("--exact", action="store_true", help="emit exact fractions as strings")

    p = sub.add_parser("experiment", help="run a seeded experiment batch")
    p.set_defaults(func=_cmd_experiment)
    p.add_argument("config")
    p.add_argument("--timing", action="store_true", help="include wall time in the report")

    p = sub.add_parser("verify", help="check a labeling against an instance")
    p.set_defaults(func=_cmd_verify)
    p.add_argument("file")
    p.add_argument("--labels", help="comma- or space-separated label values")
    p.add_argument("--labels-file", help="JSON file with a 'labels' array")
    p.add_argument("--kind", choices=("auto", "hypergraph", "graph"), default="auto")

    return parser


def main(argv: list[str] | None = None) -> int:
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.labels is None and args.labels_file is None:
        parser.error("verify needs --labels or --labels-file")
    try:
        result = args.func(args)
    except _RESULT_ERRORS as exc:
        _emit(_error_payload(exc), args.format)
        return 1
    except (*_USAGE_ERRORS, SumLabelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    payload, code = result if isinstance(result, tuple) else (result, 0)
    if payload is not None:
        _emit(payload, args.format)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
