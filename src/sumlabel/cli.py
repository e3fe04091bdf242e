"""Command-line front end.

Subcommands: solve {s|sstar|irr}, label {quadratic|two-step|repair|tree},
bounds, dual, gen {runiform|lowerbound}, pmf, experiment, verify.  Each
leaf is its own subparser with its own handler and declares only the
options that handler reads, so options follow the leaf name
(``sumlabel label two-step -h`` lists that leaf's options) and an option
a leaf does not read exits 2.
Output is JSON by default (--format text for key/value lines) and is
byte-identical across reruns with the same inputs and seed; whenever
--seed is omitted the fixed default seed is used and echoed in the
output.  Exit codes: 0 success, 1 infeasibility-type results (degenerate
dual, exhausted budgets, failed verification), 2 usage or parse errors,
3 internal faults (an ``AssertionError`` or ``RecursionError``, or a JSON
payload holding NaN or an infinity, reported as one ``internal error:``
line on stderr, without a traceback, and nothing on stdout).

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

from . import (constructive, exact, experiment, formats, generators, randomized, transforms,
               uniform_sums)
from .errors import (BudgetExhausted, DualDegenerate, InfeasibleParams, ParseError,
                     SumLabelError, TooLarge, ValidationError)
from .hypergraph import Graph, Labeling, is_distinguishing
from .transforms import is_vertex_sum_distinguishing

_RESULT_ERRORS = (DualDegenerate, BudgetExhausted, InfeasibleParams, TooLarge)
_INTERNAL_ERRORS = (AssertionError, RecursionError)


def _emit(payload: dict[str, Any], fmt: str) -> None:
    # CPython refuses to convert an int of more than 4300 digits to text, a
    # guard for parsing input; the results printed here are the program's
    # own, such as a bracket's top 2**(c - 1) for c covered vertices
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            try:
                text = json.dumps(payload, sort_keys=True, allow_nan=False)
            except ValueError as exc:
                # NaN and Infinity are not JSON; a payload holding one is a bug
                raise AssertionError(f"unserializable payload: {exc}") from None
            print(text)
        else:
            for key in sorted(payload):
                print(f"{key}: {payload[key]}")
    finally:
        sys.set_int_max_str_digits(limit)


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


def _cmd_solve(args) -> dict[str, Any]:
    res = args.solver(args.parse(_read(args.file)), args.budget)
    return {"witness": list(res.witness.values), **res.to_mapping()}


def _verified_payload(instance, f: Labeling, **extra) -> dict[str, Any]:
    """The JSON object of a labeling result, re-verified against ``instance``."""
    check = is_vertex_sum_distinguishing if isinstance(instance, Graph) else is_distinguishing
    return {"labels": list(f.values), "max_label": f.max_label,
            "verified": check(instance, f), **extra}


def _cmd_quadratic(args) -> dict[str, Any]:
    h = formats.parse_hypergraph(_read(args.file))
    res = randomized.quadratic_random_labeling(h, args.seed, args.budget)
    return _verified_payload(h, res.labeling, seed=args.seed, **res.to_mapping())


def _cmd_two_step(args) -> dict[str, Any]:
    h = formats.parse_hypergraph(_read(args.file))
    cfg = randomized.TwoStepConfig(
        label_divisor=args.C, dangerous_cutoff=args.K, stray_limit=args.P,
        seed=args.seed, step1_budget=args.step1_budget, step2_budget=args.step2_budget)
    res = randomized.two_step_labeling(h, cfg)
    return _verified_payload(h, res.labeling, seed=args.seed, **res.to_mapping())


def _cmd_repair(args) -> dict[str, Any]:
    g = formats.parse_graph(_read(args.file))
    res = constructive.repair_labeler(g)
    return _verified_payload(g, res.labeling, **res.to_mapping())


def _cmd_tree(args) -> dict[str, Any]:
    g = formats.parse_graph(_read(args.file))
    f = constructive.tree_labeler(g)
    stat = constructive.leaf_stat(g)
    bound = 2 * g.vertex_count - 2 - stat.max_leaf_neighbors
    return _verified_payload(g, f, bound=bound, max_leaf_neighbors=stat.max_leaf_neighbors)


def _cmd_bounds(args) -> dict[str, Any]:
    rep = constructive.s_star_bounds(formats.parse_graph(_read(args.file)))
    return {"distinct_neighborhoods": rep.distinct_neighborhood_count,
            "min_degree": rep.min_degree, "max_degree": rep.max_degree,
            "xi": rep.xi, "lower": rep.lower, "upper_loose": rep.upper_loose}


def _cmd_dual(args) -> dict[str, Any] | None:
    d = transforms.dual(formats.parse_hypergraph(_read(args.file)))
    return _write_or_print(formats.serialize_hypergraph(d), args.out,
                           {"n": d.vertex_count, "m": d.edge_count})


def _cmd_runiform(args) -> dict[str, Any] | None:
    h = generators.gen_runiform(args.n, args.r, args.p, args.seed)
    return _write_or_print(formats.serialize_hypergraph(h), args.out,
                           {"n": h.vertex_count, "m": h.edge_count, "seed": args.seed})


def _cmd_lowerbound(args) -> dict[str, Any] | None:
    gen = generators.lower_bound_instance(args.n, args.m, args.eps, args.seed, args.delta)
    return _write_or_print(formats.serialize_hypergraph(gen.hypergraph), args.out,
                           {**gen.to_mapping(), "seed": args.seed})


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
        config = experiment.ExperimentConfig.from_mapping(raw)
    except TypeError as exc:
        raise ValidationError(f"bad experiment config: {exc}") from exc
    return experiment.run_experiment(config).to_mapping(include_timing=args.timing)


def _parse_labels(args) -> Labeling:
    if args.labels is not None:
        try:
            values = formats.integers(args.labels.replace(",", " ").split())
        except ValueError as exc:
            raise ParseError(f"non-integer label {exc.args[0]!r}") from None
        return Labeling(values)
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
    parse = formats.parse_graph if kind == "graph" else formats.parse_hypergraph
    payload = _verified_payload(parse(_read(args.file)), f)
    return payload, 0 if payload["verified"] else 1


def _integer(text: str) -> int:
    """An int argument, read by the integer grammar of the file formats."""
    try:
        return formats.integers([text])[0]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer value {text!r}") from None


def _real(text: str) -> float:
    """A float argument in ASCII without digit-group underscores or
    surrounding whitespace, which ``float()`` alone would also read."""
    try:
        if text.isascii() and "_" not in text and text.strip() == text:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"non-float value {text!r}")


def _file_leaf(subparsers, name: str, func, what: str, **defaults) -> argparse.ArgumentParser:
    """Add a leaf command that reads one instance file and runs ``func``."""
    p = subparsers.add_parser(name, help=what)
    p.set_defaults(func=func, **defaults)
    p.add_argument("file")
    return p


def build_parser() -> argparse.ArgumentParser:
    """One subparser per leaf command, each declaring only the options its
    handler reads.  Library callables are bound here, on every :func:`main`
    call, so one rebound after import is the one that runs."""
    parser = argparse.ArgumentParser(prog="sumlabel",
                                     description="Sum-distinguishing labelings of hypergraphs.")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    leaves = sub.add_parser("solve", help="exact minimum max label").add_subparsers(
        dest="variant", required=True)
    for variant, parse, solver, what in (
            ("s", formats.parse_hypergraph, exact.exact_s, "s(H) of a .hg file"),
            ("sstar", formats.parse_graph, exact.exact_s_star, "s*(G) of a .g file"),
            ("irr", formats.parse_hypergraph, exact.exact_irr, "irr(H) of a .hg file")):
        p = _file_leaf(leaves, variant, _cmd_solve, what, parse=parse, solver=solver)
        p.add_argument("--budget", type=_integer, default=exact.DEFAULT_NODE_BUDGET,
                       help="search node budget")

    leaves = sub.add_parser("label", help="construct a distinguishing labeling").add_subparsers(
        dest="algorithm", required=True)
    p = _file_leaf(leaves, "quadratic", _cmd_quadratic, "random labels in [m^2] (.hg)")
    p.add_argument("--seed", type=_integer, default=generators.DEFAULT_SEED)
    p.add_argument("--budget", type=_integer, default=64, help="retry budget")
    p = _file_leaf(leaves, "two-step", _cmd_two_step, "random labels in [ceil(m^2/C)] (.hg)")
    p.add_argument("--seed", type=_integer, default=generators.DEFAULT_SEED)
    p.add_argument("--C", type=_real, default=4.0, help="label range divisor")
    p.add_argument("--K", type=_integer, default=64, help="dangerous-pair size cutoff")
    p.add_argument("--P", type=_integer, default=16, help="non-popular vertex allowance")
    p.add_argument("--step1-budget", type=_integer, default=1000)
    p.add_argument("--step2-budget", type=_integer, default=1000)
    _file_leaf(leaves, "repair", _cmd_repair, "deterministic, max label <= xi (.g)")
    _file_leaf(leaves, "tree", _cmd_tree, "deterministic, max label <= 2n-2-L (.g tree)")

    _file_leaf(sub, "bounds", _cmd_bounds, "degree-based bracket for a graph")
    _file_leaf(sub, "dual", _cmd_dual, "dual hypergraph").add_argument("--out")

    leaves = sub.add_parser("gen", help="generate instances").add_subparsers(
        dest="model", required=True)
    p = leaves.add_parser("runiform", help="binomial r-uniform model")
    p.set_defaults(func=_cmd_runiform)
    p.add_argument("n", type=_integer)
    p.add_argument("r", type=_integer)
    p.add_argument("p", type=_real)
    p.add_argument("--seed", type=_integer, default=generators.DEFAULT_SEED)
    p.add_argument("--out")
    p = leaves.add_parser("lowerbound", help="hard instance of exact (n, m) shape")
    p.set_defaults(func=_cmd_lowerbound)
    p.add_argument("n", type=_integer)
    p.add_argument("m", type=_integer)
    p.add_argument("eps", type=_real)
    p.add_argument("--delta", type=_real, default=0.1)
    p.add_argument("--seed", type=_integer, default=generators.DEFAULT_SEED)
    p.add_argument("--out")

    p = sub.add_parser("pmf", help="exact sum-of-uniforms distribution")
    p.set_defaults(func=_cmd_pmf)
    p.add_argument("summands", type=_integer)
    p.add_argument("n", type=_integer)
    p.add_argument("--window", nargs=2, type=_integer, metavar=("LO", "HI"))
    p.add_argument("--margin", type=_real, metavar="C",
                   help="peak margin of the doubled sum at constant C")
    p.add_argument("--exact", action="store_true", help="emit exact fractions as strings")

    p = sub.add_parser("experiment", help="run a seeded experiment batch")
    p.set_defaults(func=_cmd_experiment)
    p.add_argument("config")
    p.add_argument("--timing", action="store_true", help="include wall time in the report")

    p = _file_leaf(sub, "verify", _cmd_verify, "check a labeling against an instance")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--labels", help="comma- or space-separated label values")
    source.add_argument("--labels-file", help="JSON file with a 'labels' array")
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
    args = build_parser().parse_args(argv)
    try:
        try:
            result = args.func(args)
        except _RESULT_ERRORS as exc:
            result = exc.to_mapping(), 1
        payload, code = result if isinstance(result, tuple) else (result, 0)
        if payload is not None:
            _emit(payload, args.format)
        return code
    except (ValueError, SumLabelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
