"""Benchmark of the sumlabel library: four workloads, one worker each.

Run from the root of a checkout:

    python3 bench/run.py --workload exact_search --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all              # the four workloads in turn

Each run starts fresh single-threaded worker processes (``worker.py``):
``SETUP_SAMPLES - 1`` that only set up, then one that sets up and measures.
Untraced runs (``--trace 0``) report the end-to-end metrics:

* ``norm_wall_s``: median over rounds of the time spent in the round's
  library calls (one round runs every operation of the workload once; the
  benchmark's own checks are not timed);
* ``setup_s``: median over workers of the time from process start to the
  end of set-up (interpreter start, ``import sumlabel``, seeded input
  generation, writing input files, a warm-up pass on tiny inputs);
* ``peak_rss_mb``: the measuring worker's ``ru_maxrss``.

Both times are normalised to host speed with the worker's reference chunk
(see ``worker.py``): the host's own speed drifts by tens of percent
between runs minutes apart.  The raw seconds are printed and recorded too.

Every output is checked by benchmark code; ``fail_ratio`` (failed or
rejected operations over ``ops_attempted``) is printed and carried by the
``failed``/``attempted`` fields of the result.  Traced runs (``--trace 1``)
alternate untraced and traced rounds and report the per-layer metrics of
``PER_LAYER`` plus the tracing overhead.  The last stdout line is one JSON
object; a full record of the run is written to ``bench/out/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("bulk_io", "exact_search", "pair_labelers", "probability")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Public functions whose calls / busy_s / self_s are reported, each with the
# end-to-end metric and workload it should move (see LAYER_MAP).
TRACED_FUNCTIONS = (
    "cli.main", "formats.parse_hypergraph", "formats.serialize_hypergraph",
    "hypergraph.Hypergraph", "hypergraph.incidence", "hypergraph.is_distinguishing",
    "hypergraph.edge_sums", "hypergraph.Labeling", "hypergraph.Graph", "hypergraph.adjacency",
    "hypergraph.closed_sums", "hypergraph.is_vertex_sum_distinguishing",
    "transforms.dual", "generators.gen_runiform", "generators.lower_bound_instance",
    "randomized.quadratic_random_labeling", "exact.exact_s", "exact.exact_s_star",
    "exact.exact_irr", "transforms.closed_neighborhood_hypergraph",
    "constructive.s_star_bounds", "randomized.two_step_labeling", "randomized.classify_pairs",
    "randomized.step_one_successful", "randomized.pair_skew", "randomized.PairData",
    "constructive.repair_labeler", "constructive.tree_labeler", "uniform_sums.sum_pmf", "uniform_sums.iter_sum_pmfs",
    "uniform_sums.Pmf", "uniform_sums.exact_collision_probability",
    "uniform_sums.merge_inequality_check",
)
COUNTERS = {
    "formats.bytes_parsed": ("bytes", "lower"),
    "hypergraph.edges_built": ("count", "lower"),
    "generators.candidates_drawn": ("count", "lower"),
    "exact.nodes": ("count", "lower"),
    "exact.nodes_per_s": ("1/s", "higher"),
    "exact.solves": ("count", "lower"),
    "randomized.pairs_classified": ("count", "lower"),
    "randomized.popular_vertices": ("count", "lower"),
    "randomized.free_vertices": ("count", "higher"),
    "randomized.step1_attempts": ("count", "lower"),
    "randomized.step2_attempts": ("count", "lower"),
    "randomized.quadratic_attempts": ("count", "lower"),
    "randomized.accept_ratio": ("ratio", "higher"),
    "constructive.repair_steps": ("count", "lower"),
    "uniform_sums.convolution_cells": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}
PER_LAYER = {f"{fn}.{stat}": ("count" if stat == "calls" else "s", "lower")
             for fn in TRACED_FUNCTIONS for stat in ("calls", "busy_s", "self_s")}
PER_LAYER.update(COUNTERS)

# Which per-layer numbers should move which end-to-end metric, on which workload.
LAYER_MAP = {
    "bulk_io": {"moves": ["norm_wall_s"], "layers": [
        "cli.main.self_s", "formats.parse_hypergraph.self_s",
        "formats.serialize_hypergraph.self_s", "formats.bytes_parsed",
        "hypergraph.Hypergraph.self_s", "hypergraph.incidence.self_s",
        "hypergraph.is_distinguishing.self_s", "hypergraph.edges_built",
        "transforms.dual.self_s", "generators.gen_runiform.self_s",
        "generators.lower_bound_instance.self_s", "generators.candidates_drawn",
        "randomized.quadratic_random_labeling.self_s"]},
    "exact_search": {"moves": ["norm_wall_s"], "layers": [
        "exact.exact_s.self_s", "exact.nodes", "exact.nodes_per_s", "exact.solves",
        "transforms.closed_neighborhood_hypergraph.self_s", "constructive.s_star_bounds.self_s"]},
    "pair_labelers": {"moves": ["norm_wall_s", "peak_rss_mb"], "layers": [
        "randomized.two_step_labeling.self_s", "randomized.classify_pairs.self_s",
        "randomized.step_one_successful.self_s", "randomized.pairs_classified",
        "randomized.popular_vertices", "randomized.free_vertices",
        "randomized.step1_attempts", "randomized.step2_attempts",
        "randomized.quadratic_attempts", "randomized.accept_ratio",
        "constructive.repair_labeler.self_s", "constructive.tree_labeler.self_s",
        "constructive.repair_steps"]},
    "probability": {"moves": ["norm_wall_s"], "layers": [
        "uniform_sums.sum_pmf.self_s", "uniform_sums.iter_sum_pmfs.self_s",
        "uniform_sums.exact_collision_probability.self_s",
        "uniform_sums.merge_inequality_check.calls",
        "uniform_sums.merge_inequality_check.self_s", "uniform_sums.convolution_cells"]},
}


class BenchError(Exception):
    """The benchmark could not run (not a failed library operation)."""


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; return (spawn time on the monotonic clock, its JSON)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(layers: list[dict[str, float]], untraced: list[float],
                  traced: list[float]) -> dict[str, float]:
    """PER_LAYER values: medians over traced rounds, plus derived ratios."""
    med = {name: _median([t.get(name, 0.0) for t in layers])
           for name in set().union(*layers)} if layers else {}
    out = {name: float(med.get(name, 0.0)) for name in PER_LAYER}
    busy = med.get("exact.exact_s.busy_s", 0.0)
    out["exact.nodes_per_s"] = med.get("exact.nodes", 0.0) / busy if busy else 0.0
    draws = (med.get("randomized.step1_attempts", 0.0)
             + med.get("randomized.quadratic_attempts", 0.0))
    out["randomized.accept_ratio"] = (med.get("randomized.labelings_accepted", 0.0) / draws
                                      if draws else 0.0)
    base = _median(untraced)
    out["trace.overhead_s"] = _median(traced) - base
    out["trace.overhead_share"] = out["trace.overhead_s"] / base if base else 0.0
    return out


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return the full record of the run."""
    started = time.time()
    deadline = time.monotonic() + DEADLINE_S
    for sub in ("work", "results", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(OUT / "work")]
    setups = []  # (raw seconds, normalised seconds)
    for _ in range(SETUP_SAMPLES - 1):
        spawned, probe = _worker([*common, "--seconds", "0", "--setup-only"], deadline)
        setups.append((probe["ready"] - spawned, (probe["ready"] - spawned) * probe["setup_scale"]))
    spans = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
    spawned, res = _worker([*common, "--seconds", str(seconds), "--trace", str(trace),
                            *(["--spans-out", str(spans)] if trace else [])], deadline)
    setups.append((res["ready"] - spawned, (res["ready"] - spawned) * res["setup_scale"]))
    untraced = [r for r in res["rounds"] if not r["traced"]]
    traced = [r["norm_s"] for r in res["rounds"] if r["traced"]]
    e2e = {"norm_wall_s": _median([r["norm_s"] for r in untraced]),
           "setup_s": _median([n for _, n in setups]), "peak_rss_mb": res["peak_rss_mb"]}
    raw = {"wall_s": _median([r["seconds"] for r in untraced]),
           "setup_s": _median([r for r, _ in setups])}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "started": started,
        "python": res["python"], "nproc": os.cpu_count(),
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"], "counter_mismatches": res["counter_mismatches"],
        "setup_samples": setups, "rounds": res["rounds"], "end_to_end": e2e, "raw": raw,
        "counters": res["counters"],
    }
    if trace:
        # the first round fills caches, so the overhead compares later rounds only
        record["per_layer"] = layer_metrics(res["layers"], [r["norm_s"] for r in untraced[1:]],
                                            traced)
        record["layer_table"] = {k: _median([t.get(k, 0.0) for t in res["layers"]])
                                 for k in sorted(set().union(*res["layers"]))}
    (OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record


def report(record: dict) -> dict:
    """Print the run's metrics by name with units; return its metrics object."""
    w, n_rounds = record["workload"], len(record["rounds"])
    attempted, failed = record["attempted"], record["failed"]
    print(f"[{w}] seed={record['seed']} rounds={n_rounds} python={record['python']} "
          f"nproc={record['nproc']}")
    for name, unit in END_TO_END.items():
        print(f"[{w}] {name}: {record['end_to_end'][name]:.6f} {unit}")
    for name, value in record["raw"].items():
        print(f"[{w}] raw {name}: {value:.6f} s (not normalised to host speed)")
    print(f"[{w}] fail_ratio: {failed / attempted:.6f} ({failed}/{attempted} ops)")
    print(f"[{w}] ops_attempted: {attempted} count")
    for line in record["failures"] + record["counter_mismatches"]:
        print(f"[{w}] FAILED {line}")
    if not record["trace"]:
        return {k: {"value": record["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}
    layers = record["per_layer"]
    print(f"[{w}] tracing overhead: {layers['trace.overhead_s']:.6f} s "
          f"({100 * layers['trace.overhead_share']:.2f}% of untraced norm_wall_s)")
    table = record["layer_table"]
    names = sorted({k.rsplit(".", 1)[0] for k in table if k.endswith(".self_s")},
                   key=lambda f: -table[f + ".self_s"])
    print(f"[{w}] {'function':48s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
    for f in names:
        print(f"[{w}] {f:48s} {table[f + '.calls']:9.0f} {table[f + '.busy_s']:10.4f} "
              f"{table[f + '.self_s']:10.4f}")
    for name in COUNTERS:
        print(f"[{w}] {name}: {layers[name]:.6g} {COUNTERS[name][0]}")
    return {k: {"value": layers[k], "unit": u} for k, (u, _) in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sumlabel" / "__init__.py").is_file():
        print(f"error: no sumlabel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_one(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for record in records:
        shown = report(record)
        metrics.update(shown if len(records) == 1
                       else {f"{record['workload']}.{k}": v for k, v in shown.items()})
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
