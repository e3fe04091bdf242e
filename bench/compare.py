"""Summarise benchmark runs, run a parent and a change in turn, and compare.

    python3 bench/compare.py summary bench/out/results --out bench/results/BENCH_0.json
    python3 bench/compare.py ab PARENT_CHECKOUT CHANGE_CHECKOUT --workload W --out DIR
    python3 bench/compare.py compare PARENT CHANGE

A result set is a directory of run records written by ``run.py`` (under
``bench/out/results``) or a summary file written by ``summary``.  ``ab``
runs each checkout's own ``bench/run.py`` once per seed, alternating which
side runs first, so the two runs of a seed are minutes apart at most; it
collects the records under ``DIR/parent`` and ``DIR/change`` and compares
them.  For every workload and end-to-end metric, ``compare`` prints each
side's median and quartiles over seeds, the median over seed-matched pairs
of the change/parent ratio, and a verdict under the rule of the
benchmark's metric guide: ``improved`` when the change wins at least nine
tenths of the pairs and the median ratio differs from 1 by more than the
parent's interquartile distance over its median; ``worse`` when the median
ratio is worse than 1 by more than the metric's bound in
``BENCHMARK.json``; ``unresolved`` when the parent's own spread is wider
than the bound, unless every run of the change reads better than every run
of the parent; and ``within bound`` otherwise.  Judging on pair ratios
keeps slow drift of the host's speed out of the verdict when the pairs
were run close together; the median gap between the two runs of a pair is
printed so that sets run far apart can be told.  Deterministic counters
(search nodes, attempts, optima, CLI stdout digests, per-layer counts)
must match exactly for every seed run on both sides; each mismatch is
listed separately.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import COUNTERS, LAYER_MAP, ROOT  # noqa: E402

# per-layer counters that are deterministic for a seed (the rest are times)
EXACT_LAYER_COUNTERS = tuple(k for k, (unit, _) in COUNTERS.items() if unit == "count")


def load(path: Path) -> list[dict]:
    """Run records from a results directory or a summary file."""
    if path.is_dir():
        return [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    return json.loads(path.read_text())["records"]


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bounds() -> dict[str, tuple[float, str]]:
    return {m["name"]: (m["bound"], m["better"]) for m in spec()["end_to_end"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_seed(records: list[dict], workload: str, metric: str) -> dict[int, float]:
    return {r["seed"]: r["end_to_end"][metric] for r in records
            if r["workload"] == workload and r["trace"] == 0}


def started(records: list[dict], workload: str) -> dict[int, float]:
    return {r["seed"]: r["started"] for r in records
            if r["workload"] == workload and r["trace"] == 0}


def pair_ratio(parent: dict[int, float], change: dict[int, float]) -> float:
    """Median over seeds run on both sides of change / parent."""
    return statistics.median(change[s] / parent[s] for s in set(parent) & set(change))


def verdict(parent: dict[int, float], change: dict[int, float], bound: float,
            better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1, med_p, q3 = _quartiles(list(parent.values()))
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return "unresolved"
    ratio = pair_ratio(parent, change)
    wins = sum(1 for s in seeds if sign * (parent[s] - change[s]) > 0)
    all_better = all(sign * (p - c) > 0 for p in parent.values() for c in change.values())
    if wins >= 0.9 * len(seeds) and sign * (1.0 - ratio) > (q3 - q1) / med_p:
        return "improved"
    if sign * (ratio - 1.0) > bound:
        return "worse"
    if (q3 - q1) > bound * med_p:
        return "improved" if all_better else "unresolved"
    return "within bound"


def counter_mismatches(parent: list[dict], change: list[dict]) -> list[str]:
    """Deterministic counters that differ for a (workload, seed, trace) run on both sides."""
    index = {(r["workload"], r["seed"], r["trace"]): r for r in parent}
    out = []
    for r in change:
        p = index.get((r["workload"], r["seed"], r["trace"]))
        if p is None:
            continue
        where = f"{r['workload']} seed={r['seed']} trace={r['trace']}"
        for op in sorted(set(p["counters"]) | set(r["counters"])):
            if p["counters"].get(op) != r["counters"].get(op):
                out.append(f"{where} {op}: {p['counters'].get(op)} != {r['counters'].get(op)}")
        if r["trace"]:
            for name in EXACT_LAYER_COUNTERS:
                if p["per_layer"][name] != r["per_layer"][name]:
                    out.append(f"{where} {name}: {p['per_layer'][name]} != "
                               f"{r['per_layer'][name]}")
    return out


def compare(parent: list[dict], change: list[dict]) -> int:
    print(f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'pairs':>5s} {'ratio':>6s} {'gap_s':>7s}  verdict")
    for workload in LAYER_MAP:
        when_p, when_c = started(parent, workload), started(change, workload)
        gaps = [abs(when_c[s] - when_p[s]) for s in set(when_p) & set(when_c)]
        for metric, (bound, better) in bounds().items():
            p, c = by_seed(parent, workload, metric), by_seed(change, workload, metric)
            if not p or not c:
                continue
            qp, qc = _quartiles(list(p.values())), _quartiles(list(c.values()))
            ratio = pair_ratio(p, c) if gaps else float("nan")
            print(f"{workload:14s} {metric:12s} "
                  f"{qp[1]:10.4f} [{qp[0]:9.4f}, {qp[2]:9.4f}]  "
                  f"{qc[1]:10.4f} [{qc[0]:9.4f}, {qc[2]:9.4f}]  "
                  f"{len(gaps):5d} {ratio:6.3f} {_median_or_nan(gaps):7.0f}  "
                  f"{verdict(p, c, bound, better)}")
    failed = [(r["workload"], r["seed"], r["failed"]) for r in parent + change if r["failed"]]
    for workload, seed, n in failed:
        print(f"FAILED operations: {workload} seed={seed}: {n}")
    mismatches = counter_mismatches(parent, change)
    print(f"counter mismatches: {len(mismatches)}")
    for line in mismatches:
        print(f"  {line}")
    return 1 if mismatches or failed else 0


def _median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def ab(parent: Path, change: Path, workload: str, seeds: list[int], out: Path) -> int:
    """Run both checkouts once per seed, alternating which goes first."""
    seconds = str(spec()["run_seconds"])
    for i, seed in enumerate(seeds):
        sides = [("parent", parent), ("change", change)]
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{side} seed={seed} failed: {proc.stderr.strip()[-2000:]}",
                      file=sys.stderr)
                return 1
            name = f"{workload}-seed{seed}-trace0.json"
            (out / side).mkdir(parents=True, exist_ok=True)
            shutil.copy(checkout / "bench" / "out" / "results" / name, out / side / name)
    return compare(load(out / "parent"), load(out / "change"))


def summary(records: list[dict]) -> dict:
    """BENCH file: environment, per-workload end-to-end quartiles over
    seeds, the traced layer table and tracing overhead, and every record."""
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "layer_map": LAYER_MAP, "workloads": {}}
    for workload in LAYER_MAP:
        runs = [r for r in records if r["workload"] == workload]
        if not runs:
            continue
        entry: dict = {"end_to_end": {}}
        for metric in bounds():
            values = list(by_seed(runs, workload, metric).values())
            if values:
                q1, med, q3 = _quartiles(values)
                entry["end_to_end"][metric] = {"median": med, "q1": q1, "q3": q3,
                                               "runs": len(values)}
        traced = [r for r in runs if r["trace"]]
        if traced:
            keys = sorted(set().union(*(r["layer_table"] for r in traced)))
            entry["layer_table"] = {k: statistics.median(r["layer_table"].get(k, 0.0)
                                                         for r in traced) for k in keys}
            entry["trace_overhead_s"] = statistics.median(
                r["per_layer"]["trace.overhead_s"] for r in traced)
            entry["trace_overhead_share"] = statistics.median(
                r["per_layer"]["trace.overhead_share"] for r in traced)
        entry["fail_ratio"] = (sum(r["failed"] for r in runs)
                               / sum(r["attempted"] for r in runs))
        entry["ops_attempted"] = sum(r["attempted"] for r in runs)
        out["workloads"][workload] = entry
    out["records"] = records
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("summary")
    s.add_argument("results", type=Path)
    s.add_argument("--out", type=Path, required=True)
    c = sub.add_parser("compare")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    a = sub.add_parser("ab")
    a.add_argument("parent", type=Path, help="root of the parent checkout")
    a.add_argument("change", type=Path, help="root of the change checkout")
    a.add_argument("--workload", required=True, choices=tuple(LAYER_MAP))
    a.add_argument("--seeds", type=int, default=10, help="run seeds 1..SEEDS")
    a.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.cmd == "summary":
        args.out.write_text(json.dumps(summary(load(args.results)), indent=1, sort_keys=True)
                            + "\n")
        return 0
    if args.cmd == "ab":
        return ab(args.parent.resolve(), args.change.resolve(), args.workload,
                  list(range(1, args.seeds + 1)), args.out.resolve())
    return compare(load(args.parent), load(args.change))


if __name__ == "__main__":
    sys.exit(main())
