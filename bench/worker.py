"""One benchmark worker: a fresh, single-threaded process for one workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports the library, builds the seeded inputs, runs one
warm-up pass on tiny inputs, then repeats rounds of the workload's
operations until ``--seconds`` have passed, checking every output.  With
``--trace 1`` rounds alternate between untraced and traced, so the traced
run reports both the per-layer table and the tracing overhead.  The last
line of stdout is one JSON object for ``run.py``.

The host's speed drifts by tens of percent over minutes (other tenants
share its cores and caches), and CPU time drifts with it.  So before every
operation the worker times a fixed piece of pure-Python work, the
reference chunk, once per ``REF_EVERY_S`` of the operation's previous
duration, and every time it reports is also given as
``seconds * REF_SECONDS / (mean time of a reference chunk)``: seconds on a
host that runs the chunk in ``REF_SECONDS``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import sumlabel  # noqa: F401  (import time is part of set-up)

import tracer as tracing
import workloads

# Time of one reference chunk on an idle core of the reference host
# (x86-64, 2 cores, Python 3.11).
REF_SECONDS = 0.020
REF_EVERY_S = 0.25
SETUP_REF_CHUNKS = 10


def reference_chunk() -> int:
    """Fixed interpreter, dict, set, big-integer, parsing and allocation work;
    its time tracks host speed."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(14_000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc += len({k, k + 1, (k, i)})
    x = 3**4000 + acc
    for _ in range(200):
        acc ^= (x * x) & 0xFFFF
    text = " ".join(map(str, range(100_000, 108_000)))
    rows = {p: (p, str(p)) for p in map(int, text.split())}
    return acc + len(",".join(t[1] for t in sorted(rows.values(), key=lambda t: -t[0])))


def time_reference(chunks: int) -> float:
    """Seconds for ``chunks`` reference chunks, with the cyclic collector off:
    the chunk makes no cycles, and a collection would scan the workload's
    objects instead of measuring the host."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(chunks):
            reference_chunk()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_round(ops, tracer=None):
    """Run every operation once, each after its reference chunks.

    Returns (library seconds, reference seconds, reference chunks, failures,
    counters).
    """
    elapsed = ref = 0.0
    chunks = 0
    failures: list[str] = []
    counters: dict[str, object] = {}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i + 1
        if op.reset is not None:
            op.reset()
        n = 1 + int(op.last_s / REF_EVERY_S)
        ref += time_reference(n)
        chunks += n
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            elapsed += time.perf_counter() - start
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        op.last_s = time.perf_counter() - start
        elapsed += op.last_s
        try:
            counters[op.name] = op.check(result)
        except Exception as exc:  # a rejected or malformed output counts as failed
            failures.append(f"{op.name}: check failed: {type(exc).__name__}: {exc}")
    return elapsed, ref, chunks, failures, counters


def normalised(seconds: float, ref_seconds: float, chunks: int) -> float:
    """``seconds`` on a host that runs one reference chunk in REF_SECONDS."""
    return seconds * chunks * REF_SECONDS / ref_seconds


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", help="write the traced spans here as JSON lines")
    p.add_argument("--workdir", required=True, help="scratch directory for input files")
    args = p.parse_args(argv)
    # one core, so the scheduler does not migrate the measured process
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # dual() warns about uncovered vertices; the tiny inputs may have some
    warnings.simplefilter("ignore")

    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        warm = workloads.build(args.workload, args.seed, "tiny", root)
        warm_failures = run_round(warm)[3]
        if warm_failures:
            raise RuntimeError(f"warm-up failed: {warm_failures}")
        workload = workloads.build(args.workload, args.seed, "full", root)
        del warm
        gc.collect()
        gc.freeze()  # keep the benchmark's own inputs out of the collector's scans
        ready = time.monotonic()
        setup_ref = time_reference(SETUP_REF_CHUNKS)
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_scale": normalised(1.0, setup_ref,
                                                                        SETUP_REF_CHUNKS)}))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        min_rounds = 3 if args.trace else 1
        rounds = []  # (traced, seconds, normalised seconds, failures, counters, layer table)
        t0 = time.monotonic()
        while len(rounds) < min_rounds or time.monotonic() - t0 < args.seconds:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                mark = tracer.mark()
                tracer.install()
                try:
                    secs, ref, chunks, fails, counters = run_round(workload, tracer)
                finally:
                    tracer.uninstall()
                table = tracer.table(mark)
            else:
                secs, ref, chunks, fails, counters = run_round(workload)
                table = None
            rounds.append((traced, secs, normalised(secs, ref, chunks), fails, counters, table))
        if tracer is not None and args.spans_out:
            tracer.write_spans(Path(args.spans_out))
        failures = [f for r in rounds for f in r[3]]
        reference = rounds[0][4]
        mismatches = [f"round {i}: {op}" for i, r in enumerate(rounds) for op in reference
                      if op in r[4] and r[4][op] != reference[op]]
        result = {
            "ready": ready,
            "setup_scale": normalised(1.0, setup_ref, SETUP_REF_CHUNKS),
            "ops_per_round": len(workload),
            "rounds": [{"traced": r[0], "seconds": r[1], "norm_s": r[2], "failed": len(r[3])}
                       for r in rounds],
            "failures": failures[:20],
            "failed": len(failures) + len(mismatches),
            "attempted": len(workload) * len(rounds),
            "counter_mismatches": mismatches[:20],
            "counters": reference,
            "layers": [r[5] for r in rounds if r[0]],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "python": sys.version.split()[0],
        }
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
