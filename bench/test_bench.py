"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import inspect
import json
import re
import shutil
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import sumlabel  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_round  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def snapshot_bindings() -> dict[tuple[str, str], int]:
    """Identity of every public sumlabel binding, for checking uninstall."""
    snap = {}
    package = tracing.PACKAGE
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not tracing._ours(obj):
                continue
            snap[(name, attr)] = id(obj)
            if inspect.isclass(obj):
                for cattr, desc in vars(obj).items():
                    if cattr == "__init__" or isinstance(desc, cached_property):
                        snap[(f"{name}.{attr}", cattr)] = id(desc)
    return snap


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for workload, entry in run.LAYER_MAP.items():
        assert set(entry["moves"]) <= set(e2e)
        assert set(entry["layers"]) <= set(layers), workload


def test_tracer_wraps_every_binding_and_removes_all_wrappers():
    import sumlabel.cli  # noqa: F401  (the CLI module is traced too)

    before = snapshot_bindings()
    t = tracing.Tracer()
    t.install()
    try:
        during = snapshot_bindings()
        h = sumlabel.Hypergraph(3, [{0}, {0, 1}, {1, 2}])
        assert sumlabel.is_distinguishing(h, sumlabel.Labeling([1, 2, 4]))
        assert sumlabel.exact.is_distinguishing is sumlabel.is_distinguishing
    finally:
        t.uninstall()
    assert snapshot_bindings() == before
    changed = {k for k in before if before[k] != during[k]}
    # functions at every module that binds them, constructors and cached properties
    for key in [("sumlabel", "exact_s"), ("sumlabel.exact", "is_distinguishing"),
                ("sumlabel.cli", "main"), ("sumlabel.hypergraph.Hypergraph", "__init__"),
                ("sumlabel.hypergraph.Hypergraph", "incidence")]:
        assert key in changed, key

    names = [s[0] for s in t.spans]
    assert names.count("hypergraph.Hypergraph") == 1
    outer = names.index("hypergraph.is_distinguishing")
    inner = names.index("hypergraph.edge_sums")
    span_outer, span_inner = t.spans[outer], t.spans[inner]
    assert span_inner[3] == outer  # parent link
    assert span_outer[5] <= span_outer[2] - span_outer[1] - (span_inner[2] - span_inner[1]) + 1e-9
    assert t.counters["hypergraph.edges_built"] == 3


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_correctness_gate(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    w = workloads.build(name, 7, "tiny", tmp_path / "a")
    _, ref, chunks, failures, counters = run_round(w)
    assert failures == [] and ref > 0 and chunks >= len(w)
    assert set(counters) == {op.name for op in w}
    # a second run in another directory repeats every deterministic counter
    assert run_round(workloads.build(name, 7, "tiny", tmp_path / "b"))[4] == counters

    t = tracing.Tracer()
    mark = t.mark()
    t.install()
    try:
        *_, traced_failures, traced_counters = run_round(w, t)
    finally:
        t.uninstall()
    assert traced_failures == [] and traced_counters == counters
    table = t.table(mark)
    for key in table:
        assert NAME.fullmatch(key), key
    layers = run.layer_metrics([table], [1.0], [1.1])
    assert set(layers) == set(run.PER_LAYER)


def test_gate_rejects_a_wrong_optimum(tmp_path, monkeypatch):
    w = workloads.build("exact_search", 7, "tiny", tmp_path)
    real = sumlabel.exact_s

    def off_by_one(h, *args, **kwargs):
        res = real(h, *args, **kwargs)
        res.optimum += 1
        return res
    monkeypatch.setattr(sumlabel, "exact_s", off_by_one)
    failures = run_round(w)[3]
    assert any("expected" in f for f in failures)


def test_every_round_starts_with_cold_library_caches(tmp_path):
    w = workloads.build("probability", 7, "tiny", tmp_path)
    cached = sumlabel.uniform_sums._decrease_holds
    run_round(w)
    first = cached.cache_info()
    run_round(w)
    assert first.misses > 0 and cached.cache_info() == first


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_one_result_line(tmp_path):
    proc = _run(["--workload", "exact_search", "--seed", "3", "--seconds", "3",
                 "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, m in result["metrics"].items():
        assert m["unit"] == run.END_TO_END[name] and m["value"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "bulk_io", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    parent = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    assert compare.verdict(parent, {s: v * 0.8 for s, v in parent.items()}, 0.1,
                           "lower") == "improved"
    assert compare.verdict(parent, {s: v * 1.3 for s, v in parent.items()}, 0.1,
                           "lower") == "worse"
    assert compare.verdict(parent, dict(parent), 0.1, "lower") == "within bound"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), 0.1, "lower") == "unresolved"
