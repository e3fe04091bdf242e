"""Every experiment measure records the mapping the CLI prints for the same
result: a record is the seed, the instance's shape and the fields of the
matching CLI leaf's payload, and an exhausted budget records the error
object the CLI prints at exit 1."""

import json

import pytest

from sumlabel import ExperimentConfig, run_experiment
from sumlabel.cli import main
from sumlabel.experiment import _MEASURES, _instance_for
from sumlabel.formats import serialize_hypergraph

# the CLI-only fields: per-vertex lists, the re-verification, the seed echo
CLI_ONLY = ("labels", "witness", "verified", "seed")

# measure -> a batch that reaches both a result and an exhausted budget
# where the measure has a budget, and the CLI leaf (argv around the
# instance file) that reports one seed's result; "shape" has no leaf
CASES = {
    "exact_s": (ExperimentConfig(kind="complete", measure="exact_s", sizes=(3, 4), seeds=(1,),
                                 node_budget=10),
                lambda cfg, seed: (["solve", "s"], ["--budget", str(cfg.node_budget)])),
    "quadratic": (ExperimentConfig(kind="runiform", measure="quadratic", seeds=(0, 1),
                                   n_vertices=6, uniformity=2, edge_probability=0.6),
                  lambda cfg, seed: (["label", "quadratic"], ["--seed", str(seed)])),
    "two_step": (ExperimentConfig(kind="runiform", measure="two_step", seeds=(0, 1),
                                  n_vertices=6, uniformity=2, edge_probability=0.6,
                                  label_divisor=15),
                 lambda cfg, seed: (["label", "two-step"],
                                    ["--seed", str(seed), "--C", str(cfg.label_divisor)])),
    "shape": (ExperimentConfig(kind="lowerbound", measure="shape", seeds=(3,), n_vertices=50,
                               edge_count=80, eps=0.8), None),
}
# the measures with a budget, and the seeds of CASES where it runs out
EXHAUSTED = {"exact_s": 1, "quadratic": 0, "two_step": 1, "shape": 0}


def test_cases_walk_every_measure():
    assert sorted(CASES) == sorted(_MEASURES) == sorted(EXHAUSTED)


@pytest.mark.parametrize("measure", sorted(CASES))
def test_record_fields_are_the_cli_payload(capsys, tmp_path, measure):
    cfg, leaf = CASES[measure]
    records = run_experiment(cfg).records
    assert sum("error" in r for r in records) == EXHAUSTED[measure]
    path = tmp_path / "instance.hg"
    for r in records:
        h, shape = _instance_for(cfg, r["seed"], r["n"])
        fields = {k: v for k, v in r.items() if k != "seed" and k not in shape}
        if leaf is None:
            assert fields == {}
            continue
        path.write_text(serialize_hypergraph(h))
        before, after = leaf(cfg, r["seed"])
        code = main([*before, str(path), *after])
        payload = json.loads(capsys.readouterr().out)
        # an exhausted budget exits 1 and prints the error object whole
        assert code == (1 if "error" in r else 0)
        if code == 0:
            payload = {k: v for k, v in payload.items() if k not in CLI_ONLY}
        assert fields == payload
