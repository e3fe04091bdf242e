#!/usr/bin/env python3
"""Probe the hard-instance generator at desk scale.

Generates r-uniform cores at several (n, m, eps) shapes, reports their
structure, and (for cores small enough) the exact minimum max label of
seeded 2-uniform samples, so the growth of s with density is visible on
instances a laptop can solve.

Usage: python scripts/probe_hard_instances.py [--seeds K]
"""

import argparse

from sumlabel import (ExperimentConfig, ParamsOutOfRange, lower_bound_instance,
                      lower_bound_params, run_experiment)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10, help="seeds per configuration")
    args = parser.parse_args()

    print("== hard-instance shapes ==")
    for n, m, eps in ((100, 100, 0.9), (50, 80, 0.8), (40, 50, 0.95), (200, 300, 0.85)):
        gen = lower_bound_instance(n, m, eps, seed=7)
        # the paper's edge probability at the core's (r, N), when it is one
        try:
            params = lower_bound_params(gen.uniformity, gen.core_vertex_count)
            prob = f"p={params.edge_probability:.3f}"
        except ParamsOutOfRange:
            prob = "p>1"
        print(f"n={n:4d} m={m:4d} eps={eps:.2f} -> r={gen.uniformity} "
              f"core={gen.core_vertex_count:3d} padding={gen.padding_vertices:3d} {prob}")

    print("\n== exact s on tiny dense 2-uniform samples ==")
    for n, p in ((5, 0.6), (6, 0.8), (6, 0.95)):
        config = ExperimentConfig(kind="runiform", measure="exact_s",
                                  seeds=tuple(range(args.seeds)),
                                  n_vertices=n, uniformity=2, edge_probability=p)
        report = run_experiment(config)
        ms = [r["m"] for r in report.records]
        print(f"N={n} p={p:.1f}: edges {min(ms)}..{max(ms)}, "
              f"s min/median/max = {report.summary.get('min_s')}/"
              f"{report.summary.get('median_s')}/{report.summary.get('max_s')} "
              f"({report.elapsed:.2f}s)")

    print("\n== complete hypergraphs (every nonempty subset) ==")
    report = run_experiment(ExperimentConfig(kind="complete", measure="exact_s", sizes=(2, 3, 4)))
    for rec in report.records:
        print(f"n={rec['n']}: m={rec['m']:3d}, s={rec['optimum']}")


if __name__ == "__main__":
    main()
