"""Sum-distinguishing labelings of hypergraphs.

Exact minimum max-label solvers at desk scale, randomized and
deterministic labeling algorithms, exact sum-of-uniforms distribution
tools, and seeded instance generators, with a CLI front end.
"""

from .constructive import (DegreeBoundsReport, LeafStat, RepairResult, leaf_stat,
                           repair_labeler, s_star_bounds, tree_labeler)
from .errors import (BudgetExhausted, DimensionError, DualDegenerate, InfeasibleParams,
                     ParamsOutOfRange, ParseError, ShapeError, SumLabelError, TooLarge,
                     ValidationError)
from .exact import SolveResult, exact_irr, exact_s, exact_s_star
from .generators import (ExperimentConfig, ExperimentReport, GeneratedInstance,
                         LowerBoundParams, gen_runiform, lower_bound_instance,
                         lower_bound_params, run_experiment)
from .hypergraph import Graph, Hypergraph, Labeling, edge_sums, is_distinguishing
from .randomized import (PairClassification, QuadraticResult, TwoStepConfig, TwoStepResult,
                         classify_edges, quadratic_random_labeling, step_one_successful,
                         two_step_labeling)
from .transforms import closed_neighborhood_hypergraph, dual, is_vertex_sum_distinguishing
from .uniform_sums import (MergeChecks, Pmf, exact_collision_probability, iter_sum_pmfs,
                           merge_inequality_check, peak_probability_margin, sum_pmf)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted", "DegreeBoundsReport", "DimensionError", "DualDegenerate",
    "ExperimentConfig", "ExperimentReport", "GeneratedInstance", "Graph", "Hypergraph",
    "InfeasibleParams", "Labeling", "LeafStat", "LowerBoundParams", "MergeChecks",
    "PairClassification", "ParamsOutOfRange", "ParseError", "Pmf", "QuadraticResult",
    "RepairResult", "ShapeError", "SolveResult", "SumLabelError", "TooLarge", "TwoStepConfig",
    "TwoStepResult", "ValidationError", "classify_edges",
    "closed_neighborhood_hypergraph", "dual", "edge_sums",
    "exact_collision_probability", "exact_irr", "exact_s", "exact_s_star", "gen_runiform",
    "is_distinguishing", "is_vertex_sum_distinguishing", "iter_sum_pmfs", "leaf_stat",
    "lower_bound_instance", "lower_bound_params", "merge_inequality_check",
    "peak_probability_margin", "quadratic_random_labeling", "repair_labeler", "run_experiment",
    "s_star_bounds", "step_one_successful", "sum_pmf", "tree_labeler",
    "two_step_labeling",
]
