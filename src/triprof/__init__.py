"""triprof: exact and edge-sampled 3-profiles of undirected graphs.

A 3-profile counts, for every vertex triple, which of the four 3-vertex
configurations it induces (empty, one edge, wedge, triangle). The package
computes it exactly at three resolutions (global, per-vertex, per-ego-center),
estimates it without bias from a Bernoulli edge sample, checks the sampling
feasibility conditions, and ships brute-force oracles that verify every count
at desk scale.
"""

import os

# triprof calls no BLAS routine, and OpenBLAS's idle threads spin on every
# core; one thread, unless the caller chose otherwise, before numpy loads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .ego import EgoProfile, EgoTable, ego_parallel, ego_serial
from .engine import Engine, PhaseStats
from .errors import IntegrityError, ParseError, UsageError
from .graph import UndirectedGraph, induced_subgraph, load_edge_list
from .profiles import (LocalProfile, ProfileVector, compute_profile, count_triangles_only,
                       gather_local_profiles, global_profile_from_local, scatter_edge_scalars)
from .sampling import (SampleParams, expected_sampled_profile, sample_mask,
                       subgraph_from_mask, transition_matrix, unbiased_estimate)
from .theory import (EdgeExtremes, PolynomialValues, TheoremReport,
                     check_theorem_conditions, census_terms, edge_extremes,
                     evaluate_polynomials)

__version__ = "0.1.0"

__all__ = [
    "UndirectedGraph", "induced_subgraph", "load_edge_list",
    "Engine", "PhaseStats",
    "ProfileVector", "LocalProfile", "scatter_edge_scalars",
    "gather_local_profiles", "global_profile_from_local", "compute_profile",
    "count_triangles_only",
    "SampleParams", "sample_mask", "subgraph_from_mask",
    "transition_matrix", "unbiased_estimate", "expected_sampled_profile",
    "EgoProfile", "EgoTable", "ego_serial", "ego_parallel",
    "EdgeExtremes", "PolynomialValues", "TheoremReport", "edge_extremes",
    "census_terms", "evaluate_polynomials", "check_theorem_conditions",
    "UsageError", "ParseError", "IntegrityError",
]
