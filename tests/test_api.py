"""The package's public names: the five commands' path, plus the references
re-exported from ``triprof.oracle`` for the benchmark's set-up probe.

A name added to or dropped from ``triprof.__all__`` changes this test, so any
growth of the API shows up as a diff here.
"""

import importlib

import triprof
from triprof import oracle

PUBLIC = {
    "UndirectedGraph", "load_edge_list", "Engine",
    "ProfileVector", "LocalProfile", "scatter_edge_scalars", "gather_local_profiles",
    "global_profile_from_local", "compute_profile", "count_triangles_only",
    "SampleParams", "sample_mask", "subgraph_from_mask", "unbiased_estimate",
    "EgoProfile", "EgoTable", "ego_serial", "ego_parallel",
    "EdgeExtremes", "PolynomialValues", "TheoremReport", "edge_extremes",
    "census_terms", "evaluate_polynomials", "check_theorem_conditions",
    "UsageError", "ParseError", "IntegrityError",
}

# reference routes that no command but ``oracle`` runs
REFERENCES = ("ego_serial", "induced_subgraph", "transition_matrix",
              "expected_sampled_profile", "_transition_rows")


def test_all_is_pinned_and_resolves():
    assert len(triprof.__all__) == len(set(triprof.__all__))
    assert set(triprof.__all__) == PUBLIC
    for name in triprof.__all__:
        assert getattr(triprof, name) is not None, name


def test_references_live_in_oracle():
    for name in REFERENCES:
        assert getattr(oracle, name).__module__ == "triprof.oracle", name
    assert triprof.ego_serial is oracle.ego_serial
    for module in ("graph", "ego", "sampling"):
        defined = vars(importlib.import_module(f"triprof.{module}"))
        assert not set(REFERENCES) & set(defined), module
