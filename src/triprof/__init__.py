"""triprof: exact and edge-sampled 3-profiles of undirected graphs.

A 3-profile counts, for every vertex triple, which of the four 3-vertex
configurations it induces (empty, one edge, wedge, triangle). The package
computes it exactly at three resolutions (global, per-vertex, per-ego-center),
estimates it without bias from a Bernoulli edge sample, checks the sampling
feasibility conditions, and ships reference routes (``triprof.oracle``) that
verify every count at desk scale.

The public names resolve on first use (PEP 562): ``import triprof`` loads no
submodule, and each name imports only the submodule that defines it, so
``triprof.load_edge_list`` brings in ``graph``, ``engine`` and ``errors``
alone.
"""

import importlib
import os

# triprof calls no BLAS routine, and OpenBLAS's idle threads spin on every
# core; one thread, unless the caller chose otherwise, before numpy loads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SOURCE = {
    "UndirectedGraph": "graph", "load_edge_list": "graph",
    "Engine": "engine",
    "ProfileVector": "profiles", "LocalProfile": "profiles",
    "scatter_edge_scalars": "profiles", "gather_local_profiles": "profiles",
    "global_profile_from_local": "profiles", "compute_profile": "profiles",
    "count_triangles_only": "profiles",
    "SampleParams": "sampling", "sample_mask": "sampling",
    "subgraph_from_mask": "sampling", "unbiased_estimate": "sampling",
    "EgoProfile": "ego", "EgoTable": "ego", "ego_serial": "oracle", "ego_parallel": "ego",
    "EdgeExtremes": "theory", "PolynomialValues": "theory", "TheoremReport": "theory",
    "edge_extremes": "theory", "census_terms": "theory", "evaluate_polynomials": "theory",
    "check_theorem_conditions": "theory",
    "UsageError": "errors", "ParseError": "errors", "IntegrityError": "errors",
}

__all__ = list(_SOURCE)


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
