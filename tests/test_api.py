"""The package's public names: the five commands' path, plus the references
re-exported from ``triprof.oracle`` for the benchmark's set-up probe.

A name added to or dropped from ``triprof.__all__`` changes this test, so any
growth of the API shows up as a diff here.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_names_load_their_submodule_on_first_use(tmp_path):
    """A fresh ``import triprof`` loads no submodule, and ``load_edge_list``
    brings in only the modules the load runs; every other name still
    imports, and ``dir`` lists every public name."""
    path = tmp_path / "k3.txt"
    path.write_text("1 2\n2 3\n3 1\n")
    script = ("import json, sys\n"
              "import triprof\n"
              "bare = sorted(m for m in sys.modules if m.startswith('triprof'))\n"
              f"g = triprof.load_edge_list({str(path)!r})\n"
              "loaded = sorted(m for m in sys.modules if m.startswith('triprof'))\n"
              "from triprof import ego_parallel\n"
              "print(json.dumps([bare, loaded, g.edge_count, callable(ego_parallel),\n"
              "                  sorted(set(triprof.__all__) - set(dir(triprof)))]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    bare, loaded, edges, imported, undisclosed = json.loads(proc.stdout)
    assert bare == ["triprof"]
    assert loaded == ["triprof", "triprof.engine", "triprof.errors", "triprof.graph"]
    assert edges == 3 and imported
    assert undisclosed == []
