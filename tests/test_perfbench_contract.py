"""What the benchmark's scripts call in triprof still exists and still works.

``perfbench/tracing.py`` wraps triprof functions by module and name, and the
graph's ``from_edges`` and ``pos_to_edge`` on the class. A rename or deletion
of any of them would break ``perfbench/run.py --trace 1`` without failing any
other test, and so would a change to the ``_pos_to_edge`` cache slot that the
traced ``pos_to_edge`` reads, or to the ``census_terms`` counts that its
counters record. Only the module's ``WRAPPED`` table is read here:
``install`` rebinds functions for the rest of the interpreter and is not
called. ``perfbench/setup_probe.py`` loads a graph and recomputes ego rows
with ``triprof.ego_serial``; it is run here as the benchmark runs it.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from triprof import UndirectedGraph, census_terms, ego_parallel, load_edge_list

from conftest import chung_lu

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


@pytest.mark.parametrize("module, name", wrapped_names())
def test_wrapped_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"triprof.{module}"), name))


def test_graph_hooks_exist():
    assert isinstance(UndirectedGraph.__dict__["from_edges"], classmethod)
    assert isinstance(UndirectedGraph.__dict__["pos_to_edge"], property)
    assert callable(UndirectedGraph.sparse_adjacency)


def test_pos_to_edge_cache_slot(k4):
    """The traced ``pos_to_edge`` reads the private cache slot ``_pos_to_edge``."""
    assert k4._pos_to_edge is None
    table = k4.pos_to_edge
    assert k4._pos_to_edge is table


def test_census_counts(k4):
    """The traced ``census_terms`` records ``wedge_count`` and ``triangle_count``."""
    terms = census_terms(k4)
    assert type(terms.wedge_count) is int and terms.wedge_count == 0
    assert type(terms.triangle_count) is int and terms.triangle_count == 4


def test_setup_probe_prints_loaded_then_ego_serial_rows(tmp_path):
    """The probe prints ``loaded``, then one [label, f0..f3] row per center
    file line, equal to ``ego_parallel``'s table for those centers."""
    graph = tmp_path / "g.txt"
    chung_lu(80, 400, 1.7, seed=11).write_edge_list(graph)
    g = load_edge_list(graph)
    ids = [0, 5, 17, 3, 42]
    centers = tmp_path / "centers.txt"
    centers.write_text("".join(g.label_of(v) + "\n" for v in ids))
    done = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), str(graph),
                           str(centers)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, rows, *rest = done.stdout.split("\n")
    assert loaded == "loaded" and rest == [""]
    table = ego_parallel(g, ids)
    assert json.loads(rows) == [[g.label_of(v), *table[v].as_tuple()] for v in ids]
    assert any(table[v].f3 for v in ids)
