"""Tests for the benchmark's own code: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- generators ------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda seed: inputs.community_pairs(2_000, 8_000, seed),
    lambda seed: inputs.chung_lu_pairs(3_000, 10_000, 1.6, seed),
])
def test_generators_are_deterministic(make):
    assert inputs.edge_digest(make(5)) == inputs.edge_digest(make(5))
    assert inputs.edge_digest(make(5)) != inputs.edge_digest(make(6))


def test_community_copy_matches_test_helper():
    conftest = ROOT / "tests" / "conftest.py"
    if not conftest.exists():
        pytest.skip("tests/conftest.py is not in this checkout")
    sys.path.insert(0, str(conftest.parent))
    try:
        from conftest import community_graph
    finally:
        sys.path.remove(str(conftest.parent))
    for args in ((1_000, 4_000, 7), (5_000, 12_000, 3)):
        g = community_graph(*args)
        u, w = inputs.canonical_edges(inputs.community_pairs(*args))
        assert np.array_equal(u, g.edge_u) and np.array_equal(w, g.edge_w)


def test_desk_recipe_has_pinned_stats():
    assert inputs.graph_stats(W.DESK.pairs()) == W.STATS[W.DESK.key]


def test_relabeling_changes_the_file_but_not_the_profile(tmp_path):
    import triprof

    pairs = inputs.community_pairs(300, 1_200, 1)
    texts = [inputs.edge_list_text(pairs, inputs.relabeling(pairs, s)) for s in (1, 1, 2)]
    assert texts[0] == texts[1] != texts[2]
    profiles = []
    for i, text in enumerate(texts[1:]):
        path = tmp_path / f"g{i}.txt"
        path.write_text(text)
        profiles.append(triprof.compute_profile(triprof.load_edge_list(path))[0])
    assert profiles[0] == profiles[1]


def test_cached_pairs_refuses_unexpected_stats(tmp_path):
    recipe = inputs.Recipe("community", 500, 2_000, seed=1)
    with pytest.raises(ValueError):
        inputs.cached_pairs(recipe, tmp_path, {"edges": -1})
    assert not list(tmp_path.iterdir())
    stats = inputs.graph_stats(recipe.pairs())
    assert np.array_equal(inputs.cached_pairs(recipe, tmp_path, stats), recipe.pairs())


# -- output checks ---------------------------------------------------------

def _graph_block(w):
    stats = W.STATS[w.recipe.key]
    return {"path": "g.txt", "vertices": stats["vertices"], "edges": stats["edges"]}


def _ok(w, report, tsv=None, base_of=int):
    checks.check_operation(w, json.dumps(report), tsv, base_of)


def _rejected(w, text, tsv=None, base_of=int):
    with pytest.raises(checks.CheckError):
        checks.check_operation(w, text, tsv, base_of)


def test_exact_check_rejects_flipped_count_and_nan():
    w = W.WORKLOADS["skewed-exact"]
    report = {"command": "profile", "graph": _graph_block(w),
              "global": dict(W.EXACT[w.recipe.key]), "elapsed_seconds": 1.0}
    _ok(w, report)
    flipped = json.loads(json.dumps(report))
    flipped["global"]["n3"] += 1
    _rejected(w, json.dumps(flipped))
    _rejected(w, json.dumps(report).replace("1.0", "NaN"))
    _rejected(w, json.dumps(report).replace("1.0", "-Infinity"))


def test_sampled_check_rejects_far_estimate_and_wrong_run_count():
    w = W.WORKLOADS["clustered-sampled"]
    exact = W.EXACT[w.recipe.key]
    runs = [{"seed": 7 + i, "estimate": {k: float(v) * 1.01 for k, v in exact.items()}}
            for i in range(10)]
    report = {"graph": _graph_block(w), "sampling": {"p": 0.3, "seed": 7, "runs": 10},
              "runs": runs}
    _ok(w, report)
    assert checks.max_rel_err(report, w) == pytest.approx(0.01)
    far = json.loads(json.dumps(report))
    far["runs"][4]["estimate"]["n2"] *= 1.5
    _rejected(w, json.dumps(far))
    short = json.loads(json.dumps(report))
    short["runs"].pop()
    _rejected(w, json.dumps(short))


def test_ego_check_rejects_missing_row_and_flipped_count():
    w = W.WORKLOADS["clustered-ego"]
    lines = ["center\tf0\tf1\tf2\tf3"] + [f"{v}\t{v % 7}\t3\t2\t1" for v in range(20_000)]
    tsv = "\n".join(lines) + "\n"
    digest = checks.ego_digest(checks.ego_rows(tsv, int))
    report = {"graph": _graph_block(w), "centers": 20_000}
    checks.check_ego(report, tsv, int, w, expected_digest=digest)
    missing = "\n".join(lines[:-1]) + "\n"
    with pytest.raises(checks.CheckError):
        checks.check_ego(report, missing, int, w, expected_digest=digest)
    flipped = tsv.replace("\n5\t5\t3\t2\t1\n", "\n5\t5\t3\t2\t2\n")
    assert flipped != tsv
    with pytest.raises(checks.CheckError):
        checks.check_ego(report, flipped, int, w, expected_digest=digest)
    with pytest.raises(checks.CheckError):  # the real pinned digest
        checks.check_ego(report, tsv, int, w)
    _rejected(w, json.dumps(report).replace("20000", "NaN"), tsv)


def test_ego_cross_check_rejects_a_differing_row():
    rows = [(1, 0, 1, 2, 3), (2, 4, 5, 6, 7)]
    checks.check_cross(rows, [[2, 4, 5, 6, 7]])
    with pytest.raises(checks.CheckError):
        checks.check_cross(rows, [[2, 4, 5, 6, 8]])


def test_polys_check_rejects_flipped_value_residual_and_nan():
    w = W.WORKLOADS["desk-polys"]
    runs = [{"seed": 3 + i, "identity_residuals": [0, 0],
             "values": {"y0": 10, "y1": 9, "y2": 8, "y3": 7 + i}} for i in range(20)]
    digest = checks.polys_digest(runs)
    report = {"graph": _graph_block(w), "runs": runs}
    checks.check_polys(report, w, expected_digest=digest)
    flipped = json.loads(json.dumps(report))
    flipped["runs"][3]["values"]["y3"] += 1
    with pytest.raises(checks.CheckError):
        checks.check_polys(flipped, w, expected_digest=digest)
    residual = json.loads(json.dumps(report))
    residual["runs"][0]["identity_residuals"] = [0, 1]
    with pytest.raises(checks.CheckError):
        checks.check_polys(residual, w, expected_digest=digest)
    _rejected(w, json.dumps(report).replace('"y0": 10', '"y0": NaN', 1))


# -- metric names ----------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_match_the_spec():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    for name in e2e + layers + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name
    assert e2e == list(run.END_TO_END)
    assert layers == list(tracing.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


PARENT_MEASURED = {"trace.overhead_s", "sampling.max_rel_err", "machine.ref_s"}


# the time each workload's own layer must show when the CLI is traced
LAYER_OF = {"skewed-exact": "profiles.edge_triangle_counts_s",
            "clustered-sampled": "sampling.sampled_profile_s",
            "clustered-ego": "ego.ego_parallel_s",
            "desk-polys": "theory.census_terms_s"}


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_traced_cli_call_emits_every_layer_metric(workload, tmp_path):
    pairs = inputs.community_pairs(400, 2_000, 2)
    graph = tmp_path / "g.txt"
    graph.write_text(inputs.edge_list_text(pairs, inputs.relabeling(pairs, 0)))
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracing.py"), workload, str(graph), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "done\n"
    spans = json.loads((tmp_path / "trace.json").read_text())
    assert all(s["end"] >= s["start"] for s in spans)
    metrics = tracing.layer_metrics(spans)
    assert set(metrics) | PARENT_MEASURED == set(tracing.LAYER_METRICS)
    assert metrics["graph.edges"] == len(inputs.canonical_edges(pairs)[0])
    assert metrics["cli.import_s"] > 0 and metrics["graph.load_edge_list_s"] > 0
    assert metrics["graph.from_edges_s"] > 0 and metrics[LAYER_OF[workload]] > 0
    assert metrics["engine.kernel_t1_s"] > 0 and metrics["profiles.full_over_tri"] > 0
    main = next(s for s in spans if s["name"] == "cli.main")
    assert 0 < metrics["graph.load_edge_list_s"] < main["end"] - main["start"]
    assert metrics["graph.parse_s"] > 0
    report = checks.strict_json((tmp_path / "report.json").read_text())
    assert report["graph"]["edges"] == metrics["graph.edges"]


# -- the benchmark without the program -------------------------------------

def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-polys", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
