"""The committed benchmark trajectory: one ``BENCH_<workload>.json`` at the
repository root for every workload that ``BENCHMARK.json`` declares.

Each file holds the workload's name and a list of entries, one per measured
commit, with the medians and quartiles of the end-to-end timings over that
commit's ``perfbench/run.py`` runs and the machine they ran on. Only the
files' shape is checked here, never a timing.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
TIMINGS = ("wall_s", "cpu_s", "setup_s")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_file_entries_have_every_key(workload):
    bench = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert bench["workload"] == workload
    assert isinstance(bench["command"], str) and "perfbench/run.py" in bench["command"]
    assert bench["entries"]
    for entry in bench["entries"]:
        commit = entry["commit"]
        assert isinstance(commit, str) and 7 <= len(commit) <= 40
        int(commit, 16)
        assert isinstance(entry["runs"], int) and entry["runs"] >= 1
        assert len(entry["seeds"]) == entry["runs"]
        for name in TIMINGS:
            stats = entry["metrics"][name]
            assert set(stats) == {"median", "q1", "q3"}
            assert all(isinstance(x, float) for x in stats.values())
            assert stats["q1"] <= stats["median"] <= stats["q3"]
        assert isinstance(entry["usable_cpus"], int) and entry["usable_cpus"] >= 1
        assert isinstance(entry["python"], str) and isinstance(entry["numpy"], str)


def test_no_bench_file_without_a_workload():
    names = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert names == sorted(f"BENCH_{w}.json" for w in WORKLOADS)
