"""Engine worker-count validation, the phase recorder, the step pool, byte
accounting and the exact vertex reductions."""

import ast
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from triprof import (Engine, IntegrityError, UsageError, compute_profile, ego_parallel,
                     engine)
from triprof.engine import endpoint_sums
from triprof.profiles import edge_triangle_counts

from conftest import chung_lu, complete_graph, er_graph, star_graph


def segment_sums(vals: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Reference: exact sums of the segments vals[bounds[i]:bounds[i + 1]], along axis 0."""
    out = np.zeros((len(bounds) - 1,) + vals.shape[1:], dtype=vals.dtype)
    for i in range(len(bounds) - 1):
        out[i] = vals[bounds[i]:bounds[i + 1]].sum(axis=0)
    return out


def test_triangle_count_per_edge_over_k4(k4):
    # brute-force oracle: count common neighbors by set intersection
    def brute(u, w):
        return len(set(map(int, k4.neighbors(u))) & set(map(int, k4.neighbors(w))))

    out = list(edge_triangle_counts(k4))
    assert out == [brute(u, w) for u, w in zip(k4.edge_u, k4.edge_w)]
    assert out == [2] * 6


def test_all_ones_reduce_gives_degree(c5):
    ones = np.ones(c5.edge_count, dtype=np.int64)
    assert list(endpoint_sums(c5, ones)) == [2, 2, 2, 2, 2]


def test_star_reduce():
    star = star_graph(3)
    ones = np.ones(star.edge_count, dtype=np.int64)
    assert list(endpoint_sums(star, ones)) == [3, 1, 1, 1]


@pytest.mark.parametrize("build", [
    lambda: complete_graph(4), lambda: star_graph(7), lambda: chung_lu(200, 900, 1.8, seed=2),
], ids=["k4", "star", "chung-lu"])
def test_bincount_and_segment_routes_agree(build):
    g = build()
    rng = np.random.default_rng(5)
    values = rng.integers(0, 1 << 20, g.edge_count)
    sums = endpoint_sums(g, values)
    assert sums.dtype == np.int64
    assert np.array_equal(sums, segment_sums(values[g.pos_to_edge], g.indptr))
    # two sides: each side's values land only on that side's endpoint, so a
    # neighbor-degree sum is the CSR segment sum of the neighbors' degrees
    at_w = rng.integers(0, 1 << 20, g.edge_count)
    rows = np.repeat(np.arange(g.vertex_count), g.degrees)
    e = g.pos_to_edge
    at_row = np.where(g.edge_u[e] == rows, values[e], at_w[e])
    assert np.array_equal(endpoint_sums(g, values, at_w), segment_sums(at_row, g.indptr))
    deg = g.degrees
    assert np.array_equal(endpoint_sums(g, deg[g.edge_w], deg[g.edge_u]),
                          segment_sums(deg[g.indices], g.indptr))


def test_endpoint_sums_reject_negative_values(c5):
    values = np.ones(c5.edge_count, dtype=np.int64)
    values[3] = -2
    with pytest.raises(IntegrityError, match="negative value -2 on edge 3"):
        endpoint_sums(c5, values)


@pytest.mark.parametrize("side", ["u", "w"])
def test_two_sided_sums_reject_a_negative_value_on_either_side(c5, side):
    at_u = np.ones(c5.edge_count, dtype=np.int64)
    at_w = np.ones(c5.edge_count, dtype=np.int64)
    (at_u if side == "u" else at_w)[2] = -5
    (at_w if side == "u" else at_u)[4] = -1  # a later edge: the first one is named
    with pytest.raises(IntegrityError, match="^negative value -5 on edge 2 in an endpoint sum$"):
        endpoint_sums(c5, at_u, at_w)


def test_endpoint_sums_check_exactness_limit(c5, monkeypatch):
    values = np.arange(c5.edge_count, dtype=np.int64)
    top = int(endpoint_sums(c5, values).max())
    monkeypatch.setattr(engine, "BINCOUNT_EXACT_LIMIT", top + 1)
    assert endpoint_sums(c5, values).max() == top
    monkeypatch.setattr(engine, "BINCOUNT_EXACT_LIMIT", top)
    with pytest.raises(IntegrityError, match=f"reaches {top},"):
        endpoint_sums(c5, values)


def test_two_sided_sums_check_exactness_limit(c5, monkeypatch):
    at_u = np.arange(c5.edge_count, dtype=np.int64)
    at_w = 10 * at_u
    top = int(endpoint_sums(c5, at_u, at_w).max())
    assert top > int(endpoint_sums(c5, at_u).max())
    monkeypatch.setattr(engine, "BINCOUNT_EXACT_LIMIT", top + 1)
    assert endpoint_sums(c5, at_u, at_w).max() == top
    monkeypatch.setattr(engine, "BINCOUNT_EXACT_LIMIT", top)
    with pytest.raises(IntegrityError, match=f"reaches {top},"):
        endpoint_sums(c5, at_u, at_w)


def test_reduce_vector_records(c5):
    per_edge = np.tile([1, 2], (c5.edge_count, 1)).astype(np.int64)
    acc = segment_sums(per_edge[c5.pos_to_edge], c5.indptr)
    assert acc.shape == (5, 2)
    assert np.all(acc == [2, 4])


def test_gather_byte_accounting(c5):
    engine = Engine(workers=2)
    ego_parallel(c5, [0, 2], engine=engine)
    stats = engine.phases[-1]
    assert stats["name"] == "ego:gather-pivots"
    # three pivot scalars per incident edge, one 4-clique count per center
    assert stats["bytes_gathered"] == 8 * 3 * 4 + 8 * 2


def test_byte_counters_identical_across_worker_counts():
    g = er_graph(30, 0.4, np.random.default_rng(2))
    counters = []
    for w in (1, 4):
        engine = Engine(workers=w)
        compute_profile(g, engine)
        ego_parallel(g, range(g.vertex_count), engine=engine)
        counters.append([(s["name"], s["bytes_scattered"], s["bytes_gathered"])
                         for s in engine.phases])
    assert counters[0] == counters[1]


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_rejected(workers):
    with pytest.raises(UsageError, match="at least 1"):
        Engine(workers)


class TestWorkerCount:
    def test_default_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert Engine().workers == 3
        assert engine.usable_cpus() == 3

    def test_default_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert Engine().workers == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert Engine().workers == 1

    def test_environment_sets_no_worker_count(self, monkeypatch, k4):
        """Only ``Engine(workers)`` sets the count: a variable in the
        environment, however malformed, changes nothing."""
        monkeypatch.setenv("TRIPROF_THREADS", "junk")
        assert Engine().workers == engine.usable_cpus()
        assert compute_profile(k4)[0].as_tuple() == (0, 0, 0, 4)


class CountingThread(threading.Thread):
    started = 0

    def start(self):
        CountingThread.started += 1
        super().start()


def ones_per_step(acc, s):
    acc[0][s] += 1
    acc[1][...] += s


@pytest.mark.parametrize("workers, steps, cpus, threads", [
    (1, 10, 8, 0),  # one worker: a plain loop
    (8, 10, 2, 1),  # capped by the usable CPUs
    (8, 3, 8, 2),   # capped by the step count
    (3, 10, 8, 2),  # the worker count
    (4, 0, 8, 0),   # no steps
])
def test_pool_thread_count(monkeypatch, workers, steps, cpus, threads):
    """min(workers, steps, CPUs) workers run; the calling thread is one of
    them, so one thread fewer is started."""
    monkeypatch.setattr(engine, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    CountingThread.started = 0
    per_step, step_sum = Engine(workers).sum_steps(steps, [steps, ()], ones_per_step)
    assert CountingThread.started == threads
    assert per_step.tolist() == [1] * steps  # each step ran once
    assert step_sum == sum(range(steps))


def test_workers_take_every_wth_step(monkeypatch):
    monkeypatch.setattr(engine, "usable_cpus", lambda: 3)
    taken = {}

    def record(acc, s):
        taken.setdefault(threading.current_thread().name, []).append(s)
        acc[0][s] = s

    out, = Engine(3).sum_steps(8, [8], record)
    assert out.tolist() == list(range(8))
    assert taken[threading.current_thread().name] == [0, 3, 6]
    assert sorted(taken.values()) == [[0, 3, 6], [1, 4, 7], [2, 5]]


def test_step_error_raised_after_every_worker_stops(monkeypatch):
    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    done = []

    def fail_on_step_3(acc, s):
        if s == 3:
            raise IntegrityError("step 3 failed")
        done.append(s)

    before = threading.active_count()
    with pytest.raises(IntegrityError, match="step 3 failed"):
        Engine(2).sum_steps(6, [()], fail_on_step_3)
    assert threading.active_count() == before
    assert sorted(done) == [0, 1, 2, 4]  # worker 1 stopped at step 3, worker 0 ran on


def test_more_workers_than_cores_with_frequent_switches(monkeypatch):
    """Four workers on any machine, switching threads every microsecond: no
    step's additions are lost or doubled, in the pool or the kernel."""
    from triprof import profiles

    g = chung_lu(300, 2500, 1.6, seed=7)
    want = edge_triangle_counts(g, Engine(1))
    monkeypatch.setattr(engine, "usable_cpus", lambda: 4)
    monkeypatch.setattr(profiles, "PAIR_BUDGET", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        per_step, step_sum = Engine(4).sum_steps(3000, [3000, ()], ones_per_step)
        got = edge_triangle_counts(g, Engine(4))
    finally:
        sys.setswitchinterval(interval)
    assert per_step.tolist() == [1] * 3000
    assert step_sum == sum(range(3000))
    assert np.array_equal(got, want) and want.sum() > 0


def test_openblas_threads_default_to_one():
    """Importing triprof sets OPENBLAS_NUM_THREADS to 1 before numpy loads,
    unless the caller has set it."""
    script = "import triprof, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for value, expect in ((None, "1"), ("3", "3")):
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == expect


def test_raising_phase_logs_nothing():
    engine = Engine(1)
    with pytest.raises(IntegrityError):
        with engine.phase("doomed", bytes_scattered=8):
            raise IntegrityError("phase failed")
    assert engine.phases == []


def test_nested_phases_log_inner_first():
    engine = Engine(1)
    with engine.phase("outer"):
        with engine.phase("inner"):
            sum(range(10_000))
    inner, outer = engine.phases
    assert (inner["name"], outer["name"]) == ("inner", "outer")
    assert outer["seconds"] >= inner["seconds"] >= 0


def test_bytes_set_on_the_entry_are_logged():
    engine = Engine(1)
    with engine.phase("run", bytes_scattered=3) as entry:
        entry.update(bytes_gathered=16)
    assert engine.phases == [{"name": "run", "seconds": entry["seconds"],
                              "bytes_scattered": 3, "bytes_gathered": 16}]


def test_phase_entries_have_the_report_keys(c5):
    """Each logged entry has exactly the keys README's report shape lists for
    a phase, so the CLI writes the log as it is."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"^phases \(each\):\s*\{([^}]*)\}", readme, re.M).group(1)
    keys = {key.strip() for key in listed.split(",")}
    engine = Engine(1)
    compute_profile(c5, engine)
    ego_parallel(c5, [0], engine=engine)
    assert len(engine.phases) == 4
    for entry in engine.phases:
        assert set(entry) == keys == {"name", "seconds", "bytes_scattered", "bytes_gathered"}


def test_one_phase_clock():
    """``Engine.phase`` is the package's one phase clock: ``time`` is read only
    there and in ``cli.main``'s report clock (``elapsed_seconds``). Spans with
    children, RSS and counters (ROADMAP item 1) extend this one recorder
    rather than adding a clock beside it."""
    allowed = {("engine.py", "Engine.phase"), ("cli.py", "main")}
    found, importers = set(), set()

    def visit(node, file, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.ImportFrom) and child.module == "time":
                found.add((file, scope, "from time import"))
            if isinstance(child, ast.Import) and any(a.name == "time" for a in child.names):
                importers.add(file)
            if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                    and child.value.id == "time"):
                found.add((file, scope, child.attr))
            visit(child, file, inner)

    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    assert importers == {file for file, _ in allowed}
    assert found == {(file, scope, "perf_counter") for file, scope in allowed}


def test_environment_read_only_for_the_blas_default():
    """No run setting comes from the environment: under ``src/triprof`` the
    one use of ``os.environ`` or ``os.getenv`` is ``__init__.py``'s
    OPENBLAS_NUM_THREADS default."""
    names = {"environ", "getenv"}
    found = []
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "os" and node.attr in names):
                found.append((path.name, node.attr))
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(path.name, a.name) for a in node.names if a.name in names]
    assert found == [("__init__.py", "environ")]
