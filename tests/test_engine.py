"""Engine worker-count validation, byte accounting and the exact vertex reductions."""

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
    assert stats.phase_name == "ego:gather-pivots"
    # three pivot scalars per incident edge, one 4-clique count per center
    assert stats.bytes_gathered == 8 * 3 * 4 + 8 * 2


def test_byte_counters_identical_across_worker_counts():
    g = er_graph(30, 0.4, np.random.default_rng(2))
    counters = []
    for w in (1, 4):
        engine = Engine(workers=w)
        compute_profile(g, engine)
        ego_parallel(g, range(g.vertex_count), engine=engine)
        counters.append([(s.phase_name, s.bytes_scattered, s.bytes_gathered)
                         for s in engine.phases])
    assert counters[0] == counters[1]


def test_env_thread_fallback(monkeypatch):
    monkeypatch.setenv("TRIPROF_THREADS", "3")
    assert Engine().workers == 3
    monkeypatch.setenv("TRIPROF_THREADS", "junk")
    with pytest.raises(UsageError):
        Engine()


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_rejected(workers):
    with pytest.raises(UsageError, match="at least 1"):
        Engine(workers)


def test_env_worker_count_below_one_rejected(monkeypatch):
    monkeypatch.setenv("TRIPROF_THREADS", "0")
    with pytest.raises(UsageError, match="TRIPROF_THREADS must be at least 1"):
        Engine()
