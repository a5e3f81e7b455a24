"""Engine determinism and byte-accounting contracts."""

import numpy as np
import pytest

from triprof import (Engine, UsageError, common_neighbors, parallel_edge_map,
                     parallel_vertex_reduce)

from conftest import star_graph


def test_constant_map_over_c5(c5):
    out = parallel_edge_map(c5, lambda e: 1)
    assert out == [1, 1, 1, 1, 1]


def test_triangle_count_per_edge_over_k4(k4):
    # brute-force oracle: count common neighbors by set intersection
    def brute(e):
        return len(set(map(int, k4.neighbors(e.u))) & set(map(int, k4.neighbors(e.w))))

    out = parallel_edge_map(k4, lambda e: len(common_neighbors(k4, e.u, e.w)))
    assert out == [brute(k4.edge_ref(i)) for i in range(k4.edge_count)]
    assert out == [2] * 6


def test_edge_map_identical_across_worker_counts():
    rng = np.random.default_rng(1)
    from conftest import er_graph

    g = er_graph(40, 0.3, rng)
    results = [
        parallel_edge_map(g, lambda e: (e.u, e.w, e.index), engine=Engine(workers=w))
        for w in (1, 8)
    ]
    assert results[0] == results[1]


def test_all_ones_reduce_gives_degree(c5):
    acc = parallel_vertex_reduce(c5, np.ones(c5.edge_count, dtype=np.int64))
    assert list(acc) == [2, 2, 2, 2, 2]


def test_star_reduce():
    star = star_graph(3)
    acc = parallel_vertex_reduce(star, np.ones(star.edge_count, dtype=np.int64))
    assert list(acc) == [3, 1, 1, 1]


def test_reduce_vector_records(c5):
    per_edge = np.tile([1, 2], (c5.edge_count, 1)).astype(np.int64)
    acc = parallel_vertex_reduce(c5, per_edge)
    assert acc.shape == (5, 2)
    assert np.all(acc == [2, 4])


def test_generic_combine_matches_vectorized(c5):
    records = [(i, i * i) for i in range(c5.edge_count)]
    generic = parallel_vertex_reduce(c5, records)
    arr = parallel_vertex_reduce(c5, np.array(records, dtype=np.int64))
    assert [tuple(r) for r in arr] == [tuple(r) for r in generic]


def test_custom_combine_worker_invariance():
    rng = np.random.default_rng(2)
    from conftest import er_graph

    g = er_graph(30, 0.4, rng)
    records = [int(x) for x in rng.integers(0, 100, size=g.edge_count)]
    outs = [
        parallel_vertex_reduce(g, records, combine=lambda a, b: a + b,
                               engine=Engine(workers=w))
        for w in (1, 6)
    ]
    assert outs[0] == outs[1]


def test_reduce_length_mismatch_rejected(c5):
    with pytest.raises(UsageError):
        parallel_vertex_reduce(c5, np.ones(3, dtype=np.int64))


def test_gather_byte_accounting(c5):
    engine = Engine(workers=2)
    per_edge = np.ones((c5.edge_count, 3), dtype=np.int64)
    parallel_vertex_reduce(c5, per_edge, engine=engine)
    stats = engine.phases[-1]
    assert stats.bytes_gathered == 2 * c5.edge_count * 3 * 8


def test_byte_counters_identical_across_worker_counts(c5):
    counters = []
    for w in (1, 4):
        engine = Engine(workers=w)
        parallel_edge_map(c5, lambda e: e.index, engine=engine)
        parallel_vertex_reduce(c5, np.ones(c5.edge_count, dtype=np.int64), engine=engine)
        counters.append([(s.bytes_scattered, s.bytes_gathered) for s in engine.phases])
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
