"""Sampling determinism, the transition system, and estimator unbiasedness."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triprof import (Engine, ProfileVector, SampleParams, UsageError, compute_profile,
                     sample_mask, subgraph_from_mask, unbiased_estimate)
from triprof.oracle import expected_sampled_profile, transition_matrix
from triprof.profiles import orient
from triprof.sampling import estimate_profile

from conftest import er_graph, load_text


class TestSampleEdges:
    def test_p_one_keeps_everything(self, c5):
        mask = sample_mask(c5, SampleParams(1.0, 99))
        sub = subgraph_from_mask(c5, mask)
        assert mask.all()
        assert sub.edge_count == c5.edge_count

    def test_same_seed_is_identical(self, c5):
        m1 = sample_mask(c5, SampleParams(0.5, 1234))
        m2 = sample_mask(c5, SampleParams(0.5, 1234))
        assert np.array_equal(m1, m2)

    def test_subgraph_keeps_vertex_set(self, c5):
        mask = sample_mask(c5, SampleParams(0.5, 3))
        sub = subgraph_from_mask(c5, mask)
        assert sub.vertex_count == c5.vertex_count
        assert sub.edge_count == int(mask.sum())

    def test_subgraph_leaves_the_source_labels_undecoded(self):
        g = load_text(b"hub a\nhub b\na b\nb caf\xc3\xa9\n")
        assert not isinstance(g._labels, list)  # still joined bytes
        mask = np.array([True, False, True, True])
        sub = subgraph_from_mask(g, mask)
        assert not isinstance(g._labels, list)
        assert sub.labels == g.labels == ["hub", "a", "b", "caf\u00e9"]
        assert sub.edge_count == 3 and sub.vertex_count == 4

    def test_binomial_mean_over_seed_sweep(self, c5):
        kept = [int(sample_mask(c5, SampleParams(0.5, s)).sum()) for s in range(10_000)]
        mean = np.mean(kept)
        se = math.sqrt(5 * 0.25) / math.sqrt(10_000)
        assert abs(mean - 2.5) <= 3 * se

    def test_invalid_p_rejected(self, c5):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(UsageError):
                SampleParams(bad, 0)


class TestTransitionMatrix:
    def test_identity_at_p_one(self):
        assert np.allclose(transition_matrix(1.0), np.eye(4))

    def test_triangle_column_at_half(self):
        col = transition_matrix(0.5)[:, 3]
        assert np.allclose(col, [0.125, 0.375, 0.375, 0.125])

    def test_upper_triangular(self):
        m = transition_matrix(0.3)
        assert np.allclose(m, np.triu(m))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1.0))
    def test_columns_sum_to_one(self, p):
        assert np.allclose(transition_matrix(p).sum(axis=0), 1.0)


class TestExpectedSampledProfile:
    def test_k4_at_half(self, k4):
        prof, _ = compute_profile(k4)
        expect = expected_sampled_profile(prof, 0.5)
        assert expect.as_floats() == (0.5, 1.5, 1.5, 0.5)

    def test_p_one_is_identity(self):
        n = ProfileVector(3, 4, 5, 6)
        assert expected_sampled_profile(n, 1.0).as_tuple() == (3, 4, 5, 6)

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*(st.integers(0, 500) for _ in range(4))),
           st.floats(min_value=0.01, max_value=1.0))
    def test_total_preserved(self, entries, p):
        n = ProfileVector(*entries)
        assert expected_sampled_profile(n, p).total() == sum(entries)


class TestUnbiasedEstimate:
    def test_p_one_collapses(self):
        y = ProfileVector(1, 2, 3, 4)
        assert unbiased_estimate(y, 1.0).as_tuple() == (1, 2, 3, 4)

    def test_single_triangle_at_half(self):
        x = unbiased_estimate(ProfileVector(0, 0, 0, 1), 0.5)
        assert x.as_floats() == (-1.0, 6.0, -12.0, 8.0)
        assert x.total() == 1

    def test_invalid_p_rejected(self):
        with pytest.raises(UsageError):
            unbiased_estimate(ProfileVector(0, 0, 0, 0), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*(st.integers(0, 300) for _ in range(4))),
           st.floats(min_value=0.05, max_value=1.0))
    def test_total_preserved(self, entries, p):
        x = unbiased_estimate(ProfileVector(*entries), p)
        assert x.total() == sum(entries)

    def test_composition_inverts_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = ProfileVector(*(int(x) for x in rng.integers(0, 10_000, size=4)))
            for p in (0.1, 0.25, 0.5, 0.7, 0.9, 1.0):
                back = unbiased_estimate(expected_sampled_profile(n, p), p)
                assert tuple(Fraction(v) for v in back.as_tuple()) == \
                    tuple(Fraction(v) for v in n.as_tuple())

    def test_monte_carlo_unbiased_on_c5(self, c5):
        # independent oracle: empirical mean must approach the true profile
        runs = 2000
        estimates = np.array([
            estimate_profile(c5, SampleParams(0.5, seed))[0].as_floats()
            for seed in range(runs)
        ])
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / math.sqrt(runs)
        true = np.array([0, 5, 5, 0], dtype=float)
        assert np.all(np.abs(mean - true) <= 4 * np.maximum(se, 1e-12))


def test_sampled_profile_estimate_on_er_graph():
    rng = np.random.default_rng(22)
    g = er_graph(30, 0.3, rng)
    exact, _ = compute_profile(g)
    est, sampled = estimate_profile(g, SampleParams(0.6, 5))
    assert est.total() == exact.total()
    assert sampled.total() == exact.total()


def test_estimate_is_the_same_with_a_passed_orientation():
    g = er_graph(40, 0.25, np.random.default_rng(23))
    o = orient(g)
    for seed in range(5):
        params = SampleParams(0.4, seed)
        built = estimate_profile(g, params)
        passed = estimate_profile(g, params, orientation=o)
        assert built == passed
        sub = subgraph_from_mask(g, sample_mask(g, params))
        assert built[1] == compute_profile(sub)[0]


def test_each_run_is_one_phase_keyed_by_seed():
    g = er_graph(40, 0.25, np.random.default_rng(24))
    engine = Engine(1)
    for seed in (5, 9):
        estimate_profile(g, SampleParams(0.5, seed), engine)
    assert [s.phase_name for s in engine.phases] == ["sampled-run:5", "sampled-run:9"]
    for stats, seed in zip(engine.phases, (5, 9)):
        kept = int(sample_mask(g, SampleParams(0.5, seed)).sum())
        assert (stats.bytes_scattered, stats.bytes_gathered) == (8 * kept, 16 * kept)


def test_mask_is_the_splitmix64_stream():
    """Edge e is kept when (splitmix64(seed + (e + 1) * gamma) >> 11) / 2**53 < p;
    the reference below uses Python ints, so the vectorized stream cannot drift."""
    def uniform(seed, e):
        z = (seed + (e + 1) * 0x9E3779B97F4A7C15) % 2 ** 64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
        return ((z ^ (z >> 31)) >> 11) / 2 ** 53

    g = er_graph(40, 0.3, np.random.default_rng(25))
    for seed in (0, 7, 2 ** 63, 2 ** 64 - 1):
        for p in (0.3, 0.9):
            expect = [uniform(seed, e) < p for e in range(g.edge_count)]
            assert sample_mask(g, SampleParams(p, seed)).tolist() == expect
