"""Distances, the max-distance metric, and metric profiles."""

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from strongbounds import (
    UNREACHABLE,
    NotStrong,
    VertexOutOfRange,
    _kernels,
    all_pairs_directed,
    directed_distances_from,
    from_arcs,
    max_distance,
    metric_profile,
)
from strongbounds.digraph import find_unreachable_pair
from strategies import bidirected_strong_digraphs, digraphs, strong_digraphs

CYCLE3 = [(0, 1), (1, 2), (2, 0)]


class TestDirectedDistances:
    def test_example_d2_from_v1(self, d2):
        assert directed_distances_from(d2, 0).tolist() == [0, 2, 1, 2, 3]

    def test_source_entry_zero(self, d2):
        for v in range(d2.n):
            assert directed_distances_from(d2, v)[v] == 0

    def test_one_arc_unreachable_marker(self):
        d = from_arcs(2, [(0, 1)])
        assert directed_distances_from(d, 0).tolist() == [0, 1]
        assert directed_distances_from(d, 1).tolist() == [UNREACHABLE, 0]

    def test_source_out_of_range(self, d1):
        with pytest.raises(VertexOutOfRange):
            directed_distances_from(d1, 5)


class TestAllPairs:
    def test_example_d1_entries(self, d1):
        m = all_pairs_directed(d1)
        assert m[0, 2] == 2 and m[2, 0] == 2 and m[0, 1] == 1

    def test_complete_bidirected(self):
        arcs = [(a, b) for a in range(4) for b in range(4) if a != b]
        m = all_pairs_directed(from_arcs(4, arcs))
        assert (m[~np.eye(4, dtype=bool)] == 1).all()

    def test_directed_cycle(self):
        m = all_pairs_directed(from_arcs(3, CYCLE3))
        assert m[0, 1] == 1 and m[1, 0] == 2

    def test_not_strong_named_pair(self):
        # the first hole in row-major order is the dual-BFS pair: (0, x) when 0
        # misses some x, else (u, 0) for the least u that cannot reach 0
        cases = [
            (2, [(0, 1)], (1, 0)),
            (3, [(0, 1), (1, 0), (2, 0)], (0, 2)),
            (3, [(0, 1), (1, 0)], (0, 2)),  # column-major order would give (2, 0)
            (4, [(0, 1), (1, 2), (2, 0), (0, 3)], (3, 0)),
            (4, [(1, 0), (2, 0), (3, 1), (3, 2)], (0, 1)),
            # every vertex has an out-arc and an in-arc: the table shows the hole
            (4, [(0, 1), (1, 0), (2, 3), (3, 2)], (0, 2)),
            (4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], (2, 0)),
        ]
        for n, arcs, pair in cases:
            d = from_arcs(n, arcs)
            with pytest.raises(NotStrong) as exc:
                all_pairs_directed(d)
            assert exc.value.pair == find_unreachable_pair(d) == pair

    def test_missing_degree_allocates_no_table(self, monkeypatch):
        # a vertex without an out-arc or an in-arc is seen on the CSR row
        # pointers, so the n x n table is never built
        def no_table(*args):
            raise AssertionError("all-pairs kernel called")

        monkeypatch.setattr(_kernels, "all_pairs_directed_dist", no_table)
        cases = [
            (2, [], (0, 1)),
            (6, [], (0, 1)),
            (3, [(0, 1), (1, 2), (2, 1)], (1, 0)),  # vertex 0 has no in-arc
            (3, [(1, 0), (1, 2), (2, 1)], (0, 1)),  # vertex 0 has no out-arc
            (4, [(0, 1), (1, 2), (2, 0), (0, 3)], (3, 0)),  # vertex 3 has no out-arc
        ]
        for n, arcs, pair in cases:
            with pytest.raises(NotStrong) as exc:
                all_pairs_directed(from_arcs(n, arcs))
            assert exc.value.pair == pair

    @given(digraphs(max_n=8))
    def test_matches_floyd_warshall_oracle(self, d):
        fw = oracles.floyd_warshall(d.n, d.arcs)
        expected = [[-1 if x == oracles.INF else x for x in row] for row in fw]
        if any(-1 in row for row in expected):
            with pytest.raises(NotStrong) as exc:
                all_pairs_directed(d)
            assert exc.value.pair == find_unreachable_pair(d)
            got = [directed_distances_from(d, s).tolist() for s in range(d.n)]
            assert got == expected
        else:
            assert all_pairs_directed(d).tolist() == expected


class TestMaxAndSumDistance:
    def test_example_md_v1_v5(self, d2):
        m = all_pairs_directed(d2)
        assert max_distance(m, 0, 4) == 4
        assert max_distance(m, 4, 0) == 4

    def test_self_distance_zero(self, d2):
        m = all_pairs_directed(d2)
        for v in range(d2.n):
            assert max_distance(m, v, v) == 0

    def test_directed_cycle_values(self):
        m = all_pairs_directed(from_arcs(3, CYCLE3))
        assert max_distance(m, 0, 1) == 2

    def test_out_of_range(self, d2):
        m = all_pairs_directed(d2)
        with pytest.raises(VertexOutOfRange):
            max_distance(m, 0, 9)


class TestMetricProfile:
    def test_example_d1(self, d1):
        p = metric_profile(d1)
        assert p.ecc.tolist() == [2, 1, 2]
        assert (p.radius, p.diameter) == (1, 2)

    def test_example_d2(self, d2):
        p = metric_profile(d2)
        assert p.ecc.tolist() == [4, 3, 2, 3, 4]
        assert (p.radius, p.diameter) == (2, 4)

    def test_single_vertex(self, k1):
        p = metric_profile(k1)
        assert p.ecc.tolist() == [0]
        assert (p.radius, p.diameter) == (0, 0)

    def test_not_strong(self):
        with pytest.raises(NotStrong):
            metric_profile(from_arcs(3, [(0, 1), (1, 2)]))

    @settings(max_examples=60)
    @given(strong_digraphs(max_n=8))
    def test_metric_axioms(self, d):
        p = metric_profile(d)
        md = p.md
        assert np.array_equal(md, md.T)
        assert (np.diag(md) == 0).all()
        if d.n > 1:
            assert (md[~np.eye(d.n, dtype=bool)] >= 1).all()
        # triangle inequality, exhaustive over ordered triples
        assert not (md[:, None, :] > md[:, :, None] + md[None, :, :]).any()

    @settings(max_examples=40)
    @given(strong_digraphs(max_n=8))
    def test_ecc_bounds_attained(self, d):
        p = metric_profile(d)
        assert (p.ecc >= p.radius).all() and (p.ecc <= p.diameter).all()
        assert p.radius in p.ecc and p.diameter in p.ecc
        assert p.radius <= p.diameter <= 2 * p.radius

    @settings(max_examples=40)
    @given(bidirected_strong_digraphs())
    def test_bidirected_md_is_undirected_distance(self, d):
        # every arc paired with its reverse: both directed tables coincide
        m = all_pairs_directed(d)
        p = metric_profile(d)
        assert np.array_equal(p.md, m)
