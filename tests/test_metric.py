"""Distances, the max-distance metric, and metric profiles."""

import tracemalloc

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
    boundary_profile,
    directed_distances_from,
    from_arcs,
    generate_strong_digraph,
    metric_profile,
)
from strongbounds.digraph import find_unreachable_pair
from strongbounds.metric import _FOLD_TILE, _fold_max_transpose, _md_dtype
from strategies import bidirected_strong_digraphs, digraphs, strong_digraphs

CYCLE3 = [(0, 1), (1, 2), (2, 0)]


def directed_cycle(n):
    return from_arcs(n, [(v, (v + 1) % n) for v in range(n)])


def bidirected_cycle(n):
    steps = {(v, (v + 1) % n) for v in range(n)}
    return from_arcs(n, sorted(steps | {(b, a) for a, b in steps}))


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
    """md(u, v) = max of the two directed distances, read off metric_profile(d).md."""

    def test_example_md_v1_v5(self, d2):
        md = metric_profile(d2).md
        assert md[0, 4] == md[4, 0] == 4

    def test_self_distance_zero(self, d2):
        md = metric_profile(d2).md
        assert all(md[v, v] == 0 for v in range(d2.n))

    def test_directed_cycle_values(self):
        md = metric_profile(from_arcs(3, CYCLE3)).md
        assert md[0, 1] == 2


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


class TestMdTable:
    @settings(max_examples=60)
    @given(strong_digraphs(max_n=8))
    def test_md_is_max_of_table_and_transpose(self, d):
        t = all_pairs_directed(d)
        assert np.array_equal(metric_profile(d).md, np.maximum(t, t.T))

    @pytest.mark.parametrize("n", [_FOLD_TILE - 1, _FOLD_TILE, _FOLD_TILE + 1, 2 * _FOLD_TILE + 1])
    def test_fold_across_tile_edges(self, n):
        d = generate_strong_digraph(n=n, p=0.03, seed=n).digraph
        t = all_pairs_directed(d)
        assert not np.array_equal(t, t.T)
        assert np.array_equal(metric_profile(d).md, np.maximum(t, t.T))
        # every cell of an arbitrary table, the diagonal tiles' included
        table = np.random.default_rng(n).integers(-1, 1000, (n, n), dtype=np.int32)
        want = np.maximum(table, table.T)
        _fold_max_transpose(table)
        assert np.array_equal(table, want)

    @pytest.mark.parametrize("n, dtype", [(128, np.int8), (129, np.int16)])
    def test_dtype_switch_on_cycles(self, n, dtype):
        # a directed n-cycle has diameter n - 1, at the edge of int8's range
        p = metric_profile(directed_cycle(n))
        assert p.diameter == n - 1 and (p.ecc == n - 1).all()
        assert p.md.dtype == dtype and p.ecc.dtype == np.int32
        assert p.md.max() == n - 1

    def test_dtype_rule(self):
        # the int16 -> int32 edge is pinned on the rule alone: a digraph of
        # diameter 32 768 needs a 4 GiB int32 table
        cases = [(0, np.int8), (127, np.int8), (128, np.int16), (32_767, np.int16),
                 (32_768, np.int32), (2**31 - 1, np.int32)]
        for diameter, dtype in cases:
            assert _md_dtype(diameter) == dtype, diameter

    def test_tables_read_only(self, d2):
        t = all_pairs_directed(d2)
        assert t.dtype == np.int32 and not t.flags.writeable
        p = metric_profile(d2)
        assert not p.md.flags.writeable and not p.ecc.flags.writeable


class TestMdMemory:
    """Traced bytes of one profile of a bidirected 200-cycle (diameter 100, int8 md).

    The kernel's int32 table takes 4·n² bytes and md n². What tracemalloc sees
    beyond that is O(n) arrays and numpy's iterator buffers, tens of KB.
    """

    n = 200

    @staticmethod
    def traced(call):
        call()  # warm: first calls allocate lasting caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, current - base, peak - base

    def test_metric_profile(self):
        n, d = self.n, bidirected_cycle(self.n)
        p, retained, peak = self.traced(lambda: metric_profile(d))
        assert p.md.dtype == np.int8 and p.diameter == n // 2
        # one int32 table plus the int8 copy; np.maximum(t, t.T) peaked at 8·n²
        assert peak <= 5.5 * n * n
        # md alone outlives the call, not an int32 table of 4·n²
        assert n * n <= retained <= 1.1 * n * n

    def test_boundary_profile(self):
        d = bidirected_cycle(self.n)
        p = metric_profile(d)
        _, _, peak = self.traced(lambda: boundary_profile(p, d))
        # md - ecc is built at md's width: n² bytes, not an int32 4·n²
        assert peak <= 1.5 * self.n ** 2
