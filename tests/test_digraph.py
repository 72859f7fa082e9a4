"""Digraph construction, neighborhoods, and strong connectivity."""

import numpy as np
import pytest
from hypothesis import given

import oracles
from strongbounds import (
    LoopArc, ParallelArc, SizeOverflow, VertexOutOfRange, from_arcs, is_strong,
)
from strongbounds.digraph import _adjacency_is_strong, find_unreachable_pair
from strategies import digraphs


class TestFromArcs:
    def test_example_d1(self, d1):
        assert d1.n == 3
        assert d1.arcs == {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert d1.arc_count == 4

    def test_single_vertex(self, k1):
        assert k1.n == 1
        assert k1.arcs == frozenset()
        assert is_strong(k1)

    def test_loop_rejected(self):
        with pytest.raises(LoopArc):
            from_arcs(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(ParallelArc):
            from_arcs(3, [(0, 1), (0, 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            from_arcs(2, [(0, 2)])
        with pytest.raises(VertexOutOfRange):
            from_arcs(2, [(-1, 0)])

    def test_vertex_count_positive(self):
        with pytest.raises(VertexOutOfRange):
            from_arcs(0, [])

    @pytest.mark.parametrize("n", [3_037_000_500, 2**63])
    def test_vertex_count_past_int64_keys(self, n):
        # the largest arc key n*n - 1 would not fit in int64; nothing is allocated
        with pytest.raises(SizeOverflow):
            from_arcs(n, [])

    @pytest.mark.parametrize(
        "n, kind",
        [(2.0, "float"), (np.float64(2), "float64"), (True, "bool"), ("2", "str"),
         (None, "NoneType")],
    )
    def test_non_integer_vertex_count_rejected(self, n, kind):
        with pytest.raises(ValueError, match=rf"^vertex count must be an integer, got {kind}$"):
            from_arcs(n, [(0, 1), (1, 0)])

    # int16 n = 200 would wrap in n * n = 40 000 if kept narrow
    @pytest.mark.parametrize("n", [np.int8(2), np.int16(200), np.uint64(2)])
    def test_numpy_integer_vertex_count_accepted(self, n):
        d = from_arcs(n, [(0, 1), (1, 0)])
        assert type(d.n) is int
        assert d == from_arcs(int(n), [(0, 1), (1, 0)])

    def test_equality_ignores_arc_order(self):
        a = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        b = from_arcs(3, [(2, 0), (0, 1), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    # Mixed faults: the first bad arc in input order is reported, and for one
    # arc a range fault outranks a loop, which outranks a repeat.
    @pytest.mark.parametrize(
        "n, arcs, error, message",
        [
            (3, [(0, 1), (2, 2), (0, 1), (0, 5)], LoopArc, "loop arc (2,2) not allowed"),
            (3, [(0, 1), (1, 0), (0, 1), (1, 1), (0, 9)], ParallelArc, "duplicate arc (0,1)"),
            (3, [(2, 0), (0, 1), (2, 0), (2, 2)], ParallelArc, "duplicate arc (2,0)"),
            (3, [(1, 2), (3, 3), (0, 0)], VertexOutOfRange,
             "arc (3,3) has an endpoint outside 0..2"),
            (3, [(0, 1), (-1, 0), (0, 1)], VertexOutOfRange,
             "arc (-1,0) has an endpoint outside 0..2"),
            # (0,3) and (1,0) share the code tail*n + head = 3; no repeat is claimed
            (3, [(1, 0), (0, 3)], VertexOutOfRange, "arc (0,3) has an endpoint outside 0..2"),
            (3, [(0, 3), (1, 0)], VertexOutOfRange, "arc (0,3) has an endpoint outside 0..2"),
            (2, [(1, 1), (1, 1)], LoopArc, "loop arc (1,1) not allowed"),
            # endpoints beyond int64
            (3, [(0, 1), (0, 2**70)], VertexOutOfRange,
             f"arc (0,{2**70}) has an endpoint outside 0..2"),
            (3, [(0, 1), (1, 1), (-2**70, 0)], LoopArc, "loop arc (1,1) not allowed"),
            (3, np.array([(0, 1), (0, 2**64 - 2)], dtype=np.uint64), VertexOutOfRange,
             f"arc (0,{2**64 - 2}) has an endpoint outside 0..2"),
        ],
    )
    def test_first_fault_in_input_order(self, n, arcs, error, message):
        with pytest.raises(error) as exc:
            from_arcs(n, arcs)
        assert str(exc.value) == message
        # index is the position of the first arc out of range, a loop, or a repeat
        seen = set()
        for k, (a, b) in enumerate(arcs):
            if not (0 <= a < n and 0 <= b < n) or a == b or (a, b) in seen:
                break
            seen.add((a, b))
        assert exc.value.index == k

    def test_pairs_required(self):
        with pytest.raises(ValueError):
            from_arcs(3, [(0, 1, 2)])

    # A non-integer endpoint is refused, never truncated (1.7 -> 1) or parsed ("1" -> 1).
    @pytest.mark.parametrize(
        "arcs, kind",
        [
            ([(0, 1.7), (1, 2), (2, 0)], "float"),
            (np.array([(0, 1.7), (1, 2), (2, 0)]), "float64"),
            ([(0.0, 1.0), (1.0, 0.0)], "float"),
            ([("0", "1")], "str"),
            (np.array([("0", "1")]), "str_"),
            ([(True, False)], "bool"),
            (np.array([(True, False)]), "bool"),
            ([(0, 1.5), (0, 2**70)], "float"),  # the int64 overflow path checks types too
        ],
        ids=["float", "float-array", "integral-floats", "str", "str-array", "bool",
             "bool-array", "float-past-int64"],
    )
    def test_non_integer_endpoints_rejected(self, arcs, kind):
        with pytest.raises(ValueError, match=rf"^arc endpoints must be integers, got {kind}$"):
            from_arcs(3, arcs)

    @pytest.mark.parametrize(
        "arcs",
        [
            [(np.int32(0), np.int64(1)), (1, 0)],
            np.array([(0, 1), (1, 0)], dtype=np.uint8),
            np.empty((0, 2)),
        ],
        ids=["numpy-scalars", "uint8-array", "empty-float-array"],
    )
    def test_integer_endpoints_of_any_width_accepted(self, arcs):
        assert from_arcs(3, arcs).arcs == {tuple(a) for a in np.asarray(arcs).tolist()}

    def test_list_generator_and_array_agree(self):
        arcs = [(2, 0), (0, 1), (1, 2), (1, 0)]
        from_list = from_arcs(3, arcs)
        from_generator = from_arcs(3, (arc for arc in arcs))
        from_array = from_arcs(3, np.array(arcs))
        assert from_list == from_generator == from_array
        for name in CSR_ARRAYS:
            assert np.array_equal(getattr(from_list, name), getattr(from_array, name))
            assert np.array_equal(getattr(from_list, name), getattr(from_generator, name))


CSR_ARRAYS = ("out_indptr", "out_indices", "in_indptr", "in_indices", "und_indptr", "und_indices")


def _dense(n, indptr, indices):
    m = np.zeros((n, n), dtype=bool)
    for v in range(n):
        row = indices[indptr[v]:indptr[v + 1]]
        assert (np.diff(row) > 0).all()  # columns strictly increasing
        m[v, row] = True
    return m


class TestCSRStore:
    @given(digraphs())
    def test_in_and_und_derive_from_out(self, d):
        out = _dense(d.n, d.out_indptr, d.out_indices)
        assert np.array_equal(_dense(d.n, d.in_indptr, d.in_indices), out.T)
        assert np.array_equal(_dense(d.n, d.und_indptr, d.und_indices), out | out.T)
        assert set(zip(*np.nonzero(out))) == d.arcs
        assert d.arc_count == len(d.arcs)

    @given(digraphs())
    def test_arcs_round_trip(self, d):
        again = from_arcs(d.n, d.arcs)
        assert again == d
        for name in CSR_ARRAYS:
            assert np.array_equal(getattr(again, name), getattr(d, name))

    @given(digraphs(max_n=3), digraphs(max_n=3))
    def test_equality_is_arc_set_equality(self, a, b):
        assert (a == b) == ((a.n, a.arcs) == (b.n, b.arcs))
        if a == b:
            assert hash(a) == hash(b)
        shuffled = from_arcs(a.n, sorted(a.arcs, reverse=True))
        assert shuffled == a and hash(shuffled) == hash(a)

    @given(digraphs())
    def test_is_bidirected_matches_arc_set(self, d):
        # every arc is paired with its reverse iff the in-CSR repeats the out-CSR
        same = np.array_equal(d.out_indptr, d.in_indptr) and np.array_equal(
            d.out_indices, d.in_indices
        )
        assert same == all((b, a) in d.arcs for a, b in d.arcs)


def _row(indptr, indices, v):
    return indices[indptr[v]:indptr[v + 1]].tolist()


class TestNeighborhoods:
    """Neighbourhoods are CSR rows: out, in, and N(v) = the undirected row."""

    def test_out_neighbors_v2(self, d2):
        assert _row(d2.out_indptr, d2.out_indices, 1) == [0, 2, 4]

    def test_in_neighbors_v4(self, d2):
        assert _row(d2.in_indptr, d2.in_indices, 3) == [2, 4]

    def test_neighbors_v3(self, d2):
        assert _row(d2.und_indptr, d2.und_indices, 2) == [0, 1, 3]

    def test_closed_neighbors_u2(self, d1):
        assert set(_row(d1.und_indptr, d1.und_indices, 1)) | {1} == {0, 1, 2}

    def test_single_vertex_neighborhoods(self, k1):
        assert _row(k1.out_indptr, k1.out_indices, 0) == []
        assert _row(k1.und_indptr, k1.und_indices, 0) == []

    @given(digraphs())
    def test_neighbor_consistency(self, d):
        for v in range(d.n):
            out = _row(d.out_indptr, d.out_indices, v)
            inn = _row(d.in_indptr, d.in_indices, v)
            und = _row(d.und_indptr, d.und_indices, v)
            assert und == sorted(set(out) | set(inn))
            assert v not in und
            assert set(und) == oracles.neighbors(d.n, d.arcs, v)
            for u in out:
                assert v in _row(d.in_indptr, d.in_indices, u)


class TestIsStrong:
    def test_example_factors(self, d1, d2):
        assert is_strong(d1)
        assert is_strong(d2)

    def test_one_arc_not_strong(self):
        assert not is_strong(from_arcs(2, [(0, 1)]))

    def test_directed_cycle_strong(self):
        assert is_strong(from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_bidirected_example_is_bidirected(self, d1, d2):
        assert np.array_equal(d1.out_indptr, d1.in_indptr)
        assert np.array_equal(d1.out_indices, d1.in_indices)
        assert not np.array_equal(d2.out_indices, d2.in_indices)

    @given(digraphs())
    def test_matches_transitive_closure_oracle(self, d):
        assert is_strong(d) == oracles.strong_by_closure(d.n, d.arcs)

    @given(digraphs())
    def test_unreachable_pair_is_the_first_hole(self, d):
        pair = find_unreachable_pair(d)
        assert (pair is None) == oracles.strong_by_closure(d.n, d.arcs)
        if pair is None:
            return
        dist = oracles.floyd_warshall(d.n, d.arcs)
        assert dist[pair[0]][pair[1]] == oracles.INF
        # (0, least x) with no path 0 -> x, else (least u, 0) with no path u -> 0
        from_0 = [x for x in range(d.n) if dist[0][x] == oracles.INF]
        to_0 = [u for u in range(d.n) if dist[u][0] == oracles.INF]
        assert pair == ((0, from_0[0]) if from_0 else (to_0[0], 0))

    @given(digraphs())
    def test_adjacency_helper_matches_is_strong_and_oracle(self, d):
        adj = np.zeros((d.n, d.n), dtype=bool)
        arcs = d._arc_array()
        adj[arcs[:, 0], arcs[:, 1]] = True
        assert _adjacency_is_strong(adj) == is_strong(d) == oracles.strong_by_closure(d.n, d.arcs)

    @pytest.mark.parametrize(
        "n, arcs, strong",
        [
            (1, [], True),
            (2, [], False),
            (3, [(0, 1), (1, 2), (2, 1)], False),  # 0 is a source
            (3, [(1, 0), (1, 2), (2, 1)], False),  # 0 is a sink
            (3, [(0, 1), (1, 2)], False),  # one-way path
            # every vertex has an out-arc and an in-arc, so only a BFS can tell
            (4, [(0, 1), (1, 0), (2, 3), (3, 2)], False),  # forward BFS stops
            (4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], False),  # reverse BFS stops
            (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], True),
        ],
        ids=["k1", "empty-2", "source", "sink", "one-way-path", "two-2-cycles",
             "no-way-back", "cycle-with-chord"],
    )
    def test_adjacency_helper_cases(self, n, arcs, strong):
        adj = np.zeros((n, n), dtype=bool)
        for a, b in arcs:
            adj[a, b] = True
        assert _adjacency_is_strong(adj) == is_strong(from_arcs(n, arcs)) == strong
