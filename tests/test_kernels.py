"""The all-sources BFS kernel and the boundary scan against independent oracles."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strongbounds import (
    _kernels,
    boundary_set,
    directed_distances_from,
    from_arcs,
    generate_strong_digraph,
    metric_profile,
    run_verification,
    strong_product,
)
from strategies import digraphs, strong_digraphs


def _expected_dist(d):
    fw = oracles.floyd_warshall(d.n, d.arcs)
    return [[-1 if x == oracles.INF else x for x in row] for row in fw]


def _dist(d):
    return _kernels.all_pairs_directed_dist(
        d.out_indptr, d.out_indices, d.in_indptr, d.in_indices, d.n
    )



def _outer_max(a, b):
    """Distance table of the strong product of factors with tables a and b."""
    n = a.shape[0] * b.shape[0]
    return np.maximum(a[:, None, :, None], b[None, :, None, :]).reshape(n, n)


def _bidirected_path(n):
    return from_arcs(n, [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)])


def _bidirected_grid(k):
    v = np.arange(k * k).reshape(k, k)
    pairs = np.concatenate([
        np.stack([v[:, :-1].ravel(), v[:, 1:].ravel()], axis=1),
        np.stack([v[:-1].ravel(), v[1:].ravel()], axis=1),
    ])
    return from_arcs(k * k, np.concatenate([pairs, pairs[:, ::-1]]))


def _barbell(cluster, path, seed):
    """Two random dense clusters joined by a bidirected path of `path` inner vertices."""
    rng = np.random.default_rng(seed)
    n = 2 * cluster + path
    adj = np.zeros((n, n), dtype=bool)
    adj[:cluster, :cluster] = rng.random((cluster, cluster)) < 0.5
    adj[-cluster:, -cluster:] = rng.random((cluster, cluster)) < 0.5
    v = np.arange(cluster - 1, n - cluster)
    adj[v, v + 1] = adj[v + 1, v] = True
    np.fill_diagonal(adj, False)
    return from_arcs(n, np.argwhere(adj))


def _per_source(d):
    """The hop table from one `directed_distances_from` BFS per source."""
    return np.stack([directed_distances_from(d, s) for s in range(d.n)])


def _hub_cycle(n):
    """Directed n-cycle plus arcs from vertex 0 to every vertex: D = n - 1."""
    return from_arcs(n, [(i, (i + 1) % n) for i in range(n)] + [(0, j) for j in range(2, n)])


def _near_complete_product():
    """The 300-vertex product of two near-complete draws, whose pulls go through BLAS."""
    g1 = generate_strong_digraph(n=20, p=0.9, seed=11).digraph
    g2 = generate_strong_digraph(n=15, p=0.9, seed=12).digraph
    return strong_product(g1, g2)[0]


@pytest.fixture
def steps(monkeypatch):
    """Kinds of BFS step the kernel takes, in order."""
    taken = []
    for kind in ("sparse", "dense", "bit"):
        original = getattr(_kernels, f"_{kind}_step")

        def record(*args, _kind=kind, _original=original):
            taken.append(_kind)
            return _original(*args)

        monkeypatch.setattr(_kernels, f"_{kind}_step", record)
    return taken


def _record_offsets(patch, built):
    original = _kernels._out_offsets

    def record(*args):
        table = original(*args)
        built.append(table.shape)
        return table

    patch.setattr(_kernels, "_out_offsets", record)


@pytest.fixture
def offset_tables(monkeypatch):
    """Shapes of the padded offset tables the kernel builds, in order."""
    built = []
    _record_offsets(monkeypatch, built)
    return built


class TestAllPairsLanes:
    @given(digraphs(max_n=7))
    def test_numpy_lane_matches_oracle(self, d):
        # non-strong inputs included: their unreachable cells must read -1
        got = _dist(d)
        assert got.dtype == np.int32
        assert got.tolist() == _expected_dist(d)


class TestAllPairsBFS:
    # n > 1024 takes more than one block of sources
    N = 1100

    @given(digraphs(min_n=8, max_n=20))
    def test_matches_oracle_with_step_choice(self, d):
        # above the tiny sizes, which always step dense, each level weighs a
        # sparse step against a dense one; arc-free sources leave a block
        # with an empty first frontier
        assert _dist(d).tolist() == _expected_dist(d)

    def test_directed_cycle_closed_form(self, steps, offset_tables):
        n = self.N
        d = from_arcs(n, [(i, (i + 1) % n) for i in range(n)])
        v = np.arange(n)
        assert np.array_equal(_dist(d), (v[None, :] - v[:, None]) % n)
        assert set(steps) == {"sparse"}
        assert offset_tables == [(n, 1)]  # one table for all blocks

    def test_bidirected_path_closed_form(self, steps, offset_tables):
        # both ends have one out-arc, so their rows carry a padded slot
        n = self.N
        v = np.arange(n)
        assert np.array_equal(_dist(_bidirected_path(n)), np.abs(v[None, :] - v[:, None]))
        assert set(steps) == {"sparse"}
        assert offset_tables == [(n, 2)]

    def test_ladder_sparse_steps_deduplicate(self, steps, offset_tables):
        # path x K2: both cells of one rung reach both cells of the next, so
        # every sparse step gathers each new cell twice
        path = np.abs(np.arange(self.N // 2)[:, None] - np.arange(self.N // 2)[None, :])
        ladder, _ = strong_product(_bidirected_path(self.N // 2), _bidirected_path(2))
        assert np.array_equal(_dist(ladder), _outer_max(path, 1 - np.eye(2, dtype=int)))
        assert set(steps) == {"sparse"}
        assert offset_tables == [(self.N, 5)]

    def test_bidirected_grid_manhattan(self, steps, offset_tables):
        # rows of degree 2, 3 and 4 padded to 4, in several source blocks
        k = 40
        r, c = np.divmod(np.arange(k * k), k)
        manhattan = np.abs(r[:, None] - r[None, :]) + np.abs(c[:, None] - c[None, :])
        assert np.array_equal(_dist(_bidirected_grid(k)), manhattan)
        assert set(steps) == {"sparse"}
        assert offset_tables == [(k * k, 4)]

    def test_hub_past_guard_expands_csr_rows(self, steps, offset_tables):
        # D = n - 1 is far above twice the mean out-degree (about 2): padded
        # rows would be n - 1 wide, so the sparse steps expand the CSR rows
        n = 300
        d = _hub_cycle(n)
        assert n * (n - 1) > _kernels._PAD_RATIO * d.out_indices.size
        expected = _per_source(d)
        assert np.array_equal(_dist(d), expected)
        assert set(steps) == {"sparse"}
        assert offset_tables == []

    @settings(deadline=None)
    @given(digraphs(min_n=8, max_n=20))
    def test_both_candidate_forms_match_oracle(self, d):
        # a zero sparse-step weight makes every level with arcs push, and the
        # guard ratio forces each candidate form in turn
        expected = _expected_dist(d)
        sparse_step = _kernels._sparse_step
        for ratio in (0, 1 << 30):
            built, tables = [], []

            def step(*args):
                tables.append(args[-1])  # the offsets, None in the CSR form
                return sparse_step(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_kernels, "_DENSE_COST", 0)
                mp.setattr(_kernels, "_PAD_RATIO", ratio)
                mp.setattr(_kernels, "_sparse_step", step)
                _record_offsets(mp, built)
                assert _dist(d).tolist() == expected
            assert len(built) == (1 if ratio and tables else 0)
            assert all((table is not None) == bool(ratio) for table in tables)

    def test_pull_only_calls_build_no_offsets(self, offset_tables):
        # verify-sized graphs and an oracle-route product pass the guard but
        # only pull, so their calls never build the padded table
        run_verification(10, seed=0)
        g1 = generate_strong_digraph(n=40, p=0.25, seed=2).digraph
        g2 = generate_strong_digraph(n=40, p=0.25, seed=3).digraph
        prod, _ = strong_product(g1, g2)
        for d in (g1, g2, prod):
            width = np.max(d.out_indptr[1:] - d.out_indptr[:-1])
            assert d.n * width <= _kernels._PAD_RATIO * d.out_indices.size
            _dist(d)
        assert offset_tables == []

    def test_lollipop_switches_dense_to_sparse(self, steps):
        # a complete core with a bidirected tail: the early levels from the
        # core pull (dense or bit), the walk down the tail is sparse
        core, tail = 30, 150
        n = core + tail
        arcs = [(a, b) for a in range(core) for b in range(core) if a != b]
        for v in range(core - 1, n - 1):
            arcs += [(v, v + 1), (v + 1, v)]
        d = from_arcs(n, arcs)
        expected = _per_source(d)
        assert np.array_equal(_dist(d), expected)
        first_pull = min(steps.index(kind) for kind in ("dense", "bit") if kind in steps)
        assert "sparse" in steps[first_pull:]

    def test_dense_product_is_outer_max_of_factors(self, steps):
        # a near-complete 300-vertex product pulls through BLAS: a bit step
        # would gather more words than the matrix product costs
        g1 = generate_strong_digraph(n=20, p=0.9, seed=11).digraph
        g2 = generate_strong_digraph(n=15, p=0.9, seed=12).digraph
        prod = _near_complete_product()
        expected = _outer_max(_dist(g1), _dist(g2))
        steps.clear()
        assert np.array_equal(_dist(prod), expected)
        assert set(steps) == {"dense"}

    def test_bit_product_is_outer_max_of_factors(self, steps, monkeypatch):
        # the oracle-route size: a 1 600-vertex product past the bit-step
        # crossover, in several blocks of S sources with S no multiple of 8,
        # so the last frontier word and byte are both partial
        g1 = generate_strong_digraph(n=40, p=0.25, seed=21).digraph
        g2 = generate_strong_digraph(n=40, p=0.25, seed=22).digraph
        prod, _ = strong_product(g1, g2)
        expected = _outer_max(_dist(g1), _dist(g2))
        steps.clear()
        sources = set()
        bit_step = _kernels._bit_step

        def sized_step(rows, *args):
            sources.add(rows.shape[0])
            return bit_step(rows, *args)

        monkeypatch.setattr(_kernels, "_bit_step", sized_step)
        assert np.array_equal(_dist(prod), expected)
        assert "dense" not in steps
        assert len(sources) == 2 and all(s % 8 for s in sources)

    def test_bit_steps_skip_vertices_without_in_arcs(self, steps):
        # vertex 0 and the last vertex have no in-arc: their in-CSR segments
        # are empty, the last one at the very end of the in-arc array
        n = 300
        rng = np.random.default_rng(5)
        adj = rng.random((n, n)) < 0.05
        np.fill_diagonal(adj, False)
        adj[:, [0, n - 1]] = False
        d = from_arcs(n, np.argwhere(adj))
        expected = _per_source(d)
        assert np.array_equal(_dist(d), expected)
        assert "bit" in steps

    def test_barbell_repacks_after_sparse_steps(self, steps, monkeypatch):
        # the first cluster's levels pull by words, the walk down the path is
        # sparse, and the second cluster pulls by words again, from words
        # packed afresh out of the block's rows
        d = _barbell(60, 100, seed=0)
        assert d.n > _kernels._BIT_COST
        sources = set()
        bit_step = _kernels._bit_step

        def sized_step(rows, *args):
            sources.add(rows.shape[0])
            return bit_step(rows, *args)

        monkeypatch.setattr(_kernels, "_bit_step", sized_step)
        assert np.array_equal(_dist(d), _per_source(d))
        assert sources == {d.n}  # one block
        assert re.fullmatch(r"b+s+b+", "".join(kind[0] for kind in steps))

    def test_late_bit_level_gathers_only_open_vertices(self, steps, monkeypatch):
        # by the last level of this 275-vertex draw (diameter 4) most vertices
        # have been reached from every source, so only the rest gather words
        rng = np.random.default_rng(0)
        n = 275
        adj = rng.random((n, n)) < 0.05
        np.fill_diagonal(adj, False)
        d = from_arcs(n, np.argwhere(adj))
        gathered = []  # in-arcs whose frontier words each bit level gathers

        class Words(np.ndarray):
            def take(self, indices, axis=None):
                gathered[-1] += len(indices)
                return np.asarray(self).take(indices, axis=axis)

        bit_step = _kernels._bit_step

        def counted_step(rows, level, front, *args):
            gathered.append(0)
            return bit_step(rows, level, front.view(Words), *args)

        monkeypatch.setattr(_kernels, "_bit_step", counted_step)
        expected = _per_source(d)
        assert np.array_equal(_dist(d), expected)
        m = d.out_indices.size
        assert steps == ["bit"] * 3 and expected.max() == 4
        assert gathered[:2] == [m, m]
        assert gathered[-1] < m // 4

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(129, 300),
        st.sampled_from([0.02, 0.05, 0.1, 0.2]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_bit_steps_match_per_source_bfs(self, n, p, seed, strong):
        # past _BIT_COST vertices the pulls go by words; without strongness no
        # arc leads from the upper half back to the lower one, so those holes
        # must read -1 and keep their vertices open to the end
        if strong:
            d = generate_strong_digraph(n=n, p=p, seed=seed).digraph
        else:
            adj = np.random.default_rng(seed).random((n, n)) < p
            np.fill_diagonal(adj, False)
            adj[n // 2:, :n // 2] = False
            d = from_arcs(n, np.argwhere(adj))
        expected = _per_source(d)
        assert np.array_equal(_dist(d), expected)
        assert strong or (expected < 0).any()

    @pytest.mark.parametrize("build, rows, kind, tables", [
        (_near_complete_product, 7, "dense", []),
        (lambda: generate_strong_digraph(n=300, p=0.05, seed=1).digraph, 100, "bit", []),
        (lambda: _bidirected_path(300), 7, "sparse", [(300, 2)]),
        (lambda: _hub_cycle(300), 30, "sparse", []),
    ], ids=["dense", "bit", "padded-sparse", "csr-sparse"])
    def test_small_blocks_match_per_source_bfs(
        self, steps, offset_tables, monkeypatch, build, rows, kind, tables
    ):
        # blocks of a few rows write level 1, the diagonal and the count of
        # cells left at first sources s0 > 0, and every block takes only the
        # case's step kind. A bit step needs blocks of at least 64 rows, and
        # the hub cycle blocks of 30: in smaller ones, rows that reach the
        # hub pull by words.
        d = build()
        n = d.n
        monkeypatch.setattr(_kernels, "_BLOCK_CELLS", rows * n)
        starts = set()
        step = getattr(_kernels, f"_{kind}_step")

        def located(cells, *args):
            # cells views rows of the table, so its offset in it gives s0
            starts.add((cells.ctypes.data - cells.base.ctypes.data) // (cells.itemsize * n))
            return step(cells, *args)

        monkeypatch.setattr(_kernels, f"_{kind}_step", located)
        expected = _per_source(d)
        assert np.array_equal(_dist(d), expected)
        assert set(steps) == {kind}
        assert starts == set(range(0, n, rows))
        assert offset_tables == tables

    def test_no_bit_steps_at_verify_sizes(self, steps):
        # a bit step costs at least _BIT_COST per block cell, a dense step n,
        # so up to _BIT_COST vertices every pull goes through BLAS
        assert _kernels._BIT_COST >= 49
        for n, p in ((49, 0.05), (49, 0.2), (49, 0.7), (49, 1.0), (36, 0.4)):
            d = generate_strong_digraph(n=n, p=p, seed=3).digraph
            _dist(d)
        g = generate_strong_digraph(n=7, p=0.7, seed=4).digraph
        prod, _ = strong_product(g, g)
        _dist(prod)
        assert "dense" in steps and "bit" not in steps


class TestBoundaryLanes:
    @settings(deadline=None)
    @given(strong_digraphs(max_n=7))
    def test_lanes_agree(self, d):
        p = metric_profile(d)
        assert oracles.ids(boundary_set(p, d)) == oracles.boundary(d.n, d.arcs, p.md.tolist())
