"""The all-sources BFS kernel and the boundary scan against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from strongbounds import (
    GeneratorConfig,
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


def _hub_cycle(n):
    """Directed n-cycle plus arcs from vertex 0 to every vertex: D = n - 1."""
    return from_arcs(n, [(i, (i + 1) % n) for i in range(n)] + [(0, j) for j in range(2, n)])


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
        expected = np.stack([directed_distances_from(d, s) for s in range(n)])
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
        g1 = generate_strong_digraph(GeneratorConfig(n=40, p=0.25, seed=2)).digraph
        g2 = generate_strong_digraph(GeneratorConfig(n=40, p=0.25, seed=3)).digraph
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
        expected = np.stack([directed_distances_from(d, s) for s in range(n)])
        assert np.array_equal(_dist(d), expected)
        first_pull = min(steps.index(kind) for kind in ("dense", "bit") if kind in steps)
        assert "sparse" in steps[first_pull:]

    def test_dense_product_is_outer_max_of_factors(self, steps):
        # a near-complete 300-vertex product pulls through BLAS: a bit step
        # would gather more words than the matrix product costs
        g1 = generate_strong_digraph(GeneratorConfig(n=20, p=0.9, seed=11)).digraph
        g2 = generate_strong_digraph(GeneratorConfig(n=15, p=0.9, seed=12)).digraph
        prod, _ = strong_product(g1, g2)
        expected = _outer_max(_dist(g1), _dist(g2))
        steps.clear()
        assert np.array_equal(_dist(prod), expected)
        assert set(steps) == {"dense"}

    def test_bit_product_is_outer_max_of_factors(self, steps, monkeypatch):
        # the oracle-route size: a 1 600-vertex product past the bit-step
        # crossover, in several blocks of S sources with S no multiple of 8,
        # so the last frontier word and byte are both partial
        g1 = generate_strong_digraph(GeneratorConfig(n=40, p=0.25, seed=21)).digraph
        g2 = generate_strong_digraph(GeneratorConfig(n=40, p=0.25, seed=22)).digraph
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
        expected = np.stack([directed_distances_from(d, s) for s in range(n)])
        assert np.array_equal(_dist(d), expected)
        assert "bit" in steps

    def test_no_bit_steps_at_verify_sizes(self, steps):
        # a bit step costs at least _BIT_COST per block cell, a dense step n,
        # so up to _BIT_COST vertices every pull goes through BLAS
        assert _kernels._BIT_COST >= 49
        for n, p in ((49, 0.05), (49, 0.2), (49, 0.7), (49, 1.0), (36, 0.4)):
            d = generate_strong_digraph(GeneratorConfig(n=n, p=p, seed=3)).digraph
            _dist(d)
        g = generate_strong_digraph(GeneratorConfig(n=7, p=0.7, seed=4)).digraph
        prod, _ = strong_product(g, g)
        _dist(prod)
        assert "dense" in steps and "bit" not in steps


class TestBoundaryLanes:
    @settings(deadline=None)
    @given(strong_digraphs(max_n=7))
    def test_lanes_agree(self, d):
        p = metric_profile(d)
        assert oracles.ids(boundary_set(p, d)) == oracles.boundary(d.n, d.arcs, p.md.tolist())
