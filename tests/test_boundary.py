"""The four boundary-type sets, directly from their definitions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import strongbounds.boundary as boundary_mod
from strongbounds import (
    boundary_profile,
    boundary_set,
    contour_set,
    eccentric_set,
    from_arcs,
    is_strong,
    metric_profile,
    periphery_set,
    strong_product,
)
from strongbounds.boundary import _boundary_witnesses, _segment_max
from conftest import NON_ECCENTRIC_MEMBER
from oracles import ids
from strategies import digraphs, strong_digraphs

CYCLE5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


def bidirected_path(n):
    return from_arcs(n, [arc for v in range(n - 1) for arc in ((v, v + 1), (v + 1, v))])


def record_fallback(monkeypatch):
    """The vertices whose W column the boundary scan builds, in visiting order."""
    visited = []
    real = boundary_mod._worst_columns

    def recording(md, indptr, indices, vertices=None):
        for v, worst in real(md, indptr, indices, vertices):
            visited.append(v)
            yield v, worst

    monkeypatch.setattr(boundary_mod, "_worst_columns", recording)
    return visited


@pytest.fixture(scope="module")
def p1(d1):
    return metric_profile(d1)


@pytest.fixture(scope="module")
def p2(d2):
    return metric_profile(d2)


class TestIsBoundaryVertexOf:
    """Witness checks on the worked example, on the library's md table."""

    def test_v5_is_boundary_vertex_of_v1(self, p2, d2):
        assert oracles.witnesses(d2.n, d2.arcs, p2.md.tolist(), 4, 0)
        assert boundary_set(p2, d2)[4]

    def test_self_never_boundary_with_neighbors(self, p2, d2):
        md = p2.md.tolist()
        assert not any(oracles.witnesses(d2.n, d2.arcs, md, v, v) for v in range(d2.n))

    def test_v3_boundary_vertex_of_nobody(self, p2, d2):
        md = p2.md.tolist()
        assert not any(oracles.witnesses(d2.n, d2.arcs, md, 2, u) for u in range(d2.n))
        assert not boundary_set(p2, d2)[2]


class TestGoldenSets:
    def test_boundary_d1(self, p1, d1):
        assert ids(boundary_set(p1, d1)) == {0, 2}

    def test_boundary_d2(self, p2, d2):
        assert ids(boundary_set(p2, d2)) == {0, 3, 4}

    def test_eccentric_d1(self, p1):
        assert ids(eccentric_set(p1)) == {0, 2}

    def test_eccentric_d2(self, p2):
        assert ids(eccentric_set(p2)) == {0, 4}

    def test_periphery_d1(self, p1):
        assert ids(periphery_set(p1)) == {0, 2}

    def test_periphery_d2(self, p2):
        assert ids(periphery_set(p2)) == {0, 4}

    def test_contour_d1(self, p1, d1):
        assert ids(contour_set(p1, d1)) == {0, 2}

    def test_contour_d2(self, p2, d2):
        assert ids(contour_set(p2, d2)) == {0, 4}


class TestDegenerateShapes:
    def test_complete_bidirected_all_boundary(self):
        arcs = [(a, b) for a in range(5) for b in range(5) if a != b]
        d = from_arcs(5, arcs)
        p = metric_profile(d)
        assert ids(boundary_set(p, d)) == set(range(5))

    def test_directed_cycle_self_centered(self):
        d = from_arcs(5, CYCLE5)
        p = metric_profile(d)
        everything = set(range(5))
        assert ids(periphery_set(p)) == everything
        assert ids(contour_set(p, d)) == everything

    def test_single_vertex_all_sets(self, k1):
        p = metric_profile(k1)
        bp = boundary_profile(p, k1)
        assert ids(bp.boundary) == ids(bp.contour) == ids(bp.eccentricity) == {0}
        assert ids(bp.periphery) == {0}


class TestAgainstOracles:
    @settings(max_examples=60)
    @given(strong_digraphs())
    def test_all_four_sets(self, d):
        """The one library boundary and contour equal both oracle forms, N(v) and N[v]."""
        md = oracles.md_table(d.n, d.arcs)
        p = metric_profile(d)
        for closed in (False, True):
            assert ids(boundary_set(p, d)) == oracles.boundary(d.n, d.arcs, md, closed)
            assert ids(contour_set(p, d)) == oracles.contour(d.n, d.arcs, md, closed)
        assert ids(eccentric_set(p)) == oracles.eccentric(d.n, md)
        assert ids(periphery_set(p)) == oracles.periphery(d.n, md)


def assert_open_closed_oracles_agree(n, arcs):
    md = oracles.md_table(n, arcs)
    assert oracles.boundary(n, arcs, md) == oracles.boundary(n, arcs, md, closed=True)
    assert oracles.contour(n, arcs, md) == oracles.contour(n, arcs, md, closed=True)


class TestOpenClosedIdentity:
    """N(v) and N[v] give the same boundary and contour, by the oracles alone.

    The w = v term of N[v] compares md(u, v) with itself and ecc(v) with
    itself, so it never excludes v; `boundary` relies on this to compute
    over N(v) only and treat N[v] as an alias.
    """

    @settings(max_examples=60)
    @given(strong_digraphs())
    def test_digraphs(self, d):
        assert_open_closed_oracles_agree(d.n, d.arcs)

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(max_n=4), strong_digraphs(max_n=4))
    def test_products(self, a, b):
        arcs = oracles.strong_product_arcs(a.n, a.arcs, b.n, b.arcs)
        assert_open_closed_oracles_agree(a.n * b.n, arcs)


class TestWitnesses:
    """The witness array behind boundary_set: candidates first, W columns only where they fail."""

    @settings(max_examples=100)
    @given(digraphs().filter(is_strong))
    def test_every_witness_checks_out(self, d):
        p = metric_profile(d)
        witness = _boundary_witnesses(p, d)
        md = oracles.md_table(d.n, d.arcs)
        for v, u in enumerate(witness.tolist()):
            if u >= 0:
                assert oracles.witnesses(d.n, d.arcs, md, v, u)
        assert ids(witness >= 0) == oracles.boundary(d.n, d.arcs, md)

    def test_fallback_finds_non_eccentric_member(self, monkeypatch):
        d = from_arcs(*NON_ECCENTRIC_MEMBER)
        p = metric_profile(d)
        visited = record_fallback(monkeypatch)
        witness = _boundary_witnesses(p, d)
        assert not eccentric_set(p)[5]
        assert 5 in visited
        assert witness[5] == 0  # the first u whose W entry passes
        assert oracles.witnesses(d.n, d.arcs, oracles.md_table(d.n, d.arcs), 5, 0)

    @pytest.mark.parametrize(
        "d",
        [
            from_arcs(6, [(a, b) for a in range(6) for b in range(6) if a != b]),
            from_arcs(5, CYCLE5),
        ],
        ids=["complete-bidirected", "directed-cycle"],
    )
    def test_all_candidates_pass(self, monkeypatch, d):
        visited = record_fallback(monkeypatch)
        assert ids(boundary_set(metric_profile(d), d)) == set(range(d.n))
        assert visited == []

    def test_path_falls_back_on_exactly_the_non_members(self, monkeypatch):
        d = bidirected_path(30)
        visited = record_fallback(monkeypatch)
        assert ids(boundary_set(metric_profile(d), d)) == {0, 29}
        assert visited == list(range(1, 29))


def csr_of_rows(rows):
    """(indptr, indices) laying the given rows out one after another."""
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
    return indptr, np.array([x for r in rows for x in r], dtype=np.int64)


class TestNeighbourhoodReductions:
    """_segment_max against plain-Python rows, and the empty row of one vertex."""

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.integers(-1, 40), max_size=4), min_size=1, max_size=8))
    @example([[], [3, 7], [], [], [0, -1, 5], []])
    @example([[], [], []])
    @example([[4]])
    def test_segment_max(self, rows):
        indptr, gathered = csr_of_rows(rows)
        expected = [max(r, default=-1) for r in rows]
        assert _segment_max(gathered, indptr).tolist() == expected

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    @given(st.lists(st.lists(st.integers(-1, 127), max_size=4), max_size=8))
    @example([[127, -1], [], [0]])
    def test_segment_max_keeps_narrow_dtype(self, dtype, rows):
        rows = [[]] + rows  # a leading empty row
        indptr, gathered = csr_of_rows(rows)
        out = _segment_max(gathered.astype(dtype), indptr)
        assert out.dtype == dtype
        assert out.tolist() == [max(r, default=-1) for r in rows]

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_one_vertex(self, k1, closed):
        """The empty row reduces to -1; the vertex is in its boundary and contour
        by the library scan and by the oracle under N(v) and N[v] alike."""
        p = metric_profile(k1)
        assert _segment_max(p.ecc[k1.und_indices], k1.und_indptr).tolist() == [-1]
        assert _boundary_witnesses(p, k1).tolist() == [0]
        assert contour_set(p, k1).tolist() == [True]
        md = oracles.md_table(k1.n, k1.arcs)
        assert oracles.boundary(k1.n, k1.arcs, md, closed=closed) == ids(boundary_set(p, k1)) == {0}
        assert oracles.contour(k1.n, k1.arcs, md, closed=closed) == ids(contour_set(p, k1)) == {0}


class TestProperties:
    @settings(max_examples=60)
    @given(strong_digraphs())
    def test_inclusion_chains(self, d):
        bp = boundary_profile(metric_profile(d), d)
        assert ids(bp.periphery) <= ids(bp.contour) & ids(bp.eccentricity)
        assert ids(bp.eccentricity) | ids(bp.contour) <= ids(bp.boundary)

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(max_n=4), strong_digraphs(max_n=4))
    def test_open_closed_equivalence(self, a, b):
        """The library's sets on a built product equal the N[v] definitions."""
        prod, _ = strong_product(a, b)
        p = metric_profile(prod)
        md = oracles.md_table(prod.n, prod.arcs)
        assert ids(boundary_set(p, prod)) == oracles.boundary(prod.n, prod.arcs, md, closed=True)
        assert ids(contour_set(p, prod)) == oracles.contour(prod.n, prod.arcs, md, closed=True)

    @settings(max_examples=60)
    @given(strong_digraphs())
    def test_all_sets_nonempty(self, d):
        bp = boundary_profile(metric_profile(d), d)
        assert ids(bp.boundary) and ids(bp.contour) and ids(bp.eccentricity)
        assert ids(bp.periphery)

    def test_profile_masks_are_read_only(self, p2, d2):
        bp = boundary_profile(p2, d2)
        for mask in (bp.boundary, bp.contour, bp.eccentricity, bp.periphery):
            assert mask.dtype == bool and mask.shape == (d2.n,)
            with pytest.raises(ValueError):
                mask[0] = not mask[0]

    def test_bad_neighborhood_flag(self, p1, d1):
        """The set functions take no neighborhood argument."""
        with pytest.raises(TypeError):
            boundary_set(p1, d1, "closed")
