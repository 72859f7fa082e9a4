"""Strong-product construction, metric identities, and the factor formulas.

The worked example pair (see conftest) is the load-bearing fixture here. All
"frozen" sets below were computed with the definition-level oracles and
cross-checked by hand; several document places where the paper's factor
characterizations of the boundary and contour provably diverge from the
definition-level sets on the constructed product. The exact factor routes for
those two sets are checked against the oracles directly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import strongbounds
from strongbounds import (
    FactorPair,
    ProductLabel,
    SizeOverflow,
    boundary_profile,
    boundary_set,
    contour_set,
    eccentric_set,
    from_arcs,
    is_strong,
    metric_profile,
    periphery_set,
    product_arc_count,
    product_boundary_exact_via_factors,
    product_boundary_via_factors,
    product_contour_exact_via_factors,
    product_contour_via_factors,
    product_eccentric_via_factors,
    product_metric_profile,
    product_metric_summary,
    product_periphery_via_factors,
    strong_product,
    undirected_formula_counterexample,
)
from strongbounds import digraph as digraph_mod
from strongbounds import product as product_mod
from strongbounds.product import _witness_reach
from conftest import (
    CE_BOUNDARY_D1,
    CE_BOUNDARY_D2,
    CE_CONTOUR_D1,
    CE_CONTOUR_D2,
    D1_ARCS,
    D1_N,
    D2_ARCS,
    D2_N,
)
from oracles import ids
from strategies import bidirected_strong_digraphs, digraphs, strong_digraphs

ALL15 = frozenset(range(15))
CYCLE3 = [(0, 1), (1, 2), (2, 0)]
CSR_FIELDS = ("out_indptr", "out_indices", "in_indptr", "in_indices", "und_indptr", "und_indices")


def small_factor_pairs():
    return st.tuples(strong_digraphs(max_n=5), strong_digraphs(max_n=5))


def oracle_product_sets(a, b):
    """(boundary, contour) of a ⊠ b by the plain-Python oracles."""
    n = a.n * b.n
    arcs = oracles.strong_product_arcs(a.n, a.arcs, b.n, b.arcs)
    md = oracles.md_table(n, arcs)
    return oracles.boundary(n, arcs, md), oracles.contour(n, arcs, md)


def closed_neighbors(d, v):
    """N[v]: the undirected CSR row of v, plus v."""
    return set(d.und_indices[d.und_indptr[v]:d.und_indptr[v + 1]].tolist()) | {v}


@pytest.fixture(scope="module")
def example_product(d1, d2):
    return strong_product(d1, d2)


class TestConstruction:
    def test_example_counts(self, example_product):
        prod, label = example_product
        assert prod.n == 15
        assert prod.arc_count == 76
        assert (label.n1, label.n2) == (3, 5)

    def test_example_arcs_match_rules(self, d1, d2, example_product):
        prod, _ = example_product
        expected = oracles.strong_product_arcs(d1.n, d1.arcs, d2.n, d2.arcs)
        assert prod.arcs == expected

    def test_arc_count_closed_form(self, d1, d2, example_product):
        prod, _ = example_product
        assert product_arc_count(d1, d2) == prod.arc_count == 4 * 5 + 3 * 8 + 4 * 8

    def test_closed_neighborhood_of_u2_v3(self, example_product):
        # N[(u2,v3)] = N[u2] x N[v3] = {u1,u2,u3} x {v1,v2,v3,v4}: valid here
        # because the first factor is bidirected; 12 members
        prod, label = example_product
        vertex = label.encode(1, 2)
        expected = {label.encode(i, r) for i in (0, 1, 2) for r in (0, 1, 2, 3)}
        assert closed_neighbors(prod, vertex) == expected

    def test_product_with_k1_is_isomorphic(self, d2, k1):
        prod, _ = strong_product(d2, k1)
        assert prod.n == d2.n
        assert prod.arcs == d2.arcs  # encode is the identity for n2 = 1

    def test_two_path_squared(self):
        path = from_arcs(2, [(0, 1)])
        prod, _ = strong_product(path, path)
        assert prod.arcs == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}

    def test_budget_overflow(self, d1, d2):
        with pytest.raises(SizeOverflow):
            strong_product(d1, d2, budget=14)

    @settings(max_examples=30)
    @given(digraphs(max_n=4), digraphs(max_n=4))
    def test_strong_iff_both_factors_strong(self, a, b):
        prod, _ = strong_product(a, b)
        assert is_strong(prod) == (is_strong(a) and is_strong(b))

    @settings(max_examples=30)
    @given(digraphs(max_n=4), digraphs(max_n=4))
    def test_arcs_match_oracle_rules(self, a, b):
        prod, _ = strong_product(a, b)
        assert prod.arcs == oracles.strong_product_arcs(a.n, a.arcs, b.n, b.arcs)
        assert prod.arc_count == product_arc_count(a, b)

    @settings(max_examples=60)
    @given(digraphs(max_n=5), digraphs(max_n=5))
    @example(from_arcs(1, []), from_arcs(1, []))
    @example(from_arcs(1, []), from_arcs(3, CYCLE3))
    @example(from_arcs(3, CYCLE3), from_arcs(1, []))
    @example(from_arcs(1, []), from_arcs(4, []))
    def test_arrays_match_from_arcs_of_oracle_rules(self, a, b):
        # The product's keys skip from_arcs' checks; its six CSR arrays must
        # still be exactly those from_arcs builds from the oracle's arc set,
        # and hold the oracle's out-, in- and undirected rows.
        prod, _ = strong_product(a, b)
        arcs = oracles.strong_product_arcs(a.n, a.arcs, b.n, b.arcs)
        ref = from_arcs(prod.n, sorted(arcs))
        for name in CSR_FIELDS:
            got, want = getattr(prod, name), getattr(ref, name)
            assert got.dtype == want.dtype == np.int32, name
            assert not got.flags.writeable and not want.flags.writeable, name
            assert np.array_equal(got, want), name
        back = {(y, x) for x, y in arcs}
        for kind, pairs in (("out", arcs), ("in", back), ("und", arcs | back)):
            rows = [sorted(y for x, y in pairs if x == v) for v in range(prod.n)]
            indptr = getattr(prod, f"{kind}_indptr")
            assert indptr.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist(), kind
            assert getattr(prod, f"{kind}_indices").tolist() == sum(rows, []), kind

    def test_never_calls_from_arcs(self, monkeypatch, d1, d2):
        def refuse(*args):
            raise AssertionError("strong_product called from_arcs")

        monkeypatch.setattr(strongbounds, "from_arcs", refuse)
        monkeypatch.setattr(digraph_mod, "from_arcs", refuse)
        monkeypatch.setattr(product_mod, "from_arcs", refuse, raising=False)
        prod, _ = strong_product(d1, d2)
        assert prod.arcs == oracles.strong_product_arcs(d1.n, d1.arcs, d2.n, d2.arcs)

    @pytest.mark.parametrize("n, budget", [(4, 15), (60_000, 10**10)], ids=["budget", "int64-keys"])
    def test_size_overflow_before_any_key_array(self, monkeypatch, n, budget):
        # 60 000² vertices are within the budget, but their keys overflow int64.
        def refuse(d):
            raise AssertionError("key array built")

        monkeypatch.setattr(product_mod, "_closed_arc_ends", refuse)
        d = from_arcs(n, [])
        with pytest.raises(SizeOverflow):
            strong_product(d, d, budget=budget)


class TestProductLabel:
    @given(st.integers(1, 40), st.integers(1, 40))
    def test_encode_decode_bijection(self, n1, n2):
        label = ProductLabel(n1, n2)
        seen = set()
        for i in range(n1):
            for r in range(n2):
                x = label.encode(i, r)
                assert label.decode(x) == (i, r)
                seen.add(x)
        assert seen == set(range(n1 * n2))


class TestProductMetric:
    def test_example_distance(self, example_pair, example_product):
        # md((i,r),(j,s)) = max(md1(i,j), md2(r,s)), on the built product
        prod, label = example_product
        md, p1, p2 = metric_profile(prod).md, example_pair.p1, example_pair.p2
        assert md[label.encode(0, 0), label.encode(2, 4)] == max(p1.md[0, 2], p2.md[0, 4]) == 4
        assert md[label.encode(1, 2), label.encode(1, 2)] == 0

    def test_example_profile(self, example_pair, example_product):
        prof = product_metric_profile(example_pair)
        assert (prof.radius, prof.diameter) == (2, 4)
        assert prof.ecc.tolist() == [4, 3, 2, 3, 4] * 3
        prod, _ = example_product
        direct = metric_profile(prod)
        assert np.array_equal(prof.md, direct.md)
        assert np.array_equal(prof.ecc, direct.ecc)

    def test_example_ecc_labels(self, example_pair):
        label = ProductLabel(3, 5)
        ecc = product_metric_summary(example_pair).ecc
        assert ecc.dtype == np.int32
        assert ecc[label.encode(1, 2)] == 2  # (u2,v3)
        assert ecc[label.encode(0, 1)] == 3  # (u1,v2)

    def test_k1_identity_profile(self, d2, k1):
        pair = FactorPair.from_digraphs(d2, k1)
        prof = product_metric_profile(pair)
        base = metric_profile(d2)
        assert np.array_equal(prof.md, base.md)
        assert (prof.radius, prof.diameter) == (base.radius, base.diameter)

    def test_profile_budget_guard(self, example_pair):
        with pytest.raises(SizeOverflow):
            product_metric_profile(example_pair, budget=10)

    @settings(max_examples=25, deadline=None)
    @given(small_factor_pairs())
    def test_metric_identities_vs_direct(self, pair_of):
        a, b = pair_of
        pair = FactorPair.from_digraphs(a, b)
        prod, _ = strong_product(a, b)
        direct = metric_profile(prod)
        from_factors = product_metric_profile(pair)
        assert np.array_equal(from_factors.md, direct.md)
        assert np.array_equal(from_factors.ecc, direct.ecc)
        assert from_factors.radius == direct.radius
        assert from_factors.diameter == direct.diameter


class TestExampleFormulaSets:
    """Frozen outcomes on the worked example pair."""

    def test_boundary_formula_output(self, example_pair):
        assert ids(product_boundary_via_factors(example_pair)) == ALL15 - {1, 6, 7, 11}

    def test_boundary_direct_output(self, example_product):
        prod, _ = example_product
        direct = ids(boundary_set(metric_profile(prod), prod))
        assert direct == ALL15 - {6, 7}

    def test_boundary_formula_misses_true_members(self, example_pair, example_product):
        # the factor characterization excludes (u1,v2) and (u3,v2) even though
        # both are boundary (indeed eccentric) vertices of the product
        prod, _ = example_product
        direct = ids(boundary_set(metric_profile(prod), prod))
        formula = ids(product_boundary_via_factors(example_pair))
        assert direct - formula == {1, 11}
        assert formula <= direct

    def test_periphery_both_routes(self, example_pair, example_product):
        expected = frozenset({0, 4, 5, 9, 10, 14})
        assert ids(product_periphery_via_factors(example_pair)) == expected
        prod, _ = example_product
        assert ids(periphery_set(metric_profile(prod))) == expected

    def test_eccentric_both_routes(self, example_pair, example_product):
        expected = ALL15 - {6, 7, 8}
        assert ids(product_eccentric_via_factors(example_pair)) == expected
        prod, _ = example_product
        assert ids(eccentric_set(metric_profile(prod))) == expected

    def test_contour_both_routes(self, example_pair, example_product):
        expected = frozenset({0, 4, 5, 9, 10, 14})
        assert ids(product_contour_via_factors(example_pair)) == expected
        prod, _ = example_product
        assert ids(contour_set(metric_profile(prod), prod)) == expected

    def test_formula_sets_break_hierarchy_here(self, example_pair):
        # with every set computed by its factor formula, the eccentricity set
        # is NOT contained in the boundary on this pair: the boundary
        # characterization is the odd one out
        ecc = ids(product_eccentric_via_factors(example_pair))
        bd = ids(product_boundary_via_factors(example_pair))
        assert not ecc <= bd
        assert ecc - bd == {1, 11}


class TestK1Cases:
    def test_k1_times_d_boundary(self, d2, k1):
        pair = FactorPair.from_digraphs(k1, d2)
        p2 = metric_profile(d2)
        assert ids(product_boundary_via_factors(pair)) == ids(boundary_set(p2, d2))

    def test_d_times_k1_sets(self, d2, k1):
        pair = FactorPair.from_digraphs(d2, k1)
        p2 = metric_profile(d2)
        assert ids(product_periphery_via_factors(pair)) == ids(periphery_set(p2))
        assert ids(product_eccentric_via_factors(pair)) == ids(eccentric_set(p2))
        assert ids(product_contour_via_factors(pair)) == ids(contour_set(p2, d2))


class TestExactFactorRoutes:
    """The exact boundary and contour routes against the plain-Python oracles."""

    @staticmethod
    def assert_exact(a, b):
        boundary, contour = oracle_product_sets(a, b)
        pair = FactorPair.from_digraphs(a, b)
        assert ids(product_boundary_exact_via_factors(pair)) == boundary
        assert ids(product_contour_exact_via_factors(pair)) == contour

    def test_example_pair(self, d1, d2, example_pair):
        boundary, contour = oracle_product_sets(d1, d2)
        assert boundary == ALL15 - {6, 7}
        assert contour == {0, 4, 5, 9, 10, 14}
        assert ids(product_boundary_exact_via_factors(example_pair)) == boundary
        assert ids(product_contour_exact_via_factors(example_pair)) == contour

    def test_frozen_boundary_counterexample(self):
        self.assert_exact(from_arcs(*CE_BOUNDARY_D1), from_arcs(*CE_BOUNDARY_D2))

    def test_frozen_contour_counterexample(self):
        self.assert_exact(from_arcs(*CE_CONTOUR_D1), from_arcs(*CE_CONTOUR_D2))

    def test_k1_cases(self, d2, k1):
        self.assert_exact(k1, d2)
        self.assert_exact(d2, k1)
        self.assert_exact(k1, k1)

    @settings(max_examples=40, deadline=None)
    @given(small_factor_pairs())
    def test_matches_oracle(self, pair_of):
        self.assert_exact(*pair_of)

    @settings(max_examples=60, deadline=None)
    @given(strong_digraphs(max_n=7))
    @example(from_arcs(1, []))
    def test_witness_reach_shares_the_boundary_reduction(self, d):
        # A and m against their definitions; A(v) >= 0 iff v has a witness,
        # so the boundary scan and the exact route read the same W.
        p = metric_profile(d)
        reach, least = _witness_reach(d, p)
        assert (reach.tolist(), least.tolist()) == oracles.witness_reach(d.n, d.arcs, p.md.tolist())
        assert ids(boundary_set(p, d)) == ids(reach >= 0)


class TestEqualParameterCases:
    def test_equal_diameter_periphery(self):
        c = from_arcs(3, CYCLE3)
        pair = FactorPair.from_digraphs(c, c)
        assert ids(product_periphery_via_factors(pair)) == set(range(9))

    def test_equal_radius_eccentric(self):
        c = from_arcs(3, CYCLE3)
        pair = FactorPair.from_digraphs(c, c)
        assert ids(product_eccentric_via_factors(pair)) == set(range(9))

    @pytest.mark.parametrize(
        "first, second",
        [
            ((D1_N, D1_ARCS), (D2_N, D2_ARCS)),  # radius 1 < 2, diameter 2 < 4
            ((D2_N, D2_ARCS), (D1_N, D1_ARCS)),  # both orderings reversed
            ((3, CYCLE3), (D2_N, D2_ARCS)),  # equal radius 2
            ((D1_N, D1_ARCS), (3, CYCLE3)),  # equal diameter 2
            ((1, []), (D2_N, D2_ARCS)),  # one-vertex factor
        ],
        ids=["d1-d2", "d2-d1", "c3-d2", "d1-c3", "k1-d2"],
    )
    def test_closed_forms_match_oracles(self, first, second):
        a, b = from_arcs(*first), from_arcs(*second)
        n = a.n * b.n
        md = oracles.md_table(n, oracles.strong_product_arcs(a.n, a.arcs, b.n, b.arcs))
        pair = FactorPair.from_digraphs(a, b)
        assert ids(product_periphery_via_factors(pair)) == oracles.periphery(n, md)
        assert ids(product_eccentric_via_factors(pair)) == oracles.eccentric(n, md)

    def test_contour_contains_cross_product(self, d1):
        pair = FactorPair.from_digraphs(d1, d1)
        p1 = metric_profile(d1)
        ct = ids(contour_set(p1, d1))
        label = ProductLabel(d1.n, d1.n)
        cross = {label.encode(i, r) for i in ct for r in ct}
        assert cross <= ids(product_contour_via_factors(pair))


class TestFormulasAlwaysSound:
    """Periphery and eccentricity-set formulas agree with the direct route."""

    @settings(max_examples=30, deadline=None)
    @given(small_factor_pairs())
    def test_periphery(self, pair_of):
        a, b = pair_of
        pair = FactorPair.from_digraphs(a, b)
        prod, _ = strong_product(a, b)
        assert ids(product_periphery_via_factors(pair)) == ids(periphery_set(metric_profile(prod)))

    @settings(max_examples=30, deadline=None)
    @given(small_factor_pairs())
    def test_eccentric(self, pair_of):
        a, b = pair_of
        pair = FactorPair.from_digraphs(a, b)
        prod, _ = strong_product(a, b)
        assert ids(product_eccentric_via_factors(pair)) == ids(eccentric_set(metric_profile(prod)))


class TestKnownDivergences:
    """Frozen minimized counterexamples for the boundary/contour formulas."""

    def test_boundary_formula_misses_member(self):
        a = from_arcs(*CE_BOUNDARY_D1)
        b = from_arcs(*CE_BOUNDARY_D2)
        pair = FactorPair.from_digraphs(a, b)
        prod, _ = strong_product(a, b)
        direct = ids(boundary_set(metric_profile(prod), prod))
        formula = ids(product_boundary_via_factors(pair))
        assert direct - formula == {12}
        assert formula <= direct

    def test_contour_formula_overclaims(self):
        a = from_arcs(*CE_CONTOUR_D1)
        b = from_arcs(*CE_CONTOUR_D2)
        pair = FactorPair.from_digraphs(a, b)
        prod, _ = strong_product(a, b)
        direct = ids(contour_set(metric_profile(prod), prod))
        formula = ids(product_contour_via_factors(pair))
        assert formula - direct == {0, 15}
        assert direct <= formula

    def test_contour_overclaim_mechanism(self):
        # the second factor has an eccentricity jump of 2 across a one-way
        # arc, which the three-case formula cannot see
        b = from_arcs(*CE_CONTOUR_D2)
        p = metric_profile(b)
        assert p.ecc.tolist() == [2, 4, 4, 3, 4]
        assert p.ecc[1] - p.ecc[0] == 2 and 1 in b.und_indices[b.und_indptr[0]:b.und_indptr[1]]


class TestNeighborhoodIdentity:
    @settings(max_examples=30, deadline=None)
    @given(small_factor_pairs())
    def test_containment_always(self, pair_of):
        a, b = pair_of
        prod, label = strong_product(a, b)
        for i in range(a.n):
            for r in range(b.n):
                full = {label.encode(j, s)
                        for j in closed_neighbors(a, i) for s in closed_neighbors(b, r)}
                assert closed_neighbors(prod, label.encode(i, r)) <= full

    @settings(max_examples=20, deadline=None)
    @given(bidirected_strong_digraphs(max_n=4), strong_digraphs(max_n=4))
    def test_equality_with_a_bidirected_factor(self, a, b):
        prod, label = strong_product(a, b)
        for i in range(a.n):
            for r in range(b.n):
                full = {label.encode(j, s)
                        for j in closed_neighbors(a, i) for s in closed_neighbors(b, r)}
                assert closed_neighbors(prod, label.encode(i, r)) == full

    def test_identity_fails_for_one_way_cycles(self):
        c = from_arcs(3, CYCLE3)
        prod, label = strong_product(c, c)
        v = label.encode(0, 1)
        full = {label.encode(j, s)
                for j in closed_neighbors(c, 0) for s in closed_neighbors(c, 1)}
        missing = full - closed_neighbors(prod, v)
        assert missing == {label.encode(1, 0), label.encode(2, 2)}


class TestCommutativity:
    @settings(max_examples=25, deadline=None)
    @given(small_factor_pairs())
    def test_swap_isomorphism_and_set_transport(self, pair_of):
        a, b = pair_of
        prod_ab, _ = strong_product(a, b)
        prod_ba, _ = strong_product(b, a)
        swap = lambda x: (x % b.n) * a.n + x // b.n
        assert {(swap(t), swap(h)) for t, h in prod_ab.arcs} == prod_ba.arcs

        pair_ab = FactorPair.from_digraphs(a, b)
        pair_ba = FactorPair.from_digraphs(b, a)
        for fwd, rev in (
            (product_boundary_via_factors, product_boundary_via_factors),
            (product_boundary_exact_via_factors, product_boundary_exact_via_factors),
            (product_contour_exact_via_factors, product_contour_exact_via_factors),
            (product_periphery_via_factors, product_periphery_via_factors),
            (product_eccentric_via_factors, product_eccentric_via_factors),
            (product_contour_via_factors, product_contour_via_factors),
        ):
            # (i, r) -> (r, i) carries a mask of a ⊠ b onto b ⊠ a
            assert ids(fwd(pair_ab).reshape(a.n, b.n).T.ravel()) == ids(rev(pair_ba))


class TestUndirectedFormulaReport:
    def test_example_difference(self, example_pair):
        report = undirected_formula_counterexample(example_pair)
        assert ids(report.difference) == {1, 11}
        assert ids(report.candidate) == ALL15 - {6, 7}

    def test_example_candidate_equals_direct_boundary(self, example_pair, example_product):
        # on this pair the undirected-style identity actually matches the
        # definition-level boundary; the nonempty difference above is against
        # the factor characterization
        prod, _ = example_product
        direct = ids(boundary_set(metric_profile(prod), prod))
        report = undirected_formula_counterexample(example_pair)
        assert ids(report.candidate) == direct

    def test_k1_pair_empty(self, k1):
        pair = FactorPair.from_digraphs(k1, k1)
        assert ids(undirected_formula_counterexample(pair).difference) == set()

    def test_k1_factor_saturates_candidate(self, d1, k1):
        # a single-vertex factor is vacuously boundary, so the undirected-style
        # candidate covers every product vertex while the boundary of K1 x D
        # is just the boundary of D: the identity needs nontrivial factors
        pair = FactorPair.from_digraphs(k1, d1)
        report = undirected_formula_counterexample(pair)
        assert ids(report.candidate) == set(range(d1.n))
        assert ids(report.factor_boundary) == {0, 2}
        assert ids(report.difference) == {1}

    @settings(max_examples=25, deadline=None)
    @given(bidirected_strong_digraphs(min_n=2, max_n=4),
           bidirected_strong_digraphs(min_n=2, max_n=4))
    def test_bidirected_pairs_empty(self, a, b):
        pair = FactorPair.from_digraphs(a, b)
        report = undirected_formula_counterexample(pair)
        assert ids(report.difference) == set()
        # and there the identity is genuinely the boundary of the product
        prod, _ = strong_product(a, b)
        assert ids(report.candidate) == ids(boundary_set(metric_profile(prod), prod))


class TestIdentitySemantics:
    """Dataclasses that hold ndarrays or dicts compare and hash by identity, never by field."""

    @pytest.mark.parametrize(
        "kind",
        ["MetricProfile", "FactorPair", "ProductMetricSummary", "EdgeListDocument"],
    )
    def test_eq_and_hash_return_values(self, kind, d1, d2, d1_path):
        make = {
            "MetricProfile": lambda: metric_profile(d2),
            "FactorPair": lambda: FactorPair.from_digraphs(d1, d2),
            "ProductMetricSummary": lambda: product_metric_summary(
                FactorPair.from_digraphs(d1, d2)
            ),
            "EdgeListDocument": lambda: strongbounds.parse_edge_list(d1_path.read_text()),
        }[kind]
        a, b = make(), make()
        assert type(a).__name__ == kind
        assert (a == a) is True
        assert (a == b) is False
        assert (a != b) is True
        assert isinstance(hash(a), int)

