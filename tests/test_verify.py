"""The randomized verification harness itself."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
import strongbounds.product as product_mod
import strongbounds.verify as verify_mod
from strongbounds import (
    InvalidConfig,
    SizeOverflow,
    eccentric_set,
    from_arcs,
    generate_strong_digraph,
    is_strong,
    metric_profile,
    parse_edge_list,
    strong_product,
)
from strongbounds.cli import EXIT_VIOLATION, main
from strongbounds.digraph import _from_out_keys
from strongbounds.verify import (
    PROPERTIES,
    _check_metric_axioms,
    _check_trial,
    _closed_sets,
    _minimize,
    run_verification,
)
from conftest import CE_BOUNDARY_D1, CE_BOUNDARY_D2, NON_ECCENTRIC_MEMBER
from oracles import ids
from strategies import strong_digraphs


class TestConfig:
    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidConfig):
            run_verification(trials=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfig):
            run_verification(trials=1, seed=-1)

    def test_empty_p_values_rejected(self):
        with pytest.raises(InvalidConfig):
            run_verification(trials=1, p_values=())

    @pytest.fixture
    def draws(self, monkeypatch):
        """The factor sizes ``run_verification`` asks the generator for."""
        sizes = []

        def counting_generate(n, p, seed):
            sizes.append(n)
            return generate_strong_digraph(n, p, seed)

        monkeypatch.setattr(verify_mod, "generate_strong_digraph", counting_generate)
        return sizes

    def test_n_max_past_vertex_budget_rejected_before_any_draw(self, draws):
        # 101 * 101 = 10 201 product vertices exceed DEFAULT_VERTEX_BUDGET
        with pytest.raises(SizeOverflow, match=r"^--n-max 101 .* budget of 10000 vertices$"):
            run_verification(1, n_max=101)
        assert draws == []

    def test_n_max_at_vertex_budget_runs(self, draws):
        # seed 34 draws n1 = 8 and n2 = 2 from 2..100, so the trial is small
        assert run_verification(1, n_max=100, seed=34).trials == 1
        assert draws == [8, 2]


class TestOutcomes:
    def test_clean_corpus_passes(self):
        # seed pinned to a corpus where even the defective characterizations
        # happen to agree; flags any regression in the sound machinery
        summary = run_verification(trials=12, seed=3)
        assert summary.ok
        assert summary.passed["periphery-formula-vs-direct"] == 12
        assert all(prop in summary.passed for prop in PROPERTIES)

    def test_corpus_with_divergence_reports_it(self):
        summary = run_verification(trials=12, seed=0)
        assert not summary.ok
        assert "boundary-formula-vs-direct" in summary.failed
        # the sound suites never trip
        assert "periphery-formula-vs-direct" not in summary.failed
        assert "eccentric-formula-vs-direct" not in summary.failed
        assert "product-metric-identities" not in summary.failed
        assert "metric-axioms" not in summary.failed
        assert "inclusion-chains" not in summary.failed
        assert "open-closed-equivalence" not in summary.failed

    def test_counterexample_dump_reproduces(self):
        summary = run_verification(trials=12, seed=0)
        v = summary.violation
        assert (v.prop, v.trial) == ("boundary-formula-vs-direct", 3)
        a = parse_edge_list(v.d1_edge_list).digraph
        b = parse_edge_list(v.d2_edge_list).digraph
        assert _check_trial(a, b, (v.prop,))[v.prop] is not None

    def test_minimized_dump_is_locally_minimal(self):
        summary = run_verification(trials=12, seed=0)
        v = summary.violation
        a = parse_edge_list(v.d1_edge_list).digraph
        b = parse_edge_list(v.d2_edge_list).digraph
        for arc in sorted(a.arcs):
            trimmed = from_arcs(a.n, sorted(a.arcs - {arc}))
            assert not is_strong(trimmed) or _check_trial(trimmed, b, (v.prop,))[v.prop] is None

    def test_one_product_build_per_trial(self, monkeypatch):
        calls = []

        def counting_product(d1, d2, *args):
            calls.append((d1, d2))
            return strong_product(d1, d2, *args)

        monkeypatch.setattr(verify_mod, "strong_product", counting_product)
        summary = run_verification(trials=12, seed=3)  # clean corpus: no minimizer calls
        assert summary.ok
        assert len(calls) == 12

    def test_minimizes_only_the_first_violation(self, monkeypatch):
        calls = []

        def counting_minimize(d1, d2, prop):
            calls.append(prop)
            return _minimize(d1, d2, prop)

        monkeypatch.setattr(verify_mod, "_minimize", counting_minimize)
        summary = run_verification(trials=200, seed=0)
        assert sum(summary.failed.values()) > 1
        assert calls == [summary.violation.prop]
        calls.clear()
        assert run_verification(trials=12, seed=3).ok
        assert calls == []

    def test_summary_lines_shape(self):
        summary = run_verification(trials=3, seed=3)
        lines = summary.lines()
        assert len(lines) == len(PROPERTIES)
        assert all("ok" in line or "FAIL" in line for line in lines)


def frozenset_minimize(d1, d2, prop):
    """The minimizer as it was on Python arc sets: the reference for _minimize."""
    def shrink(da, db, first):
        changed = True
        while changed:
            changed = False
            for arc in sorted(da.arcs):
                trimmed = from_arcs(da.n, sorted(da.arcs - {arc}))
                if not is_strong(trimmed):
                    continue
                cand = (trimmed, db) if first else (db, trimmed)
                if _check_trial(cand[0], cand[1], (prop,))[prop] is not None:
                    da = trimmed
                    changed = True
        return (da, db) if first else (db, da)

    d1, d2 = shrink(d1, d2, True)
    d2, d1 = shrink(d2, d1, False)
    return d1, d2


def record_failures(monkeypatch, trials, seed, limit):
    """The first `limit` failing (d1, d2, prop) cases of a corpus, unminimized, in report order."""
    cases = []

    def recording_check(d1, d2, props):
        result = _check_trial(d1, d2, props)
        if props == PROPERTIES:  # a corpus trial, not a minimizer candidate
            cases.extend((d1, d2, prop) for prop, msg in result.items() if msg is not None)
        return result

    monkeypatch.setattr(verify_mod, "_check_trial", recording_check)
    run_verification(trials=trials, seed=seed)
    return cases[:limit]


class TestMinimizer:
    def test_builds_only_strong_candidates(self, monkeypatch):
        [(a, b, prop)] = record_failures(monkeypatch, trials=12, seed=0, limit=1)
        built = []

        def recording_from_out_keys(n, keys):
            d = _from_out_keys(n, keys)
            built.append(d)
            return d

        monkeypatch.setattr(verify_mod, "_from_out_keys", recording_from_out_keys)
        _minimize(a, b, prop)
        candidates = a.arc_count + b.arc_count  # the first pass over each factor alone
        assert 0 < len(built) < candidates
        assert all(is_strong(d) for d in built)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_violation_matches_frozenset_reference(self, monkeypatch, seed):
        # verify minimizes only the first failure; this minimizes the first ten both ways
        cases = record_failures(monkeypatch, trials=200, seed=seed, limit=10)
        assert len(cases) == 10
        for d1, d2, prop in cases:
            assert _minimize(d1, d2, prop) == frozenset_minimize(d1, d2, prop)


class TestGoldenOutput:
    """verify stdout is pinned byte for byte: tallies, first violation and minimized dump.

    The digests were recorded from the full-column boundary scan that the
    witness-first scan replaced; any change to the corpus, a property, the
    minimizer or the scans that alters one byte shows here.
    """

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (("verify", "--trials", "200", "--seed", "0"),
             "a5a58178d9a7e967491b411623a0c0cd9e72b6a421e389eb754e9e5f420c26e5"),
            (("verify", "--trials", "60", "--seed", "7"),
             "2b86fe680ba37a14ce8f1aacbac15fb90d94b978ed514f7e6ba7d801944020b1"),
        ],
        ids=["trials200-seed0", "trials60-seed7"],
    )
    def test_stdout_digest(self, capsys, argv, sha256):
        assert main(list(argv)) == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == sha256


class TestPlantedFault:
    """The harness must catch a deliberately wrong formula (self-test)."""

    def test_planted_wrong_formula_detected(self, monkeypatch):
        def wrong_periphery(pair):
            mask = np.zeros(pair.d1.n * pair.d2.n, dtype=bool)
            mask[0] = True
            return mask

        # the formula bundle looks the periphery formula up in `product`
        monkeypatch.setattr(product_mod, "product_periphery_via_factors", wrong_periphery)
        summary = run_verification(trials=1, seed=3)
        assert not summary.ok
        assert summary.violation.prop == "periphery-formula-vs-direct"

    @pytest.mark.parametrize(
        "field, message",
        [
            ("contour", "periphery not within contour ∩ eccentricity set"),
            ("boundary", "eccentricity set ∪ contour not within boundary"),
        ],
    )
    def test_planted_inclusion_fault_detected(self, monkeypatch, field, message):
        real = verify_mod.boundary_profile

        def emptied(p, d):
            return dataclasses.replace(real(p, d), **{field: np.zeros(d.n, dtype=bool)})

        monkeypatch.setattr(verify_mod, "boundary_profile", emptied)
        d = from_arcs(*CE_BOUNDARY_D1)
        prop = "inclusion-chains"
        assert _check_trial(d, d, (prop,))[prop] == f"product: {message}"


class TestCheckTrialAgainstOracles:
    def test_known_boundary_divergence_detected(self):
        a = from_arcs(*CE_BOUNDARY_D1)
        b = from_arcs(*CE_BOUNDARY_D2)
        prop = "boundary-formula-vs-direct"
        msg = _check_trial(a, b, (prop,))[prop]
        assert msg is not None and "[12]" in msg

    def test_oracle_concurs_on_divergence(self):
        # definition-level oracle agrees the direct route is the true set
        a = from_arcs(*CE_BOUNDARY_D1)
        b = from_arcs(*CE_BOUNDARY_D2)
        arcs = oracles.strong_product_arcs(a.n, a.arcs, b.n, b.arcs)
        n = a.n * b.n
        md = oracles.md_table(n, arcs)
        true_boundary = oracles.boundary(n, arcs, md)
        assert 12 in true_boundary


class TestMetricAxioms:
    def test_int8_md_sums_do_not_wrap(self):
        # a directed 128-cycle has md values up to 127 in an int8 table, where
        # 127 + 127 would wrap to -2 and read as a triangle violation
        n = 128
        md = metric_profile(from_arcs(n, [(v, (v + 1) % n) for v in range(n)])).md
        assert md.dtype == np.int8 and md.max() == 127
        assert _check_metric_axioms(md) is None
        planted = md.copy()
        planted[0, 1] = planted[1, 0] = planted[1, 2] = planted[2, 1] = 1  # md(0, 2) is 126
        assert _check_metric_axioms(planted) == "md triangle inequality violated"


def assert_closed_sets_match_oracles(d):
    p = metric_profile(d)
    md = oracles.md_table(d.n, d.arcs)
    boundary, contour = _closed_sets(p, d)
    assert ids(boundary) == oracles.boundary(d.n, d.arcs, md, closed=True)
    assert ids(contour) == oracles.contour(d.n, d.arcs, md, closed=True)
    return boundary


class TestClosedReference:
    """_closed_sets, the N[v] reference that open-closed-equivalence holds the library to."""

    @settings(max_examples=60)
    @given(strong_digraphs())
    def test_digraphs(self, d):
        assert_closed_sets_match_oracles(d)

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(max_n=4), strong_digraphs(max_n=4))
    def test_products(self, a, b):
        assert_closed_sets_match_oracles(strong_product(a, b)[0])

    def test_one_vertex(self, k1):
        assert assert_closed_sets_match_oracles(k1).tolist() == [True]

    def test_non_eccentric_member(self):
        """Vertex 5 is eccentric for nobody, so only the all-u test can admit it."""
        d = from_arcs(*NON_ECCENTRIC_MEMBER)
        assert not eccentric_set(metric_profile(d))[5]
        assert assert_closed_sets_match_oracles(d)[5]

    @pytest.mark.parametrize("field", [0, 1], ids=["boundary", "contour"])
    def test_flipped_vertex_is_reported(self, monkeypatch, field):
        real = verify_mod._closed_sets

        def flipped(p, d):
            sets = real(p, d)
            sets[field][0] = not sets[field][0]
            return sets

        monkeypatch.setattr(verify_mod, "_closed_sets", flipped)
        d1, d2 = from_arcs(*CE_BOUNDARY_D1), from_arcs(*CE_BOUNDARY_D2)
        prop = "open-closed-equivalence"
        name = ("boundary", "contour")[field]
        assert _check_trial(d1, d2, (prop,))[prop] == (
            f"D1: {name} differs between open and closed neighborhoods"
        )
