"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to see every line. Criterion 1 pins
the definition-level boundary of the worked example product, a 13-pair listing
checked with the plain-Python oracles in `oracles.py`. Criterion 2 checks the
library's factor-side routes against direct computation on the constructed
products: the exact boundary and contour routes, and the periphery and
eccentricity-set formulas. The paper's stated boundary and contour
characterizations diverge from the definition-level sets on some pairs;
criterion 2 prints their agreement tallies as evidence, and README.md
("Verification status") walks through the divergence.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from strongbounds import (
    FactorPair,
    ProductLabel,
    boundary_profile,
    boundary_set,
    from_arcs,
    generate_strong_digraph,
    metric_profile,
    parse_edge_list,
    product_boundary_exact_via_factors,
    product_boundary_via_factors,
    product_contour_exact_via_factors,
    product_contour_via_factors,
    product_eccentric_via_factors,
    product_metric_profile,
    product_periphery_via_factors,
    strong_product,
    undirected_boundary_candidate,
)
from strongbounds.cli import main as cli_main
from oracles import ids

ACCEPTANCE_SEED = 2026
P_VALUES = (0.2, 0.4, 0.7)
TRIALS = 200

# Definition-level boundary of the worked example product, as (i, r) pairs for
# (u_{i+1}, v_{r+1}): every pair except (u2,v2) and (u2,v3). Checked with the
# plain-Python oracles in oracles.py, which give the same 13 pairs for
# undirected and for out-neighborhoods (14 for in-neighborhoods).
# (u1,v2) and (u3,v2) are in the product's eccentricity set, and an eccentric
# vertex is a boundary vertex: if md(u,v) = ecc(u), no neighbor of v is
# md-farther from u. Every candidate witness of (u2,v3) has a neighbor that is
# md-farther from it than (u2,v3).
EXAMPLE_PRODUCT_BOUNDARY = (
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 0), (1, 3), (1, 4),
    (2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def corpus():
    """200 deterministic factor pairs, products, and both set routes."""
    t0 = time.perf_counter()
    master = np.random.default_rng(ACCEPTANCE_SEED)
    entries = []
    for t in range(TRIALS):
        n1 = int(master.integers(2, 8))
        n2 = int(master.integers(2, 8))
        p = P_VALUES[t % len(P_VALUES)]
        s1 = int(master.integers(0, 2**63 - 1))
        s2 = int(master.integers(0, 2**63 - 1))
        d1 = generate_strong_digraph(n=n1, p=p, seed=s1).digraph
        d2 = generate_strong_digraph(n=n2, p=p, seed=s2).digraph
        pair = FactorPair.from_digraphs(d1, d2)
        prod, _ = strong_product(d1, d2)
        prod_profile = metric_profile(prod)
        entries.append(
            SimpleNamespace(
                d1=d1,
                d2=d2,
                pair=pair,
                prod=prod,
                prod_profile=prod_profile,
                direct=boundary_profile(prod_profile, prod),
                formula=SimpleNamespace(
                    boundary=product_boundary_exact_via_factors(pair),
                    periphery=product_periphery_via_factors(pair),
                    eccentric=product_eccentric_via_factors(pair),
                    contour=product_contour_exact_via_factors(pair),
                ),
                paper=SimpleNamespace(
                    boundary=product_boundary_via_factors(pair),
                    contour=product_contour_via_factors(pair),
                ),
            )
        )
    return SimpleNamespace(entries=entries, build_seconds=time.perf_counter() - t0)


def test_criterion_1_example_golden(d1_path, d2_path):
    """Example reproduction: factor ecc labels, factor boundaries, product boundary listing.

    The product boundary is checked twice against the 13-pair listing: once
    on the constructed product, once by the exact factor-side route. The
    paper's characterization yields 11 pairs here; the failure message
    reports it as evidence.
    """
    t0 = time.perf_counter()
    doc1 = parse_edge_list(d1_path.read_text())
    doc2 = parse_edge_list(d2_path.read_text())
    p1 = metric_profile(doc1.digraph)
    p2 = metric_profile(doc2.digraph)
    b1 = ids(boundary_set(p1, doc1.digraph))
    b2 = ids(boundary_set(p2, doc2.digraph))

    pair = FactorPair.from_digraphs(doc1.digraph, doc2.digraph)
    prod, label = strong_product(doc1.digraph, doc2.digraph)
    direct = ids(boundary_set(metric_profile(prod), prod))
    exact = ids(product_boundary_exact_via_factors(pair))
    formula = ids(product_boundary_via_factors(pair))
    listed = {label.encode(i, r) for i, r in EXAMPLE_PRODUCT_BOUNDARY}
    elapsed = time.perf_counter() - t0

    clauses = [
        ("ecc labels D1", p1.ecc.tolist() == [2, 1, 2]),
        ("ecc labels D2", p2.ecc.tolist() == [4, 3, 2, 3, 4]),
        ("boundary D1 = {u1,u3}", b1 == {0, 2}),
        ("boundary D2 = {v1,v4,v5}", b2 == {0, 3, 4}),
        ("product boundary = 13 listed pairs", direct == listed),
        ("exact factor boundary = listing", exact == listed),
        ("under 1 s", elapsed < 1.0),
    ]
    ok = all(flag for _, flag in clauses)
    detail = "; ".join(f"{name}={'ok' if flag else 'VIOLATED'}" for name, flag in clauses)
    _report("criterion 1 (example golden reproduction)", ok, detail)
    assert ok, (
        f"{detail}; direct boundary has {len(direct)} members {sorted(direct)}, "
        f"exact factor route has {len(exact)} members {sorted(exact)}, "
        f"paper formula has {len(formula)} members {sorted(formula)}, "
        f"listing has {len(listed)} members {sorted(listed)}"
    )


def test_criterion_2_formula_vs_direct_equivalence(corpus):
    """Factor-side sets equal direct computation on every pair.

    Boundary and contour come from the exact factor routes, periphery and
    eccentricity set from their formulas. The paper's boundary and contour
    characterizations are tallied too, as evidence of their divergence; they
    do not decide the outcome.
    """
    t0 = time.perf_counter()
    mismatches = {"boundary": 0, "periphery": 0, "eccentric": 0, "contour": 0}
    paper_mismatches = {"boundary": 0, "contour": 0}
    for e in corpus.entries:
        if ids(e.formula.boundary) != ids(e.direct.boundary):
            mismatches["boundary"] += 1
        if ids(e.formula.periphery) != ids(e.direct.periphery):
            mismatches["periphery"] += 1
        if ids(e.formula.eccentric) != ids(e.direct.eccentricity):
            mismatches["eccentric"] += 1
        if ids(e.formula.contour) != ids(e.direct.contour):
            mismatches["contour"] += 1
        if ids(e.paper.boundary) != ids(e.direct.boundary):
            paper_mismatches["boundary"] += 1
        if ids(e.paper.contour) != ids(e.direct.contour):
            paper_mismatches["contour"] += 1
    elapsed = corpus.build_seconds + (time.perf_counter() - t0)

    def tally(counts):
        return ", ".join(f"{k}: {TRIALS - v}/{TRIALS}" for k, v in counts.items())

    tallies = tally(mismatches)
    ok = not any(mismatches.values()) and elapsed < 30.0
    _report(
        "criterion 2 (factor routes vs direct, 200 pairs)",
        ok,
        f"{tallies}; paper forms {tally(paper_mismatches)}; runtime {elapsed:.1f}s",
    )
    assert ok, f"factor routes diverged from direct computation: {tallies}"


def test_criterion_3_product_metric_identities(corpus):
    """md/ecc/radius/diameter from factors equal BFS-derived values."""
    bad = 0
    for e in corpus.entries:
        from_factors = product_metric_profile(e.pair)
        if not (
            np.array_equal(from_factors.md, e.prod_profile.md)
            and np.array_equal(from_factors.ecc, e.prod_profile.ecc)
            and from_factors.radius == e.prod_profile.radius
            and from_factors.diameter == e.prod_profile.diameter
        ):
            bad += 1
    _report("criterion 3 (product metric identities)", bad == 0, f"{TRIALS - bad}/{TRIALS} pairs")
    assert bad == 0


def test_criterion_4_metric_axioms(corpus):
    """md symmetry, identity of indiscernibles, triangle inequality (n <= 8)."""
    checked = 0
    master = np.random.default_rng(ACCEPTANCE_SEED + 8)
    extra = [
        generate_strong_digraph(8, P_VALUES[i % 3], int(master.integers(0, 2**63 - 1))).digraph
        for i in range(9)
    ]
    digraphs = [d for e in corpus.entries for d in (e.d1, e.d2)] + extra
    ok = True
    for d in digraphs:
        md = metric_profile(d).md
        symmetric = np.array_equal(md, md.T)
        identity = (np.diag(md) == 0).all() and (
            d.n == 1 or (md[~np.eye(d.n, dtype=bool)] >= 1).all()
        )
        triangle = not (md[:, None, :] > md[:, :, None] + md[None, :, :]).any()
        if not (symmetric and identity and triangle):
            ok = False
            break
        checked += 1
    _report("criterion 4 (md metric axioms)", ok, f"{checked} digraphs, exhaustive triples")
    assert ok


def test_criterion_5_inclusion_chains(corpus):
    """Periphery within contour ∩ eccentricity set; their union within boundary."""
    ok = True
    checked = 0
    for e in corpus.entries:
        for bp in (e.pair.b1, e.pair.b2, e.direct):
            if not ids(bp.periphery) <= (ids(bp.contour) & ids(bp.eccentricity)):
                ok = False
            if not (ids(bp.eccentricity) | ids(bp.contour)) <= ids(bp.boundary):
                ok = False
            checked += 1
    _report("criterion 5 (inclusion chains)", ok, f"{checked} profiles incl. products")
    assert ok


def test_criterion_6_open_closed_equivalence(corpus):
    """The library's boundary and contour equal the closed-neighborhood N[v] definitions.

    The library computes over N(v) only; the oracles here take N[v] = N(v) ∪ {v},
    on both factors and the product of every corpus pair.
    """
    ok = True
    checked = 0
    for e in corpus.entries:
        for d, p, bp in ((e.d1, e.pair.p1, e.pair.b1), (e.d2, e.pair.p2, e.pair.b2),
                         (e.prod, e.prod_profile, e.direct)):
            md, arcs = p.md.tolist(), d.arcs
            if ids(bp.boundary) != oracles.boundary(d.n, arcs, md, closed=True):
                ok = False
            if ids(bp.contour) != oracles.contour(d.n, arcs, md, closed=True):
                ok = False
            checked += 1
    _report("criterion 6 (open/closed neighborhood equivalence)", ok,
            f"{checked} digraphs incl. products")
    assert ok


def test_criterion_7_undirected_boundary_candidate(d1_path, d2_path):
    """The undirected identity against the paper's form and the exact boundary.

    On the example pair it differs from the paper's form in exactly the two
    pairs the form misses, and not at all from the exact boundary; on
    bidirected pairs it equals the paper's form.
    """
    doc1 = parse_edge_list(d1_path.read_text())
    doc2 = parse_edge_list(d2_path.read_text())
    pair = FactorPair.from_digraphs(doc1.digraph, doc2.digraph)
    label = ProductLabel(doc1.digraph.n, doc2.digraph.n)
    candidate = undirected_boundary_candidate(pair)
    vs_paper = ids(candidate ^ product_boundary_via_factors(pair))
    vs_exact = ids(candidate ^ product_boundary_exact_via_factors(pair))
    expected = {label.encode(0, 1), label.encode(2, 1)}  # (u1,v2), (u3,v2)
    example_ok = vs_paper == expected and vs_exact == set()

    master = np.random.default_rng(ACCEPTANCE_SEED + 77)
    empty = 0
    total = 50
    for i in range(total):
        n1 = int(master.integers(2, 7))
        n2 = int(master.integers(2, 7))
        p = P_VALUES[i % 3]
        ds = []
        for n in (n1, n2):
            base = generate_strong_digraph(n, p, int(master.integers(0, 2**63 - 1))).digraph
            mirrored = {(a, b) for a, b in base.arcs} | {(b, a) for a, b in base.arcs}
            ds.append(from_arcs(base.n, sorted(mirrored)))
        f = FactorPair.from_digraphs(*ds)
        if not (undirected_boundary_candidate(f) ^ product_boundary_via_factors(f)).any():
            empty += 1
    ok = example_ok and empty == total
    _report(
        "criterion 7 (undirected boundary candidate)",
        ok,
        f"example diff vs paper {sorted(vs_paper)}, vs exact {sorted(vs_exact)};"
        f" bidirected empty {empty}/{total}",
    )
    assert ok


def test_criterion_8_formula_mode_scalability(tmp_path):
    """Formula-mode analysis of a 10^6-vertex product in under 10 s, no construction.

    The report must also be exactly ``json.dumps(payload, indent=2)`` plus a
    newline: the 10^6-entry eccentricity list takes the encoder's int-list path.
    """
    n = 1000

    def path_text(name: str) -> str:
        lines = [f"n {n}"]
        for v in range(n - 1):
            lines.append(f"{v} {v + 1}")
            lines.append(f"{v + 1} {v}")
        return "\n".join(lines) + "\n"

    f1 = tmp_path / "p1.txt"
    f2 = tmp_path / "p2.txt"
    f1.write_text(path_text("p1"))
    f2.write_text(path_text("p2"))
    out = tmp_path / "report.json"

    t0 = time.perf_counter()
    # budget 1 proves no product-scale structure gets materialized: any
    # construction attempt would raise SizeOverflow (exit 4)
    code = cli_main(
        ["product", str(f1), str(f2), "--mode", "formula", "--budget", "1", "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    text = out.read_text()
    payload = json.loads(text)
    correct = (
        code == 0
        and text == json.dumps(payload, indent=2) + "\n"
        and payload["product"]["n"] == n * n
        and payload["product"]["radius"] == 500
        and payload["product"]["diameter"] == 999
        and len(payload["formula_sets"]["boundary"]) == 3996
        and len(payload["formula_sets"]["periphery"]) == 3996
    )
    ok = correct and elapsed < 10.0
    _report(
        "criterion 8 (formula-mode scalability)",
        ok,
        f"{n}x{n} product analyzed in {elapsed:.2f}s",
    )
    assert ok
