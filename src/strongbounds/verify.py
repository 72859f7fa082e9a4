"""Randomized verification: factor formulas and metric laws vs brute force.

Each trial draws two random strong digraphs, builds their product, and checks
every property below on both routes. The first violation, in trial order
and then property order, is minimized by greedy arc deletion (keeping both
factors strong and the violation alive) and reported with both factor edge
lists, so a failing run hands back a small reproducible counterexample; later
violations are only counted.

A faithful implementation of the boundary and contour factor
characterizations DOES get falsified here: on the seed-0 corpus of
``verify --trials 200`` the boundary form holds on 183/200 trials and the
contour form on 190/200. The harness is the instrument that shows it, not a
bug in itself. Periphery, eccentricity-set, and all metric identities are
expected to pass always.

The four formula properties compare `product_boundary_profile_via_factors`
with the product's direct `boundary_profile`, one field each
(`_FORMULA_FIELDS`). Factor sizes are drawn from 2..n_max, so an n_max² past
`DEFAULT_VERTEX_BUDGET` is refused before any trial is drawn.

`open-closed-equivalence` checks the library's open-form boundary and contour
against `_closed_sets`, a definition-level reference over N[v] = N(v) ∪ {v}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import boundary_profile
from .digraph import Digraph, _adjacency_is_strong, _from_out_keys
from .errors import InvalidConfig, SizeOverflow
from .generator import generate_strong_digraph
from .metric import MetricProfile, metric_profile
from .product import (
    DEFAULT_VERTEX_BUDGET,
    FactorPair,
    product_boundary_profile_via_factors,
    product_metric_profile,
    strong_product,
)
from .io_formats import serialize_edge_list

PROPERTIES = (
    "metric-axioms",
    "product-metric-identities",
    "boundary-formula-vs-direct",
    "periphery-formula-vs-direct",
    "eccentric-formula-vs-direct",
    "contour-formula-vs-direct",
    "inclusion-chains",
    "open-closed-equivalence",
)

_FORMULA_FIELDS = {
    "boundary-formula-vs-direct": "boundary",
    "periphery-formula-vs-direct": "periphery",
    "eccentric-formula-vs-direct": "eccentricity",
    "contour-formula-vs-direct": "contour",
}


@dataclass(frozen=True)
class PropertyViolation:
    prop: str
    trial: int
    detail: str
    d1_edge_list: str
    d2_edge_list: str


@dataclass
class VerificationSummary:
    trials: int
    passed: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    violation: PropertyViolation | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def lines(self) -> list[str]:
        out = []
        for prop in PROPERTIES:
            p, f = self.passed.get(prop, 0), self.failed.get(prop, 0)
            status = "ok" if f == 0 else "FAIL"
            out.append(f"{prop:32s} {p:4d}/{p + f:<4d} {status}")
        return out


def _check_metric_axioms(md: np.ndarray) -> str | None:
    if not np.array_equal(md, md.T):
        return "md not symmetric"
    if (np.diag(md) != 0).any():
        return "md diagonal not zero"
    if len(md) > 1 and (md[~np.eye(len(md), dtype=bool)] < 1).any():
        return "md zero off the diagonal"
    # triangle inequality over all ordered triples, in int32: md may be int8,
    # where a sum of two entries wraps
    wide = md.astype(np.int32)
    if (wide[:, None, :] > wide[:, :, None] + wide[None, :, :]).any():
        return "md triangle inequality violated"
    return None


def _closed_sets(p: MetricProfile, d: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """Boundary and contour masks over N[v] = N(v) ∪ {v}, from the definitions.

    Shares no code with the boundary scan. An eccentric v is a boundary member,
    witnessed by the u it is eccentric for: md(u, w) <= ecc(u) = md(u, v). Every
    other v is tested against all u. O(n·(m + n)) work in all.
    """
    ptr = d.und_indptr + np.arange(d.n + 1)  # row v of rows: v itself, then N(v)
    rows = np.insert(d.und_indices, d.und_indptr[:-1], np.arange(d.n))
    boundary = (p.md == p.ecc[:, None]).any(axis=0)
    bounds = ptr.tolist()
    for v in (~boundary).nonzero()[0].tolist():
        boundary[v] = (p.md[:, rows[bounds[v]:bounds[v + 1]]].max(axis=1) <= p.md[:, v]).any()
    return boundary, np.maximum.reduceat(p.ecc[rows], ptr[:-1]) <= p.ecc


def _check_trial(d1: Digraph, d2: Digraph, props: tuple[str, ...]) -> dict[str, str | None]:
    """Per property: None when it holds for this factor pair, else a description.

    The product and every profile and set are built once, for all properties.
    """
    pair = FactorPair.from_digraphs(d1, d2)
    prod, _ = strong_product(d1, d2)
    prod_profile = metric_profile(prod)
    direct = boundary_profile(prod_profile, prod)
    formulas = product_boundary_profile_via_factors(pair)
    sides = (
        ("D1", d1, pair.p1, pair.b1),
        ("D2", d2, pair.p2, pair.b2),
        ("product", prod, prod_profile, direct),
    )

    def check(prop: str) -> str | None:
        if prop == "metric-axioms":
            for tag, p in (("D1", pair.p1), ("D2", pair.p2)):
                msg = _check_metric_axioms(p.md)
                if msg:
                    return f"{tag}: {msg}"
            return None

        if prop == "product-metric-identities":
            from_factors = product_metric_profile(pair)
            if not np.array_equal(from_factors.md, prod_profile.md):
                return "product md table differs from max of factor mds"
            if not np.array_equal(from_factors.ecc, prod_profile.ecc):
                return "product eccentricities differ from max of factor eccs"
            if from_factors.radius != prod_profile.radius:
                return "product radius differs from max of factor radii"
            if from_factors.diameter != prod_profile.diameter:
                return "product diameter differs from max of factor diameters"
            return None

        if prop in _FORMULA_FIELDS:
            formula = getattr(formulas, _FORMULA_FIELDS[prop])
            expected = getattr(direct, _FORMULA_FIELDS[prop])
            if (formula != expected).any():
                return f"symmetric difference {(formula ^ expected).nonzero()[0].tolist()}"
            return None

        if prop == "inclusion-chains":
            for tag, _, _, bp in sides:
                if (bp.periphery & ~(bp.contour & bp.eccentricity)).any():
                    return f"{tag}: periphery not within contour ∩ eccentricity set"
                if ((bp.eccentricity | bp.contour) & ~bp.boundary).any():
                    return f"{tag}: eccentricity set ∪ contour not within boundary"
            return None

        # open-closed-equivalence
        for tag, d, p, bp in sides:
            for name, closed in zip(("boundary", "contour"), _closed_sets(p, d)):
                if (getattr(bp, name) != closed).any():
                    return f"{tag}: {name} differs between open and closed neighborhoods"
        return None

    return {prop: check(prop) for prop in props}


def _minimize(d1: Digraph, d2: Digraph, prop: str) -> tuple[Digraph, Digraph]:
    """Greedy arc deletion keeping both factors strong and the violation alive.

    Each pass tries the arcs of da in ascending (tail, head) order, deleting
    one at a time from an adjacency matrix of the arcs kept so far; only a
    strong candidate is built into a Digraph and checked. A candidate's arc
    keys are the row-major flat indices tail*n + head of its matrix, which
    np.flatnonzero lists sorted and distinct; the matrix holds arcs of a
    Digraph only, so none is a loop, and `_from_out_keys` takes them as they
    are.
    """
    def shrink(da: Digraph, db: Digraph, first: bool) -> tuple[Digraph, Digraph]:
        changed = True
        while changed:
            changed = False
            rows = da._arc_array()
            adj = np.zeros((da.n, da.n), dtype=bool)
            adj[rows[:, 0], rows[:, 1]] = True
            for tail, head in rows.tolist():
                adj[tail, head] = False
                if _adjacency_is_strong(adj):
                    trimmed = _from_out_keys(da.n, np.flatnonzero(adj))
                    cand = (trimmed, db) if first else (db, trimmed)
                    if _check_trial(cand[0], cand[1], (prop,))[prop] is not None:
                        da = trimmed
                        changed = True
                        continue
                adj[tail, head] = True
        return (da, db) if first else (db, da)

    d1, d2 = shrink(d1, d2, True)
    d2, d1 = shrink(d2, d1, False)
    return d1, d2


def run_verification(
    trials: int,
    n_max: int = 7,
    p_values: tuple[float, ...] = (0.2, 0.4, 0.7),
    seed: int = 0,
) -> VerificationSummary:
    """Run every property over a deterministic random corpus.

    Every failure is tallied; only the first, in trial order and then
    `PROPERTIES` order, is minimized and kept as the summary's violation.
    """
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    if n_max < 2:
        raise InvalidConfig(f"n_max must be >= 2, got {n_max}")
    if n_max * n_max > DEFAULT_VERTEX_BUDGET:
        raise SizeOverflow(
            f"--n-max {n_max} exceeds {math.isqrt(DEFAULT_VERTEX_BUDGET)}: a product of two"
            f" factors could exceed the budget of {DEFAULT_VERTEX_BUDGET} vertices"
        )
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    if not p_values:
        raise InvalidConfig("p_values must name at least one arc probability")

    master = np.random.default_rng(seed)
    summary = VerificationSummary(trials=trials)
    for t in range(trials):
        n1 = int(master.integers(2, n_max + 1))
        n2 = int(master.integers(2, n_max + 1))
        p = p_values[t % len(p_values)]
        s1 = int(master.integers(0, 2**63 - 1))
        s2 = int(master.integers(0, 2**63 - 1))
        d1 = generate_strong_digraph(n1, p, s1).digraph
        d2 = generate_strong_digraph(n2, p, s2).digraph
        for prop, msg in _check_trial(d1, d2, PROPERTIES).items():
            if msg is None:
                summary.passed[prop] = summary.passed.get(prop, 0) + 1
                continue
            summary.failed[prop] = summary.failed.get(prop, 0) + 1
            if summary.violation is None:
                m1, m2 = _minimize(d1, d2, prop)
                summary.violation = PropertyViolation(
                    prop=prop,
                    trial=t,
                    detail=_check_trial(m1, m2, (prop,))[prop] or msg,
                    d1_edge_list=serialize_edge_list(m1),
                    d2_edge_list=serialize_edge_list(m2),
                )
    return summary
