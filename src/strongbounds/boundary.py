"""Definition-level boundary, contour, eccentricity, and periphery sets.

All four extractions run from a precomputed MetricProfile; nothing here
recomputes distances. Each set is a boolean mask over the vertices, true at
the members. Neighbor maxima run over the open neighborhood N(v) only, and
every report says so with its constant ``"neighborhood": "open"``. The closed
neighborhood N[v] = N(v) ∪ {v} needs no code of its own, by the proof below.

The two forms give the same boundary and contour on every digraph. Proof. For
a candidate witness u, the boundary compares the max of md(u, w) over the
neighbors w of v with md(u, v). The w = v term of N[v] is md(u, v) itself, so
it never exceeds the v term: the max over N[v] is at most md(u, v) exactly
when the max over N(v) is. The contour compares the max of ecc(w) with ecc(v),
and the w = v term is ecc(v). Either way the closed form raises a neighbor max
at most to the value it is compared with, and no comparison changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
from .metric import MetricProfile

# The four set names, in report order: the BoundaryProfile fields, the report
# keys and the choices of `export --set`.
SET_NAMES = ("boundary", "contour", "eccentricity", "periphery")


@dataclass(frozen=True, eq=False)
class BoundaryProfile:
    """The four boundary-type sets of one strong digraph, as read-only boolean masks.

    Each field is an n-long bool array, true at the members; a product's sets
    are C-order raveled over its (n1, n2) grid, so pair (i, r) is index
    i*n2 + r. The masks are made read-only, as MetricProfile's tables are, so
    profiles can be shared (FactorPair does). Members are `mask.nonzero()[0]`,
    sorted.
    """

    boundary: np.ndarray
    contour: np.ndarray
    eccentricity: np.ndarray
    periphery: np.ndarray

    def __post_init__(self):
        for name in SET_NAMES:
            getattr(self, name).setflags(write=False)


def _segment_max(gathered: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Max over each CSR row's slice of gathered; -1 for an empty row.

    gathered holds one value per CSR column entry (a value looked up at each
    neighbor), each at least -1, so the result has one entry per vertex. A -1
    sentinel after the last entry gives every row start a valid index, so one
    reduceat covers all rows; an empty row's start holds the next row's
    first value (or the sentinel), and is reset to -1. The sentinel takes
    gathered's dtype, so a narrow md gather stays at md's width.
    """
    starts = indptr[:-1]
    out = np.maximum.reduceat(np.concatenate((gathered, [-1]), dtype=gathered.dtype), starts)
    out[starts == indptr[1:]] = -1
    return out


def _worst_columns(md: np.ndarray, indptr: np.ndarray, indices: np.ndarray, vertices=None):
    """Yield (v, W[:, v]) for each v in vertices (all by default).

    W[u, v] = max md(u, w) over w in N(v). md is symmetric, so column v of W
    is the max of the md rows of v's neighbors, which are contiguous; all -1
    for an empty neighbor row. With `_worst_at`, W's one entry per vertex,
    this is all the worst-neighbour code, and W is never stored whole.
    """
    empty = np.full(md.shape[0], -1, dtype=md.dtype)
    bounds = indptr.tolist()
    for v in range(md.shape[0]) if vertices is None else vertices:
        lo, hi = bounds[v], bounds[v + 1]
        yield v, md[indices[lo:hi]].max(axis=0) if lo < hi else empty


def _worst_at(md: np.ndarray, d: Digraph, u: np.ndarray) -> np.ndarray:
    """W[u[v], v] for each vertex v: the largest md(u[v], w) over w in N(v), -1 if none."""
    indptr = d.und_indptr
    return _segment_max(md[np.repeat(u, indptr[1:] - indptr[:-1]), d.und_indices], indptr)


def _boundary_witnesses(p: MetricProfile, d: Digraph) -> np.ndarray:
    """A verified witness u for each boundary vertex v, -1 for a non-member.

    The candidate for v is argmax_u (md(u, v) - ecc(u)); it is a witness
    whenever v is eccentric for some u. All candidates are checked against the
    definition at once, in O(m). Only the vertices whose candidate fails get
    their W column built, and there the witness is the first u that passes.
    """
    md = p.md
    # md is symmetric: row v of md - ecc[None, :] holds md(u, v) - ecc(u) for
    # every u, and a row argmax needs no transposed copy of the table. ecc is
    # cast to md's dtype, which holds it (ecc <= diameter), so the difference
    # is built at md's width, not int32.
    cand = (md - p.ecc.astype(md.dtype)[None, :]).argmax(axis=1)
    witness = np.where(_worst_at(md, d, cand) <= md[cand, np.arange(d.n)], cand, -1)
    failed = (witness < 0).nonzero()[0].tolist()
    for v, col in _worst_columns(md, d.und_indptr, d.und_indices, failed):
        hits = (col <= md[v]).nonzero()[0]
        if hits.size:
            witness[v] = hits[0]
    return witness


def boundary_set(p: MetricProfile, d: Digraph) -> np.ndarray:
    """Mask of the v admitting a witness u with md(u,w) <= md(u,v) for all w in N(v).

    The members are the vertices with a witness in `_boundary_witnesses`,
    which checks one candidate per vertex and builds a W column only where the
    candidate fails. The witness ranges over all of V including v itself,
    which only matters for the single-vertex digraph (empty neighbor list,
    vacuously boundary).
    """
    return _boundary_witnesses(p, d) >= 0


def _eccentric_mask(p: MetricProfile, at_least: int = 0) -> np.ndarray:
    """Mask of the vertices v eccentric for some u with ecc(u) >= at_least.

    The one eccentric-vertex scan. Rows of u below the threshold are cleared in
    place in its n×n bool table, so md is never copied. ecc is compared at md's
    dtype, which holds it.
    """
    hits = p.md == p.ecc.astype(p.md.dtype)[:, None]
    hits[p.ecc < at_least] = False
    return hits.any(axis=0)


def eccentric_set(p: MetricProfile) -> np.ndarray:
    """Mask of the vertices realizing some vertex's eccentricity: exists u, md(u,v) = ecc(u)."""
    return _eccentric_mask(p)


def periphery_set(p: MetricProfile) -> np.ndarray:
    """Mask of the vertices whose eccentricity equals the diameter."""
    return p.ecc == p.diameter


def contour_set(p: MetricProfile, d: Digraph) -> np.ndarray:
    """Mask of the vertices whose eccentricity no neighbor exceeds."""
    return _segment_max(p.ecc[d.und_indices], d.und_indptr) <= p.ecc


def boundary_profile(p: MetricProfile, d: Digraph) -> BoundaryProfile:
    """All four sets bundled."""
    return BoundaryProfile(
        boundary_set(p, d), contour_set(p, d), eccentric_set(p), periphery_set(p)
    )
