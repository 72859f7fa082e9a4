"""Strong products of digraphs and factor-side formulas for their sets.

Two independent routes exist on purpose. `strong_product` materializes the
product digraph (budget-guarded) so the definition-level machinery in
`metric`/`boundary` can run on it directly. It forms the product's arc keys
from the factors' closed arcs and assembles the CSR from them directly,
skipping `from_arcs`' checks, which the keys meet by construction (its
docstring proves it). The `*_via_factors` operations
never build the product: they evaluate closed-form factor characterizations of
the four sets on factor profiles alone, in O(n1·n2). The periphery and
eccentricity-set formulas are exact. The paper's stated boundary and contour
characterizations are kept as they are stated, and they are NOT equivalent to
the definition-level sets on all inputs: each form's docstring proves exactly
where it diverges, and `verify.run_verification` tallies it.
`product_boundary_exact_via_factors` and `product_contour_exact_via_factors`
are the exact factor-side routes for those two sets. Each exact set's
docstring carries its proof. `undirected_boundary_candidate` is the
undirected identity (∂1 × V2) ∪ (V1 × ∂2), which always contains the exact
boundary.

Pair (i, r) is encoded as i*n2 + r, which is exactly C-order raveling of an
(n1, n2) grid. Every set is a boolean mask over the vertices, as in
`boundary`: a formula builds its (n1, n2) grid from the factor masks and
vectors and returns it raveled, so index i*n2 + r is pair (i, r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import (
    BoundaryProfile,
    _eccentric_mask,
    _segment_max,
    _worst_at,
    _worst_columns,
    boundary_profile,
)
from .digraph import Digraph, _from_out_keys, _not_int_type, _require_keyed
from .errors import NotStrong, SizeOverflow, VertexOutOfRange
from .generator import _require_int
from .metric import MetricProfile, metric_profile

DEFAULT_VERTEX_BUDGET = 10_000


@dataclass(frozen=True)
class ProductLabel:
    """Bijection between product vertex ids and factor index pairs, as Python ints.

    A bool, float or other non-integer id raises ValueError; a numpy integer
    is taken as a Python int, so i * n2 + r cannot wrap in a narrow dtype.
    """

    n1: int
    n2: int

    def encode(self, i: int, r: int) -> int:
        odd = sorted({type(k).__name__ for k in (i, r) if _not_int_type(type(k))})
        if odd:
            raise ValueError(f"factor indices must be integers, got {', '.join(odd)}")
        if not (0 <= i < self.n1 and 0 <= r < self.n2):
            raise VertexOutOfRange(f"pair ({i},{r}) not in {self.n1}x{self.n2}")
        return int(i) * self.n2 + int(r)

    def decode(self, x: int) -> tuple[int, int]:
        if _not_int_type(type(x)):
            raise ValueError(f"product vertex must be an integer, got {type(x).__name__}")
        if not 0 <= x < self.n1 * self.n2:
            raise VertexOutOfRange(f"product vertex {x} not in 0..{self.n1 * self.n2 - 1}")
        return divmod(int(x), self.n2)


@dataclass(frozen=True, eq=False)
class FactorPair:
    """Both factors with their metric and boundary profiles precomputed."""

    d1: Digraph
    d2: Digraph
    p1: MetricProfile
    p2: MetricProfile
    b1: BoundaryProfile
    b2: BoundaryProfile

    @classmethod
    def from_digraphs(cls, d1: Digraph, d2: Digraph) -> "FactorPair":
        """Profile both factors; NotStrong, prefixed "factor 1:" or "factor 2:", if one is not."""
        profiles = []
        for k, d in enumerate((d1, d2), 1):
            try:
                profiles.append(metric_profile(d))
            except NotStrong as exc:
                raise NotStrong(f"factor {k}: {exc}", pair=exc.pair) from None
        p1, p2 = profiles
        return cls(d1, d2, p1, p2, boundary_profile(p1, d1), boundary_profile(p2, d2))


def product_arc_count(d1: Digraph, d2: Digraph) -> int:
    """Arc count of the product from factor counts alone.

    The three arc rules generate disjoint families: same-column steps,
    same-row steps, and simultaneous steps.
    """
    m1, m2 = d1.arc_count, d2.arc_count
    return m1 * d2.n + d1.n * m2 + m1 * m2


def strong_product(
    d1: Digraph, d2: Digraph, budget: int = DEFAULT_VERTEX_BUDGET
) -> tuple[Digraph, ProductLabel]:
    """Materialize the product digraph under encode.

    ((i,r),(j,s)) is an arc iff (i,j) is an arc with r=s, or i=j with (r,s) an
    arc, or both coordinates step along arcs simultaneously: the adjacency is
    (A1+I) ⊗ (A2+I) - I, every closed arc (arc or self-pair) (i,j) of D1
    combined with every closed arc (r,s) of D2, less the n1·n2 loops.
    Strongness is not required for construction.

    The arc keys x*n + y, with x = i*n2 + r and y = j*n2 + s, come from one
    broadcast add and one sort, and go to the CSR assembly unchecked. Proof
    that they are valid: x and y lie in 0..n-1, so every key lies in
    0..n²-1, which fits in int64 once `_require_keyed` passes; x = y iff
    i = j and r = s, and exactly those self-pair combinations are dropped,
    so no key is a loop; and (i, j, r, s) -> (x, y) -> x*n + y is injective,
    so keys from distinct pairs of distinct closed arcs are distinct.

    A budget that is not an integer raises InvalidConfig.
    """
    (budget,) = _require_int(budget=budget)
    n = d1.n * d2.n
    if n > budget:
        raise SizeOverflow(
            f"product on {d1.n}*{d2.n}={n} vertices exceeds the budget of {budget}"
        )
    _require_keyed(n)
    i, j = _closed_arc_ends(d1)
    r, s = _closed_arc_ends(d2)
    keys = ((i * n + j) * d2.n)[:, None] + (r * n + s)[None, :]
    keys = keys[(i != j)[:, None] | (r != s)[None, :]]
    # Each row of the broadcast is a sorted run, which timsort (the stable kind) merges.
    keys.sort(kind="stable")
    return _from_out_keys(n, keys), ProductLabel(d1.n, d2.n)


def _closed_arc_ends(d: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """(tails, heads) of the closed arcs of d, its arcs and its n self-pairs, by key."""
    n = d.n
    tails = np.repeat(np.arange(n), d.out_indptr[1:] - d.out_indptr[:-1])
    keys = np.concatenate((tails * n + d.out_indices, np.arange(n) * (n + 1)))
    keys.sort()
    return np.divmod(keys, n)


def product_metric_summary(f: FactorPair) -> tuple[np.ndarray, int, int]:
    """(ecc, radius, diameter) of the product, `MetricProfile`'s fields after md.

    No product-sized table is built. ecc is in encoded order:
    ecc[i*n2 + r] = max(ecc1[i], ecc2[r]).
    """
    return (
        np.maximum.outer(f.p1.ecc, f.p2.ecc).ravel(),
        max(f.p1.radius, f.p2.radius),
        max(f.p1.diameter, f.p2.diameter),
    )


def product_metric_profile(f: FactorPair, budget: int = DEFAULT_VERTEX_BUDGET) -> MetricProfile:
    """Full product profile assembled from factor profiles, no product BFS.

    Materializes the (n1·n2)² md table, so it honors the same vertex budget as
    construction; beyond it use `product_metric_summary`. A budget that is not
    an integer raises InvalidConfig.
    """
    (budget,) = _require_int(budget=budget)
    n = f.d1.n * f.d2.n
    if n > budget:
        raise SizeOverflow(
            f"product md table on {n} vertices exceeds the budget of {budget}"
        )
    # md[(i, r), (j, s)] = max(md1[i, j], md2[r, s]); axes (i, r, j, s) ravel to C order
    md = np.maximum(f.p1.md[:, None, :, None], f.p2.md[None, :, None, :]).reshape(n, n)
    return MetricProfile(md, *product_metric_summary(f))


# ----------------------------------------------------------------------------
# factor formulas for the four sets
#
# Each builds an (n1, n2) boolean grid and returns it raveled: the product's
# mask in encoded order. Grids keep the evaluations O(n1*n2) and product-free.
# ----------------------------------------------------------------------------

def product_boundary_via_factors(f: FactorPair) -> np.ndarray:
    """Boundary of the product by the paper's three-part factor characterization.

    With e = ecc and w(v) = max md(v, x) over x in N(v) (`_worst_at` at u = v):
    the first part is ∂1 × ∂2, the second takes (i, r) in ∂1 × (V2 ∖ ∂2) with
    w2(r) <= e1(i), and the third is the mirror image. It is implemented
    exactly in that stated form, and it is sound on ∂1 × ∂2 and wrong in both
    directions on the two strips, exactly where proved below.

    Proof. With A and m as in `_witness_reach`, (i, r) is in the product's
    boundary iff A1(i) >= m2(r) or A2(r) >= m1(i)
    (`product_boundary_exact_via_factors`). A(v) >= 0 exactly on the factor
    boundary, and there m(v) <= A(v): a witness u of v has W[u, v] <= md(u, v),
    so its term of m's min is md(u, v) <= A(v). Every m is at least 0.
    - On ∂1 × ∂2, m <= A in both factors, so whichever of A1(i), A2(r) is
      larger is at least the other factor's m: the first part is sound.
    - Off both factor boundaries, A1(i) = A2(r) = -1 < m: no part claims it.
    - On the strip ∂1 × (V2 ∖ ∂2), A2(r) = -1, so the exact test is
      A1(i) >= m2(r), where the paper tests w2(r) <= e1(i). The form
      over-claims exactly where A1(i) < m2(r) and w2(r) <= e1(i), and misses
      exactly where A1(i) >= m2(r) and w2(r) > e1(i). It puts e1(i) >= A1(i)
      in place of A1(i), and w2(r) in place of m2(r): w2(r) is the u = r term
      of m2's min, so w2(r) >= m2(r) (r is not in ∂2, so D2 is not K1, and
      a strong digraph on two or more vertices gives r a neighbour).
      The other strip is the mirror image.
    On the worked example both misses, (u1, v2) and (u3, v2), have
    A1 = e1 = 2 and m2(v2) = 2 < w2(v2) = 3.
    """
    bd1, bd2 = f.b1.boundary, f.b2.boundary
    worst1 = _worst_at(f.p1.md, f.d1, np.arange(f.d1.n))
    worst2 = _worst_at(f.p2.md, f.d2, np.arange(f.d2.n))
    a1 = bd1[:, None] & bd2[None, :]
    a2 = bd1[:, None] & ~bd2[None, :] & (worst2[None, :] <= f.p1.ecc[:, None])
    a3 = ~bd1[:, None] & bd2[None, :] & (worst1[:, None] <= f.p2.ecc[None, :])
    return (a1 | a2 | a3).ravel()


def product_periphery_via_factors(f: FactorPair) -> np.ndarray:
    """Periphery of the product: (i, r) with ecc1(i) = D or ecc2(r) = D.

    Proof. With D = max(diam1, diam2), the product diameter, (i, r) is
    peripheral iff max(ecc1(i), ecc2(r)) = D, and neither eccentricity exceeds D.
    """
    top = max(f.p1.diameter, f.p2.diameter)
    return ((f.p1.ecc == top)[:, None] | (f.p2.ecc == top)[None, :]).ravel()


def product_eccentric_via_factors(f: FactorPair) -> np.ndarray:
    """Eccentricity set of the product: E1 × V2 ∪ V1 × E2.

    E1 holds the vertices of D1 eccentric for some i with ecc1(i) >= rad2, and
    E2 the mirror image. Proof. (j, s) is eccentric for (i, r) iff
    md1(i, j) = ecc1(i) >= ecc2(r) or md2(r, s) = ecc2(r) >= ecc1(i). In the
    first case s is free and r can be taken of eccentricity rad2, so the case
    holds for some (i, r) iff j is in E1; the second is the mirror image.
    """
    e1 = _eccentric_mask(f.p1, at_least=f.p2.radius)
    e2 = _eccentric_mask(f.p2, at_least=f.p1.radius)
    return (e1[:, None] | e2[None, :]).ravel()


def product_contour_via_factors(f: FactorPair) -> np.ndarray:
    """Contour of the product by the three-case factor formula.

    Implemented exactly in its stated form. It never misses a contour vertex,
    and it over-claims exactly the (i, r) with i in Ct1 and
    e2(r) < e1(i) < c2(r), and the mirror image, where e = ecc and c(v) is
    the largest ecc over N(v). Proof. If e1(i) > e2(r), the exact test
    (`product_contour_exact_via_factors`) is c1(i) <= e1(i), that is i in
    Ct1, and c2(r) <= e1(i); the first case checks only i in Ct1, and the
    third case, Ct1 × Ct2, adds nothing. If e1(i) = e2(r), both tests are
    i in Ct1 and r in Ct2. The mirror image holds for e2(r) > e1(i). So the
    form is exact when ecc changes by at most 1 along every edge of both
    factors; it fails where ecc jumps by 2 or more, which a one-way arc
    allows. It holds on 190/200 trials of the seed-0 ``verify --trials 200``
    corpus (the boundary form on 183/200).
    """
    ct1, ct2 = f.b1.contour, f.b2.contour
    e1, e2 = f.p1.ecc[:, None], f.p2.ecc[None, :]
    grid = (ct1[:, None] & (e2 < e1)) | (ct2[None, :] & (e1 < e2)) | (ct1[:, None] & ct2[None, :])
    return grid.ravel()


# ----------------------------------------------------------------------------
# exact factor-side routes for the boundary and the contour
#
# A product neighbor of (i, r) lies in N1(i)×{r}, in {i}×N2(r), or, for the
# diagonal arcs, in N1(i)×N2(r); every (j, r) and (i, s) with j in N1(i) and
# s in N2(r) is a product neighbor. Product md and ecc are the maxima of the
# factor values, so the constraint a diagonal neighbor (j, s) puts on a
# maximum is implied by the constraints of the row neighbor (j, r) and the
# column neighbor (i, s). Each set therefore reduces to a test on the two
# factors. N is the undirected neighborhood; an empty N(v) (a one-vertex
# factor) makes every max over it -1, below every md and ecc value.
# ----------------------------------------------------------------------------

def _witness_reach(d: Digraph, p: MetricProfile) -> tuple[np.ndarray, np.ndarray]:
    """(A, m) of one factor, from W[u, v] = max md(u, w) over w in N(v).

    A(v) = max{md(u, v) : W[u, v] <= md(u, v)}, -1 when v has no witness u.
    m(v) = min over u of max(md(u, v), W[u, v]).
    """
    reach = np.empty(d.n, dtype=np.int64)
    least = np.empty(d.n, dtype=np.int64)
    for v, worst in _worst_columns(p.md, d.und_indptr, d.und_indices):
        md = p.md[v]
        reach[v] = np.where(worst <= md, md, -1).max()
        least[v] = np.maximum(md, worst).min()
    return reach, least


def product_boundary_exact_via_factors(f: FactorPair) -> np.ndarray:
    """Definition-level boundary of the product, from the two factors alone.

    (i, r) is a boundary vertex iff A1(i) >= m2(r) or A2(r) >= m1(i), with A
    and m as in `_witness_reach`.

    Proof sketch. (u, s) witnesses (i, r) iff every product neighbor is at most
    M = max(md1(u, i), md2(s, r)) from it. By the reduction above that is
    W1[u, i] <= M and W2[s, r] <= M. If md1(u, i) >= md2(s, r), M = md1(u, i),
    so u witnesses i in D1 and max(md2(s, r), W2[s, r]) <= md1(u, i); such u
    and s exist iff A1(i) >= m2(r). The other case is the mirror image.
    Cost: O(n1²·deg1 + n2²·deg2 + n1·n2), and the product is never built.
    """
    a1, m1 = _witness_reach(f.d1, f.p1)
    a2, m2 = _witness_reach(f.d2, f.p2)
    return ((a1[:, None] >= m2[None, :]) | (a2[None, :] >= m1[:, None])).ravel()


def product_contour_exact_via_factors(f: FactorPair) -> np.ndarray:
    """Definition-level contour of the product, from the two factors alone.

    With c(v) the largest ecc over N(v) and E = max(ecc1(i), ecc2(r)), the
    product eccentricity of (i, r): (i, r) is a contour vertex iff
    c1(i) <= E and c2(r) <= E.

    Proof sketch. The row neighbor (j, r) has eccentricity
    max(ecc1(j), ecc2(r)), which is at most E iff ecc1(j) <= E; over all
    j in N1(i) that is c1(i) <= E. The column neighbors give c2(r) <= E, and
    the diagonal neighbors add nothing.
    """
    c1 = _segment_max(f.p1.ecc[f.d1.und_indices], f.d1.und_indptr)
    c2 = _segment_max(f.p2.ecc[f.d2.und_indices], f.d2.und_indptr)
    e = np.maximum.outer(f.p1.ecc, f.p2.ecc)
    return ((c1[:, None] <= e) & (c2[None, :] <= e)).ravel()


def product_boundary_profile_via_factors(f: FactorPair) -> BoundaryProfile:
    """All four factor-formula sets bundled."""
    return BoundaryProfile(
        boundary=product_boundary_via_factors(f),
        contour=product_contour_via_factors(f),
        eccentricity=product_eccentric_via_factors(f),
        periphery=product_periphery_via_factors(f),
    )


def undirected_boundary_candidate(f: FactorPair) -> np.ndarray:
    """(∂1 × V2) ∪ (V1 × ∂2), the undirected boundary identity, in encoded order.

    For bidirected factors this is the product's boundary. For digraphs it
    always contains it. Proof. (i, r) is in the exact boundary iff
    A1(i) >= m2(r) or A2(r) >= m1(i) (`product_boundary_exact_via_factors`).
    Every m is at least 0, a max of md values, while A(v) >= 0 only when v
    has a witness, that is when v is in the factor's boundary. So the first
    case puts i in ∂1 and the second puts r in ∂2. XOR the mask with the
    route it is set beside: the paper's form or the exact boundary.
    """
    return (f.b1.boundary[:, None] | f.b2.boundary[None, :]).ravel()
