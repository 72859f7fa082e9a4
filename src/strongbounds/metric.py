"""Directed distances and the maximum-distance metric on strong digraphs.

All distances are exact integer hop counts. Unreachable is the sentinel
UNREACHABLE (-1), never a large number, and is only legal before a strongness
check: everything at the max-distance level requires a strong digraph first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .digraph import Digraph, _bfs_levels, find_unreachable_pair
from .errors import NotStrong, VertexOutOfRange

UNREACHABLE = -1


@dataclass(frozen=True, eq=False)
class MetricProfile:
    """Max-distance table with eccentricities, radius, and diameter.

    md is symmetric with zero diagonal; ecc[v] = max_u md[v, u];
    radius/diameter are the min/max eccentricities.
    """

    md: np.ndarray
    ecc: np.ndarray
    radius: int
    diameter: int

    def __post_init__(self):
        self.md.setflags(write=False)
        self.ecc.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.md.shape[0])


def directed_distances_from(d: Digraph, source: int) -> np.ndarray:
    """Hop counts from source to every vertex; UNREACHABLE where no path."""
    d._check_vertex(source)
    return _bfs_levels(d.out_indptr, d.out_indices, d.n, source)


def all_pairs_directed(d: Digraph) -> np.ndarray:
    """Read-only int32 table of directed hop counts, t[u, v] = shortest u->v path.

    NotStrong if any pair is unreachable, naming the first hole in row-major
    order: (0, x) for the least x that 0 cannot reach, else (u, 0) for the
    least u that cannot reach 0, the pair `find_unreachable_pair` gives.
    A vertex without an out-arc or an in-arc is found from the degrees before
    the n×n table is allocated.
    """
    out_ptr, in_ptr = d.out_indptr, d.in_indptr  # a repeated pointer is an empty row
    if d.n > 1 and np.count_nonzero(out_ptr[1:] == out_ptr[:-1]) + np.count_nonzero(
        in_ptr[1:] == in_ptr[:-1]
    ):
        raise _not_strong(find_unreachable_pair(d))
    table = _kernels.all_pairs_directed_dist(
        d.out_indptr, d.out_indices, d.in_indptr, d.in_indices, d.n
    )
    if table.min() < 0:  # a hole; the n×n mask to locate it is built only then
        raise _not_strong(divmod(int((table == UNREACHABLE).argmax()), d.n))
    table.setflags(write=False)
    return table


def _not_strong(pair: tuple[int, int]) -> NotStrong:
    return NotStrong(
        f"digraph is not strongly connected: no directed path {pair[0]} -> {pair[1]}",
        pair=pair,
    )


def _check_pair(table: np.ndarray, u: int, v: int) -> None:
    n = table.shape[0]
    if not (0 <= u < n and 0 <= v < n):
        raise VertexOutOfRange(f"vertex pair ({u},{v}) not in 0..{n - 1}")
    if table[u, v] == UNREACHABLE or table[v, u] == UNREACHABLE:
        raise NotStrong(f"distance between {u} and {v} undefined in one direction")


def max_distance(table: np.ndarray, u: int, v: int) -> int:
    """md(u,v) from an `all_pairs_directed` table: the larger directed distance."""
    _check_pair(table, u, v)
    return int(max(table[u, v], table[v, u]))


def metric_profile(d: Digraph) -> MetricProfile:
    """md table, eccentricities, radius, and diameter of a strong digraph."""
    table = all_pairs_directed(d)
    md = np.maximum(table, table.T)
    ecc = md.max(axis=1)
    return MetricProfile(
        md=md,
        ecc=ecc.astype(np.int32),
        radius=int(ecc.min()),
        diameter=int(ecc.max()),
    )
