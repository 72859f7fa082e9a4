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
from .errors import NotStrong

UNREACHABLE = -1


@dataclass(frozen=True, eq=False)
class MetricProfile:
    """Max-distance table with eccentricities, radius, and diameter.

    md is symmetric with zero diagonal, read-only, and held in the narrowest
    signed dtype that holds the diameter (`_md_dtype`): int8, int16 or int32.
    Sums of md values can overflow that dtype, so upcast before adding them.
    ecc[v] = max_u md[v, u] is a read-only int32 vector whatever md's dtype;
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
    table = _hop_table(d)
    table.setflags(write=False)
    return table


def _hop_table(d: Digraph) -> np.ndarray:
    """The writable int32 table of `all_pairs_directed`, with its NotStrong checks."""
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
    return table


def _not_strong(pair: tuple[int, int]) -> NotStrong:
    return NotStrong(
        f"digraph is not strongly connected: no directed path {pair[0]} -> {pair[1]}",
        pair=pair,
    )


# Rows and columns of one tile of the in-place fold. A 64×64 int32 tile and its
# mirror take 32 KiB, inside one core's 48 KiB L1d on a 2-vCPU Xeon, where a
# random 1 600² table folded in 3.1 ms (4 000²: 22-27 ms), against 2.8 ms
# (19-20 ms) with 128 and 5.6-7.0 ms (132-140 ms) for np.maximum(t, t.T). The
# fold's own transient, a copy of one diagonal tile plus numpy's iteration
# buffers, is about 50 KB at 64 and 130 KB at 128.
_FOLD_TILE = 64


def _fold_max_transpose(t: np.ndarray) -> None:
    """Overwrite the square table t with max(t, tᵀ), one tile and its mirror at a time.

    `np.maximum(t, t.T, out=t)` would copy the whole table, since numpy copies
    an operand that overlaps the output. An off-diagonal tile and its mirror
    lie in disjoint rows, so only a diagonal tile is copied.
    """
    n, k = t.shape[0], _FOLD_TILE
    for i in range(0, n, k):
        rows = slice(i, i + k)
        tile = t[rows, rows]
        np.maximum(tile, tile.T, out=tile)
        for j in range(i + k, n, k):
            cols = slice(j, j + k)
            tile, mirror = t[rows, cols], t[cols, rows]
            np.maximum(tile, mirror.T, out=tile)
            mirror[...] = tile.T


def _md_dtype(diameter: int) -> np.dtype:
    """The narrowest signed dtype holding 0..diameter: int8, int16 or int32.

    Signed, so the table can also hold the -1 sentinels of the neighbour scans.
    """
    return np.dtype(np.int8 if diameter <= 127 else np.int16 if diameter <= 32_767 else np.int32)


def metric_profile(d: Digraph) -> MetricProfile:
    """md table, eccentricities, radius, and diameter of a strong digraph.

    The kernel's int32 hop table t is folded into max(t, tᵀ) in place, copied
    to md's dtype and freed (an int32 md is t itself): the call peaks at the
    4·n² bytes of t plus the itemsize·n² of md, and keeps only md.
    """
    table = _hop_table(d)
    _fold_max_transpose(table)
    ecc = table.max(axis=1)
    diameter = int(ecc.max())
    return MetricProfile(
        md=table.astype(_md_dtype(diameter), copy=False),
        ecc=ecc,
        radius=int(ecc.min()),
        diameter=diameter,
    )
