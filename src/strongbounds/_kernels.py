"""Hot numeric kernel: all-pairs directed hop counts.

`all_pairs_directed_dist` is one breadth-first search (BFS) from every source
at once, in numpy only. Sources run in blocks of S rows of the distance table,
and the frontier is every (source, vertex) cell first reached at the previous
level. Each level expands it in whichever of two directions touches fewer
cells (the direction-optimizing idea of Beamer, Asanovic & Patterson, SC 2012):

- sparse (push) step: gather the cells one out-arc beyond the frontier, keep
  the unreached ones and deduplicate them without sorting. Work is
  proportional to the arcs leaving the frontier, so a BFS over all levels
  costs O(S·m) and high-diameter sparse graphs stay cheap. The candidates
  come in one of two forms, fixed per call:
  - padded: when the largest out-degree D is at most twice the mean
    (n·D ≤ 2m), an (n, D) int64 table of head − tail per out-arc, short rows
    padded with 0, gives them as `keys[:, None] + offsets[cols]`, two numpy
    calls per level. The table is built at the call's first sparse step, so
    a call that only pulls never builds it;
  - CSR: otherwise, the frontier's CSR rows expanded by cumsum, repeat and
    arange. The guard keeps one hub from widening every row: a padded step
    gathers D offsets per frontier cell and is costed so, and on a
    400-vertex directed cycle with one out-hub (D = 399) that inflated
    estimate makes the kernel pull at each of its ~n levels, 22 → 179 ms;
- pull step: every unreached cell asks whether an in-neighbour is in the
  frontier. Its cost does not depend on the frontier, so low-diameter dense
  graphs take a few of them. It runs in one of two forms, fixed per block:
  - dense step: one S×n by n×n float32 product `frontier @ adjacency`
    through BLAS, S·n² multiply-adds;
  - bit step: the block's sources packed 64 to a uint64 word, as in
    multi-source BFS (Then et al., PVLDB 2014), and each vertex ORs the
    words of its in-neighbours: W·m word ORs for W = ⌈S/64⌉, plus packing
    and unpacking the S·n block cells.

All costs are counted in BLAS multiply-adds: a sparse step's gathered arcs,
padding included, weigh `_DENSE_COST` each, a bit step's W·m words and S·n
cells `_BIT_COST` each. A block takes the cheaper pull form, and each level
compares the sparse step against it: one cost comparison per level. Since a bit step costs at
least `_BIT_COST`·S·n, graphs on at most `_BIT_COST` vertices always pull
through BLAS, where the bit step's fixed numpy overheads would dominate.
The dense adjacency is built only when a dense step first runs. The block size
bounds every per-level array to about `_BLOCK_CELLS` entries, and a bit step
gathers at most about `_GATHER_WORDS` words at once, so beside the n×n int32
table, at most one n×n float32 adjacency and the n·D ≤ 2m offsets the
kernel's memory stays O(`_BLOCK_CELLS` + n).
"""

from __future__ import annotations

import numpy as np

# Cells of one source block, and the arcs a sparse step may gather at once.
_BLOCK_CELLS = 1 << 20
# One gathered arc of a sparse step costs about this many dense multiply-adds:
# about 30-40 ns against 0.02-0.04 ns on one x86 core with OpenBLAS sgemm.
_DENSE_COST = 1024
# One gathered word, or one packed and unpacked cell, of a bit step costs about
# this many dense multiply-adds: about 1.5-3 ns on the same core, gathers and
# reduceat included.
_BIT_COST = 128
# Frontier words a bit step gathers at once: 1 MB of uint64.
_GATHER_WORDS = 1 << 17
# Sparse steps gather padded offset rows when the largest out-degree is at
# most this many times the mean.
_PAD_RATIO = 2


def _out_offsets(indices, deg, width):
    """(n, width) int64 table of head - tail per out-arc; short rows padded with 0."""
    n = deg.size
    offsets = np.zeros((n, width), dtype=np.int64)
    # row-major boolean scatter: row v's first deg[v] slots take its CSR segment
    offsets[np.arange(width) < deg[:, None]] = indices - np.arange(n).repeat(deg)
    return offsets


def _sparse_step(flat, keys, cols, counts, indptr, indices, offsets):
    """Unreached cells one arc beyond the frontier keys, each exactly once.

    A key is row*n + v for frontier cell (row, v) of the block, and out-arc
    v -> w leads it to key + (w - v). With the padded table `offsets` of
    `_out_offsets`, the candidates are `keys[:, None] + offsets[cols]`.
    Padding is safe: offset 0 maps a frontier key to itself, and every
    frontier cell was written with its level (>= 1) before this step expands
    it, so the `< 0` filter drops the padded candidates, as it drops any cell
    already reached. Without the table (`offsets` None), the candidates are
    expanded from the CSR rows, `counts` holding each key's out-degree.

    The padded rows interleave padding and arcs back into reached cells with
    new cells, so their keep mask alternates, where `compress` beats a boolean
    index; the CSR rows' masks run long and keep the boolean index. Candidates
    are deduplicated by writing a distinct negative tag (below the -1
    sentinel) into each candidate cell and keeping the candidates whose tag
    survived, nearly all of them on sparse graphs: a boolean index again.
    """
    if offsets is not None:
        cand = (keys[:, None] + offsets.take(cols, axis=0)).reshape(-1)
        cand = cand.compress(flat.take(cand) < 0)
    else:
        ends = np.cumsum(counts)
        pos = np.repeat(indptr[cols] - ends + counts, counts) + np.arange(ends[-1])
        cand = np.repeat(keys - cols, counts) + indices[pos]
        cand = cand[flat.take(cand) < 0]
    tag = np.arange(-2, -2 - cand.size, -1, dtype=np.int32)
    flat[cand] = tag
    return cand[flat.take(cand) == tag]


def _dense_step(rows, mask, adj):
    """Unreached cells of the block one arc beyond the frontier mask, through BLAS."""
    reach = np.matmul(mask.astype(np.float32), adj) > 0
    reach &= rows < 0
    return reach


def _bit_step(rows, mask, in_indptr, in_indices):
    """Unreached cells of the block one arc beyond the frontier mask, by word ORs.

    The frontier packs into a (W, n) uint64 array, word w of column v holding
    sources 64w..64w+63. Each vertex with an in-arc ORs the words of its in-CSR
    segment; a vertex without one is left out, since `reduceat` would return a
    word for its empty segment.
    """
    s, n = rows.shape
    w = -(-s // 64)
    bits = np.zeros((n, 8 * w), dtype=np.uint8)
    bits[:, :-(-s // 8)] = np.packbits(np.ascontiguousarray(mask.T), axis=1, bitorder="little")
    words = np.ascontiguousarray(bits.view(np.uint64).T)
    heads = np.flatnonzero(in_indptr[1:] > in_indptr[:-1])
    bounds = np.append(in_indptr[heads], in_indices.size)
    pulled = np.zeros((n, w), dtype=np.uint64)
    # chunks of heads whose in-arcs add up to about _GATHER_WORDS // w
    cuts = np.searchsorted(bounds, np.arange(0, bounds[-1], max(1, _GATHER_WORDS // w)))
    cuts = np.unique(np.append(cuts, heads.size)).tolist()
    for a, b in zip(cuts, cuts[1:]):
        lo = bounds[a]
        gathered = words.take(in_indices[lo:bounds[b]], axis=1)
        pulled[heads[a:b]] = np.bitwise_or.reduceat(gathered, bounds[a:b] - lo, axis=1).T
    reach = np.unpackbits(pulled.view(np.uint8), axis=1, count=s, bitorder="little")
    reach = np.ascontiguousarray(reach.view(bool).T)
    reach &= rows < 0
    return reach


def all_pairs_directed_dist(
    indptr: np.ndarray,
    indices: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    n: int,
) -> np.ndarray:
    """Directed hop-count table from the out- and in-CSR; -1 where unreachable."""
    dist = np.full((n, n), -1, dtype=np.int32)
    deg = indptr[1:] - indptr[:-1]
    arc_cells = np.repeat(np.arange(0, n * n, n), deg) + indices
    dist.reshape(-1)[arc_cells] = 1  # level 1 of every source at once
    np.fill_diagonal(dist, 0)
    adj = None
    width = int(deg.max())
    padded = n * width <= _PAD_RATIO * indices.size
    offsets = counts = None
    block = max(1, min(_BLOCK_CELLS // n, _BLOCK_CELLS * _DENSE_COST // (n * n)))
    for s0 in range(0, n, block):
        rows = dist[s0:s0 + block]
        flat = rows.reshape(-1)
        keys = None
        todo = np.count_nonzero(rows < 0)  # before the frontier, so one bool block at a time
        mask = rows == 1  # the frontier: a bool block, or else the keys of its cells
        dense_cells = flat.size * n
        bit_cells = _BIT_COST * (-(-rows.shape[0] // 64) * indices.size + flat.size)
        pull_cells = min(dense_cells, bit_cells)
        level = 1
        while todo:
            level += 1
            pull = pull_cells < _DENSE_COST  # tiny blocks skip counting arcs
            if not pull:
                # a sparse step's gathered arcs, padding included
                if mask is not None:
                    arcs = np.count_nonzero(mask) * width if padded else mask.sum(axis=0) @ deg
                else:
                    cols = keys % n
                    if padded:
                        arcs = keys.size * width
                    else:
                        counts = deg.take(cols)
                        arcs = counts.sum()
                pull = arcs * _DENSE_COST > pull_cells
            if pull:
                if mask is None:
                    mask = np.zeros(rows.shape, dtype=bool)
                    mask.reshape(-1)[keys] = True
                if bit_cells < dense_cells:
                    mask = _bit_step(rows, mask, in_indptr, in_indices)
                else:
                    if adj is None:
                        adj = np.zeros((n, n), dtype=np.float32)
                        adj.reshape(-1)[arc_cells] = 1.0
                    mask = _dense_step(rows, mask, adj)
                found = np.count_nonzero(mask)
                rows[mask] = level
            else:
                if mask is not None:
                    keys = np.flatnonzero(mask)
                    mask = None
                    cols = keys % n
                    if not padded:
                        counts = deg.take(cols)
                if not arcs:
                    keys = keys[:0]
                else:
                    if padded and offsets is None:  # the call's first sparse step
                        offsets = _out_offsets(indices, deg, width)
                    keys = _sparse_step(flat, keys, cols, counts, indptr, indices, offsets)
                found = keys.size
                flat[keys] = level
            if not found:
                break
            todo -= found
    return dist
