"""Hot numeric kernel: all-pairs directed hop counts.

`all_pairs_directed_dist` is one breadth-first search (BFS) from every source
at once, in numpy only. Sources run in blocks of S rows of the distance table,
and the frontier is every (source, vertex) cell first reached at the previous
level. Each level expands it in whichever of two ways touches fewer cells
(the direction-optimizing idea of Beamer, Asanovic & Patterson, SC 2012):

- sparse step: gather the frontier's out-arcs from the CSR rows, keep the
  unreached cells and deduplicate them without sorting. Work is proportional
  to the arcs leaving the frontier, so a BFS over all levels costs O(S·m) and
  high-diameter sparse graphs stay cheap;
- dense step: one S×n by n×n float32 product `frontier @ adjacency` through
  BLAS, masked to the unreached cells. It costs S·n² multiply-adds however
  large the frontier is, so low-diameter dense graphs take a few products.

The choice compares the frontier's out-arc count, weighted by `_DENSE_COST`
(the measured cost of one gathered arc over one BLAS multiply-add), against
the S·n² cells of a dense step. The dense adjacency is built only when a dense
step first runs. The block size bounds every per-level array to about
`_BLOCK_CELLS` entries, so beside the n×n int32 table and at most one n×n
float32 adjacency the kernel's memory stays O(`_BLOCK_CELLS`).
"""

from __future__ import annotations

import numpy as np

# Cells of one source block, and the arcs a sparse step may gather at once.
_BLOCK_CELLS = 1 << 20
# One gathered arc of a sparse step costs about this many dense multiply-adds:
# about 30-40 ns against 0.02-0.04 ns on one x86 core with OpenBLAS sgemm.
_DENSE_COST = 1024


def _sparse_step(flat, keys, cols, counts, indptr, indices):
    """Unreached cells one arc beyond the frontier keys, each exactly once.

    A key is row*n + v for frontier cell (row, v) of the block. Candidates are
    deduplicated by writing a distinct negative tag (below the -1 sentinel)
    into each candidate cell and keeping the candidates whose tag survived.
    """
    ends = np.cumsum(counts)
    pos = np.repeat(indptr[cols] - ends + counts, counts) + np.arange(ends[-1])
    cand = np.repeat(keys - cols, counts) + indices[pos]
    cand = cand[flat[cand] < 0]
    tag = np.arange(-2, -2 - cand.size, -1, dtype=np.int32)
    flat[cand] = tag
    return cand[flat[cand] == tag]


def _dense_step(rows, keys, mask, adj):
    """Unreached cells of the block one arc beyond the frontier, as a bool mask.

    The frontier is the mask when there is one, or else the keys.
    """
    if mask is None:
        front = np.zeros(rows.shape, dtype=np.float32)
        front.reshape(-1)[keys] = 1.0
    else:
        front = mask.astype(np.float32)
    reach = np.matmul(front, adj) > 0
    reach &= rows < 0
    return reach


def all_pairs_directed_dist(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Directed hop-count table from CSR out-rows; -1 where unreachable."""
    dist = np.full((n, n), -1, dtype=np.int32)
    deg = indptr[1:] - indptr[:-1]
    arc_cells = np.repeat(np.arange(0, n * n, n), deg) + indices
    dist.reshape(-1)[arc_cells] = 1  # level 1 of every source at once
    np.fill_diagonal(dist, 0)
    adj = None
    block = max(1, min(_BLOCK_CELLS // n, _BLOCK_CELLS * _DENSE_COST // (n * n)))
    for s0 in range(0, n, block):
        rows = dist[s0:s0 + block]
        flat = rows.reshape(-1)
        keys = None
        mask = rows == 1  # the frontier: a bool block, or else the keys of its cells
        todo = np.count_nonzero(rows < 0)
        dense_cells = flat.size * n
        level = 1
        while todo:
            level += 1
            dense = dense_cells < _DENSE_COST  # tiny blocks skip counting arcs
            if not dense:
                if mask is not None:
                    arcs = mask.sum(axis=0) @ deg
                else:
                    cols = keys % n
                    counts = deg[cols]
                    arcs = counts.sum()
                dense = arcs * _DENSE_COST > dense_cells
            if dense:
                if adj is None:
                    adj = np.zeros((n, n), dtype=np.float32)
                    adj.reshape(-1)[arc_cells] = 1.0
                mask = _dense_step(rows, keys, mask, adj)
                found = np.count_nonzero(mask)
                rows[mask] = level
            else:
                if mask is not None:
                    keys = np.flatnonzero(mask)
                    mask = None
                    cols = keys % n
                    counts = deg[cols]
                keys = _sparse_step(flat, keys, cols, counts, indptr, indices) if arcs else keys[:0]
                found = keys.size
                flat[keys] = level
            if not found:
                break
            todo -= found
    return dist

