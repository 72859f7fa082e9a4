"""Hot numeric kernel: all-pairs directed hop counts.

`all_pairs_directed_dist` is one breadth-first search (BFS) from every source
at once, in numpy only. Sources run in blocks of S rows of the distance table.
A block writes its level 1 from its own sources' CSR rows and its zero
diagonal at cells (k, s0 + k), so it reads nothing of the other blocks. The
frontier is every (source, vertex) cell first reached at the previous level.
Between levels it is held in one form: the int64 keys row·n + v of its cells,
or packed words across a run of bit steps. Each level expands it in whichever
of two directions touches fewer cells (the direction-optimizing idea of
Beamer, Asanovic & Patterson, SC 2012):

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
  - dense step: the frontier keys scattered into an S×n float32 block, one
    S×n by n×n product `frontier @ adjacency` through BLAS, S·n²
    multiply-adds, and the keys of the new cells read back;
  - bit step: the block's sources packed 64 to a uint64 word, as in
    multi-source BFS (Then et al., PVLDB 2014). The frontier and the cells
    not yet reached stay packed, as two (W, n) word arrays for W = ⌈S/64⌉,
    from one bit level to the next. At the block's first bit step, and again
    after a sparse step, the frontier words are packed from the keys through
    a bool block, and the unreached words from the block's rows through the
    same block, which is then dropped; a sparse step unpacks the frontier
    words back to keys and drops both.
    The pull is bottom-up, as in Beamer et al.: only a vertex that some
    source of the block has not reached ORs the words of its in-neighbours.
    A level thus gathers W·m_open words, m_open being the in-arcs of those
    vertices, and at most W·m. It then unpacks its new cells once, to write
    their level.

Only the frontier crosses a level. Its cell count is kept from level 1 on:
the number of keys, or the popcount of the words after a bit step
(`np.bitwise_count`, numpy >= 2.0). A padded sparse step gathers that count
times D arcs; a CSR step gathers the frontier's out-degree sum, read off the
keys' columns, or off the words' column popcounts after a bit step. The sparse
step reads the columns key mod n off the keys itself, unless the CSR estimate
has just gathered them and the out-degrees, which it hands over.

All costs are counted in BLAS multiply-adds: a sparse step's gathered arcs,
padding included, weigh `_DENSE_COST` each, a bit step's W·m words and S·n
cells `_BIT_COST` each (the cost of a level where every vertex still pulls).
A block takes the cheaper pull form, and each level compares the sparse step
against it: one cost comparison per level. Since a bit step costs at
least `_BIT_COST`·S·n, graphs on at most `_BIT_COST` vertices always pull
through BLAS, where the bit step's fixed numpy overheads would dominate.
The dense adjacency is built from the CSR only when a dense step first runs.
The block size bounds every per-level array to about `_BLOCK_CELLS` entries.
A bit level holds three (W, n) word arrays (3·S·n/8 bytes), at most about
`_GATHER_WORDS` gathered words, and one unpacked S·n-byte block with its S·n
bytes of level increments. So beside the n×n int32 table, at most one n×n
float32 adjacency and the n·D ≤ 2m offsets, the kernel's memory stays
O(`_BLOCK_CELLS` + n). On the 1 600-vertex `oracle-both` product,
tracemalloc puts a kernel call's peak at 12.6 MB, 10.2 MB of it the table.
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
    offsets = np.zeros((deg.size, width), dtype=np.int64)
    # row-major boolean scatter: row v's first deg[v] slots take its CSR segment
    offsets[np.arange(width) < deg[:, None]] = indices - np.arange(deg.size).repeat(deg)
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
    The step reads the columns `cols = keys % n` off the keys, and in the CSR
    form the counts off `indptr`, unless the caller passes the ones its cost
    estimate has already gathered: on a 300-vertex directed cycle with one
    out-hub, whose ~300 CSR steps each expand about 300 keys, a second
    `keys % n` per step made the kernel about 0.5 ms (6%) slower.

    The padded rows interleave padding and arcs back into reached cells with
    new cells, so their keep mask alternates, where `compress` beats a boolean
    index; the CSR rows' masks run long and keep the boolean index. Candidates
    are deduplicated by writing a distinct negative tag (below the -1
    sentinel) into each candidate cell and keeping the candidates whose tag
    survived, nearly all of them on sparse graphs: a boolean index again.
    The dedupe keeps it because the shape that runs it at scale, a padded
    bidirected 1 000-path, favours it: 2.4 ms of dedupe masks per kernel run
    against 4.6 ms with `compress`. A 40×40 bidirected grid, where about half
    the candidates are duplicates, goes the other way (33.6 against 14.6 ms);
    both measured on masks recorded from a run, shared 2-vCPU VM.
    """
    cols = keys % (indptr.size - 1) if cols is None else cols
    if offsets is not None:
        cand = (keys[:, None] + offsets.take(cols, axis=0)).reshape(-1)
        cand = cand.compress(flat.take(cand) < 0)
    else:
        starts = indptr.take(cols)
        counts = indptr.take(cols + 1) - starts if counts is None else counts
        ends = np.cumsum(counts)
        pos = np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])
        cand = np.repeat(keys - cols, counts) + indices[pos]
        cand = cand[flat.take(cand) < 0]
    tag = np.arange(-2, -2 - cand.size, -1, dtype=np.int32)
    flat[cand] = tag
    return cand[flat.take(cand) == tag]


def _dense_step(rows, keys, adj):
    """Keys of the unreached block cells one arc beyond the frontier keys, through BLAS."""
    front = np.zeros(rows.shape, dtype=np.float32)
    front.reshape(-1)[keys] = 1.0
    reach = np.matmul(front, adj) > 0
    reach &= rows < 0
    return np.flatnonzero(reach)


# (shift, mask) of the three delta swaps that transpose an 8×8 bit matrix
_SWAPS = tuple(
    (np.uint64(shift), np.uint64(bits))
    for shift, bits in (
        (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)
    )
)


def _transpose8(x):
    """Transpose the 8×8 bit matrix in each uint64 of x, bit 8i + j to bit 8j + i, in place."""
    for shift, bits in _SWAPS:
        t = (x ^ (x >> shift)) & bits
        x ^= t ^ (t << shift)


def _pack(mask):
    """(W, n) uint64 words of an (S, n) bool block: word w of column v holds sources 64w..64w+63.

    `packbits` along a row is cheap and along a column is not, so the block
    is packed by rows, 8 vertices to a byte, and its 8×8 bit tiles are then
    transposed: byte j of word w, v holds sources 64w + 8j..64w + 8j + 7.
    """
    s, n = mask.shape
    w, nb = -(-s // 64), -(-n // 8)
    bits = np.zeros((64 * w, nb), dtype=np.uint8)
    bits[:s] = np.packbits(mask, axis=1, bitorder="little")
    tiles = np.ascontiguousarray(bits.reshape(8 * w, 8, nb).transpose(0, 2, 1))
    tiles = tiles.view(np.uint64)[..., 0]
    _transpose8(tiles)
    tiles = tiles.view(np.uint8).reshape(w, 8, 8 * nb)[:, :, :n]
    return np.ascontiguousarray(tiles.transpose(0, 2, 1)).view(np.uint64)[..., 0]


def _unpack(words, s):
    """(S, n) bool block of (W, n) uint64 words; the inverse of `_pack`."""
    w, n = words.shape
    nb = -(-n // 8)
    tiles = np.zeros((w, 8 * nb, 8), dtype=np.uint8)
    tiles[:, :n] = words.view(np.uint8).reshape(w, n, 8)
    tiles = np.ascontiguousarray(tiles.transpose(0, 2, 1)).view(np.uint64).reshape(8 * w, nb)
    _transpose8(tiles)
    bits = tiles.view(np.uint8).reshape(8 * w, nb, 8).transpose(0, 2, 1).reshape(64 * w, nb)[:s]
    return np.unpackbits(bits, axis=1, count=n, bitorder="little").view(bool)


def _bit_step(rows, level, front, unseen, in_indices, heads, bounds, cuts):
    """Write `level` into the block cells one arc beyond the frontier words; return the new words.

    front and unseen are (W, n) uint64 words, 64 sources to a word: the
    block's frontier and the cells it has not reached. Only heads, vertices
    with an in-arc, can pull, since `reduceat` would return a word for an
    empty in-CSR segment; `cuts` splits them into chunks whose in-arcs add
    up to about `_GATHER_WORDS` // W. Only the live heads, those that some
    source has not reached, pull: each ORs the frontier words of its in-CSR
    segment and keeps the bits still unseen. A partly live chunk picks the
    segments of its live heads by repeating the flags over them. unseen is
    updated in place.
    """
    live = unseen.take(heads, axis=1).any(axis=0)
    nxt = np.zeros_like(front)
    for a, b in zip(cuts, cuts[1:]):
        sel = live[a:b]
        if not sel.any():
            continue
        lo = bounds[a]
        idx, cols, starts = in_indices[lo:bounds[b]], heads[a:b], bounds[a:b] - lo
        if not sel.all():
            sizes = bounds[a + 1:b + 1] - bounds[a:b]
            idx, cols, sizes = idx[np.repeat(sel, sizes)], cols[sel], sizes[sel]
            starts = np.cumsum(sizes) - sizes
        nxt[:, cols] = np.bitwise_or.reduceat(front.take(idx, axis=1), starts, axis=1)
    nxt &= unseen
    unseen ^= nxt
    # The new cells hold -1, so adding level + 1 there writes the level. In the
    # narrowest type that holds it, this took 0.24 ms on a half-full 419×1600
    # block, where `rows[mask] = level` took 3.7 ms (one core, shared 2-vCPU VM).
    narrow = np.min_scalar_type(level + 1)
    rows += np.multiply(_unpack(nxt, rows.shape[0]), level + 1, dtype=narrow)
    return nxt


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
    adj = None
    width = int(deg.max())
    padded = n * width <= _PAD_RATIO * indices.size
    offsets = plan = None
    block = max(1, min(_BLOCK_CELLS // n, _BLOCK_CELLS * _DENSE_COST // (n * n)))
    for s0 in range(0, n, block):
        rows = dist[s0:s0 + block]
        flat = rows.reshape(-1)
        s = rows.shape[0]
        # level 1 from the block's own out-arcs, then the zero diagonal (k, s0 + k)
        keys = np.repeat(np.arange(0, s * n, n), deg[s0:s0 + s]) + indices[indptr[s0]:indptr[s0 + s]]
        flat[keys] = 1
        flat[np.arange(s0, s0 + s * (n + 1), n + 1)] = 0
        found = keys.size  # the frontier's cells
        todo = flat.size - s - found  # no arc is a loop
        # the frontier between levels: the keys of its cells, or bit-step words
        front = None
        dense_cells = flat.size * n
        bit_cells = _BIT_COST * (-(-s // 64) * indices.size + flat.size)
        pull_cells = min(dense_cells, bit_cells)
        level = 1
        while todo:
            level += 1
            pull = pull_cells < _DENSE_COST  # tiny blocks skip counting arcs
            if not pull:
                # a sparse step's gathered arcs, padding included
                cols = counts = None  # CSR rows the estimate reads, handed to the sparse step
                if padded:
                    arcs = found * width
                elif front is None:
                    cols = keys % n
                    counts = deg.take(cols)
                    arcs = counts.sum()
                else:
                    arcs = np.bitwise_count(front).sum(axis=0, dtype=np.int64) @ deg
                pull = arcs * _DENSE_COST > pull_cells
            if pull and bit_cells < dense_cells:
                if plan is None:  # the call's first bit step
                    heads = np.flatnonzero(in_indptr[1:] > in_indptr[:-1])
                    bounds = np.append(in_indptr[heads], in_indices.size)
                    # chunks of heads whose in-arcs add up to about _GATHER_WORDS // W
                    step = max(1, _GATHER_WORDS // -(-block // 64))
                    cuts = np.searchsorted(bounds, np.arange(0, bounds[-1], step))
                    plan = heads, bounds, np.unique(np.append(cuts, heads.size)).tolist()
                # the block's first bit step, or the first after a sparse one
                if front is None:
                    mask = np.zeros(rows.shape, dtype=bool)
                    mask.reshape(-1)[keys] = True
                    front, unseen, keys = _pack(mask), _pack(np.less(rows, 0, out=mask)), None
                    del mask  # kept to the block's end, it would raise the call's peak
                front = _bit_step(rows, level, front, unseen, in_indices, *plan)
                found = np.bitwise_count(front).sum(dtype=np.int64)
            else:
                if front is not None:  # a sparse step after bit steps
                    keys, front = np.flatnonzero(_unpack(front, s)), None
                if pull:
                    if adj is None:  # the call's first dense step
                        adj = np.zeros((n, n), dtype=np.float32)
                        adj[np.arange(n).repeat(deg), indices] = 1.0
                    keys = _dense_step(rows, keys, adj)
                elif not arcs:
                    break
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
