"""Loop-free simple digraphs on dense integer vertex ids.

Vertices are 0..n-1; display names live in the I/O layer. Digraphs are
immutable after construction, so profiles and products computed from them can
be cached and shared freely.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import LoopArc, ParallelArc, SizeOverflow, VertexOutOfRange

Arc = tuple[int, int]

# Arc keys row*n + column are int64, so the largest key n*n - 1 must fit in one.
_MAX_KEYED_N = math.isqrt(2**63 - 1)


def _keys_to_csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of sorted distinct keys row*n + column."""
    indptr = np.searchsorted(keys, np.arange(0, n * n + 1, n)).astype(np.int32)
    # keys % n, in place through //: numpy divides int64 by a scalar ~4x faster than %
    indices = keys // n
    indices *= n
    np.subtract(keys, indices, out=indices)
    indices = indices.astype(np.int32)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


def _bfs_levels(indptr: np.ndarray, indices: np.ndarray, n: int, source: int) -> np.ndarray:
    """Hop counts from source along CSR rows, by BFS; -1 where unreachable.

    The walk runs over Python lists: indexing numpy arrays one scalar at a
    time costs several times more than converting the arrays once.
    """
    ptr, idx = indptr.tolist(), indices.tolist()
    levels = [-1] * n
    levels[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        level = levels[u] + 1
        for w in idx[ptr[u]:ptr[u + 1]]:
            if levels[w] < 0:
                levels[w] = level
                queue.append(w)
    return np.array(levels, dtype=np.int32)


@dataclass(frozen=True, eq=False)
class Digraph:
    """Immutable digraph: vertex count plus CSR adjacency.

    CSR is the only stored form: out-arcs, in-arcs, and the undirected union
    used by neighborhood-based definitions, each with columns strictly
    increasing along every row. The arc set is derived from the out-CSR.
    """

    n: int
    out_indptr: np.ndarray = field(repr=False)
    out_indices: np.ndarray = field(repr=False)
    in_indptr: np.ndarray = field(repr=False)
    in_indices: np.ndarray = field(repr=False)
    und_indptr: np.ndarray = field(repr=False)
    und_indices: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.out_indptr, other.out_indptr)
            and np.array_equal(self.out_indices, other.out_indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.out_indptr.tobytes(), self.out_indices.tobytes()))

    def _arc_array(self) -> np.ndarray:
        """(m, 2) int64 array of (tail, head) rows in ascending order."""
        tails = np.repeat(np.arange(self.n), np.diff(self.out_indptr))
        return np.column_stack((tails, self.out_indices))

    @property
    def arcs(self) -> frozenset[Arc]:
        return frozenset(map(tuple, self._arc_array().tolist()))

    @property
    def arc_count(self) -> int:
        return self.out_indices.size

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{self.n - 1}")


def _not_int_type(t: type) -> bool:
    """True unless t is a Python or numpy integer type; bool is refused too."""
    return t is bool or not issubclass(t, (int, np.integer))


def from_arcs(n: int, arcs: Iterable[Arc] | np.ndarray) -> Digraph:
    """Build a digraph, rejecting loops, duplicates, and out-of-range ids.

    arcs is any iterable of (tail, head) pairs or an (m, 2) integer array.
    This is the one place the arc rules are checked; `parse_edge_list` leaves
    them here. Malformed input is surfaced rather than silently repaired: a
    repeated ordered pair raises ParallelArc even though the arc set could
    absorb it, and a float, bool or str endpoint raises ValueError rather
    than being truncated or parsed. The error names the first bad arc in
    input order (for a repeat, the later copy) and carries its 0-based
    position as ``index``.
    """
    if _not_int_type(type(n)):
        raise ValueError(f"vertex count must be an integer, got {type(n).__name__}")
    n = int(n)  # a narrow numpy n would wrap in n * n
    if n < 1:
        raise VertexOutOfRange(f"vertex count must be >= 1, got {n}")
    _require_keyed(n)
    # Python endpoints stay objects until their types are checked: an int64
    # conversion would truncate 1.7 and parse "1".
    pairs = arcs if isinstance(arcs, np.ndarray) else np.array(list(arcs), dtype=object)
    if pairs.size and pairs.shape[1:] != (2,):
        raise ValueError(f"arcs must be (tail, head) pairs, got an array of shape {pairs.shape}")
    pairs = pairs.reshape(-1, 2)
    kinds = set(map(type, pairs.flat)) if pairs.dtype == object else {pairs.dtype.type}
    odd = sorted(t.__name__ for t in kinds if _not_int_type(t))
    if pairs.size and odd:
        raise ValueError(f"arc endpoints must be integers, got {', '.join(odd)}")
    if pairs.dtype == np.uint64 and pairs.size and pairs.max() >> 63:
        pairs = pairs.astype(object)  # an int64 cast would wrap such an endpoint negative
    try:
        pairs = pairs.astype(np.int64, copy=False)
    except OverflowError:  # an endpoint beyond int64, so out of range: report it exactly
        pass
    tails, heads = pairs[:, 0], pairs[:, 1]
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    # Out-of-range arcs get distinct negative keys, so they repeat nothing.
    keys = np.where(outside, -1 - np.arange(len(pairs)), tails * n + heads)
    order = np.argsort(keys, kind="stable")
    out_keys = keys[order]
    repeat = np.zeros(len(pairs), dtype=bool)
    repeat[order[1:][out_keys[1:] == out_keys[:-1]]] = True
    bad = outside | (tails == heads) | repeat
    if bad.any():
        k = int(np.argmax(bad))
        a, b = int(tails[k]), int(heads[k])
        if outside[k]:
            raise VertexOutOfRange(f"arc ({a},{b}) has an endpoint outside 0..{n - 1}", k)
        if a == b:
            raise LoopArc(f"loop arc ({a},{a}) not allowed", k)
        raise ParallelArc(f"duplicate arc ({a},{b})", k)
    return _from_out_keys(n, out_keys)


def _require_keyed(n: int) -> None:
    """SizeOverflow unless the arc keys of an n-vertex digraph fit in int64."""
    if n > _MAX_KEYED_N:
        raise SizeOverflow(
            f"{n} vertices exceed {_MAX_KEYED_N}, the most whose arc keys fit in int64"
        )


def _from_out_keys(n: int, out_keys: np.ndarray) -> Digraph:
    """Digraph of sorted distinct int64 arc keys tail*n + head, none a loop.

    Nothing is checked here: `from_arcs` validates its arcs first, and
    `strong_product` and `_from_adjacency` prove their keys valid.
    The in-keys head*n + tail take one sort; the undirected keys merge the two
    sorted arrays and drop repeats.
    """
    tails = out_keys // n
    in_keys = np.sort((out_keys - tails * n) * n + tails)
    del tails  # on a product each key array takes MBs: free each once used
    out_csr, in_csr = _keys_to_csr(n, out_keys), _keys_to_csr(n, in_keys)
    # Two sorted runs: numpy's stable sort (timsort on int64) merges them in
    # one linear pass, where np.union1d's hash-based unique is ~40x slower.
    both = np.concatenate((out_keys, in_keys))
    del in_keys
    both.sort(kind="stable")
    first = np.empty(both.size, dtype=bool)
    first[:1] = True
    np.not_equal(both[1:], both[:-1], out=first[1:])
    und_keys = both[first]
    del both, first
    return Digraph(n, *out_csr, *in_csr, *_keys_to_csr(n, und_keys))


def _from_adjacency(adj: np.ndarray) -> Digraph:
    """Digraph of a boolean n x n adjacency matrix whose diagonal is false.

    The arc keys tail*n + head are adj's row-major flat indices: np.flatnonzero
    lists them sorted and distinct, the false diagonal makes none a loop, and
    numpy indexes the n² cells in int64, so every key fits.
    """
    return _from_out_keys(len(adj), np.flatnonzero(adj))


def _adjacency_is_strong(adj: np.ndarray) -> bool:
    """is_strong on a loop-free boolean n x n adjacency matrix, building no Digraph.

    For n > 1 a vertex with no out-arc or no in-arc rules strongness out at
    once. Otherwise a dual BFS from vertex 0 advances whole frontiers, row
    blocks of adj and then of adj.T: O(n^2) work in all.
    """
    n = len(adj)
    if n > 1 and not (adj.any(axis=1).all() and adj.any(axis=0).all()):
        return False
    for step in (adj, adj.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        front = seen.copy()
        while front.any():
            front = step[front].any(axis=0) & ~seen
            seen |= front
        if not seen.all():
            return False
    return True


def is_strong(d: Digraph) -> bool:
    """Every ordered vertex pair joined by a directed path."""
    return find_unreachable_pair(d) is None


def find_unreachable_pair(d: Digraph) -> tuple[int, int] | None:
    """The first ordered pair (u, v) with no directed u->v path, if one exists.

    Dual BFS from vertex 0: forward reachability covers 0->x for all x,
    reverse reachability covers x->0; together they cover every ordered pair.
    The pair is (0, x) for the least x that 0 cannot reach, else (u, 0) for
    the least u that cannot reach 0.
    """
    fwd = _bfs_levels(d.out_indptr, d.out_indices, d.n, 0)
    if fwd.min() < 0:
        return (0, int(fwd.argmin()))
    back = _bfs_levels(d.in_indptr, d.in_indices, d.n, 0)
    if back.min() < 0:
        return (int(back.argmin()), 0)
    return None
