"""Independent definition-level oracles for cross-checking the library.

Everything here is deliberately plain Python over (n, arcs) data: no package
internals, different algorithms where possible (Floyd-Warshall instead of BFS,
transitive closure instead of dual BFS). numpy appears only as the source of
the PCG64 stream that `generate_one_draw_per_attempt` replays, and in `ids`,
which reads the library's boolean vertex masks. Expected values in the test
modules were frozen from these.
"""

from itertools import product as iproduct

import numpy as np

INF = float("inf")


def floyd_warshall(n, arcs):
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for a, b in arcs:
        d[a][b] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is INF:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def strong_by_closure(n, arcs):
    d = floyd_warshall(n, arcs)
    return all(d[i][j] is not INF and d[i][j] != INF for i in range(n) for j in range(n))


def md_table(n, arcs):
    d = floyd_warshall(n, arcs)
    return [[max(d[i][j], d[j][i]) for j in range(n)] for i in range(n)]


def ids(mask):
    """The members of a boolean vertex mask, as a set of ints.

    Anything but a 1-D bool array fails, so a set assertion written through
    `ids` cannot pass on an int array or on a frozenset.
    """
    assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.ndim == 1, mask
    return set(mask.nonzero()[0].tolist())


def neighbors(n, arcs, v, closed=False):
    """N(v), or N[v] = N(v) ∪ {v} when closed."""
    own = {v} if closed else set()
    return {b for a, b in arcs if a == v} | {a for a, b in arcs if b == v} | own


def ecc_vector(md):
    return [max(row) for row in md]


def witnesses(n, arcs, md, v, u, closed=False):
    """u witnesses v: no neighbor of v lies md-farther from u than v does."""
    return all(md[u][w] <= md[u][v] for w in neighbors(n, arcs, v, closed))


def boundary(n, arcs, md, closed=False):
    return {v for v in range(n) if any(witnesses(n, arcs, md, v, u, closed) for u in range(n))}


def witness_reach(n, arcs, md):
    """(A, m) of the exact product boundary route, straight from the definitions.

    W[u][v] = max md[u][w] over w in N(v), -1 for an empty N(v);
    A[v] = max{md[u][v] : W[u][v] <= md[u][v]}, -1 when v has no witness;
    m[v] = min over u of max(md[u][v], W[u][v]).
    """
    reach, least = [], []
    for v in range(n):
        nv = neighbors(n, arcs, v)
        worst = [max((md[u][w] for w in nv), default=-1) for u in range(n)]
        reach.append(max((md[u][v] for u in range(n) if worst[u] <= md[u][v]), default=-1))
        least.append(min(max(md[u][v], worst[u]) for u in range(n)))
    return reach, least


def eccentric(n, md):
    ecc = ecc_vector(md)
    return {v for v in range(n) if any(md[u][v] == ecc[u] for u in range(n))}


def periphery(n, md):
    ecc = ecc_vector(md)
    diam = max(ecc)
    return {v for v in range(n) if ecc[v] == diam}


def contour(n, arcs, md, closed=False):
    ecc = ecc_vector(md)
    return {v for v in range(n) if all(ecc[u] <= ecc[v] for u in neighbors(n, arcs, v, closed))}


def strong_product_arcs(n1, arcs1, n2, arcs2):
    """The three arc rules, pair (i, r) encoded as i*n2 + r."""
    out = set()
    for (i, j), r in iproduct(arcs1, range(n2)):
        out.add((i * n2 + r, j * n2 + r))
    for i, (r, s) in iproduct(range(n1), arcs2):
        out.add((i * n2 + r, i * n2 + s))
    for (i, j), (r, s) in iproduct(arcs1, arcs2):
        out.add((i * n2 + r, j * n2 + s))
    return out


def strong_by_search(n, arcs):
    """Every vertex reaches vertex 0 and is reached from it, by set-based search.

    O(n * m) per call, where strong_by_closure's Floyd-Warshall is O(n^3):
    the generator reference tests up to 26 draws of 40 vertices per example.
    """
    for step in (arcs, {(b, a) for a, b in arcs}):
        seen, todo = {0}, [0]
        while todo:
            u = todo.pop()
            for a, b in step:
                if a == u and b not in seen:
                    seen.add(b)
                    todo.append(b)
        if len(seen) < n:
            return False
    return True


def generate_one_draw_per_attempt(n, p, seed, max_retries):
    """(arcs, attempts, augmented) of the generator, one (n, n) draw per attempt.

    Attempt k takes the next n*n values of the seed's PCG64 stream, keeps the
    cells below p off the diagonal, and stops at the first strong draw; after
    max_retries failed resamples the cycle 0->1->...->n-1->0 joins the last
    draw.
    """
    rng = np.random.default_rng(seed)
    for attempts in range(1, max_retries + 2):
        draw = (rng.random((n, n)) < p).tolist()
        arcs = {(a, b) for a in range(n) for b in range(n) if a != b and draw[a][b]}
        if strong_by_search(n, arcs):
            return arcs, attempts, False
    if n > 1:
        arcs |= {(v, (v + 1) % n) for v in range(n)}
    return arcs, attempts, True
