"""Reproducible random strong digraphs for tests and the verify harness.

``generate_strong_digraph(n, p, seed, max_retries)`` takes its parameters
directly and rejects a bad one with ``InvalidConfig``. Identical arguments
give identical digraphs: each draw comes from one PCG64 stream per seed.

A factor's attempts are drawn in chunks, one ``rng.random((b, n, n))`` call
per chunk of b attempts, with b chosen so a chunk holds at most
``_DRAW_CELLS`` cells (one attempt per call once two no longer fit, so a
large draw takes no more memory than one attempt needs). PCG64 fills a
``(b, n, n)`` request in C order, value for value as b successive ``(n, n)``
requests, so attempt k sees the same draw whatever the chunking: the kept
draw, ``attempts`` and ``augmented`` do not depend on it. Values drawn past
the kept attempt are never used, and the generator is discarded with them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, _adjacency_is_strong, _from_adjacency, _not_int_type
from .errors import InvalidConfig, SizeOverflow

# numpy cannot even describe an array of 2**63 bytes or more; an n x n float64
# draw beyond this n raises ValueError rather than MemoryError.
_MAX_DRAW_N = math.isqrt((2**63 - 1) // 8)
# Cells per chunk of attempts: 128 KiB of float64, every verify factor's
# attempts in one call.
_DRAW_CELLS = 1 << 14


@dataclass(frozen=True)
class GeneratedDigraph:
    digraph: Digraph
    attempts: int
    augmented: bool


def _require_probability(p: float) -> None:
    """InvalidConfig unless p is a real arc probability in [0, 1]; a bool is refused too."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise InvalidConfig(f"p must be a real number, got {type(p).__name__}")
    if not 0.0 <= p <= 1.0:
        raise InvalidConfig(f"p must be in [0, 1], got {p}")


def _require_int(**values: object) -> list[int]:
    """The values as Python ints; InvalidConfig naming the first that is not an integer.

    Converting keeps later arithmetic such as n * n from wrapping in a narrow numpy type.
    """
    for name, value in values.items():
        if _not_int_type(type(value)):
            raise InvalidConfig(f"{name} must be an integer, got {type(value).__name__}")
    return [int(v) for v in values.values()]


def generate_strong_digraph(
    n: int, p: float, seed: int = 0, max_retries: int = 20
) -> GeneratedDigraph:
    """Sample each ordered non-loop pair with probability p until strong.

    Strongness is tested on the boolean draw itself; only the kept draw is
    built into a Digraph. After max_retries failed resamples, the directed
    Hamiltonian cycle 0->1->...->n-1->0 is added to the last sample; the
    augmentation is reported so experiments can filter such samples.

    Each chunk of draws is screened at once: a draw with n > 1 in which some
    vertex lacks an out-arc or an in-arc is not strong, and only the draws
    that pass run the full test, in attempt order.

    The kept draw goes to `_from_adjacency`, whose diagonal must be false:
    it is cleared after the draw, and the cycle adds only v -> (v + 1) % n
    with n > 1.
    """
    n, seed, max_retries = _require_int(n=n, seed=seed, max_retries=max_retries)
    if n < 1:
        raise InvalidConfig(f"n must be >= 1, got {n}")
    _require_probability(p)
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    if max_retries < 0:
        raise InvalidConfig(f"max_retries must be >= 0, got {max_retries}")
    if n > _MAX_DRAW_N:
        raise SizeOverflow(
            f"n={n} exceeds {_MAX_DRAW_N}: the n x n float64 draw needs 2**63 bytes or more"
        )
    rng = np.random.default_rng(seed)
    tries = max_retries + 1
    chunk = max(1, min(tries, _DRAW_CELLS // (n * n)))
    attempts, kept = 0, None
    while kept is None and attempts < tries:
        b = min(chunk, tries - attempts)
        # a lone attempt asks for (n, n), as an out-of-memory diagnostic shows
        draws = (rng.random((b, n, n) if b > 1 else (n, n)) < p).reshape(b, n, n)
        draws.reshape(b, n * n)[:, :: n + 1] = False
        # n = 1 passes: its one vertex needs no arc to be strong
        screened = (draws.any(axis=2) & draws.any(axis=1)).all(axis=1) | (n == 1)
        for i in np.flatnonzero(screened).tolist():
            if _adjacency_is_strong(draws[i]):
                kept = draws[i]
                attempts += i + 1
                break
        else:
            attempts += b
    augmented = kept is None
    if augmented:
        kept = draws[-1]
        if n > 1:
            v = np.arange(n)
            kept[v, (v + 1) % n] = True
    d = _from_adjacency(kept)
    return GeneratedDigraph(digraph=d, attempts=attempts, augmented=augmented)
