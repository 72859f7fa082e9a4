"""Reproducible random strong digraphs for tests and the verify harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, _adjacency_is_strong, from_arcs
from .errors import InvalidConfig, SizeOverflow

# numpy cannot even describe an array of 2**63 bytes or more; an n x n float64
# draw beyond this n raises ValueError rather than MemoryError.
_MAX_DRAW_N = math.isqrt((2**63 - 1) // 8)


@dataclass(frozen=True)
class GeneratorConfig:
    """Identical configs produce identical digraphs (PCG64 stream)."""

    n: int
    p: float
    seed: int
    max_retries: int = 20

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfig(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidConfig(f"p must be in [0, 1], got {self.p}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.max_retries < 0:
            raise InvalidConfig(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass(frozen=True)
class GeneratedDigraph:
    digraph: Digraph
    config: GeneratorConfig
    attempts: int
    augmented: bool


def generate_strong_digraph(cfg: GeneratorConfig) -> GeneratedDigraph:
    """Sample each ordered non-loop pair with probability p until strong.

    Strongness is tested on the boolean draw itself; only the kept draw is
    built into a Digraph. After max_retries failed resamples, the directed
    Hamiltonian cycle 0->1->...->n-1->0 is added to the last sample; the
    augmentation is reported so experiments can filter such samples.
    """
    cfg.validate()
    if cfg.n > _MAX_DRAW_N:
        raise SizeOverflow(
            f"n={cfg.n} exceeds {_MAX_DRAW_N}: the n x n float64 draw needs 2**63 bytes or more"
        )
    rng = np.random.default_rng(cfg.seed)
    for attempts in range(1, cfg.max_retries + 2):
        draw = rng.random((cfg.n, cfg.n)) < cfg.p
        np.fill_diagonal(draw, False)
        if _adjacency_is_strong(draw):
            augmented = False
            break
    else:
        augmented = True
        if cfg.n > 1:
            v = np.arange(cfg.n)
            draw[v, (v + 1) % cfg.n] = True
    d = from_arcs(cfg.n, np.argwhere(draw))
    return GeneratedDigraph(digraph=d, config=cfg, attempts=attempts, augmented=augmented)
