"""Shared fixtures: the worked 15-vertex example pair and frozen counterexamples."""

from pathlib import Path

import pytest

from strongbounds import FactorPair, from_arcs

DATA = Path(__file__).parent / "data"

# Worked example pair: P1 = bidirected 3-path, P2 = 5-vertex digraph with
# one-way shortcuts. Every golden value asserted against these was verified
# with the definition-level oracles in oracles.py.
D1_N, D1_ARCS = 3, [(0, 1), (1, 0), (1, 2), (2, 1)]
D2_N, D2_ARCS = 5, [(0, 2), (1, 0), (1, 2), (1, 4), (2, 1), (2, 3), (3, 2), (4, 3)]

# Frozen counterexample pairs where the factor characterizations diverge from
# the definition-level sets on the constructed product (found by randomized
# search, minimized, and re-verified with the oracles).
CE_BOUNDARY_D1 = (4, [(0, 2), (1, 3), (2, 3), (3, 0), (3, 1), (3, 2)])
CE_BOUNDARY_D2 = (6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 4), (2, 3), (3, 0), (3, 1), (3, 2),
                      (4, 2), (4, 3), (5, 3), (5, 4)])
# contour: bidirected 4-path x (directed triangle with a bidirected 2-tail)
CE_CONTOUR_D1 = (4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
CE_CONTOUR_D2 = (5, [(0, 1), (0, 3), (1, 2), (2, 0), (3, 0), (3, 4), (4, 3)])

# GeneratorConfig(n=6, p=0.15, seed=3): vertex 5 is a boundary vertex that is
# eccentric for nobody (its witnesses are 0 and 4)
NON_ECCENTRIC_MEMBER = (6, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 1), (3, 4), (3, 5), (4, 5),
                            (5, 0)])


@pytest.fixture(scope="session")
def d1():
    return from_arcs(D1_N, D1_ARCS)


@pytest.fixture(scope="session")
def d2():
    return from_arcs(D2_N, D2_ARCS)


@pytest.fixture(scope="session")
def example_pair(d1, d2):
    return FactorPair.from_digraphs(d1, d2)


@pytest.fixture(scope="session")
def d1_path():
    return DATA / "example_d1.txt"


@pytest.fixture(scope="session")
def d2_path():
    return DATA / "example_d2.txt"


@pytest.fixture(scope="session")
def k1():
    return from_arcs(1, [])
