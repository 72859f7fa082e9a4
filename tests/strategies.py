"""Hypothesis strategies for digraphs."""

from hypothesis import strategies as st

from strongbounds import from_arcs, generate_strong_digraph


@st.composite
def digraphs(draw, min_n=1, max_n=6):
    """Arbitrary loop-free simple digraphs, not necessarily strong."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    if not pairs:
        return from_arcs(n, [])
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return from_arcs(n, arcs)


@st.composite
def strong_digraphs(draw, min_n=1, max_n=7):
    """Strong digraphs drawn through the deterministic generator."""
    return generate_strong_digraph(
        n=draw(st.integers(min_n, max_n)),
        p=draw(st.sampled_from([0.2, 0.4, 0.7, 0.9])),
        seed=draw(st.integers(0, 2**32 - 1)),
    ).digraph


@st.composite
def bidirected_strong_digraphs(draw, min_n=1, max_n=6):
    """Strong digraphs where every arc is paired with its reverse."""
    d = draw(strong_digraphs(min_n=min_n, max_n=max_n))
    mirrored = {(a, b) for a, b in d.arcs} | {(b, a) for a, b in d.arcs}
    return from_arcs(d.n, sorted(mirrored))
