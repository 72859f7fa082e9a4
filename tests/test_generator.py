"""Deterministic random strong-digraph generation."""

import pytest

from strongbounds import (
    GeneratorConfig,
    InvalidConfig,
    generate_strong_digraph,
    is_strong,
    serialize_edge_list,
)


class TestValidation:
    def test_bad_n(self):
        with pytest.raises(InvalidConfig):
            generate_strong_digraph(GeneratorConfig(n=0, p=0.5, seed=1))

    def test_bad_p(self):
        with pytest.raises(InvalidConfig):
            generate_strong_digraph(GeneratorConfig(n=3, p=1.5, seed=1))

    def test_bad_retries(self):
        with pytest.raises(InvalidConfig):
            generate_strong_digraph(GeneratorConfig(n=3, p=0.5, seed=1, max_retries=-1))

    def test_negative_seed(self):
        with pytest.raises(InvalidConfig):
            generate_strong_digraph(GeneratorConfig(n=3, p=0.5, seed=-1))


class TestOutputs:
    def test_single_vertex(self):
        out = generate_strong_digraph(GeneratorConfig(n=1, p=0.7, seed=9))
        assert out.digraph.n == 1 and not out.augmented
        assert is_strong(out.digraph)

    def test_p_one_complete_bidirected(self):
        out = generate_strong_digraph(GeneratorConfig(n=5, p=1.0, seed=0))
        assert out.digraph.arc_count == 20 and not out.augmented
        assert all((b, a) in out.digraph.arcs for a, b in out.digraph.arcs)

    def test_p_zero_falls_back_to_cycle(self):
        out = generate_strong_digraph(GeneratorConfig(n=6, p=0.0, seed=3, max_retries=2))
        assert out.augmented
        assert out.attempts == 3
        assert out.digraph.arcs == {(v, (v + 1) % 6) for v in range(6)}
        assert is_strong(out.digraph)

    def test_always_strong(self):
        for seed in range(25):
            out = generate_strong_digraph(GeneratorConfig(n=6, p=0.3, seed=seed))
            assert is_strong(out.digraph)

    def test_determinism_byte_identical(self):
        cfg = GeneratorConfig(n=6, p=0.3, seed=42)
        a = generate_strong_digraph(cfg)
        b = generate_strong_digraph(cfg)
        assert a.digraph == b.digraph
        assert serialize_edge_list(a.digraph) == serialize_edge_list(b.digraph)

    def test_different_seeds_differ(self):
        a = generate_strong_digraph(GeneratorConfig(n=7, p=0.4, seed=1)).digraph
        b = generate_strong_digraph(GeneratorConfig(n=7, p=0.4, seed=2)).digraph
        assert a != b
