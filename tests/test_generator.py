"""Deterministic random strong-digraph generation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strongbounds.generator as generator_mod
from strongbounds import (
    InvalidConfig,
    SizeOverflow,
    from_arcs,
    generate_strong_digraph,
    is_strong,
    serialize_edge_list,
)
from strongbounds.cli import main
from strongbounds.digraph import _from_adjacency


class TestValidation:
    def test_bad_n(self):
        with pytest.raises(InvalidConfig):
            generate_strong_digraph(n=0, p=0.5, seed=1)

    def test_bad_p(self):
        with pytest.raises(InvalidConfig):
            generate_strong_digraph(n=3, p=1.5, seed=1)

    def test_bad_retries(self):
        with pytest.raises(InvalidConfig):
            generate_strong_digraph(n=3, p=0.5, seed=1, max_retries=-1)

    def test_negative_seed(self):
        with pytest.raises(InvalidConfig):
            generate_strong_digraph(n=3, p=0.5, seed=-1)

    @pytest.mark.parametrize(
        "kwargs, name, kind",
        [
            ({"n": 3.0}, "n", "float"),
            ({"n": True}, "n", "bool"),
            ({"seed": 1.5}, "seed", "float"),
            ({"seed": np.float64(1)}, "seed", "float64"),
            ({"max_retries": 2.0}, "max_retries", "float"),
            ({"max_retries": "2"}, "max_retries", "str"),
        ],
    )
    def test_non_integer_parameters_rejected(self, kwargs, name, kind):
        with pytest.raises(InvalidConfig, match=rf"^{name} must be an integer, got {kind}$"):
            generate_strong_digraph(**{"n": 3, "p": 0.5, **kwargs})

    @pytest.mark.parametrize("p", [True, np.bool_(False), "0.5", None])
    def test_non_real_p_rejected_before_any_draw(self, monkeypatch, p):
        # a bool is no probability, though Python would compare it as 1 or 0
        seeds = []
        monkeypatch.setattr(generator_mod.np.random, "default_rng", seeds.append)
        with pytest.raises(InvalidConfig, match=rf"^p must be a real number, got {type(p).__name__}$"):
            generate_strong_digraph(n=3, p=p, seed=1)
        assert seeds == []

    def test_numpy_integer_parameters_accepted(self):
        # int8 n = 20 would wrap in n * n = 400 if kept narrow
        out = generate_strong_digraph(np.int8(20), 0.5, np.uint8(1), np.int16(20))
        assert out == generate_strong_digraph(20, 0.5, 1, 20)

    def test_draw_past_numpy_array_limit(self):
        # 2**30 x 2**30 float64 is 2**63 bytes: numpy cannot describe it, so the
        # size is refused before any draw
        with pytest.raises(SizeOverflow):
            generate_strong_digraph(n=2**30, p=0.5, seed=0)


class TestOutputs:
    def test_single_vertex(self):
        out = generate_strong_digraph(n=1, p=0.7, seed=9)
        assert out.digraph.n == 1 and not out.augmented
        assert is_strong(out.digraph)

    def test_p_one_complete_bidirected(self):
        out = generate_strong_digraph(n=5, p=1.0, seed=0)
        assert out.digraph.arc_count == 20 and not out.augmented
        assert all((b, a) in out.digraph.arcs for a, b in out.digraph.arcs)

    def test_p_zero_falls_back_to_cycle(self):
        out = generate_strong_digraph(n=6, p=0.0, seed=3, max_retries=2)
        assert out.augmented
        assert out.attempts == 3
        assert out.digraph.arcs == {(v, (v + 1) % 6) for v in range(6)}
        assert is_strong(out.digraph)

    def test_always_strong(self):
        for seed in range(25):
            out = generate_strong_digraph(n=6, p=0.3, seed=seed)
            assert is_strong(out.digraph)

    def test_determinism_byte_identical(self):
        a = generate_strong_digraph(n=6, p=0.3, seed=42)
        b = generate_strong_digraph(n=6, p=0.3, seed=42)
        assert a.digraph == b.digraph
        assert serialize_edge_list(a.digraph) == serialize_edge_list(b.digraph)

    def test_different_seeds_differ(self):
        a = generate_strong_digraph(n=7, p=0.4, seed=1).digraph
        b = generate_strong_digraph(n=7, p=0.4, seed=2).digraph
        assert a != b


class TestConstruction:
    """Strongness is tested on the draw: only the kept digraph is built."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, p=0.5, seed=0),
            dict(n=6, p=0.3, seed=1),  # strong on attempt 8
            dict(n=6, p=0.0, seed=3, max_retries=2),  # augmented
        ],
        ids=["k1", "eighth-attempt", "augmented"],
    )
    def test_one_from_arcs_call_per_digraph(self, monkeypatch, kwargs):
        calls = []

        def counting_from_adjacency(adj):
            calls.append(len(adj))
            return _from_adjacency(adj)

        monkeypatch.setattr(generator_mod, "_from_adjacency", counting_from_adjacency)
        out = generate_strong_digraph(**kwargs)
        assert calls == [kwargs["n"]]
        assert is_strong(out.digraph)


class TestChunkedDraws:
    """Drawing attempts in chunks keeps every attempt's draw, so every result."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.25), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        max_retries=st.integers(0, 25),
    )
    def test_matches_one_draw_per_attempt(self, n, p, seed, max_retries):
        out = generate_strong_digraph(n=n, p=p, seed=seed, max_retries=max_retries)
        arcs, attempts, augmented = oracles.generate_one_draw_per_attempt(n, p, seed, max_retries)
        assert out.digraph == from_arcs(n, sorted(arcs))
        assert (out.attempts, out.augmented) == (attempts, augmented)


class TestGoldenOutput:
    """gen stdout is pinned byte for byte.

    The digests were recorded when each rejected draw was still built into a
    Digraph and tested with is_strong, and the n30 ones when every attempt
    was still its own (n, n) draw: testing the draw itself, and drawing
    attempts in chunks (18 to a chunk at n = 30), must not move the RNG
    stream or the kept sample.
    """

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (("--n", "1", "--p", "0.5"),
             "f345a7ce1cb43b0a7ea7fe630d4ea52d087acec6cebc021df1d8e16b9cd86c80"),
            (("--n", "2", "--p", "0.0"),
             "1084ee9c0edda31a03d5aeb822bd3532838675b28703f120cb621285e8b3580c"),
            (("--n", "7", "--p", "0.2", "--seed", "4"),
             "82b8efcb7f91df5628f1868be92e1e47a55af3ffcbe2b13d79be5135f3b0def7"),
            (("--n", "6", "--p", "0.3", "--seed", "1"),
             "d57e785969dc7bb20dc9d3df4db5598529e0f3d51173a7fc31dbd48df33fc3ad"),
            (("--n", "300", "--p", "0.01", "--seed", "2"),
             "c3d0001f038a3b0c26e4dbbaf6e5cf59105944a262e72c1042a629d1b44db626"),
            (("--n", "30", "--p", "0.05", "--seed", "1"),
             "b72ebe6f65032c9f531916bb24a766b73b1c89eb5801f3bbdab0b7f06a7f19fb"),
            (("--n", "30", "--p", "0.1", "--seed", "18"),
             "29f2ed67392464c2f1904a6444ac1774683b89eb59b15553b7d8d4a2fd1fd499"),
        ],
        ids=["n1", "n2-augmented", "n7-augmented", "n6-eighth-attempt", "n300-augmented",
             "n30-augmented", "n30-nineteenth-attempt"],
    )
    def test_stdout_digest(self, capsys, argv, sha256):
        assert main(["gen", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == sha256
