"""End-to-end CLI behavior and exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strongbounds
from strongbounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv, **env_vars):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    src = str(Path(strongbounds.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **env_vars}
    return subprocess.run(
        [sys.executable, "-m", "strongbounds.cli", *argv],
        capture_output=True, text=True, env=env,
    )


# A first line that is a header with n <= 64, or that no parse takes as one:
# a body line can then never set n, so no input allocates past O(64^2).
_HEADERS = st.one_of(
    st.one_of(st.integers(1, 4), st.integers(-1, 64)).map(lambda k: b"n %d\n" % k),
    st.sampled_from([b"n\n", b"n x\n", b"m 3\n", b"n 3 4\n", b"n +3\n", b"\xff\n", b"0 1\n"]),
)
_ENDPOINTS = st.one_of(st.integers(0, 3), st.integers(-1, 66))
_LINES = st.one_of(
    st.tuples(_ENDPOINTS, _ENDPOINTS).map(lambda ab: b"%d %d" % ab),
    st.tuples(_ENDPOINTS, st.sampled_from([b"a", b"v#1", b""])).map(lambda t: b"name %d %s" % t),
    st.sampled_from([b"", b"# note", b"n 3", b"1 2 3", b"-1 0", b"\t", b"1 \xe9", b"0 1\r1 0"]),
    st.binary(max_size=8),
)


@st.composite
def edge_list_bytes(draw):
    """Raw bytes of an input file: a header line, then arbitrary body lines."""
    return draw(_HEADERS) + b"\n".join(draw(st.lists(_LINES, max_size=40)))


def assert_budget_error(proc):
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def assert_usage_error(proc):
    assert proc.returncode == 2
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


class TestAnalyze:
    def test_example_d2(self, capsys, d2_path):
        code, out, _ = run(capsys, "analyze", str(d2_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["metric"]["eccentricity"] == [4, 3, 2, 3, 4]
        assert payload["sets"]["boundary"] == [0, 3, 4]

    def test_pretty(self, capsys, d2_path):
        code, out, _ = run(capsys, "analyze", str(d2_path), "--pretty")
        assert code == 0
        assert "radius=2  diameter=4" in out
        assert "v1" in out

    @pytest.mark.parametrize("command", ["analyze", "product"])
    def test_pretty_non_ascii_path(self, tmp_path, d2_path, command):
        # the pretty text escapes the path as the JSON report does, so it
        # goes to an ASCII --out file and to an ASCII stdout alike
        src = tmp_path / "é.txt"
        src.write_bytes(d2_path.read_bytes())
        inputs = [str(src)] * (2 if command == "product" else 1)
        out = tmp_path / "o.txt"
        to_file = run_subprocess(command, *inputs, "--pretty", "--out", str(out))
        to_stdout = run_subprocess(command, *inputs, "--pretty", PYTHONIOENCODING="ascii")
        for proc in (to_file, to_stdout):
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
        text = out.read_text(encoding="ascii")
        assert text == to_stdout.stdout
        escaped = str(src).replace("é", "\\u00e9")
        assert text.count(escaped) == len(inputs)
        assert "é" not in text

    def test_k1(self, capsys, tmp_path):
        f = tmp_path / "k1.txt"
        f.write_text("n 1\n")
        code, out, _ = run(capsys, "analyze", str(f))
        assert code == 0
        payload = json.loads(out)
        assert all(payload["sets"][k] == [0] for k in payload["sets"])

    def test_parse_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("n 2\n0 2\n")
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 2
        assert "line 2" in err

    def test_not_strong_exit_3_names_pair(self, capsys, tmp_path):
        f = tmp_path / "weak.txt"
        f.write_text("n 2\n0 1\n")
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 3
        assert "1 -> 0" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_out_file_deterministic(self, capsys, tmp_path, d2_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "analyze", str(d2_path), "--out", str(out1))[0] == 0
        assert run(capsys, "analyze", str(d2_path), "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestStrictInput:
    """Malformed numbers, bytes and seeds end in a diagnostic with exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "content",
        [
            b"n 1_0\n",  # int() would read 10
            b"n +2\n0 1\n1 0\n",
            b"n 20\n0 1_0\n",
            b"n 2\n-0 1\n1 0\n",
            b"n 2\nname +0 a\n",
            b"n 2\n0 1\xff\n1 0\n",
            "n \uff12\n".encode(),  # full-width digit two
        ],
        ids=["header-underscore", "header-plus", "arc-underscore", "arc-minus",
             "name-plus", "non-ascii-byte", "non-ascii-digit"],
    )
    def test_rejected_exit_2(self, tmp_path, content):
        f = tmp_path / "bad.txt"
        f.write_bytes(content)
        assert_usage_error(run_subprocess("analyze", str(f)))

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--trials", "1", "--seed", "-1"),
            ("gen", "--n", "3", "--p", "0.5", "--seed", "-5"),
        ],
        ids=["verify", "gen"],
    )
    def test_negative_seed_exit_2(self, argv):
        assert_usage_error(run_subprocess(*argv))

    @settings(deadline=None)
    @given(st.sampled_from(["analyze", "product"]), edge_list_bytes(), edge_list_bytes())
    def test_raw_bytes_end_in_an_exit_code(self, command, data1, data2):
        with tempfile.TemporaryDirectory() as tmp:
            files = [Path(tmp, "d1.txt"), Path(tmp, "d2.txt")]
            files[0].write_bytes(data1)
            files[1].write_bytes(data2)
            argv = [command, str(files[0])]
            if command == "product":
                argv += [str(files[1]), "--mode", "both"]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--out", str(Path(tmp, "out.json"))])
            assert Path(tmp, "out.json").exists() == (code == 0)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    def test_non_ascii_byte_names_line(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_bytes(b"n 2\n0 1\n1 0 \xc3\xa9\n")
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 2
        assert err == "error: line 3: non-ASCII byte 0xc3\n"

    @pytest.mark.parametrize("command", ["analyze", "product", "export"])
    def test_neighborhood_option_exit_2(self, capsys, d1_path, command):
        """Both neighborhoods give the same sets, so no option picks one."""
        inputs = [str(d1_path)] * (2 if command == "product" else 1)
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, "--neighborhood", "closed"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --neighborhood closed" in capsys.readouterr().err


class TestProduct:
    def test_both_mode_example(self, capsys, d1_path, d2_path):
        code, out, _ = run(capsys, "product", str(d1_path), str(d2_path), "--mode", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["product"]["n"] == 15
        assert payload["product"]["arc_count"] == 76
        assert payload["product"]["radius"] == 2
        assert payload["product"]["diameter"] == 4
        # the two routes agree on periphery/eccentricity, diverge on boundary
        assert payload["differences"]["periphery"] == []
        assert payload["differences"]["eccentricity"] == []
        assert payload["differences"]["boundary"] == [1, 11]
        assert payload["oracle_sets"]["boundary"] == sorted(set(range(15)) - {6, 7})
        assert payload["formula_sets"]["boundary"] == sorted(set(range(15)) - {1, 6, 7, 11})

    def test_formula_mode_skips_construction(self, capsys, d1_path, d2_path):
        code, out, _ = run(
            capsys, "product", str(d1_path), str(d2_path), "--mode", "formula", "--budget", "1"
        )
        # budget of 1 would kill any construction; formula mode never builds
        assert code == 0
        payload = json.loads(out)
        assert "oracle_sets" not in payload
        assert payload["formula_sets"]["periphery"] == [0, 4, 5, 9, 10, 14]

    def test_oracle_mode_budget_exit_4(self, capsys, d1_path, d2_path):
        code, _, err = run(
            capsys, "product", str(d1_path), str(d2_path), "--mode", "oracle", "--budget", "10"
        )
        assert code == 4
        assert "budget" in err

    @pytest.mark.parametrize("mode", ["formula", "oracle"])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_1_exit_2(self, capsys, monkeypatch, d1_path, d2_path, mode, budget):
        # refused before the factors are profiled, in every mode
        def no_work(*args):
            raise AssertionError("factors profiled before the budget check")

        monkeypatch.setattr(strongbounds.FactorPair, "from_digraphs", no_work)
        code, out, err = run(
            capsys, "product", str(d1_path), str(d2_path), "--mode", mode, "--budget", budget
        )
        assert (code, out) == (2, "")
        assert err == f"error: budget must be >= 1, got {budget}\n"

    def test_product_with_k1_matches_factor(self, capsys, tmp_path, d2_path):
        k1 = tmp_path / "k1.txt"
        k1.write_text("n 1\n")
        code, out, _ = run(capsys, "product", str(d2_path), str(k1), "--mode", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["differences"] == {
            "boundary": [], "contour": [], "eccentricity": [], "periphery": []
        }
        assert payload["oracle_sets"]["boundary"] == [0, 3, 4]

    def test_not_strong_factor_exit_3(self, capsys, tmp_path, d2_path):
        weak = tmp_path / "weak.txt"
        weak.write_text("n 2\n0 1\n")
        for k, paths in ((2, (d2_path, weak)), (1, (weak, d2_path))):
            code, _, err = run(capsys, "product", *map(str, paths))
            assert code == 3
            assert err == (
                f"error: factor {k}: digraph is not strongly connected: no directed path 1 -> 0\n"
            )

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("product", "D1", "D2", "--mode", "oracle", "--budget", "3"), 4),
            (("product", "D1", "WEAK"), 3),
            (("analyze", "WEAK", "--pretty"), 3),
            (("export", "WEAK", "--set", "boundary"), 3),
        ],
        ids=["budget-exit-4", "not-strong-exit-3", "analyze-exit-3", "export-exit-3"],
    )
    def test_failed_product_leaves_no_out_file(self, capsys, tmp_path, d1_path, d2_path, argv, code):
        weak = tmp_path / "weak.txt"
        weak.write_text("n 2\n0 1\n")
        out = tmp_path / "out.json"
        argv = [{"D1": d1_path, "D2": d2_path, "WEAK": weak}.get(a, a) for a in argv]
        assert run(capsys, *map(str, argv), "--out", str(out))[0] == code
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "D2", "--pretty"),
        ("product", "D1", "D2", "--mode", "both"),
        ("gen", "--n", "6", "--p", "0.3", "--seed", "42"),
        ("export", "D2", "--set", "boundary"),
    ],
    ids=["analyze-pretty", "product", "gen", "export-boundary"],
)
def test_out_bytes_equal_stdout(capsys, tmp_path, d1_path, d2_path, argv):
    argv = [{"D1": str(d1_path), "D2": str(d2_path)}.get(a, a) for a in argv]
    out = tmp_path / "out.txt"
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and stdout
    assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == stdout.encode("ascii")


class TestVerify:
    def test_clean_seed_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "12", "--seed", "3")
        assert code == 0
        assert "all properties held" in out

    def test_divergent_seed_exit_1_with_dump(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "12", "--seed", "0")
        assert code == 1
        assert "property violated" in out
        assert out.count("n ") >= 2  # two dumped edge lists

    def test_n_max_past_vertex_budget_exit_4_before_any_trial(self, capsys):
        code, out, err = run(capsys, "verify", "--trials", "3", "--n-max", "101")
        assert (code, out) == (4, "")
        assert err == (
            "error: --n-max 101 exceeds 100: a product of two factors could exceed"
            " the budget of 10000 vertices\n"
        )

    def test_p_outside_unit_interval_exit_2_before_any_trial(self, capsys):
        # the one trial would draw at p = 0.5 only; 1.5 is refused all the same
        code, out, err = run(capsys, "verify", "--trials", "1", "--p", "0.5", "1.5")
        assert (code, out, err) == (2, "", "error: p must be in [0, 1], got 1.5\n")

    def test_zero_trials_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--trials", "0")
        assert code == 2


class TestGen:
    def test_deterministic_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
        argv = ["gen", "--n", "6", "--p", "0.3", "--seed", "42"]
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_generated_file_analyzable(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        assert main(["gen", "--n", "5", "--p", "0.5", "--seed", "7", "--out", str(f)]) == 0
        code, out, _ = run(capsys, "analyze", str(f))
        assert code == 0

    def test_augmentation_recorded(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        assert main(["gen", "--n", "4", "--p", "0.0", "--seed", "1", "--out", str(f)]) == 0
        capsys.readouterr()
        assert "augmented=true" in f.read_text()

    def test_unallocatable_draw_exit_4(self):
        # 10^14 float64 draws, about 728 TiB: more than any 64-bit address
        # space holds, so the allocation fails at once
        proc = run_subprocess("gen", "--n", "10000000", "--p", "0.5")
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: out of memory")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestSizeOverflow:
    """Sizes past int64 arc keys or numpy's array limit end in exit 4 before numpy is asked."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "HUGE"),
            ("export", "HUGE"),
            ("gen", "--n", "100000000000", "--p", "0.5"),
            ("verify", "--trials", "1", "--n-max", "100000000000"),  # refused before any draw
            ("verify", "--trials", "1", "--n-max", "100000000000000000000"),  # past int64
        ],
        ids=["analyze", "export", "gen", "verify", "verify-n-max-past-int64"],
    )
    def test_exit_4_without_traceback(self, tmp_path, argv):
        huge = tmp_path / "huge.txt"
        huge.write_text("n 9223372036854775808\n")
        assert_budget_error(run_subprocess(*(str(huge) if a == "HUGE" else a for a in argv)))

    @pytest.mark.parametrize(
        "body", ["0 0\n", "0 1\n0 1\n", "0 99999999999999999999999\n", "name 0 5\n"],
        ids=["loop", "repeat", "out-of-range", "label-is-unnamed-id"],
    )
    def test_header_size_outranks_arc_and_label_faults(self, capsys, tmp_path, body):
        # from_arcs checks the size before any arc, and runs before the label check
        huge = tmp_path / "huge.txt"
        huge.write_text("n 9223372036854775808\n" + body)
        assert run(capsys, "analyze", str(huge)) == (
            4, "", "error: 9223372036854775808 vertices exceed 3037000499, "
            "the most whose arc keys fit in int64\n"
        )


class TestExport:
    def test_plain_export(self, capsys, d1_path):
        code, out, _ = run(capsys, "export", str(d1_path))
        assert code == 0
        assert out.startswith("digraph D {")
        assert '"u1" -> "u2";' in out

    def test_boundary_highlight(self, capsys, d1_path):
        code, out, _ = run(capsys, "export", str(d1_path), "--set", "boundary")
        assert code == 0
        assert '"u1" [style=filled, fillcolor=lightblue];' in out
        assert '"u2";' in out

    def test_not_strong_with_set_exit_3_names_pair(self, capsys, tmp_path):
        f = tmp_path / "weak.txt"
        f.write_text("n 3\n0 1\n1 0\n")
        code, _, err = run(capsys, "export", str(f), "--set", "boundary")
        assert code == 3
        assert "0 -> 2" in err

    def test_quoted_label_gives_valid_dot(self, capsys, tmp_path):
        f = tmp_path / "quote.txt"
        f.write_text('n 2\nname 0 a"b\nname 1 c\\\n0 1\n1 0\n')
        code, out, _ = run(capsys, "export", str(f))
        assert code == 0
        assert '  "a\\"b" -> "c\\\\";' in out
        assert all(re.sub(r"\\.", "", line).count('"') % 2 == 0 for line in out.splitlines())

    def test_shared_label_exit_2_names_line(self, capsys, tmp_path):
        f = tmp_path / "shared.txt"
        f.write_text("n 3\nname 1 x\nname 2 x\n1 2\n")
        code, out, err = run(capsys, "export", str(f))
        assert code == 2 and out == ""
        assert err == "error: line 3: label 'x' already names vertex 1\n"

    def test_unknown_set_exit_2(self, capsys, d1_path):
        with pytest.raises(SystemExit) as exc:
            main(["export", str(d1_path), "--set", "hull"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_product_export_counts(self, capsys, tmp_path, d1_path, d2_path):
        # export the built product by writing it out through gen-like flow
        from strongbounds import parse_edge_list, serialize_edge_list, strong_product

        d1 = parse_edge_list(d1_path.read_text()).digraph
        d2 = parse_edge_list(d2_path.read_text()).digraph
        prod, _ = strong_product(d1, d2)
        f = tmp_path / "prod.txt"
        f.write_text(serialize_edge_list(prod))
        code, out, _ = run(capsys, "export", str(f))
        assert code == 0
        assert out.count("->") == 76
