"""Edge-list parsing/serialization, DOT export and JSON reports."""

import dataclasses
import hashlib
import io
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from strongbounds import (
    SET_NAMES,
    BoundaryProfile,
    LoopArc,
    ParallelArc,
    ParseError,
    VertexOutOfRange,
    analyze_digraph,
    analyze_product,
    boundary_profile,
    boundary_set,
    contour_set,
    eccentric_set,
    export_dot,
    from_arcs,
    metric_profile,
    parse_edge_list,
    periphery_set,
    serialize_edge_list,
)
from strongbounds import report as report_module
from strongbounds.cli import main
from strongbounds.report import _write, write_json
from oracles import ids
from strategies import digraphs
from conftest import DATA


def _encoded(obj):
    """The text ``_write`` passes on for ``obj`` at the top level, joined."""
    pieces: list[str] = []
    _write(obj, 0, pieces.append)
    return "".join(pieces)


def _report_text(payload):
    """The text ``write_json`` writes for ``payload``."""
    stream = io.StringIO()
    write_json(payload, stream)
    return stream.getvalue()


# Keys and strings that need every kind of escape: quote, backslash, control
# characters, non-ASCII (BMP and astral, so surrogate pairs) and U+2028.
_json_text = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\n\t\u00e9\u2028\U0001f600'))
)
# Ints of either sign, and past int64 and uint64.
_json_ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=-(2**63) + 2),
)
_json_scalars = st.one_of(st.none(), st.booleans(), _json_ints, st.floats(), _json_text)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(_json_ints),
        st.lists(st.one_of(st.integers(min_value=-3, max_value=3), st.booleans())),
        st.dictionaries(_json_text, children),
    ),
    max_leaves=40,
)
# Int arrays of both report dtypes: small values take the offset digit table,
# values from the whole dtype range one str call per item.
_int_arrays = st.sampled_from([np.int32, np.int64]).flatmap(
    lambda dtype: hnp.arrays(
        dtype,
        st.integers(min_value=0, max_value=40),
        elements=st.one_of(st.integers(min_value=-3, max_value=40), hnp.from_dtype(np.dtype(dtype))),
    )
)


@st.composite
def _chunked_arrays(draw):
    """A small chunk size and an int array of 0, 1 or k·chunk ± 1 items.

    Values come from a range no wider than one item apart (the offset digit
    table) or spread over 10^6 (one str call per item).
    """
    chunk = draw(st.integers(min_value=1, max_value=4))
    n = max(0, draw(st.integers(min_value=0, max_value=3)) * chunk + draw(st.integers(-1, 1)))
    n = draw(st.sampled_from([0, 1, n]))
    lo = draw(st.integers(min_value=-5, max_value=5))
    hi = lo + draw(st.sampled_from([1, 10**6]))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return chunk, draw(hnp.arrays(dtype, n, elements=st.integers(lo, hi)))


def _write_peak(arr: np.ndarray) -> tuple[int, int]:
    """(tracemalloc peak, characters written) of ``_write`` of ``arr`` into a counting sink."""
    written = 0

    def count(piece: str) -> None:
        nonlocal written
        written += len(piece)

    tracemalloc.start()
    try:
        _write({"eccentricity": arr}, 0, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, written


class TestParse:
    def test_example_d1_file(self, d1, d1_path):
        doc = parse_edge_list(d1_path.read_text())
        assert doc.digraph == d1
        assert doc.labels == {0: "u1", 1: "u2", 2: "u3"}

    def test_minimal_k1(self):
        doc = parse_edge_list("n 1")
        assert doc.digraph.n == 1 and doc.digraph.arc_count == 0

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\nn 2\n0 1  # trailing comment\n\n1 0\n"
        assert parse_edge_list(text).digraph.arcs == {(0, 1), (1, 0)}

    def test_no_trailing_newline(self):
        assert parse_edge_list("n 2\n0 1\n1 0").digraph.arc_count == 2

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r"])
    def test_only_lf_breaks_lines(self, sep):
        """Other line-break characters are whitespace inside a line: the arcs
        around one make a four-token line 2, however they read as two arcs."""
        for arcs in ("0 1{}1 1", "0 1{}1 0"):
            with pytest.raises(ParseError) as exc:
                parse_edge_list("n 2\n" + arcs.format(sep) + "\n")
            assert exc.value.line == 2
            assert exc.value.reason.startswith("expected '<tail> <head>'")

    def test_crlf_parses_as_lf(self, d2_path):
        text = d2_path.read_text()
        crlf, lf = parse_edge_list(text.replace("\n", "\r\n")), parse_edge_list(text)
        assert crlf.digraph == lf.digraph and crlf.labels == lf.labels

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("0 1\n")
        assert exc.value.line == 1

    # The arc rules live in from_arcs; the parser prefixes its message with the line.
    def test_vertex_out_of_range_line(self):
        with pytest.raises(VertexOutOfRange) as exc:
            parse_edge_list("n 2\n0 2\n")
        assert str(exc.value) == "line 2: arc (0,2) has an endpoint outside 0..1"
        assert exc.value.index == 0

    def test_loop_line(self):
        with pytest.raises(LoopArc) as exc:
            parse_edge_list("n 2\n# c\n1 1\n")
        assert str(exc.value) == "line 3: loop arc (1,1) not allowed"

    def test_duplicate_line(self):
        with pytest.raises(ParallelArc) as exc:
            parse_edge_list("n 3\n0 1\n0 1\n")
        assert str(exc.value) == "line 3: duplicate arc (0,1)"

    @pytest.mark.parametrize(
        "text, error, message, index",
        [
            ("n 2\n1 0\n0 99999999999999999999999\n", VertexOutOfRange,
             "line 3: arc (0,99999999999999999999999) has an endpoint outside 0..1", 1),
            # a repeat names its second line, past comments, blanks and names
            ("n 3\n0 1\n# c\n1 2\n\nname 0 a\n0 1\n2 0\n", ParallelArc,
             "line 7: duplicate arc (0,1)", 2),
            ("n 3\nname 1 b\n1 2\n2 2\n0 5\n", LoopArc, "line 4: loop arc (2,2) not allowed", 1),
        ],
        ids=["past-int64", "repeat", "loop"],
    )
    def test_arc_fault_names_its_line(self, text, error, message, index):
        with pytest.raises(error) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message
        assert exc.value.index == index

    @pytest.mark.parametrize(
        "text, line",
        [("n 2\n0 2\n0 x\n", 3), ("n 3\n1 1\nname 0 a\nname 1 a\n", 4)],
        ids=["syntax", "name"],
    )
    def test_line_fault_outranks_earlier_arc_fault(self, text, line):
        # every line is read before from_arcs checks any arc
        with pytest.raises(ParseError) as exc:
            parse_edge_list(text)
        assert exc.value.line == line

    def test_arc_fault_outranks_label_check(self):
        # label '2' spells the id of unnamed vertex 2, but the loop on line 3 is reported
        with pytest.raises(LoopArc) as exc:
            parse_edge_list("n 3\nname 0 2\n0 0\n")
        assert str(exc.value) == "line 3: loop arc (0,0) not allowed"

    def test_malformed_arc(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("n 2\n0 one\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text", ["n 1_0\n", "n +2\n", "n \uff12\n", "n 2\n0 -0\n", "n 2\nname 0_1 a\n"]
    )
    def test_numbers_are_ascii_digits(self, text):
        with pytest.raises(ParseError):
            parse_edge_list(text)

    def test_bad_name_line(self):
        with pytest.raises(ParseError):
            parse_edge_list("n 2\nname 0\n")

    def test_name_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            parse_edge_list("n 2\nname 5 x\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("n 3\nname 1 x\n0 1\nname 1 y\n", 4),  # a second name for vertex 1
            ("n 3\nname 1 x\nname 2 x\n1 2\n", 3),  # a label given twice
            ("n 3\nname 0 2\n0 1\n", 2),  # the id an unnamed vertex shows as
        ],
        ids=["renamed-id", "shared-label", "label-is-unnamed-id"],
    )
    def test_labels_name_one_vertex_each(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_edge_list(text)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "text", ["n 3\nname 0 1\nname 1 0\n", "n 3\nname 0 01\n", "n 3\nname 2 2\n"]
    )
    def test_labels_that_show_once_are_kept(self, text):
        assert len(parse_edge_list(text).labels) == text.count("name")


class TestRoundTrip:
    @given(digraphs(max_n=7))
    def test_parse_serialize_round_trip(self, d):
        doc = parse_edge_list(serialize_edge_list(d))
        assert doc.digraph == d

    def test_serialization_deterministic(self, d2):
        assert serialize_edge_list(d2) == serialize_edge_list(d2)

    def test_labels_round_trip(self, d1):
        labels = {0: "u1", 1: "u2", 2: "u3"}
        doc = parse_edge_list(serialize_edge_list(d1, labels=labels))
        assert doc.labels == labels

    def test_comments_survive_round_trip(self, d1):
        text = serialize_edge_list(d1, comments=("generated: seed=1 augmented=false",))
        assert text.startswith("# generated:")
        assert parse_edge_list(text).digraph == d1


class TestDot:
    def test_k1_document(self, k1):
        text = export_dot(k1)
        assert text.startswith("digraph D {")
        assert '"0";' in text and "->" not in text

    def test_example_d1_highlight(self, d1):
        profile = metric_profile(d1)
        sets = boundary_profile(profile, d1)
        labels = {0: "u1", 1: "u2", 2: "u3"}
        text = export_dot(d1, labels=labels, highlight=sets.boundary, highlight_name="boundary")
        assert '"u1" [style=filled, fillcolor=lightblue];' in text
        assert '"u3" [style=filled, fillcolor=lightblue];' in text
        assert '"u2";' in text
        assert '"u1" -> "u2";' in text

    def test_example_d1_bytes(self, d1):
        # Recorded before labels were escaped: plain labels print as they did.
        text = export_dot(d1, labels={0: "u1", 1: "u2", 2: "u3"})
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ad90ee034630ab0649d25140bd6bee19150ac2ab34a7be922f781f661fdef6d9"
        )

    @pytest.mark.parametrize(
        "label, quoted",
        [('a"b', r'"a\"b"'), ("c\\", r'"c\\"'), ('\\"', r'"\\\""'), ('""', r'"\"\""')],
    )
    def test_quote_and_backslash_are_escaped(self, label, quoted):
        d = from_arcs(2, [(0, 1), (1, 0)])
        text = export_dot(d, labels={0: label})
        assert f'  {quoted} -> "1";' in text
        for line in text.splitlines():
            # Without its escape pairs every line holds whole quoted ids.
            assert re.sub(r"\\.", "", line).count('"') % 2 == 0, line

    def test_product_arc_count(self, d1, d2):
        from strongbounds import strong_product

        prod, _ = strong_product(d1, d2)
        text = export_dot(prod)
        assert text.count("->") == prod.arc_count == 76

    def test_set_names_are_the_profile_fields(self):
        assert SET_NAMES == tuple(f.name for f in dataclasses.fields(BoundaryProfile))

    def test_resolve_known_names(self, d2_path):
        """Each `export --set` name reads its set's mask with getattr, and the
        report lists the same sets under the same names, in SET_NAMES order."""
        doc = parse_edge_list(d2_path.read_text())
        d, p = doc.digraph, metric_profile(doc.digraph)
        sets = boundary_profile(p, d)
        expected = {
            "boundary": boundary_set(p, d),
            "contour": contour_set(p, d),
            "eccentricity": eccentric_set(p),
            "periphery": periphery_set(p),
        }
        report_sets = analyze_digraph(doc)["sets"]
        assert tuple(report_sets) == SET_NAMES
        for name in SET_NAMES:
            assert ids(getattr(sets, name)) == ids(expected[name]) == set(report_sets[name])


class TestReports:
    def test_analyze_digraph_deterministic(self, d2, d2_path):
        doc = parse_edge_list(d2_path.read_text())
        a = _report_text(analyze_digraph(doc, path=str(d2_path)))
        b = _report_text(analyze_digraph(doc, path=str(d2_path)))
        assert a == b

    def test_analyze_digraph_payload(self, d2_path):
        import json

        doc = parse_edge_list(d2_path.read_text())
        payload = json.loads(_report_text(analyze_digraph(doc, path="d2")))
        assert payload["metric"]["eccentricity"] == [4, 3, 2, 3, 4]
        assert payload["metric"]["radius"] == 2
        assert payload["sets"]["boundary"] == [0, 3, 4]
        assert payload["input"]["labels"]["0"] == "v1"

    @given(_json_values)
    @example([2**63, -1])  # numpy would meet these in float64
    @example([2**63 + 1, -1, 2**64, 0])
    @example([True, 1, False, 0])
    @example({"": {}, "a": [[], [1, 1, -1]], "\u00e9\"": [None, 1.5, "x"]})
    def test_encode_matches_json_dumps(self, obj):
        assert _encoded(obj) == json.dumps(obj, indent=2)

    @given(_int_arrays)
    @example(np.array([], dtype=np.int64))
    @example(np.array([7], dtype=np.int32))
    @example(np.array([-5, 3, -5, 0, -1], dtype=np.int64))
    @example(np.array([-(2**62), 2**62, 0], dtype=np.int64))  # a table over the range is 2**63 long
    def test_encode_int_array_matches_json_dumps(self, arr):
        values = arr.tolist()
        assert _encoded(arr) == json.dumps(values, indent=2)
        assert _encoded({"ids": arr}) == json.dumps({"ids": values}, indent=2)
        assert _encoded([arr, [arr]]) == json.dumps([values, [values]], indent=2)

    @given(_chunked_arrays())
    @example((3, np.array([], dtype=np.int64)))
    @example((3, np.array([7, 8, 7, 8, 8, 7], dtype=np.int32)))  # two whole chunks
    @example((3, np.array([0, 10**6, 5, -2, 9, 3, 4], dtype=np.int64)))  # 2 chunks + 1
    def test_write_json_streams_to_json_in_chunks(self, case):
        chunk, arr = case
        values = arr.tolist()
        payload = {"eccentricity": arr, "sets": {"boundary": arr, "none": arr[:0]}}
        pieces: list[str] = []
        stream = io.StringIO()
        with mock.patch.object(report_module, "_CHUNK", chunk):
            write_json(payload, stream)
            _write(arr, 0, pieces.append)
        expected = {"eccentricity": values, "sets": {"boundary": values, "none": []}}
        assert stream.getvalue() == json.dumps(expected, indent=2) + "\n"
        # no piece holds more than one chunk of items
        assert max(piece.count(",") for piece in pieces) <= max(chunk - 1, 1)

    @pytest.mark.parametrize("scale", [1, 10**6], ids=["offset-table", "per-item"])
    def test_write_memory_does_not_grow_with_length(self, scale):
        rng = np.random.default_rng(0)
        small, large = (rng.integers(0, 1000, n) * scale for n in (10**6, 4 * 10**6))
        (peak_small, written_small), (peak_large, written_large) = map(_write_peak, (small, large))
        assert written_large > 3 * written_small
        assert peak_large < 1.5 * peak_small

    # sha256 of the write_json text, recorded before the payload's int sequences became ndarrays
    @pytest.mark.parametrize(
        "mode, sha256",
        [
            ("analyze", "08f59ead7579d4cb09e32e1339df238ba17d3d6ac815440fad7faeb044ec3762"),
            ("formula", "c63785208288fe6f05c205ae3beb86cd71caad92bb36fc0663991da591cee694"),
            ("oracle", "ad18652334f34627c7fb156076b2ae4a04530151fc3a35662149580474d9889c"),
            ("both", "77bdba690f07ceb6b7d11d025ee19d9aa63556c0b8c99210b26fd7c9475c8318"),
        ],
        ids=["analyze-open", "formula-open", "oracle-open", "both-open"],
    )
    def test_report_layout_is_json_dumps(self, mode, sha256, d1_path, d2_path):
        doc1 = parse_edge_list(d1_path.read_text())
        doc2 = parse_edge_list(d2_path.read_text())
        if mode == "analyze":
            report = analyze_digraph(doc2, path=d2_path.name)
        else:
            report = analyze_product(doc1, doc2, mode=mode)
        text = _report_text(report)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    # sha256 of --pretty stdout, recorded before the payload's int sequences became ndarrays
    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (("analyze", "example_d2.txt", "--pretty"),
             "bc15b486ef4bbc9a6ebde615bf54a8c05613b3dec26a983c1237426a480bc04b"),
            (("product", "example_d1.txt", "example_d2.txt", "--mode", "both", "--pretty"),
             "e2606b6eb28244a85090a5de7a376b452ee555bc38135c82f9c5ff6e9edc5c44"),
        ],
        ids=["analyze", "product-both"],
    )
    def test_pretty_digest(self, capsys, monkeypatch, argv, sha256):
        monkeypatch.chdir(DATA)  # the report names its input paths
        assert main(list(argv)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    def test_cli_out_and_stdout_match_to_json(self, capsys, tmp_path):
        # a 300-vertex bidirected path: the product's 90 000 eccentricities span two chunks
        path = tmp_path / "path300.txt"
        path.write_text("n 300\n" + "".join(f"{v} {v + 1}\n{v + 1} {v}\n" for v in range(299)))
        argv = ["product", str(path), str(path), "--mode", "formula", "--budget", "1"]
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        doc = parse_edge_list(path.read_text())
        report = analyze_product(doc, doc, budget=1, paths=(str(path), str(path)))
        assert report["product"]["eccentricity"].size > report_module._CHUNK
        assert (tmp_path / "out.json").read_text(encoding="ascii") == stdout == _report_text(report)
