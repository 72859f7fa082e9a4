"""Edge-list files and DOT export.

Edge-list format (ASCII, LF, trailing newline optional):

    # comment
    n 5
    name 0 v1
    0 2
    1 0

Every number is a run of ASCII digits ``[0-9]+``. The header line
``n <count>`` must precede arcs and names. Arc lines are
``<tail> <head>``; optional ``name <id> <label>`` lines attach display labels
used only in reports and exports. A vertex takes at most one label, no label
is given twice, and none spells the id of an unnamed vertex (which shows as
its id), so no two vertices display alike. Serialization sorts everything, so
parse and serialize round-trip byte-identically.

Only LF ends a line, so the parser's line numbers count the same breaks as
the CLI's non-ASCII error does. A CR before the LF is stripped as whitespace,
so CRLF files parse as their LF copies; a lone CR, VT, FF or \x1c-\x1e is
whitespace inside its line.

The parser checks syntax and name lines as it reads. `from_arcs` alone checks
the arc rules (range, loops, repeats), after the last line, and its error gains
the bad arc's line: any syntax or name fault outranks every arc fault, and arc
faults outrank the closing check that no label spells an unnamed vertex's id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .digraph import Digraph, from_arcs
from .errors import LoopArc, ParallelArc, ParseError, VertexOutOfRange


@dataclass(frozen=True, eq=False)
class EdgeListDocument:
    digraph: Digraph
    labels: dict[int, str] = field(default_factory=dict)


def _int(token: str) -> int:
    """int() of a token of ASCII digits [0-9]+; ValueError for signs, '_' and other digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not [0-9]+: {token!r}")
    return int(token)


def parse_edge_list(text: str) -> EdgeListDocument:
    """Parse an edge-list document; errors carry the offending line number."""
    n: int | None = None
    arcs: list[tuple[int, int]] = []
    arc_lines: list[int] = []  # the line number of each arc
    labels: dict[int, str] = {}
    named: dict[str, tuple[int, int]] = {}  # label -> (id, line)

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise ParseError(lineno, f"expected header 'n <count>', got {raw.strip()!r}")
            try:
                n = _int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"vertex count is not an integer: {parts[1]!r}") from None
            if n < 1:
                raise ParseError(lineno, f"vertex count must be >= 1, got {n}")
            continue
        if parts[0] == "name":
            if len(parts) != 3:
                raise ParseError(lineno, f"expected 'name <id> <label>', got {raw.strip()!r}")
            try:
                v = _int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"name id is not an integer: {parts[1]!r}") from None
            if not 0 <= v < n:
                raise VertexOutOfRange(f"line {lineno}: name id {v} not in 0..{n - 1}")
            label = parts[2]
            if v in labels:
                raise ParseError(lineno, f"vertex {v} is already named {labels[v]!r}")
            if label in named:
                raise ParseError(lineno, f"label {label!r} already names vertex {named[label][0]}")
            labels[v] = label
            named[label] = (v, lineno)
            continue
        if len(parts) != 2:
            raise ParseError(lineno, f"expected '<tail> <head>', got {raw.strip()!r}")
        try:
            arcs.append((_int(parts[0]), _int(parts[1])))
        except ValueError:
            raise ParseError(lineno, f"arc endpoints are not integers: {raw.strip()!r}") from None
        arc_lines.append(lineno)

    if n is None:
        raise ParseError(1, "missing header line 'n <count>'")
    try:
        digraph = from_arcs(n, arcs)
    except (LoopArc, ParallelArc, VertexOutOfRange) as exc:
        raise type(exc)(f"line {arc_lines[exc.index]}: {exc}", exc.index) from None
    # An unnamed vertex shows as its id, so no label may spell the id of one.
    for label, (v, lineno) in named.items():
        if label.isascii() and label.isdigit() and len(label) <= len(str(n)):
            u = int(label)
            if str(u) == label and u < n and u not in labels:
                raise ParseError(lineno, f"label {label!r} of vertex {v} is the id of vertex {u}")
    return EdgeListDocument(digraph=digraph, labels=labels)


def serialize_edge_list(
    d: Digraph,
    labels: dict[int, str] | None = None,
    comments: tuple[str, ...] = (),
) -> str:
    """Deterministic edge-list text: comments, header, sorted names, sorted arcs."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"n {d.n}")
    for v in sorted(labels or {}):
        lines.append(f"name {v} {labels[v]}")
    for a, b in d._arc_array().tolist():  # out-CSR order: ascending (tail, head)
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def export_dot(
    d: Digraph,
    labels: dict[int, str] | None = None,
    highlight: np.ndarray | None = None,
    highlight_name: str | None = None,
) -> str:
    """DOT text with one edge statement per arc; vertices true in the highlight mask filled."""
    labels = labels or {}
    filled = [False] * d.n if highlight is None else highlight.tolist()

    def node_id(v: int) -> str:
        label = labels.get(v, str(v))
        return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph D {"]
    if highlight_name:
        lines.append(f'  // filled nodes: {highlight_name}')
    lines.append("  node [shape=circle];")
    for v in range(d.n):
        attrs = " [style=filled, fillcolor=lightblue]" if filled[v] else ""
        lines.append(f"  {node_id(v)}{attrs};")
    for a, b in d._arc_array().tolist():
        lines.append(f"  {node_id(a)} -> {node_id(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
