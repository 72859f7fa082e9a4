"""Analysis reports: deterministic machine-readable JSON, optional pretty text.

``analyze_digraph`` and ``analyze_product`` return a report as its payload,
a plain dict; ``write_json`` writes a payload as JSON and ``render_pretty``
renders it as text. Set members are emitted sorted and dict key order is
fixed by construction, so identical inputs produce byte-identical reports.
The set keys are ``boundary.SET_NAMES``, in that order, and every report
carries the constant ``"neighborhood": "open"``: the sets are computed over
N(v), and ``boundary`` proves that N[v] gives the same ones. Every set
reaches the report as a boolean vertex mask; its members are
``mask.nonzero()[0]``, ascending. Every integer sequence of a payload
(eccentricity vectors, set members, differences) is an int ndarray from
where it is computed to the encoder. The JSON text is byte-identical to
``json.dumps(..., indent=2)`` of the same values as lists, plus a trailing
newline. ``_write`` writes that layout directly: with an indent,
``json.dumps`` runs its pure-Python encoder, one generator frame per item of
a 10^6-entry product eccentricity vector, while ``_write`` encodes an
ndarray ``_CHUNK`` items at a time, one ``join`` over the chunk's decimal
strings (``_int_items``), and hands each piece to a ``write`` callable as it
is made. ``write_json`` streams the pieces to a file, so encoding holds
O(``_CHUNK``) text at a time however long the arrays are.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from json.encoder import encode_basestring_ascii
from typing import TextIO

import numpy as np

from .boundary import SET_NAMES, BoundaryProfile, boundary_profile
from .digraph import Digraph
from .io_formats import EdgeListDocument
from .metric import metric_profile
from .product import (
    DEFAULT_VERTEX_BUDGET,
    FactorPair,
    product_arc_count,
    product_boundary_profile_via_factors,
    product_metric_summary,
    strong_product,
)

FORMAT_VERSION = 1

# Items of an int ndarray encoded per piece: large enough that the per-chunk
# numpy calls cost little, small enough that a chunk's text and temporaries
# (a few MB) stay well below the report's size.
_CHUNK = 1 << 16


def _int_items(arr: np.ndarray) -> list[str]:
    """Decimal text of each int in ``arr``.

    When the values span a range ``lo..hi`` no wider than ``arr`` is long,
    as eccentricities do, one ``str`` call per value of that range builds a
    table, indexed by ``arr - lo``. Wider-spread values, such as set
    members, take one ``str`` call each.
    """
    lo, hi = int(arr.min()), int(arr.max())
    if hi - lo > arr.size:
        return [str(v) for v in arr.tolist()]
    return np.array([str(v) for v in range(lo, hi + 1)], dtype=object).take(arr - lo).tolist()


def _write(obj, level: int, write: Callable[[str], object]) -> None:
    """Pass ``obj`` to ``write`` in pieces, laid out as ``json.dumps(obj, indent=2)``.

    ``level`` is the nesting depth of ``obj``, which sets its indent. An int
    ndarray is written as a list, ``_CHUNK`` items per piece, so no piece and
    no temporary grows with the array's length.
    """
    if not isinstance(obj, (dict, list, np.ndarray)):
        write(encode_basestring_ascii(obj) if isinstance(obj, str) else json.dumps(obj))
        return
    if len(obj) == 0:
        write("{}" if isinstance(obj, dict) else "[]")
        return
    inner, closing = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(obj, dict):
        write("{")
        for i, (key, value) in enumerate(obj.items()):
            write(("," + inner if i else inner) + encode_basestring_ascii(key) + ": ")
            _write(value, level + 1, write)
        write(closing + "}")
    elif isinstance(obj, np.ndarray):
        sep = "," + inner
        write("[" + inner)
        for start in range(0, len(obj), _CHUNK):
            if start:
                write(sep)
            write(sep.join(_int_items(obj[start : start + _CHUNK])))
        write(closing + "]")
    else:
        write("[")
        for i, value in enumerate(obj):
            write("," + inner if i else inner)
            _write(value, level + 1, write)
        write(closing + "]")


def _sets_dict(bp: BoundaryProfile) -> dict:
    return {name: getattr(bp, name).nonzero()[0] for name in SET_NAMES}


def write_json(payload: dict, stream: TextIO) -> None:
    """Write ``payload`` as JSON text, plus a trailing newline, to ``stream``.

    The text is byte-identical to ``json.dumps(..., indent=2)`` of the
    payload with each int ndarray as a list. ``_write`` matches ``json``
    because it is built from the same pieces: keys and strings go through
    ``encode_basestring_ascii``, other scalars through ``json.dumps``, the
    items of an int ndarray through ``str`` of Python ints (``json`` writes
    ``int.__repr__``, the same text), joined with the same ``","`` and
    ``": "`` separators and two-space indent.
    """
    _write(payload, 0, stream.write)
    stream.write("\n")


def analyze_digraph(doc: EdgeListDocument, path: str = "<memory>") -> dict:
    """Report payload: full metric and boundary-type analysis of one strong digraph."""
    d = doc.digraph
    profile = metric_profile(d)
    sets = boundary_profile(profile, d)
    return {
        "kind": "digraph-analysis",
        "format_version": FORMAT_VERSION,
        "input": {
            "path": path,
            "n": d.n,
            "arc_count": d.arc_count,
            "strong": True,
            "labels": {str(v): doc.labels[v] for v in sorted(doc.labels)},
        },
        "neighborhood": "open",
        "metric": {
            "eccentricity": profile.ecc,
            "radius": profile.radius,
            "diameter": profile.diameter,
        },
        "sets": _sets_dict(sets),
    }


def analyze_product(
    doc1: EdgeListDocument,
    doc2: EdgeListDocument,
    mode: str = "formula",
    budget: int = DEFAULT_VERTEX_BUDGET,
    paths: tuple[str, str] = ("<memory>", "<memory>"),
) -> dict:
    """Report payload: product analysis in formula, oracle, or both mode.

    Formula mode never builds the product; oracle mode builds it and runs the
    definition-level machinery; both mode runs the two and reports their
    per-set symmetric differences.
    """
    if mode not in ("formula", "oracle", "both"):
        raise ValueError(f"mode must be formula|oracle|both, got {mode!r}")
    d1, d2 = doc1.digraph, doc2.digraph
    pair = FactorPair.from_digraphs(d1, d2)
    summary = product_metric_summary(pair)

    def factor_entry(path: str, doc: EdgeListDocument, profile) -> dict:
        return {
            "path": path,
            "n": doc.digraph.n,
            "arc_count": doc.digraph.arc_count,
            "strong": True,
            "radius": profile.radius,
            "diameter": profile.diameter,
            "labels": {str(v): doc.labels[v] for v in sorted(doc.labels)},
        }

    payload: dict = {
        "kind": "product-analysis",
        "format_version": FORMAT_VERSION,
        "mode": mode,
        "neighborhood": "open",
        "factors": [
            factor_entry(paths[0], doc1, pair.p1),
            factor_entry(paths[1], doc2, pair.p2),
        ],
        "product": {
            "n": summary.n,
            "arc_count": product_arc_count(d1, d2),
            "strong": True,
            "radius": summary.radius,
            "diameter": summary.diameter,
            "eccentricity": summary.ecc,
        },
    }

    formula_sets = None
    oracle_sets = None
    if mode in ("formula", "both"):
        formula_sets = product_boundary_profile_via_factors(pair)
        payload["formula_sets"] = _sets_dict(formula_sets)
    if mode in ("oracle", "both"):
        prod, _ = strong_product(d1, d2, budget=budget)
        prod_profile = metric_profile(prod)
        oracle_sets = boundary_profile(prod_profile, prod)
        payload["oracle_sets"] = _sets_dict(oracle_sets)
    if mode == "both":
        payload["differences"] = {
            name: (getattr(formula_sets, name) ^ getattr(oracle_sets, name)).nonzero()[0]
            for name in SET_NAMES
        }
    payload["set_provenance"] = {
        "formula_sets": "factor formulas (no product built)" if formula_sets else None,
        "oracle_sets": "definition-level on the constructed product" if oracle_sets else None,
    }
    return payload


def _format_set(ids: np.ndarray, labels: dict[str, str], n2: int | None) -> str:
    def show(v: int) -> str:
        if n2 is not None:
            return f"({v // n2},{v % n2})"
        return labels.get(str(v), str(v))

    return "{" + ", ".join(show(v) for v in ids) + "}"


def _ascii_path(path: str) -> str:
    """path with each non-ASCII character escaped as the JSON report escapes it.

    The pretty text is ASCII, like every output: é becomes \\u00e9, and an
    ASCII path is kept as it is.
    """
    return "".join(c if c.isascii() else encode_basestring_ascii(c)[1:-1] for c in path)


def render_pretty(payload: dict) -> str:
    """Human-oriented table view of a report payload; input paths are escaped to ASCII."""
    lines: list[str] = []
    if payload["kind"] == "digraph-analysis":
        inp = payload["input"]
        labels = inp.get("labels", {})
        lines.append(
            f"digraph: {_ascii_path(inp['path'])}  n={inp['n']}"
            f"  arcs={inp['arc_count']}  strong=yes"
        )
        m = payload["metric"]
        lines.append(f"radius={m['radius']}  diameter={m['diameter']}")
        ecc = ", ".join(
            f"{labels.get(str(v), str(v))}:{e}" for v, e in enumerate(m["eccentricity"])
        )
        lines.append(f"eccentricity: {ecc}")
        lines.append(f"neighborhood: {payload['neighborhood']}")
        for name, ids in payload["sets"].items():
            lines.append(f"{name:>13}: {_format_set(ids, labels, None)}")
    else:
        f1, f2 = payload["factors"]
        lines.append(
            f"product of {_ascii_path(f1['path'])} (n={f1['n']})"
            f" and {_ascii_path(f2['path'])} (n={f2['n']})"
            f"  mode={payload['mode']}"
        )
        prod = payload["product"]
        n2 = f2["n"]
        lines.append(
            f"product: n={prod['n']}  arcs={prod['arc_count']}"
            f"  radius={prod['radius']}  diameter={prod['diameter']}"
        )
        for key in ("formula_sets", "oracle_sets", "differences"):
            if key in payload:
                lines.append(f"[{key}]")
                for name, ids in payload[key].items():
                    lines.append(f"{name:>13}: {_format_set(ids, {}, n2)}")
    return "\n".join(lines) + "\n"
