"""Command-line front end.

Subcommands: analyze | product | verify | gen | export.
Exit codes: 0 success, 1 verification property violation, 2 parse/usage error,
3 not strongly connected, 4 vertex budget exceeded, a size past what int64
keys or numpy arrays can hold, or an allocation failed (a MemoryError, which
for now stands in for checking table sizes up front).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .boundary import SET_NAMES, boundary_profile
from .errors import NotStrong, ParseError, SizeOverflow, StrongboundsError
from .generator import GeneratorConfig, generate_strong_digraph
from .io_formats import EdgeListDocument, export_dot, parse_edge_list, serialize_edge_list
from .metric import metric_profile
from .product import DEFAULT_VERTEX_BUDGET
from .report import AnalysisReport, analyze_digraph, analyze_product
from .verify import run_verification

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_NOT_STRONG = 3
EXIT_BUDGET = 4


def _read_document(path: str) -> EdgeListDocument:
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"non-ASCII byte 0x{data[exc.start]:02x}") from None
    return parse_edge_list(text)


def _emit(output: AnalysisReport | str, out: str | None) -> None:
    """Write ``output`` to the ``--out`` file, as ASCII, or to stdout.

    A report streams its JSON through ``write_json`` without building the
    whole text; pretty, edge-list and DOT text comes built. Every command
    finishes its output before this opens the file, so a run that fails
    leaves no file behind.
    """
    with open(out, "w", encoding="ascii") if out else contextlib.nullcontext(sys.stdout) as f:
        if isinstance(output, str):
            f.write(output)
        else:
            output.write_json(f)


def _cmd_analyze(args: argparse.Namespace) -> int:
    doc = _read_document(args.input)
    report = analyze_digraph(doc, path=args.input)
    _emit(report.to_text() if args.pretty else report, args.out)
    return EXIT_OK


def _cmd_product(args: argparse.Namespace) -> int:
    doc1 = _read_document(args.input1)
    doc2 = _read_document(args.input2)
    report = analyze_product(
        doc1, doc2, mode=args.mode, budget=args.budget, paths=(args.input1, args.input2)
    )
    _emit(report.to_text() if args.pretty else report, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = run_verification(
        trials=args.trials,
        n_max=args.n_max,
        p_values=tuple(args.p),
        seed=args.seed,
    )
    for line in summary.lines():
        print(line)
    if summary.ok:
        print(f"all properties held on {summary.trials} factor pairs")
        return EXIT_OK
    v = summary.violation
    print(f"\nproperty violated: {v.prop} (trial {v.trial}): {v.detail}")
    print("minimized factor 1 edge list:")
    sys.stdout.write(v.d1_edge_list)
    print("minimized factor 2 edge list:")
    sys.stdout.write(v.d2_edge_list)
    return EXIT_VIOLATION


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(n=args.n, p=args.p, seed=args.seed, max_retries=args.max_retries)
    result = generate_strong_digraph(cfg)
    comments = (
        f"generated: n={cfg.n} p={cfg.p} seed={cfg.seed} "
        f"attempts={result.attempts} augmented={str(result.augmented).lower()}",
    )
    _emit(serialize_edge_list(result.digraph, comments=comments), args.out)
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    doc = _read_document(args.input)
    highlight = highlight_name = None
    if args.set != "none":
        sets = boundary_profile(metric_profile(doc.digraph), doc.digraph)
        highlight, highlight_name = getattr(sets, args.set), args.set
    _emit(export_dot(doc.digraph, doc.labels, highlight, highlight_name), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongbounds",
        description="Boundary-type vertex sets of strong digraphs under the "
        "maximum-distance metric, with strong-product factor formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--pretty", action="store_true", help="human-readable tables")

    p_an = sub.add_parser("analyze", help="metric profile and boundary-type sets of one digraph")
    p_an.add_argument("input", help="edge-list file")
    add_common(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_pr = sub.add_parser("product", help="strong-product analysis of two digraphs")
    p_pr.add_argument("input1")
    p_pr.add_argument("input2")
    p_pr.add_argument(
        "--mode",
        choices=("formula", "oracle", "both"),
        default="formula",
        help="factor formulas, direct on the built product, or both with diffs",
    )
    p_pr.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_VERTEX_BUDGET,
        help="max product vertices for oracle-mode construction",
    )
    add_common(p_pr)
    p_pr.set_defaults(func=_cmd_product)

    p_ve = sub.add_parser("verify", help="randomized formula-vs-direct and metric-law checks")
    p_ve.add_argument("--trials", type=int, default=200)
    p_ve.add_argument("--n-max", type=int, default=7, dest="n_max")
    p_ve.add_argument(
        "--p",
        type=float,
        nargs="+",
        default=[0.2, 0.4, 0.7],
        help="arc probabilities cycled across trials",
    )
    p_ve.add_argument("--seed", type=int, default=0)
    p_ve.set_defaults(func=_cmd_verify)

    p_ge = sub.add_parser("gen", help="generate a reproducible random strong digraph")
    p_ge.add_argument("--n", type=int, required=True)
    p_ge.add_argument("--p", type=float, required=True)
    p_ge.add_argument("--seed", type=int, default=0)
    p_ge.add_argument("--max-retries", type=int, default=20, dest="max_retries")
    p_ge.add_argument("--out")
    p_ge.set_defaults(func=_cmd_gen)

    p_ex = sub.add_parser("export", help="DOT export with optional set highlighting")
    p_ex.add_argument("input")
    p_ex.add_argument(
        "--set",
        choices=SET_NAMES + ("none",),
        default="none",
        help="boundary-type set to highlight",
    )
    p_ex.add_argument("--out")
    p_ex.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:  # numpy raises a subclass; its message names the size
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_BUDGET
    except (StrongboundsError, OSError) as exc:  # any other error is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return {NotStrong: EXIT_NOT_STRONG, SizeOverflow: EXIT_BUDGET}.get(type(exc), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
