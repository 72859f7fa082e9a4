"""The three benchmark workloads: seeded inputs, the CLI job, and its output check.

Each workload writes its inputs from a `random.Random(seed)` stream, names the
`strongbounds` CLI arguments of one job, and checks a job's output. The checks
never call the program: they rely on closed forms, on facts computed here from
the inputs, and (at the default seed, full size) on digests recorded from the
seed tree in `expected.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import deque
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0

SIZES = {
    "full": {
        "formula-paths": {"n": 1000},
        "oracle-both": {"n": 40, "p": 0.25},
        "verify-200": {"trials": 200},
    },
    "tiny": {
        "formula-paths": {"n": 30},
        "oracle-both": {"n": 6, "p": 0.5},
        "verify-200": {"trials": 10},
    },
}


def edge_list(n: int, arcs: list[tuple[int, int]]) -> str:
    return f"n {n}\n" + "".join(f"{a} {b}\n" for a, b in arcs)


def product_arc_count(n1: int, m1: int, n2: int, m2: int) -> int:
    """Arcs of D1 ⊠ D2: column steps, row steps and diagonal steps."""
    return m1 * n2 + n1 * m2 + m1 * m2


def _distances_from(n: int, out: list[list[int]], s: int) -> list[int]:
    dist = [-1] * n
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in out[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def eccentricities(n: int, arcs: list[tuple[int, int]]) -> list[int] | None:
    """md eccentricities by one BFS per vertex; None when not strong."""
    out: list[list[int]] = [[] for _ in range(n)]
    for a, b in arcs:
        out[a].append(b)
    dist = [_distances_from(n, out, s) for s in range(n)]
    if any(-1 in row for row in dist):
        return None
    return [max(max(dist[u][v], dist[v][u]) for v in range(n)) for u in range(n)]


def report_digest(report: dict) -> str:
    """sha256 of the report fields present in the seed tree, paths left out.

    Hashing parsed fields rather than bytes keeps the digest stable under a
    change of JSON layout or an added key; any changed value still shows.
    """
    keep = {
        "factors": [
            {k: f[k] for k in ("n", "arc_count", "radius", "diameter")} for f in report["factors"]
        ],
        "product": {
            k: report["product"][k] for k in ("n", "arc_count", "radius", "diameter", "eccentricity")
        },
    }
    for key in ("formula_sets", "oracle_sets", "differences"):
        if key in report:
            keep[key] = report[key]
    text = json.dumps(keep, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text(encoding="ascii"))


class Workload:
    """One workload at one size and seed, with its input files in `workdir`."""

    name = ""
    capture_stdout = False  # True: the job's output is its stdout, not an --out file
    variants = 1  # distinct inputs that untraced jobs rotate through

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.params = SIZES[size][self.name]
        self.rng = random.Random(seed)

    @property
    def at_default(self) -> bool:
        """Default seed at full size: the case whose digests `expected.json` holds."""
        return self.size == "full" and self.seed == DEFAULT_SEED

    def prepare(self) -> None:
        """Write the input files."""

    def argv(self, out_path: Path, variant: int = 0) -> list[str]:
        raise NotImplementedError

    def check(self, text: str, variant: int = 0) -> tuple[list[str], int]:
        """Problems with one job's output (empty when correct) and the exit code it implies."""
        try:
            return self._check(text, variant)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"], 0

    def _check(self, text: str, variant: int) -> tuple[list[str], int]:
        raise NotImplementedError

    def check_trace(self, values: dict) -> list[str]:
        """Problems with the per-layer figures of one traced job."""
        return []

    def _write(self, name: str, n: int, arcs: list[tuple[int, int]]) -> Path:
        path = self.workdir / name
        path.write_text(edge_list(n, arcs), encoding="ascii")
        return path

    def _check_product_metric(self, report: dict, n1, m1, ecc1, n2, m2, ecc2) -> list[str]:
        """Factor and product sizes, radii, diameters and product eccentricities."""
        import numpy as np

        problems = []
        for k, (n, m, ecc) in enumerate(((n1, m1, ecc1), (n2, m2, ecc2))):
            got = report["factors"][k]
            want = {"n": n, "arc_count": m, "radius": min(ecc), "diameter": max(ecc)}
            for key, value in want.items():
                if got[key] != value:
                    problems.append(f"factor {k + 1} {key}: got {got[key]}, want {value}")
        prod = report["product"]
        want = {
            "n": n1 * n2,
            "arc_count": product_arc_count(n1, m1, n2, m2),
            "radius": max(min(ecc1), min(ecc2)),
            "diameter": max(max(ecc1), max(ecc2)),
        }
        for key, value in want.items():
            if prod[key] != value:
                problems.append(f"product {key}: got {prod[key]}, want {value}")
        outer = np.maximum.outer(np.asarray(ecc1), np.asarray(ecc2)).ravel()
        got_ecc = np.asarray(prod["eccentricity"])
        if got_ecc.shape != outer.shape or not np.array_equal(got_ecc, outer):
            problems.append("product eccentricities are not the outer max of the factor ones")
        return problems

    def _check_digest(self, report: dict) -> list[str]:
        if not self.at_default:
            return []
        want = load_expected()[self.name]["report_sha256"]
        got = report_digest(report)
        return [] if got == want else [f"report digest {got} differs from the seed tree's {want}"]


class FormulaPaths(Workload):
    """`product --mode formula --budget 1` on two bidirected paths, ids permuted."""

    name = "formula-paths"

    def prepare(self) -> None:
        n = self.params["n"]
        self.n = n
        self.orders = []
        self.files = []
        for k in (1, 2):
            order = list(range(n))
            self.rng.shuffle(order)
            arcs = sorted(
                arc for a, b in zip(order, order[1:]) for arc in ((a, b), (b, a))
            )
            self.orders.append(order)
            self.files.append(self._write(f"path{k}.txt", n, arcs))

    def argv(self, out_path: Path, variant: int = 0) -> list[str]:
        return [
            "product", str(self.files[0]), str(self.files[1]),
            "--mode", "formula", "--budget", "1", "--out", str(out_path),
        ]

    def _path_ecc(self, order: list[int]) -> list[int]:
        """On a bidirected path md is the gap in position: ecc = max(pos, n-1-pos)."""
        n = self.n
        ecc = [0] * n
        for pos, v in enumerate(order):
            ecc[v] = max(pos, n - 1 - pos)
        return ecc

    def _check(self, text: str, variant: int) -> tuple[list[str], int]:
        report = json.loads(text)
        problems = []
        if report["mode"] != "formula" or "oracle_sets" in report:
            problems.append("report is not a formula-only report")
        n, m = self.n, 2 * (self.n - 1)
        ecc1, ecc2 = (self._path_ecc(order) for order in self.orders)
        problems += self._check_product_metric(report, n, m, ecc1, n, m, ecc2)
        return problems + self._check_digest(report), 0

    def check_trace(self, values: dict) -> list[str]:
        calls = values["product.construct_calls"]
        return [f"the product was built {calls} times"] if calls else []


class OracleBoth(Workload):
    """`product --mode both` on two random strong factors with a fixed arc count."""

    name = "oracle-both"

    def _random_strong(self, n: int, m: int) -> tuple[list[tuple[int, int]], list[int]]:
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        while True:
            arcs = sorted(self.rng.sample(pairs, m))
            ecc = eccentricities(n, arcs)
            if ecc is not None:
                return arcs, ecc

    def prepare(self) -> None:
        n, p = self.params["n"], self.params["p"]
        m = round(p * n * (n - 1))
        self.factors = []
        self.files = []
        for k in (1, 2):
            arcs, ecc = self._random_strong(n, m)
            self.factors.append((n, m, ecc))
            self.files.append(self._write(f"factor{k}.txt", n, arcs))

    @property
    def product_arcs(self) -> int:
        (n1, m1, _), (n2, m2, _) = self.factors
        return product_arc_count(n1, m1, n2, m2)

    def argv(self, out_path: Path, variant: int = 0) -> list[str]:
        return ["product", str(self.files[0]), str(self.files[1]), "--mode", "both", "--out", str(out_path)]

    def _check(self, text: str, variant: int) -> tuple[list[str], int]:
        report = json.loads(text)
        (n1, m1, ecc1), (n2, m2, ecc2) = self.factors
        problems = self._check_product_metric(report, n1, m1, ecc1, n2, m2, ecc2)
        formula, oracle, diff = report["formula_sets"], report["oracle_sets"], report["differences"]
        for key in formula:
            if diff[key] != sorted(set(formula[key]) ^ set(oracle[key])):
                problems.append(f"differences.{key} is not the symmetric difference of the routes")
        # The periphery and eccentricity formulas are proven: both routes must agree.
        for key in ("periphery", "eccentricity"):
            if formula[key] != oracle[key]:
                problems.append(f"formula and oracle {key} sets differ")
        diameter = report["product"]["diameter"]
        periphery = [x for x, e in enumerate(report["product"]["eccentricity"]) if e == diameter]
        if oracle["periphery"] != periphery:
            problems.append("oracle periphery is not the set of maximum-eccentricity vertices")
        # Inclusion chains hold for every strong digraph.
        bd, ct, ec, pe = (set(oracle[k]) for k in ("boundary", "contour", "eccentricity", "periphery"))
        if not pe <= (ct & ec) or not (ec | ct) <= bd:
            problems.append("oracle sets break the inclusion chains")
        return problems + self._check_digest(report), 0

    def check_trace(self, values: dict) -> list[str]:
        arcs = values["product.construct_arcs"]
        if arcs != self.product_arcs:
            return [f"product.construct_arcs {arcs} != product_arc_count {self.product_arcs}"]
        return []


TALLY = re.compile(r"^(\S+)\s+(\d+)/(\d+)\s+(ok|FAIL)$")
# Properties that are theorems: they pass on every trial whatever the corpus.
MUST_HOLD = (
    "metric-axioms",
    "product-metric-identities",
    "periphery-formula-vs-direct",
    "eccentric-formula-vs-direct",
    "inclusion-chains",
    "open-closed-equivalence",
)
VIOLATION_MARK = "\nproperty violated: "


class Verify200(Workload):
    """`verify --trials 200` with the CLI defaults, report on stdout.

    Its cost depends on the corpus, mostly through the minimizer, so untraced
    jobs rotate through corpora `--seed 1000*S + k` and the median is taken
    over them. Corpus 1000*S comes first.
    """

    name = "verify-200"
    capture_stdout = True
    variants = 100

    def argv(self, out_path: Path, variant: int = 0) -> list[str]:
        seed = 1000 * self.seed + variant
        return ["verify", "--trials", str(self.params["trials"]), "--seed", str(seed)]

    def _check(self, text: str, variant: int) -> tuple[list[str], int]:
        trials = self.params["trials"]
        tallies = {}
        for line in text.splitlines():
            match = TALLY.match(line)
            if match:
                prop, passed, total, status = match.groups()
                tallies[prop] = (int(passed), int(total), status)
        problems = []
        for prop, (passed, total, status) in tallies.items():
            if total != trials or status != ("ok" if passed == total else "FAIL"):
                problems.append(f"tally line for {prop} is inconsistent")
        for prop in MUST_HOLD:
            if tallies.get(prop, (0, 0, ""))[0] != trials:
                problems.append(f"{prop} did not pass on all {trials} trials")
        violated = any(status == "FAIL" for _, _, status in tallies.values())
        if violated != (VIOLATION_MARK in text):
            problems.append("violation report does not match the tallies")
        if self.at_default and variant == 0:
            want = load_expected()[self.name]
            got = {prop: f"{p}/{t}" for prop, (p, t, _) in tallies.items() if prop in want["tallies"]}
            if got != want["tallies"]:
                problems.append(f"tallies {got} differ from the seed tree's {want['tallies']}")
            section = text[text.find(VIOLATION_MARK):] if violated else ""
            if hashlib.sha256(section.encode("ascii")).hexdigest() != want["violation_sha256"]:
                problems.append("minimized counterexample differs from the seed tree's")
        # Exit 1 is verify's documented answer when a property fails.
        return problems, 1 if violated else 0

    def check_trace(self, values: dict) -> list[str]:
        trials = values["verify.trials"]
        return [] if trials == self.params["trials"] else [f"verify.trials {trials}"]


WORKLOADS = {cls.name: cls for cls in (FormulaPaths, OracleBoth, Verify200)}
