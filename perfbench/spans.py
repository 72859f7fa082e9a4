"""Span tracing of the `strongbounds` layers from outside the package.

`Tracer.install` replaces each public function and public method of the layer
modules with a wrapper that records a span (name, start, end, parent, job), in
every `strongbounds` module namespace that holds the function, so a call made
through any import site is seen. `Tracer.uninstall` puts every original back.
Spans stay in memory until the run ends; `job_stats` then turns them into
per-job inclusive times, self times (span minus child spans) and call counts.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter

# Package modules, one layer each; `_kernels` belongs to the metric layer.
MODULES = ("io_formats", "digraph", "generator", "metric", "_kernels", "boundary",
           "product", "report", "verify", "cli")
LAYER_OF = {"_kernels": "metric"}
LAYERS = tuple(m for m in MODULES if m not in LAYER_OF)

# Counts read off a traced call: span name -> (counter, f(args, result)).
COUNTERS = {
    "metric.metric_profile": ("metric.apsp_cells", lambda args, result: result.n ** 2),
    "product.strong_product": ("product.construct_arcs", lambda args, result: result[0].arc_count),
    "report.AnalysisReport.to_json": ("report.bytes", lambda args, result: len(result)),
    "verify.run_verification": ("verify.trials", lambda args, result: result.trials),
}


def _discover() -> tuple[dict, list]:
    """Public functions by object, and public methods, of each layer module."""
    functions = {}
    methods = []
    for module_name in MODULES:
        try:
            module = importlib.import_module(f"strongbounds.{module_name}")
        except ImportError:  # a later tree may have dropped the module
            continue
        layer = LAYER_OF.get(module_name, module_name)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions[obj] = f"{layer}.{attr}"
            elif inspect.isclass(obj):
                for name, raw in vars(obj).items():
                    if not name.startswith("_") and (
                        inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))
                    ):
                        methods.append((obj, name, raw, f"{layer}.{obj.__name__}.{name}"))
    return functions, methods


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent index or -1, job)
        self.counters: list = []  # (job, counter, value)
        self.job = -1
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)
        self._functions, self._methods = _discover()

    def _wrap(self, fn, name: str):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        counter = COUNTERS.get(name)
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (nid, start, end, parent, tracer.job)
            if counter:
                tracer.counters.append((tracer.job, counter[0], counter[1](args, result)))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, job: int) -> None:
        """Wrap every public layer function at every import site, for job `job`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.job = job
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._functions.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "strongbounds" and not module_name.startswith("strongbounds."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for cls, attr, raw, name in self._methods:
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._patch(cls, attr, new)

    def uninstall(self) -> None:
        """Restore every wrapped function and method."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def job_stats(self) -> dict[int, dict]:
        """Per job: inclusive and self seconds by span name, self by layer, calls, counters."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[int, dict] = {}

        def bucket(job: int) -> dict:
            return stats.setdefault(
                job, {"incl": {}, "self": {}, "layer_self": {}, "calls": {}, "counters": {}}
            )

        for index, (nid, start, end, parent, job) in enumerate(self.spans):
            name = self.names[nid]
            st = bucket(job)
            own = end - start - child[index]
            st["self"][name] = st["self"].get(name, 0.0) + own
            layer = name.split(".", 1)[0]
            st["layer_self"][layer] = st["layer_self"].get(layer, 0.0) + own
            st["calls"][name] = st["calls"].get(name, 0) + 1
            # Inclusive time counts only the outermost of nested same-name spans.
            up = parent
            while up >= 0 and self.spans[up][0] != nid:
                up = self.spans[up][3]
            if up < 0:
                st["incl"][name] = st["incl"].get(name, 0.0) + end - start
        for job, counter, value in self.counters:
            counters = bucket(job)["counters"]
            counters[counter] = counters.get(counter, 0) + value
        return stats

    def write(self, path) -> None:
        """Write the span table: names, then [name id, start, end, parent, job] rows."""
        with open(path, "w", encoding="ascii") as f:
            json.dump({"names": self.names, "spans": self.spans}, f, separators=(",", ":"))


# Per-layer metrics: (name, unit, kind, span names or counter).
#   incl    seconds inside the named spans, nested calls counted once
#   self    seconds inside the named spans minus their child spans
#   calls   number of calls
#   counter a count read off the calls (COUNTERS)
SPAN_METRICS = (
    ("metric.profile_s", "s", "incl", ("metric.metric_profile",)),
    ("metric.apsp_cells", "count", "counter", "metric.apsp_cells"),
    ("metric.profile_calls", "count", "calls", ("metric.metric_profile",)),
    ("product.construct_s", "s", "incl", ("product.strong_product",)),
    ("product.construct_arcs", "count", "counter", "product.construct_arcs"),
    ("product.construct_calls", "count", "calls", ("product.strong_product",)),
    ("boundary.boundary_set_s", "s", "incl", ("boundary.boundary_set",)),
    ("boundary.contour_set_s", "s", "incl", ("boundary.contour_set",)),
    ("boundary.profile_s", "s", "incl", ("boundary.boundary_profile",)),
    ("digraph.from_arcs_s", "s", "incl", ("digraph.from_arcs",)),
    ("digraph.from_arcs_calls", "count", "calls", ("digraph.from_arcs",)),
    ("digraph.is_strong_s", "s", "incl", ("digraph.is_strong",)),
    ("generator.generate_s", "s", "incl", ("generator.generate_strong_digraph",)),
    ("product.factor_pair_s", "s", "incl", ("product.FactorPair.from_digraphs",)),
    ("product.formula_sets_s", "s", "incl", ("product.product_boundary_profile_via_factors",)),
    ("product.summary_s", "s", "incl", ("product.product_metric_summary",)),
    ("report.analyze_s", "s", "self", ("report.analyze_product", "report.analyze_digraph")),
    ("report.encode_s", "s", "incl", ("report.AnalysisReport.to_json",)),
    ("report.bytes", "B", "counter", "report.bytes"),
    ("io_formats.parse_s", "s", "self", ("io_formats.parse_edge_list",)),
    ("verify.run_s", "s", "incl", ("verify.run_verification",)),
    ("verify.trials", "count", "counter", "verify.trials"),
    ("cli.main_s", "s", "incl", ("cli.main",)),
)
DERIVED_METRICS = (
    ("metric.ns_per_cell", "ns/cell"),
    ("verify.profile_calls_per_trial", "calls/trial"),
    ("trace.overhead_s", "s"),
)
LAYER_METRICS = tuple((f"{layer}.self_s", "s") for layer in LAYERS)


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units = {name: unit for name, unit, _, _ in SPAN_METRICS}
    units.update(DERIVED_METRICS)
    units.update(LAYER_METRICS)
    return units


def job_values(st: dict) -> dict[str, float]:
    values = {}
    for name, _, kind, source in SPAN_METRICS:
        if kind == "counter":
            values[name] = st["counters"].get(source, 0)
        else:
            table = {"incl": st["incl"], "self": st["self"], "calls": st["calls"]}[kind]
            values[name] = sum(table.get(span, 0) for span in source)
    cells = values["metric.apsp_cells"]
    values["metric.ns_per_cell"] = values["metric.profile_s"] / cells * 1e9 if cells else 0.0
    trials = values["verify.trials"]
    values["verify.profile_calls_per_trial"] = values["metric.profile_calls"] / trials if trials else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = st["layer_self"].get(layer, 0.0)
    return values


def layer_metrics(per_job: list[dict], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Median over traced jobs of each per-layer metric; counts repeat exactly per job."""
    medians = {name: statistics.median(v[name] for v in per_job) for name in per_job[0]}
    medians["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return medians
