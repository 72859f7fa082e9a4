"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    result = last_json(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_benchmark_json_lists_what_the_code_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.metric_units()
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_call_counts_repeat_exactly():
    first, second = (last_json(bench("verify-200", 1))["metrics"] for _ in range(2))
    counts = [name for name, unit in spans.metric_units().items() if unit in ("count", "B", "calls/trial")]
    assert first["metric.profile_calls"]["value"] > 0
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def _job_output(workload, tmp_path: Path) -> Path:
    """Run one tiny job in-process and return its output file."""
    import strongbounds.cli as cli

    out = tmp_path / "out"
    with contextlib.ExitStack() as stack:
        if workload.capture_stdout:
            stack.enter_context(contextlib.redirect_stdout(stack.enter_context(open(out, "w"))))
        cli.main(workload.argv(out))
    return out


def _corrupt(text: str, name: str) -> str:
    if name == "verify-200":
        return re.sub(r"^(metric-axioms\s+)\d+", r"\g<1>9", text, flags=re.M)
    report = json.loads(text)
    report["product"]["eccentricity"][0] += 1
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_corrupted_output_counts_as_a_failed_job(name, tmp_path):
    workload = workloads.WORKLOADS[name]("tiny", 1, tmp_path)
    workload.prepare()
    good = _job_output(workload, tmp_path)
    bad = tmp_path / "bad"
    bad.write_text(_corrupt(good.read_text(), name))
    assert bad.read_text() != good.read_text()
    rc = workload.check(good.read_text())[1]
    outputs = ["0-" + hashlib.sha256(p.read_bytes()).hexdigest() for p in (good, bad)]
    result = {
        "kept": dict(zip(outputs, map(str, (good, bad)))),
        "jobs": [{"error": None, "output": o, "rc": rc} for o in (outputs[0], outputs[1], outputs[0])],
    }
    failed, problems = run.tally(workload, result, {})
    assert failed == 1, problems
    assert all(p.startswith("job 1:") for p in problems)


def test_wrong_exit_code_and_raised_job_count_as_failed(tmp_path):
    workload = workloads.WORKLOADS["formula-paths"]("tiny", 1, tmp_path)
    workload.prepare()
    good = _job_output(workload, tmp_path)
    output = "0-" + hashlib.sha256(good.read_bytes()).hexdigest()
    result = {
        "kept": {output: str(good)},
        "jobs": [
            {"error": None, "output": output, "rc": 0},
            {"error": None, "output": output, "rc": 4},
            {"error": "Traceback ...\nMemoryError", "output": None, "rc": None},
        ],
    }
    failed, problems = run.tally(workload, result, {0: ["the product was built 1 times"]})
    assert failed == 3, problems


def test_tracer_wraps_every_import_site_and_restores_all():
    import strongbounds
    from strongbounds import metric, product, report, verify

    def snapshot():
        state = {}
        for module_name, module in sys.modules.items():
            if module_name == "strongbounds" or module_name.startswith("strongbounds."):
                state.update({(module_name, k): v for k, v in vars(module).items()})
        state.update({("FactorPair", k): v for k, v in vars(product.FactorPair).items()})
        return state

    before = snapshot()
    original = metric.metric_profile
    tracer = spans.Tracer()
    tracer.install(job=0)
    try:
        for module in (metric, product, report, verify):
            assert module.metric_profile is not original
            assert module.metric_profile.__wrapped__ is original
        d = strongbounds.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        product.FactorPair.from_digraphs(d, d)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    calls = tracer.job_stats()[0]["calls"]
    assert calls["product.FactorPair.from_digraphs"] == 1
    assert calls["metric.metric_profile"] == 2


def test_self_time_is_span_minus_child_spans():
    tracer = spans.Tracer.__new__(spans.Tracer)
    tracer.names = ["product.f", "metric.g"]
    # f [0, 10] calls g [2, 5], which calls f [3, 4] (nested same name).
    tracer.spans = [(0, 0.0, 10.0, -1, 7), (1, 2.0, 5.0, 0, 7), (0, 3.0, 4.0, 1, 7)]
    tracer.counters = [(7, "verify.trials", 3)]
    st = tracer.job_stats()[7]
    assert st["self"] == {"product.f": 7.0 + 1.0, "metric.g": 2.0}
    assert st["layer_self"] == {"product": 8.0, "metric": 2.0}
    assert st["incl"] == {"product.f": 10.0, "metric.g": 3.0}
    assert st["calls"] == {"product.f": 2, "metric.g": 1}
    assert st["counters"] == {"verify.trials": 3}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_results"))
    done = bench("formula-paths", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
