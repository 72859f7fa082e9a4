"""Benchmark of the strongbounds CLI on three seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload formula-paths --seed 0 --seconds 35 --trace 0

The program is imported from `src/` of the checkout; nothing is installed.
One run generates the workload's inputs from `--seed`, measures set-up time in
fresh interpreters (untraced runs only), then starts one worker interpreter
that runs jobs closed-loop, one at a time, for `--seconds`. Every job's output
is checked. `--trace 0` reports the end-to-end metrics; `--trace 1` reports
the per-layer metrics of a traced run (see README.md). Human-readable lines
come first; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import spans
from workloads import BENCH_DIR, DEFAULT_SEED, WORKLOADS

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Pinned so every numeric library stays single-threaded, as the load is.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
SETUP_PROBES = 5
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import strongbounds, strongbounds.cli
try:
    from strongbounds import _kernels
except ImportError:
    _kernels = None
if hasattr(_kernels, "warmup"):
    _kernels.warmup()
print(time.perf_counter() - start)
"""
END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Import and warm-up time of strongbounds, once per fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_worker(spec: dict, env: dict[str, str], timeout: float) -> dict:
    spec_path = Path(spec["keep_dir"]).parent / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="ascii")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
        env=env, cwd=ROOT, stdout=sys.stderr,
    )
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    return json.loads(Path(spec["result_path"]).read_text(encoding="ascii"))


def tally(workload, result: dict, trace_problems: dict[int, list[str]]) -> tuple[int, list[str]]:
    """Failed job count and the problems found: raised, wrong exit code, bad output."""
    verdicts = {
        output: workload.check(Path(path).read_text(encoding="ascii"), int(output.split("-")[0]))
        for output, path in result["kept"].items()
    }
    failed = 0
    problems = []
    for k, job in enumerate(result["jobs"]):
        if job["error"]:
            issues = [job["error"].strip().splitlines()[-1]]
        elif job["output"] is None:
            issues = ["no output written"]
        else:
            issues, want_rc = verdicts[job["output"]]
            if job["rc"] != want_rc:
                issues = issues + [f"exit code {job['rc']}, want {want_rc}"]
        issues = issues + trace_problems.get(k, [])
        if issues:
            failed += 1
            problems += [f"job {k}: {issue}" for issue in issues]
    return failed, problems


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for p in (99.9, 99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "strongbounds" / "__init__.py").is_file():
        print(f"perfbench: no strongbounds package under {SRC}", file=sys.stderr)
        return 2

    env = pinned_env()
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    results_dir = BENCH_DIR / "_results"
    keep_dir = workdir / "outputs"
    keep_dir.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
        workload.prepare()
        setup = [] if args.trace else measure_setup(env)
        spec = {
            "src": str(SRC),
            "argvs": [workload.argv(workdir / "out", v) for v in range(workload.variants)],
            "out_path": str(workdir / "out"),
            "capture_stdout": workload.capture_stdout,
            "keep_dir": str(keep_dir),
            "seconds": args.seconds,
            "min_jobs": 2 if args.trace else 3,
            "trace": args.trace,
            "thread_vars": THREAD_VARS,
            "result_path": str(workdir / "result.json"),
            "spans_path": str(results_dir / f"{stem}-spans.json"),
        }
        result = run_worker(spec, env, timeout=args.seconds + 120)
        stats = {int(job): st for job, st in result.get("span_stats", {}).items()}
        per_job = {job: spans.job_values(st) for job, st in stats.items()}
        trace_problems = {job: workload.check_trace(v) for job, v in per_job.items()}
        failed, problems = tally(workload, result, trace_problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = result["jobs"]
    untraced = [job["seconds"] for job in jobs if not job["traced"]]
    env_record = dict(result["env"], seed=args.seed, workload=args.workload, size=args.size,
                      seconds=args.seconds, trace=args.trace)
    if args.trace:
        traced = [job["seconds"] for job in jobs if job["traced"]]
        values = spans.layer_metrics(list(per_job.values()), traced, untraced)
        units = spans.metric_units()
        sample_note = f"median of {len(traced)} traced jobs"
    else:
        values = {
            "job_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        sample_note = f"job_s: median of {len(untraced)} jobs; setup_s: median of {len(setup)} interpreters"

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}: {sample_note}")
    print("env " + json.dumps(env_record, sort_keys=True))
    for name in sorted(values):
        print(f"  {name:34s} {values[name]:>16.6f} {units[name]}")
    tail = tail_percentile(untraced)
    if tail and not args.trace:
        print(f"  job_s p{tail[0]:g}: {tail[1]:.6f} s")
    print(f"  error_rate {failed}/{len(jobs)} = {failed / len(jobs):.4f}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"env": env_record, "jobs": jobs, "metrics": metrics, "problems": problems}, indent=1),
        encoding="ascii",
    )
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
