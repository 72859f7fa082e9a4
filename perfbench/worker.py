"""Run one workload's jobs closed-loop in a fresh interpreter.

Started by `run.py` as `python3 worker.py SPEC.json`; not meant to be run by
hand. Each job is one in-process `strongbounds.cli.main(argv)` call, from the
input files to the report written. Jobs run one at a time until the next one
would end after the run length. With tracing on, untraced and traced jobs
alternate so that the two medians come from the same stretch of time.

The worker writes a JSON result (job records, environment, peak RSS, per-job
span statistics) to the path the spec names. It keeps one copy of each
distinct job output, named by input variant and sha256, for `run.py` to check.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _run_job(cli, argv: list[str], out_path: Path, capture_stdout: bool) -> tuple:
    """One timed job: (seconds, exit code or None, error text or None)."""
    error = rc = None
    start = time.perf_counter()
    try:
        with contextlib.ExitStack() as stack:
            if capture_stdout:
                stream = stack.enter_context(open(out_path, "w", encoding="ascii"))
                stack.enter_context(contextlib.redirect_stdout(stream))
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit
        rc = exc.code
    except Exception:
        error = traceback.format_exc(limit=8)
    return time.perf_counter() - start, rc, error


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="ascii"))
    sys.path.insert(0, spec["src"])
    import numpy
    import strongbounds
    import strongbounds.cli as cli

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()

    out_path = Path(spec["out_path"])
    keep_dir = Path(spec["keep_dir"])
    kept: dict[str, str] = {}
    jobs = []
    loop_start = time.perf_counter()
    while True:
        k = len(jobs)
        traced = tracer is not None and k % 2 == 1
        # Traced runs stay on the first input so counts repeat and the pairs compare.
        variant = 0 if tracer else k % len(spec["argvs"])
        out_path.unlink(missing_ok=True)
        if traced:
            tracer.install(job=k)
        try:
            seconds, rc, error = _run_job(cli, spec["argvs"][variant], out_path, spec["capture_stdout"])
        finally:
            if traced:
                tracer.uninstall()
        output = None
        if out_path.exists():
            output = f"{variant}-{_sha256(out_path)}"
            if output in kept:
                out_path.unlink()
            else:
                kept[output] = str(out_path.replace(keep_dir / output))
        jobs.append({"seconds": seconds, "rc": rc, "error": error, "output": output,
                     "variant": variant, "traced": traced})
        # A traced run ends on whole (untraced, traced) pairs.
        step = 2 if tracer else 1
        elapsed = time.perf_counter() - loop_start
        enough = len(jobs) >= spec["min_jobs"] and len(jobs) % step == 0
        if enough and elapsed + step * seconds > spec["seconds"]:
            break

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "peak_rss_mb": peak_rss_kb / 1024,
        "jobs": jobs,
        "kept": kept,
        "env": {
            "lane": getattr(strongbounds, "ACTIVE_LANE", "n/a"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": _version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ.get(var) for var in spec["thread_vars"]},
        },
    }
    if tracer:
        result["span_stats"] = {str(job): st for job, st in tracer.job_stats().items()}
        tracer.write(spec["spans_path"])
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
