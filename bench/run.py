"""Benchmark harness for bforest.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The workload runs in a fresh worker
process (``worker.py``) under a fixed address-space cap.  With ``--trace 0``
the last stdout line carries the end-to-end metrics:

* ``pass_s`` -- median seconds of one pass over the workload's tasks;
* ``setup_s`` -- median seconds from a fresh interpreter to ready (bforest
  imported, the workload's specs validated), over several fresh processes;
* ``peak_rss_mb`` -- peak resident memory of the worker plus its largest
  child (the CLI's ``--jobs`` pool);
* ``ok_frac`` -- share of attempted tasks that returned the reference answer.

With ``--trace 1`` it carries the per-layer metrics of ``spans.py`` plus the
traced pass's time and its ratio to the untraced one.  Earlier stdout lines
hold the run context and one row per failing task; the spans of the last
traced pass go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import mpmath

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def end_to_end_metrics(result: dict, setup_times: list[float]) -> dict:
    failed = len(result["failures"])
    return {
        "pass_s": (statistics.median(result["pass_s"]), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "ok_frac": (1 - failed / result["attempted"], "frac"),
    }


def per_layer_metrics(result: dict) -> dict:
    units = spans.metric_units()
    metrics = {
        name: (statistics.median(layers[name] for layers in result["layers"]), unit)
        for name, unit in units.items()
    }
    traced = statistics.median(result["traced_pass_s"])
    metrics["trace.pass_s"] = (traced, "s")
    metrics["trace.overhead"] = (traced / statistics.median(result["pass_s"]), "ratio")
    return metrics


def _worker_args(args) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]


def setup_seconds(args) -> float:
    """Seconds from starting a fresh worker interpreter to its ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen(_worker_args(args) + ["--setup-only"], stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
    return elapsed


def run_worker(args) -> dict:
    command = _worker_args(args) + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_context() -> dict:
    """Where and on what the numbers were taken."""
    source_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "bforest").glob("*.py"))
    )
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": source_lines,
    }


def failure_rows(failures: list[dict]) -> list[dict]:
    """One row per distinct failure, with the number of passes it occurred in."""
    counts = Counter((row["task"], row["error_type"], row["error"]) for row in failures)
    return [
        {"task": task, "error_type": error_type, "error": error, "count": count}
        for (task, error_type, error), count in counts.items()
    ]


def _write_spans(args, result: dict, context: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"context": context, "spans": result["spans"]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bforest benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bforest" / "__init__.py").is_file():
        print(f"no bforest sources under {ROOT / 'src'}; run from a source tree", file=sys.stderr)
        return 2

    try:
        setup_times = [] if args.trace else [setup_seconds(args) for _ in range(SETUP_PROBES)]
        result = run_worker(args)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    context = run_context()
    print(json.dumps({"context": context, "workload": args.workload, "seed": args.seed}))
    for row in failure_rows(result["failures"]):
        print(json.dumps({"failure": row}))
    if args.trace:
        _write_spans(args, result, context)
        metrics = per_layer_metrics(result)
    else:
        metrics = end_to_end_metrics(result, setup_times)
    mismatched = sum(row["error_type"] == "Mismatch" for row in result["failures"])
    print(
        json.dumps(
            {
                "correct": mismatched == 0,
                "attempted": result["attempted"],
                "failed": len(result["failures"]),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
