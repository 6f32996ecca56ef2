"""Append one entry to the bench history, ``bench/history.jsonl``.

    python3 bench/history.py LABEL [--seed N]

Runs every workload once with tracing off and once with it on, for the
``run_seconds`` that BENCHMARK.json fixes, and appends a line holding the
run context, both sets of metrics and the failure rows.  One line per
labelled tree lets the trend be read from the repository.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads

HISTORY = run.BENCH / "history.jsonl"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list]:
    command = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    failures = [line["failure"] for line in lines if "failure" in line]
    return lines[0]["context"], lines[-1], failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="append a bench history entry")
    parser.add_argument("label")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    entry = {"label": args.label, "seed": args.seed, "seconds": seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        context, plain, failures = run_once(name, args.seed, seconds, 0)
        _, traced, _ = run_once(name, args.seed, seconds, 1)
        entry["context"] = context
        entry["workloads"][name] = {
            "correct": plain["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "failures": failures,
        }
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
