"""Fast self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks, in about ten seconds, that
* every metric named in BENCHMARK.json is emitted, with and without tracing,
  and a seeded relabelling of the spokes still matches every reference;
* an answer that differs from its reference counts as a failed task;
* a task that runs out of memory is counted as a failure, not raised.
Exits nonzero with a message on the first check that does not hold.
"""

from __future__ import annotations

import json
import resource
import sys

import run
import worker  # puts src/ on the import path
import workloads

TINY = (
    workloads.Case("count", "prism", workloads.PRISM, 6),
    workloads.Case("oracle", "family2", workloads.FAMILIES[2], 8),
    workloads.Case("genfun", "prism", workloads.PRISM, 3, terms=14, max_order=6),
    workloads.Case(
        "report", "prism", workloads.PRISM, 3, argv=("--n-end", "4", "--max-order", "6", "--precision", "32")
    ),
)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny_references() -> dict:
    references = {}
    for case in TINY:
        spec = worker.bforest.validate_spec(workloads.Task(case, 0).spec())
        references[case.id] = worker.answer_of(worker.run_task(case.kind, spec, case))
    return references


def check_metric_names(prepared, references) -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    result = worker.measure(prepared, references, seconds=0, traced=True)
    expect(not result["failures"], f"relabelled tiny tasks failed: {result['failures']}")
    emitted = run.end_to_end_metrics(result, [0.0])
    expect(
        sorted(emitted) == sorted(m["name"] for m in declared["end_to_end"]),
        f"end-to-end metrics {sorted(emitted)} differ from BENCHMARK.json",
    )
    emitted = run.per_layer_metrics(result)
    expect(
        sorted(emitted) == sorted(m["name"] for m in declared["per_layer"]),
        "per-layer metrics differ from BENCHMARK.json",
    )
    expect(emitted["graphs.realize.calls"][0] > 0, "the traced pass recorded no spans")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, (_, unit) in {**run.end_to_end_metrics(result, [0.0]), **emitted}.items():
        expect(units[name] == unit, f"{name} is emitted in {unit}, declared in {units[name]}")


def check_corrupted_reference(prepared, references) -> None:
    victim = TINY[1].id
    corrupted = {**references, victim: {**references[victim], "digest": "0" * 64}}
    _, failures = worker.run_pass(prepared, corrupted)
    expect(
        [(row["task"], row["error_type"]) for row in failures] == [(victim, "Mismatch")],
        f"a corrupted reference gave failures {failures}",
    )


def check_memory_error_counted(prepared, references) -> None:
    def exhausting(kind, spec, case):
        if kind == "count":
            return bytearray(worker.MEMORY_LIMIT)  # the whole cap: cannot fit
        return original(kind, spec, case)

    original = worker.run_task
    worker.run_task = exhausting
    try:
        result = worker.measure(prepared, references, seconds=0, traced=False)
    finally:
        worker.run_task = original
    expect(
        [(row["task"], row["error_type"]) for row in result["failures"]]
        == [(TINY[0].id, "MemoryError")] * len(result["pass_s"]),
        f"an exhausted address space gave failures {result['failures']}",
    )
    ok_frac = run.end_to_end_metrics(result, [0.0])["ok_frac"][0]
    expect(ok_frac == 1 - 1 / len(TINY), f"ok_frac {ok_frac} does not count the failure")


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (worker.MEMORY_LIMIT, worker.MEMORY_LIMIT))
    references = tiny_references()
    tasks = workloads.plan(TINY, seed=1)
    expect(any(task.shift for task in tasks), "seed 1 relabels no spokes; pick another seed")
    prepared = worker.prepare(tasks)
    check_metric_names(prepared, references)
    check_corrupted_reference(prepared, references)
    check_memory_error_counted(prepared, references)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
