"""Record the reference answer of every benchmark task from the current tree.

    python3 bench/record_references.py

Writes ``bench/references.json``.  Run it only on a commit whose answers are
trusted: the benchmark counts every later answer that differs as a failure.
Count tasks are recorded from the closed formula alone, without the
connectivity check, so tasks that the check cannot run (n = 4e4 at the seed)
still get the count the formula defines.
"""

from __future__ import annotations

import json
import resource

import worker  # puts src/ on the import path
import workloads
from worker import bforest


def reference(case: workloads.Case) -> dict:
    spec = bforest.validate_spec(workloads.Task(case, 0).spec())
    if case.kind == "count":
        value = bforest.closed_count_formal(bforest.spectral_system(spec), spec.n).tau
    else:
        value = worker.run_task(case.kind, spec, case)
    return worker.answer_of(value)


def main() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (worker.MEMORY_LIMIT, worker.MEMORY_LIMIT))
    references = {
        name: {case.id: reference(case) for case in cases}
        for name, cases in workloads.WORKLOADS.items()
    }
    with open(worker.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
