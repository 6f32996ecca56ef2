"""Run one workload's passes in a fresh process under a fixed address-space cap.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

The cap makes the O(n^2)-memory failure of a large task the same
``MemoryError`` on every machine, and keeps it from exhausting a shared host.
With ``--setup-only`` the worker prints ``ready`` once bforest is imported and
the workload's specs are validated, then exits; the harness times that.
Otherwise it prints one JSON line: pass times, failure rows, peak memory and,
with tracing, the per-layer summary of each traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import bforest  # noqa: E402
from bforest import cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MEMORY_LIMIT = 2 << 30  # bytes of address space; the n = 5000 tasks peak near 0.9 GiB
REFERENCES = BENCH / "references.json"
FLOAT_TOLERANCE = 1e-9  # relative
CLI_JOBS = "2"
MIN_PASSES = 3
# report fields left unchecked: error estimates, |ratio - 1| (the ratio itself is
# checked; its distance from 1 can be too small to compare relatively) and the
# spec echo, which the seeded spoke shift changes
_UNCHECKED_KEYS = {"spec", "error_bound", "deviation"}


class Mismatch(Exception):
    """An answer that differs from its reference."""


class CliFailed(Exception):
    """The CLI returned a nonzero exit code."""


def _split(value, path=""):
    """Separate a JSON-like answer into its exact part and its float leaves."""
    if isinstance(value, dict):
        exact, floats = {}, {}
        for key in sorted(value):
            if key in _UNCHECKED_KEYS:
                continue
            exact[key], inner = _split(value[key], f"{path}.{key}")
            floats.update(inner)
        return exact, floats
    if isinstance(value, list):
        exact, floats = [], {}
        for i, item in enumerate(value):
            part, inner = _split(item, f"{path}[{i}]")
            exact.append(part)
            floats.update(inner)
        return exact, floats
    if isinstance(value, float):
        return "float", {path: value}
    if isinstance(value, int) and not isinstance(value, bool):
        return hex(value), {}  # hex has no digit cap and costs linear time
    return value, {}


def answer_of(value) -> dict:
    """The reference form of an answer: a digest of its exact fields plus its floats."""
    exact, floats = _split(value)
    text = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return {"digest": hashlib.sha256(text.encode()).hexdigest(), "floats": floats}


def check(answer: dict, reference: dict | None) -> None:
    if reference is None:
        raise Mismatch("no reference recorded")
    if answer["digest"] != reference["digest"]:
        raise Mismatch("exact fields differ from the reference")
    if answer["floats"].keys() != reference["floats"].keys():
        raise Mismatch("float fields differ from the reference")
    for path, expected in reference["floats"].items():
        got = answer["floats"][path]
        if abs(got - expected) > FLOAT_TOLERANCE * max(abs(got), abs(expected)):
            raise Mismatch(f"{path}: {got!r} differs from {expected!r}")


def _count(spec):
    return bforest.tree_count_closed(spec).tau


def _oracle(spec):
    oracle = bforest.tree_count_oracle(spec)
    closed = bforest.tree_count_closed(spec)
    if oracle != closed.tau:
        raise Mismatch(f"oracle {oracle} != closed form {closed.tau}")
    witness = bforest.verify_square_structure(spec, closed)
    return {
        "tau": oracle,
        "branch": witness.branch,
        "cofactor": [witness.cofactor.numerator, witness.cofactor.denominator],
        "witness": witness.witness,
    }


def _genfun(spec, case):
    seq = bforest.tau_sequence(spec, case.terms)
    recurrence = bforest.find_recurrence(seq, max_order=case.max_order)
    gf = bforest.genfun(seq, recurrence)
    scale = bforest.symmetry_scale(spec)
    return {
        "terms": list(seq.values),
        "recurrence": list(recurrence),
        "generating_function": gf.to_dict(),
        "symmetry_scale": scale,
        "symmetry": bforest.verify_symmetry(gf, scale),
    }


def _report(spec, case):
    argv = ["report", "--spec", spec.to_json(), "--n-start", str(case.n), *case.argv, "--jobs", CLI_JOBS]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code != 0:
        raise CliFailed(f"bforest report exited with {code}")
    return json.loads(out.getvalue())


def run_task(kind: str, spec, case):
    """The answer of one task, computed through the public API or the CLI."""
    if kind == "count":
        return _count(spec)
    if kind == "oracle":
        return _oracle(spec)
    if kind == "genfun":
        return _genfun(spec, case)
    if kind == "report":
        return _report(spec, case)
    raise ValueError(f"unknown task kind {kind!r}")


def prepare(tasks):
    """Validate every task's spec: the set-up a pass does not repeat."""
    return [(task, bforest.validate_spec(task.spec())) for task in tasks]


def _failure(task, exc) -> dict:
    return {"task": task.id, "error_type": type(exc).__name__, "error": str(exc)[:200]}


def run_pass(prepared, references) -> tuple[float, list[dict]]:
    """Run each task once; return the seconds spent in tasks and the failure rows.

    A task that raises, or whose answer differs from its reference, gives a
    failure row naming the exception class; the pass goes on.  Checking the
    answer is not timed.
    """
    spent = 0.0
    failures = []
    for task, spec in prepared:
        start = time.perf_counter()
        try:
            value = run_task(task.case.kind, spec, task.case)
        except Exception as exc:  # a failing task is a measured outcome
            spent += time.perf_counter() - start
            failures.append(_failure(task, exc))
            continue
        spent += time.perf_counter() - start
        try:
            check(answer_of(value), references.get(task.id))
        except Mismatch as exc:
            failures.append(_failure(task, exc))
    return spent, failures


def peak_rss_kb() -> int:
    """Peak resident set of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def measure(prepared, references, seconds: float, traced: bool) -> dict:
    """Repeat passes until ``seconds`` have gone by and enough passes ran.

    Untraced runs make at least ``MIN_PASSES`` passes, so that their median
    is not moved by one pass that a busy host slowed down.  With ``traced``,
    each round is an untraced pass followed by a traced one, so the traced
    pass's time can be set against the untraced one; one round is enough.
    """
    times, traced_times, layers, failures = [], [], [], []
    recorder = None
    least = 1 if traced else MIN_PASSES
    start = time.perf_counter()
    while len(times) < least or time.perf_counter() - start < seconds:
        spent, rows = run_pass(prepared, references)
        times.append(spent)
        failures.extend(rows)
        if traced:
            recorder = spans.Recorder()
            with spans.installed(recorder):
                spent, rows = run_pass(prepared, references)
            traced_times.append(spent)
            failures.extend(rows)
            layers.append(recorder.summary())
    passes = len(times) + len(traced_times)
    return {
        "pass_s": times,
        "traced_pass_s": traced_times,
        "layers": layers,
        "spans": recorder.spans if recorder else [],
        "attempted": passes * len(prepared),
        "failures": failures,
        "peak_rss_kb": peak_rss_kb(),
    }


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    prepared = prepare(workloads.plan(workloads.WORKLOADS[args.workload], args.seed))
    if args.setup_only:
        print("ready", flush=True)
        return 0
    references = load_references()[args.workload]
    result = measure(prepared, references, args.seconds, bool(args.trace))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
