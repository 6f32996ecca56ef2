"""Span recorder that times calls into bforest's public functions.

The recorder wraps each function in ``LAYERS`` at every binding it has in a
loaded ``bforest`` module: the defining module, each module that imported it
by name, and the package's re-exports.  Spans (name, start, end, parent)
stay in memory; ``summary`` turns them into call counts, self time and the
counters computed from arguments and results.  Spans inside processes the
program forks (the CLI's ``--jobs`` pool) are not collected.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager


def _coeff_bits(args, result):
    return max(abs(c).bit_length() for c in args["f"].coeffs + args["g"].coeffs)


def _result_bits(args, result):
    return None if result is None else abs(result).bit_length()


def _order(args, result):
    return None if result is None else len(result) - 1


def _terms(args, result):
    seq = args["seq"]
    return len(getattr(seq, "values", seq))


# (module, function, {counter: (aggregate, counter(arguments, result), unit)}).
# A counter returns None when it has nothing to record, e.g. because the
# call raised and ``result`` is None.
LAYERS = (
    ("graphs", "validate_spec", {}),
    ("graphs", "is_connected", {}),
    ("graphs", "realize", {"adj_bytes": ("max", lambda a, r: 8 * (2 * a["spec"].n) ** 2, "B")}),
    ("counting", "spectral_system", {}),
    ("counting", "closed_count_formal", {}),
    ("polynomials", "abs_resultant_with_power", {}),
    (
        "polynomials",
        "resultant",
        {
            "in_degree_max": ("max", lambda a, r: max(a["f"].degree, a["g"].degree), "degree"),
            "in_bits_max": ("max", _coeff_bits, "bits"),
            "out_bits": ("max", _result_bits, "bits"),
        },
    ),
    (
        "polynomials",
        "roots_numeric",
        {
            "degree_sum": ("sum", lambda a, r: a["f"].degree, "degree"),
            "digits_max": ("max", lambda a, r: a["digits"], "digits"),
        },
    ),
    ("mahler", "mahler_root_product", {}),
    ("mahler", "mahler_quadrature", {}),
    ("mahler", "asymptotic_prediction", {}),
    ("mahler", "convergence_report", {}),
    ("genfun", "tau_sequence", {}),
    ("genfun", "find_recurrence", {"terms": ("sum", _terms, "terms"), "order": ("max", _order, "order")}),
    ("matrixtree", "laplacian", {}),
    ("matrixtree", "det_fraction_free", {"size_sum": ("sum", lambda a, r: len(a["matrix"]), "rows")}),
    ("arithmetic", "verify_square_structure", {}),
    ("cli", "run", {}),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name ``summary`` emits, with its unit."""
    units = {}
    for module, func, counters in LAYERS:
        units[f"{module}.{func}.calls"] = "count"
        units[f"{module}.{func}.self_s"] = "s"
        for counter, (_, _, unit) in counters.items():
            units[f"{module}.{func}.{counter}"] = unit
    return units


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _count(self, name, counters, signature, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
        except TypeError:
            return
        for counter, (aggregate, measure, _) in counters.items():
            try:
                value = measure(bound.arguments, result)
            except (KeyError, AttributeError, TypeError):
                # a later signature may not carry what the counter reads
                continue
            if value is None:
                continue
            key = f"{name}.{counter}"
            old = self.counters.get(key, 0)
            self.counters[key] = max(old, value) if aggregate == "max" else old + value

    def wrap(self, name: str, func, counters: dict):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if counters:
                    self._count(name, counters, signature, args, kwargs, result)

        return traced

    def summary(self) -> dict[str, float]:
        """calls, self_s and counters for every layer; absent layers read 0."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics = {name: 0 for name in metric_units()}
        for (name, start, end, _), children in zip(self.spans, child_time):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += end - start - children
        metrics.update(self.counters)
        return metrics


@contextmanager
def installed(recorder: Recorder):
    """Replace every binding of each layer function by its traced wrapper.

    A function missing from its module (renamed or removed by a later change)
    is skipped, so its metrics read 0 instead of failing the run.
    """
    modules = [m for key, m in list(sys.modules.items()) if key == "bforest" or key.startswith("bforest.")]
    replaced = []
    try:
        for module, func_name, counters in LAYERS:
            home = sys.modules.get(f"bforest.{module}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = recorder.wrap(f"{module}.{func_name}", original, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        yield recorder
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)
