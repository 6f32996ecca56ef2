"""Command-line front end for batch tree-count experiments.

Commands cover spec validation, the three counting paths, the arithmetic
square structure, Mahler asymptotics, generating functions, and a combined
machine-readable report.  One flat parser takes the command name and the
eight flags that every command shares, in any order; ``_COMMANDS`` holds
each command's function and help text, which ``bforest --help`` lists.
JSON output is canonical and byte-deterministic; CSV and text cover the
tabular commands.  A command counts each order once, by ``counting.count_rows``
over one trace table; ``compare``, ``arithmetic`` and the convergence rows
extend those rows, so all tables have their error rows at the same orders,
and ``report`` hands one set to all three.  Rows run in the calling process;
``--jobs`` is accepted and ignored.  A :class:`Refusal` becomes an error row
or a ``report`` section, or exits 2 under its class name; ``run`` reads any
other ``BforestError`` as a bug and exits 2 with ``internal error``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from .arithmetic import arithmetic_profile, square_witness
from .counting import closed_counts, count_rows, extend_rows, spectral_system
from .errors import BforestError, OrderExceeded, Refusal, SpecError
from .genfun import TauSequence, find_recurrence, genfun, gf_eval, verify_symmetry
from .graphs import ConnectionSpec, check_connectivity, order_row, validate_spec
from .matrixtree import tree_count_oracle
from .polynomials import IntPoly

__all__ = ["main", "run"]

_MIN_PRECISION, _MAX_PRECISION = 32, 256
_MAX_ORDER = 512  # bounds 2 3^D to D <= 5 (486, 0.7 s); big refuses at 512 in 0.6 s
_MAX_N_VALUES = 15000  # orders per call: `count` on the prism takes n = 1..15000 in about 9 s


def _load_spec_source(source: str) -> dict:
    """Parse --spec as inline JSON first, then as a file path."""
    try:
        return json.loads(source)
    except ValueError:
        pass
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"--spec is neither inline JSON nor a readable file: {exc}")
    except ValueError as exc:
        raise SpecError(f"spec file {source!r} is not valid JSON: {exc}")


def _n_values(args, spec: ConnectionSpec) -> list[int]:
    if args.n_start is None and args.n_end is None:
        return [spec.n]
    start = args.n_start if args.n_start is not None else spec.n
    end = args.n_end if args.n_end is not None else start
    values = range(start, end + 1, args.step)
    if not values:
        raise SpecError(f"empty n-range {start}..{end} step {args.step}")
    if values[_MAX_N_VALUES:]:  # a slice, not len(): a range past 2^63 has no len
        raise SpecError(f"n-range {start}..{end} step {args.step} holds more than {_MAX_N_VALUES} orders")
    return list(values)


def _oracle(sp):
    return {"tau": tree_count_oracle(sp)}


def _compare(sp, closed: int):
    oracle = tree_count_oracle(sp)
    return {"closed": closed, "oracle": oracle, "equal": closed == oracle}


def _counts(spec: ConnectionSpec, args) -> list[dict]:
    return count_rows(spec, _n_values(args, spec))


def _cmd_validate(spec: ConnectionSpec, args) -> dict:
    report = check_connectivity(spec)
    return {
        "spec": spec.to_dict(),
        "family": spec.family,
        "gcd_flags": list(report["gcd_flags"]),
        "connected": report["connected"],
    }


def _cmd_count(spec: ConnectionSpec, args) -> dict:
    return {"rows": _counts(spec, args)}


def _cmd_oracle(spec: ConnectionSpec, args) -> dict:
    return {"rows": [order_row(_oracle, spec, n) for n in _n_values(args, spec)]}


def _cmd_compare(spec: ConnectionSpec, args, counts=None) -> dict:
    rows = extend_rows(_compare, spec, counts or _counts(spec, args))
    checked = [r for r in rows if "equal" in r]
    return {"rows": rows, "all_equal": bool(checked) and all(r["equal"] for r in checked)}


def _cmd_arithmetic(spec: ConnectionSpec, args, counts=None) -> dict:
    table = functools.cache(lambda: spectral_system(spec))  # raises per row if there is none

    def arithmetic(sp, tau: int) -> dict:
        witness = square_witness(table(), sp.n, tau)
        return {
            "tau": tau,
            "branch": witness.branch,
            "cofactor_numerator": witness.cofactor.numerator,
            "cofactor_denominator": witness.cofactor.denominator,
            "witness": witness.witness,
        }

    rows = extend_rows(arithmetic, spec, counts or _counts(spec, args))
    profile = arithmetic_profile(spec)
    return {"structure_odd": profile.structure_odd, "structure_even": profile.structure_even, "rows": rows}


def _cmd_asymptotics(spec: ConnectionSpec, args, counts=None) -> dict:
    from .mahler import _growth_report, mahler_quadrature  # the float layer, on first use

    system, root, rows = _growth_report(spec, counts or _counts(spec, args), args.precision)
    quad = mahler_quadrature(IntPoly([-2, 1]), *(k for k, _ in system.trace_factors))
    return {
        "measure": {
            "root_product": {"value": root.value, "error_bound": root.error_bound},
            "quadrature": {"value": quad.value, "error_bound": quad.error_bound},
        },
        "convergence": rows,
    }


def _cmd_genfun(spec: ConnectionSpec, args) -> dict:
    system = spectral_system(spec)
    bound, stride = system.recurrence_bound, system.stride
    # 2L terms fix a minimal recurrence of order L; two more are held out
    counts = closed_counts(system, 2 * min(bound, args.max_order) + 2)
    seq = TauSequence(spec.family, tuple(t.tau for t in counts))
    try:
        recurrence = find_recurrence(seq, max_order=args.max_order)
    except OrderExceeded as exc:
        raise OrderExceeded(f"{exc}; the spectral degree bounds the order by {bound}") from None
    gf = genfun(seq, recurrence)
    scale = system.symmetry_scale
    indexing = (
        "term k is the tree count at group order k"
        if stride == 1
        else f"term k is the tree count at group order {stride}k (vertex count {2 * stride}k)"
    )
    return {
        "recurrence": list(recurrence),
        "generating_function": gf.to_dict(),
        "symmetry_scale": scale,
        "symmetry": verify_symmetry(gf, scale),
        "indexing": indexing,
        "value_at_0.1": float(gf_eval(gf, Fraction(1, 10))),
    }


def _cmd_report(spec: ConnectionSpec, args) -> dict:
    counts = _counts(spec, args)
    report = {
        "validate": _cmd_validate(spec, args),
        "compare": _cmd_compare(spec, args, counts),
        "arithmetic": _cmd_arithmetic(spec, args, counts),
    }
    sections = {"asymptotics": functools.partial(_cmd_asymptotics, counts=counts), "genfun": _cmd_genfun}
    for name, section in sections.items():
        try:
            report[name] = section(spec, args)
        except Refusal as exc:  # such as OrderExceeded; the other sections stay
            report[name] = {"error": str(exc), "error_type": type(exc).__name__}
    return report


_COMMANDS = {
    "validate": (_cmd_validate, "normalize a spec and report connectivity"),
    "count": (_cmd_count, "closed-form tree counts over an n-range"),
    "oracle": (_cmd_oracle, "matrix-tree tree counts over an n-range"),
    "compare": (_cmd_compare, "closed form vs oracle with an equality verdict"),
    "arithmetic": (_cmd_arithmetic, "square-structure witnesses over an n-range"),
    "asymptotics": (_cmd_asymptotics, "Mahler measure values and convergence table"),
    "genfun": (_cmd_genfun, "minimal recurrence, rational GF and symmetry verdict"),
    "report": (_cmd_report, "everything above as one JSON document"),
}
_UNTABULAR = ("validate", "genfun", "report")  # no rows for --format csv


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _emit_csv(payload: dict) -> str:
    rows = payload["rows"] if "rows" in payload else payload["convergence"]
    out = io.StringIO()
    fields = dict.fromkeys(key for row in rows for key in row)  # in order of first appearance
    writer = csv.DictWriter(out, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _text(value) -> str:
    """A value as ``_emit_json`` writes it (null, true, false, [1, 2]); a string bare."""
    return value if isinstance(value, str) else json.dumps(value)


def _emit_text(payload: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_emit_text(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for row in value:
                cells = " ".join(f"{k}={_text(row[k])}" for k in sorted(row))
                lines.append(f"{indent}  {cells}")
        else:
            lines.append(f"{indent}{key}: {_text(value)}")
    return "\n".join(line for line in lines if line != "")


_EMITTERS = {"json": _emit_json, "csv": _emit_csv, "text": lambda payload: _emit_text(payload) + "\n"}


@functools.cache  # built once per process: every call of run would leave one behind as cyclic garbage
def _build_parser() -> argparse.ArgumentParser:
    commands = "".join(f"\n  {name:<13}{text}" for name, (_, text) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="bforest",
        description="Spanning-tree counts of bicirculant graphs: exact counting, arithmetic\n"
        "structure, asymptotics and generating functions.",
        epilog=f"commands:{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the commands below")
    parser.add_argument("--spec", required=True, help="inline JSON object or path to a JSON file")
    parser.add_argument("--n-start", type=int, default=None, help="first group order (default: the spec's n)")
    parser.add_argument("--n-end", type=int, default=None, help="last group order, inclusive")
    parser.add_argument("--step", type=int, default=1, help="stride through the n-range")
    parser.add_argument(
        "--precision",
        type=int,
        default=64,
        help=f"float-path decimal digits, {_MIN_PRECISION}-{_MAX_PRECISION} (default 64)",
    )
    parser.add_argument("--format", choices=_EMITTERS, default="json")
    parser.add_argument("--jobs", type=int, default=1, help="ignored: rows run in the calling process")
    parser.add_argument("--max-order", type=int, default=128, help=f"genfun's order cap, 1-{_MAX_ORDER}")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if not _MIN_PRECISION <= args.precision <= _MAX_PRECISION:
            raise SpecError(f"--precision must be between {_MIN_PRECISION} and {_MAX_PRECISION}")
        if not 1 <= args.max_order <= _MAX_ORDER:
            raise SpecError(f"--max-order must be between 1 and {_MAX_ORDER}, got {args.max_order}")
        if args.step < 1:
            raise SpecError(f"--step must be positive, got {args.step}")
        if args.format == "csv" and args.command in _UNTABULAR:
            raise SpecError(f"--format csv needs a tabular command; {args.command} has no rows")
        spec = validate_spec(_load_spec_source(args.spec))
        command, _ = _COMMANDS[args.command]
        payload = command(spec, args)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # tau may pass 4300 digits; --spec was parsed under the limit
        try:
            sys.stdout.write(_EMITTERS[args.format](payload))
        finally:
            sys.set_int_max_str_digits(limit)
        return 0
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 1
    except BforestError as exc:
        label = type(exc).__name__ if isinstance(exc, Refusal) else "internal error"
        print(f"{label}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
