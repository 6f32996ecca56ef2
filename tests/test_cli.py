"""CLI subcommands: output formats, determinism, exit codes, schema."""

import importlib
import json
import os
import pathlib
import re
import sys
import time

import jsonschema
import pytest

import bforest.cli
from bforest import closed_counts, tree_count_closed, validate_spec
from bforest.cli import run
from bforest import errors
from bforest.errors import (
    BforestError,
    DegenerateSystem,
    HalfWithoutEvenN,
    InexactDivision,
    InvariantViolation,
    NonConvergence,
    NonDivisible,
    NonIntegralResult,
    NonMonicDenominator,
    NonPositiveStructure,
    NotAPerfectSquare,
    NotConnected,
    OrderExceeded,
    OutOfRange,
    Refusal,
    SpecError,
    ZeroPolynomial,
)
from tests.conftest import ZERO_BASE

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "report.schema.json")

PRISM = '{"n":3,"alphas":[1],"betas":[1],"gammas":[0]}'
FAM2 = '{"n":4,"alphas":[1],"betas":[],"gammas":[0],"half_r":true}'
FAM4 = '{"n":4,"alphas":[1],"betas":[],"gammas":[0],"half_r":true,"half_t":true}'


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_json(capsys):
    code, out, _ = invoke(capsys, "validate", "--spec", PRISM)
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == 1
    assert doc["connected"] is True


def test_validate_rejects_bad_spec(capsys):
    # odd n with a half flag; input that validation once truncated or coerced;
    # a misspelt key, once dropped
    for spec in (
        '{"n":5,"gammas":[0],"half_r":true}',
        '{"n":12.7,"alphas":[1.9],"gammas":[0],"half_r":"false"}',
        '{"n":5,"alpha":[1],"betas":[1],"gammas":[0]}',
    ):
        code, _, err = invoke(capsys, "validate", "--spec", spec)
        assert code == 1
        assert "invalid spec" in err


@pytest.mark.parametrize("value, shown", [("Infinity", "inf"), ("NaN", "nan")])
def test_count_refuses_a_non_finite_order(capsys, value, shown):
    # Python's json reads Infinity and NaN as floats; int() of them raises
    code, out, err = invoke(capsys, "count", "--spec", f'{{"n": {value}, "gammas": [0]}}')
    assert (code, out, err) == (1, "", f"invalid spec: group order n must be an integer, got {shown}\n")


def test_count_range(capsys):
    code, out, _ = invoke(capsys, "count", "--spec", PRISM, "--n-start", "3", "--n-end", "6")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["tau"] for r in rows] == [75, 384, 1805, 8100]


def test_oracle_matches_count(capsys):
    _, closed_out, _ = invoke(capsys, "count", "--spec", PRISM, "--n-start", "3", "--n-end", "8")
    _, oracle_out, _ = invoke(capsys, "oracle", "--spec", PRISM, "--n-start", "3", "--n-end", "8")
    closed = [r["tau"] for r in json.loads(closed_out)["rows"]]
    oracle = [r["tau"] for r in json.loads(oracle_out)["rows"]]
    assert closed == oracle


def test_compare_verdict(capsys):
    code, out, _ = invoke(capsys, "compare", "--spec", PRISM, "--n-start", "3", "--n-end", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_equal"] is True
    assert doc["rows"][0] == {"n": 3, "closed": 75, "oracle": 75, "equal": True}


def test_rows_report_errors_for_invalid_orders(capsys):
    # odd orders are invalid for a half-generator family: error rows, exit 0
    code, out, _ = invoke(capsys, "count", "--spec", FAM2, "--n-start", "4", "--n-end", "7")
    assert code == 0
    rows = json.loads(out)["rows"]
    by_n = {r["n"]: r for r in rows}
    assert by_n[4]["tau"] == 16
    assert "error" in by_n[5] and "error" in by_n[7]


@pytest.mark.parametrize(
    "spec, start, end, errors",
    # the prism's alpha = 1 is below n/2 only from n = 3
    [(PRISM, "-3", "3", {-3, -2, -1, 0, 1, 2}), (FAM2, "4", "5", {5})],
    ids=["negative", "odd"],
)
def test_asymptotics_rejects_invalid_orders(capsys, spec, start, end, errors):
    # an order without a count gets an error row, as in count, not a failed command
    code, out, _ = invoke(capsys, "asymptotics", "--spec", spec, "--n-start", start, "--n-end", end)
    assert code == 0
    rows = json.loads(out)["convergence"]
    assert [r["n"] for r in rows] == list(range(int(start), int(end) + 1))
    assert {r["n"] for r in rows if "error" in r} == errors
    assert all(set(r) == {"n", "error", "error_type"} for r in rows if r["n"] in errors)
    assert all("ratio" in r for r in rows if r["n"] not in errors)


def test_asymptotics_rows_report_disconnected_orders(capsys):
    # connected at n = 5, not at n = 6, where tau = 0 once divided the prediction
    spec = '{"n":5,"alphas":[2],"betas":[],"gammas":[0]}'
    code, out, _ = invoke(capsys, "asymptotics", "--spec", spec, "--n-start", "5", "--n-end", "6")
    assert code == 0
    first, second = json.loads(out)["convergence"]
    assert (first["n"], first["tau"]) == (5, 5)
    assert second["n"] == 6 and "not connected" in second["error"]


def test_asymptotics_rows_report_each_disconnected_order(capsys):
    # disconnected at its own n = 8, so the whole spec was once refused
    spec = '{"n":8,"alphas":[2],"betas":[2],"gammas":[0]}'
    orders = ("--n-start", "5", "--n-end", "7")
    code, out, _ = invoke(capsys, "asymptotics", "--spec", spec, *orders)
    assert code == 0
    rows = json.loads(out)["convergence"]
    assert [(r["n"], r.get("tau")) for r in rows] == [(5, 1805), (6, None), (7, 35287)]
    assert "not connected" in rows[1]["error"]
    _, count_out, _ = invoke(capsys, "count", "--spec", spec, *orders)
    count = json.loads(count_out)["rows"]
    assert [(r["n"], r.get("tau"), r.get("error")) for r in count] == [
        (r["n"], r.get("tau"), r.get("error")) for r in rows
    ]


def assert_report_refuses_as_its_commands(docs, results, *phrases):
    # asymptotics and genfun exit 2 naming ``phrases``; report keeps the exact
    # sections and holds each refusal, by class and text, in that command's
    # section
    report = docs["report"]
    assert {name: report[name] for name in ("validate", "compare", "arithmetic")} == {
        name: docs[name] for name in ("validate", "compare", "arithmetic")
    }
    for command in ("asymptotics", "genfun"):
        code, out, err = results[command]
        assert (code, out) == (2, ""), command
        assert [phrase for phrase in phrases if phrase not in err] == [], command
        section = report[command]
        assert sorted(section) == ["error", "error_type"], command
        assert err == f"{section['error_type']}: {section['error']}\n", command
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        jsonschema.validate(report, json.load(fh))


@pytest.mark.parametrize("spec, tau", zip(ZERO_BASE, (1, 1, 1, 4)), ids=range(4))
def test_zero_base_specs_are_counted_and_refused_by_name(capsys, spec, tau):
    # count, oracle and compare count them; the paths that need the spectral
    # system give an error row, exit 2 or, in report, a refusal section, and
    # point at `bforest count`
    n, spec = spec["n"], json.dumps(spec)
    commands = ("validate", "count", "oracle", "compare", "arithmetic", "asymptotics", "genfun", "report")
    results = {command: invoke(capsys, command, "--spec", spec) for command in commands}
    docs = {command: json.loads(out) for command, (code, out, _) in results.items() if code == 0}
    assert sorted(docs) == ["arithmetic", "compare", "count", "oracle", "report", "validate"]
    assert docs["validate"]["connected"] is True
    assert docs["count"]["rows"] == docs["oracle"]["rows"] == [{"n": n, "tau": tau}]
    assert docs["compare"]["all_equal"] is True
    assert docs["compare"]["rows"] == [{"n": n, "closed": tau, "oracle": tau, "equal": True}]
    (row,) = docs["arithmetic"]["rows"]
    assert (row["n"], row["error_type"]) == (n, "DegenerateSystem")
    assert "`bforest count` counts it" in row["error"]
    assert docs["arithmetic"]["structure_odd"] is docs["arithmetic"]["structure_even"] is None
    assert_report_refuses_as_its_commands(docs, results, "`bforest count` counts it")


NO_SPOKES = [
    '{"n":7,"alphas":[1],"betas":[1],"gammas":[]}',
    '{"n":8,"alphas":[1],"betas":[3],"gammas":[],"half_r":true}',
]


@pytest.mark.parametrize("spec", NO_SPOKES, ids=["family1", "family2"])
def test_no_spoke_specs_are_refused_as_never_connected(capsys, spec):
    # no spokes, so q = 0: the per-order paths give NotConnected rows (the
    # oracle counts 0 trees), there are no structure constants, and the
    # paths that need the spectral system exit 2 naming the missing spokes,
    # or in report hold that refusal in their sections
    n = json.loads(spec)["n"]
    commands = ("validate", "count", "oracle", "compare", "arithmetic", "asymptotics", "genfun", "report")
    results = {command: invoke(capsys, command, "--spec", spec) for command in commands}
    docs = {command: json.loads(out) for command, (code, out, _) in results.items() if code == 0}
    assert sorted(docs) == ["arithmetic", "compare", "count", "oracle", "report", "validate"]
    assert docs["validate"]["connected"] is False
    for command in ("count", "compare", "arithmetic"):
        (row,) = docs[command]["rows"]
        assert (row["n"], row["error_type"]) == (n, "NotConnected"), command
    assert docs["oracle"]["rows"] == [{"n": n, "tau": 0}]
    assert docs["compare"]["all_equal"] is False
    assert docs["arithmetic"]["structure_odd"] is docs["arithmetic"]["structure_even"] is None
    assert_report_refuses_as_its_commands(docs, results, "no spokes (q = 0)", "never connected")


TWO_SPOKE = '{"n":4,"alphas":[1],"betas":[1],"gammas":[0,1],"half_r":true,"half_t":true}'


@pytest.mark.parametrize(
    "spec,max_order,terms,code",
    [(PRISM, None, 14, 0), (TWO_SPOKE, "64", 110, 0), (PRISM, "3", 8, 2)],
)
def test_genfun_asks_for_the_terms_the_spectral_bound_certifies(
    capsys, monkeypatch, spec, max_order, terms, code
):
    # 2 min(bound, cap) + 2 terms: the prism's bound is 6, two-spoke's 54
    asked = []

    def recording(system, count):
        asked.append(count)
        return closed_counts(system, count)

    monkeypatch.setattr("bforest.cli.closed_counts", recording)
    cap = ("--max-order", max_order) if max_order else ()
    status, _, err = invoke(capsys, "genfun", "--spec", spec, *cap)
    assert (asked, status) == ([terms], code)
    if code:
        # a refusal is named by its class; any other error reads "internal error"
        assert err.startswith("OrderExceeded: ") and "bounds the order by 6" in err


# the split every catch site reads: a refusal says the spec, order or request
# lies outside what a path answers; any other error breaks an identity the
# mathematics guarantees for the package's own inputs, so it is a bug
REFUSALS = [SpecError, OutOfRange, HalfWithoutEvenN, NotConnected, DegenerateSystem, NonConvergence, OrderExceeded]
BUGS = [
    InvariantViolation,
    NonIntegralResult,
    InexactDivision,
    NotAPerfectSquare,
    NonDivisible,
    NonPositiveStructure,
    ZeroPolynomial,
    NonMonicDenominator,
]


def test_every_error_class_is_a_refusal_or_a_bug():
    classes = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, BforestError)}
    assert {c for c in classes if issubclass(c, Refusal)} == set(REFUSALS) | {Refusal}
    assert classes - set(REFUSALS) - {Refusal} == set(BUGS) | {BforestError}


@pytest.mark.parametrize(
    "error,label",
    [(error, "internal error") for error in BUGS]
    + [(error, error.__name__) for error in REFUSALS if not issubclass(error, SpecError)],
)
def test_failures_exit_2_under_their_class_name(capsys, monkeypatch, error, label):
    def failing(spec, args):
        raise error("no answer")

    monkeypatch.setitem(bforest.cli._COMMANDS, "count", (failing, "fails"))
    assert invoke(capsys, "count", "--spec", PRISM) == (2, "", f"{label}: no answer\n")


CONVERGENCE = "the convergence rows"  # the per-order function of asymptotics


def plant(monkeypatch, layer, error):
    """Make ``layer``, a dotted name or CONVERGENCE, raise ``error("planted")``."""

    def failing(*args, **kwargs):
        raise error("planted")

    if layer == CONVERGENCE:
        real = bforest.counting.extend_rows
        monkeypatch.setattr("bforest.mahler.extend_rows", lambda compute, spec, rows: real(failing, spec, rows))
    else:
        monkeypatch.setattr(layer, failing)


# each command's per-order layers: the count rows, then the rows built on them
ROW_LAYERS = [
    ("count", "bforest.counting.closed_count_formal"),
    ("oracle", "bforest.cli.tree_count_oracle"),
    ("compare", "bforest.counting.closed_count_formal"),
    ("compare", "bforest.cli.tree_count_oracle"),
    ("arithmetic", "bforest.counting.closed_count_formal"),
    ("arithmetic", "bforest.cli.square_witness"),
    ("asymptotics", "bforest.counting.closed_count_formal"),
    ("asymptotics", CONVERGENCE),
    ("report", "bforest.counting.closed_count_formal"),
    ("report", "bforest.cli.tree_count_oracle"),
    ("report", "bforest.cli.square_witness"),
    ("report", CONVERGENCE),
]


@pytest.mark.parametrize("command,layer", ROW_LAYERS, ids=lambda v: v.split(".")[-1].replace(" ", "-"))
@pytest.mark.parametrize("error", BUGS, ids=lambda e: e.__name__)
def test_a_bug_inside_a_row_exits_2_as_an_internal_error(capsys, monkeypatch, error, command, layer):
    # an invariant failure is no error row and no report section: the command
    # prints nothing and exits 2 naming it a bug
    plant(monkeypatch, layer, error)
    assert invoke(capsys, command, "--spec", PRISM) == (2, "", "internal error: planted\n")


@pytest.mark.parametrize("error", REFUSALS, ids=lambda e: e.__name__)
def test_a_refusal_is_its_error_row_or_its_report_section(capsys, monkeypatch, error):
    # in a count row, in a convergence row (asymptotics and report) and as a
    # report section, each exiting 0
    row = {"error": "planted", "error_type": error.__name__}
    orders = ("--n-start", "3", "--n-end", "4")
    plant(monkeypatch, "bforest.counting.closed_count_formal", error)
    code, out, err = invoke(capsys, "count", "--spec", PRISM)
    assert (code, err, json.loads(out)["rows"]) == (0, "", [{"n": 3, **row}])
    monkeypatch.undo()
    plant(monkeypatch, CONVERGENCE, error)
    rows = [{"n": n, **row} for n in (3, 4)]
    code, out, err = invoke(capsys, "asymptotics", "--spec", PRISM, *orders)
    assert (code, err, json.loads(out)["convergence"]) == (0, "", rows)
    code, out, err = invoke(capsys, "report", "--spec", PRISM, *orders)
    assert (code, err, json.loads(out)["asymptotics"]["convergence"]) == (0, "", rows)
    monkeypatch.undo()
    plant(monkeypatch, "bforest.cli._cmd_genfun", error)
    code, out, err = invoke(capsys, "report", "--spec", PRISM)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["genfun"] == row
    assert report["compare"]["all_equal"] is True


@pytest.mark.parametrize("section", ["asymptotics", "genfun"])
def test_report_fails_on_a_bug_in_a_section_it_keeps_refusals_in(capsys, monkeypatch, section):
    # a refusal becomes the section's error object; an InvariantViolation is
    # a bug, so report exits 2 as an internal error; asymptotics takes the
    # report's count rows
    def failing(spec, args, counts=None):
        raise InvariantViolation("no answer")

    monkeypatch.setattr(f"bforest.cli._cmd_{section}", failing)
    assert invoke(capsys, "report", "--spec", PRISM) == (2, "", "internal error: no answer\n")


BIG = '{"n":16,"alphas":[1,3,5],"betas":[2,7],"gammas":[0,1,4]}'
SMALL_D13 = '{"n":10,"alphas":[1,2],"betas":[4],"gammas":[2,9],"half_r":true}'


@pytest.mark.parametrize(
    "command,spec,bound",
    [("genfun", BIG, 354294), ("genfun", SMALL_D13, 3188646), ("report", SMALL_D13, 3188646)],
    ids=["genfun-big", "genfun-d13", "report-d13"],
)
def test_genfun_refuses_an_order_over_the_cap_at_the_first_prime(capsys, command, spec, bound):
    # 258 terms each: the order modulo the first prime, over the default cap
    # of 128, settles the refusal before any CRT
    code, out, err = invoke(capsys, command, "--spec", spec)
    if command == "report":
        # the refusal is the genfun section's error object; the other four stand
        assert (code, err) == (0, "")
        doc = json.loads(out)
        with open(SCHEMA_PATH, encoding="utf-8") as fh:
            jsonschema.validate(doc, json.load(fh))
        assert doc["asymptotics"]["convergence"][0]["tau"] == doc["compare"]["rows"][0]["closed"]
        assert doc["genfun"]["error_type"] == "OrderExceeded"
        err = doc["genfun"]["error"]
    else:
        assert (code, out) == (2, "")
        assert err.startswith("OrderExceeded: ")
    assert "L_p = 129" in err and "cap 128" in err and f"bounds the order by {bound}" in err


@pytest.mark.parametrize("command", ["genfun", "report"])
@pytest.mark.parametrize("max_order", ["0", "-1"])
def test_max_order_below_one_is_a_spec_error(capsys, command, max_order):
    code, out, err = invoke(capsys, command, "--spec", PRISM, "--max-order", max_order)
    assert (code, out) == (1, "")
    assert "invalid spec" in err and "--max-order" in err


ORDER_486 = '{"n":4,"alphas":[1],"betas":[],"gammas":[0,2,3],"half_r":true}'


def test_max_order_above_the_cap_is_a_spec_error_before_any_count(capsys, monkeypatch):
    # the cap, 512, admits every spectral bound 2 3^D with D <= 5, such as
    # this spec's 486; above it genfun and report refuse before they count
    code, out, _ = invoke(capsys, "genfun", "--spec", ORDER_486, "--max-order", "512")
    assert code == 0 and len(json.loads(out)["recurrence"]) == 487

    def no_count(*args):
        raise AssertionError("counted before the refusal")

    monkeypatch.setattr("bforest.cli.closed_counts", no_count)
    monkeypatch.setattr("bforest.cli.count_rows", no_count)
    refusal = "invalid spec: --max-order must be between 1 and 512, got 513\n"
    for command in ("genfun", "report"):
        assert invoke(capsys, command, "--spec", ORDER_486, "--max-order", "513") == (1, "", refusal)


@pytest.mark.parametrize("orders", [(), ("--n-start", "3", "--n-end", "5")], ids=["own-n", "range"])
@pytest.mark.parametrize("step", ["0", "-1"])
def test_step_below_one_is_a_spec_error(capsys, step, orders):
    # refused with or without an n-range, before the spec is read
    code, out, err = invoke(capsys, "count", "--spec", PRISM, "--step", step, *orders)
    assert (code, out) == (1, "")
    assert err == f"invalid spec: --step must be positive, got {step}\n"


def test_help_lists_every_command_with_its_help_text(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^  (\w+) +(\S.*)$", out.split("\ncommands:\n")[1], re.M)
    assert listed == [(name, text) for name, (_, text) in bforest.cli._COMMANDS.items()]
    assert len(listed) == 8


def test_flags_parse_the_same_before_and_after_the_command(capsys):
    flags = ("--spec", FAM2, "--n-start", "4", "--n-end", "8", "--step", "2", "--format", "csv")
    after = invoke(capsys, "count", *flags)
    assert after[0] == 0 and invoke(capsys, *flags, "count") == after
    assert invoke(capsys, *flags[:4], "count", *flags[4:]) == after


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", "--spec", PRISM])
    assert exc.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_arithmetic_rows(capsys):
    code, out, _ = invoke(capsys, "arithmetic", "--spec", PRISM, "--n-start", "3", "--n-end", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["structure_even"] == 6
    assert doc["rows"][0]["witness"] == 5
    assert doc["rows"][1]["witness"] == 4


def test_asymptotics_values(capsys):
    code, out, _ = invoke(capsys, "asymptotics", "--spec", FAM4)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["measure"]["root_product"]["value"] - 13.32455532) < 1e-7
    assert abs(doc["measure"]["quadrature"]["value"] - 13.32455532) < 1e-3


def test_genfun_verdict(capsys):
    code, out, _ = invoke(capsys, "genfun", "--spec", FAM2, "--max-order", "11")
    assert code == 0
    doc = json.loads(out)
    assert doc["generating_function"]["order"] == 6
    assert doc["symmetry"] is True
    assert abs(doc["value_at_0.1"] - 0.612573) < 1e-5


def test_csv_and_text_formats(capsys):
    code, out, _ = invoke(
        capsys, "count", "--spec", PRISM, "--n-start", "3", "--n-end", "4", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,tau", "3,75", "4,384"]
    code, out, _ = invoke(capsys, "validate", "--spec", PRISM, "--format", "text")
    assert code == 0
    assert "family: 1" in out


def test_csv_rejected_for_non_tabular(capsys, monkeypatch):
    # refused before the command runs, not after a whole report
    def never(spec, args):
        raise AssertionError("the command ran before --format csv was refused")

    for name in ("validate", "genfun", "report"):
        monkeypatch.setitem(bforest.cli._COMMANDS, name, (never, bforest.cli._COMMANDS[name][1]))
        code, out, err = invoke(capsys, name, "--spec", PRISM, "--format", "csv", "--max-order", "11")
        assert (code, out) == (1, "")
        assert "--format csv" in err and name in err, name


def test_spec_from_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(PRISM)
    code, out, _ = invoke(capsys, "count", "--spec", str(path))
    assert code == 0
    assert json.loads(out)["rows"] == [{"n": 3, "tau": 75}]


def test_spec_file_that_cannot_be_read_is_a_spec_error(tmp_path, capsys):
    missing, broken = tmp_path / "missing.json", tmp_path / "broken.json"
    broken.write_text('{"n": 3,')
    for path, message in [
        (missing, "--spec is neither inline JSON nor a readable file"),
        (broken, f"spec file {str(broken)!r} is not valid JSON"),
    ]:
        code, out, err = invoke(capsys, "count", "--spec", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"invalid spec: {message}: "), err


def test_empty_n_range_is_a_spec_error(capsys):
    code, out, err = invoke(capsys, "count", "--spec", PRISM, "--n-start", "10", "--n-end", "3")
    assert (code, out, err) == (1, "", "invalid spec: empty n-range 10..3 step 1\n")


@pytest.mark.parametrize("command", ["count", "oracle", "report"])
def test_n_range_over_the_cap_is_refused_before_its_list(capsys, monkeypatch, command):
    # one order over the cap, and 10^5 orders between ends past 10^30: the
    # refusal names the cap and comes before the range becomes a list
    def no_list(values):
        raise AssertionError("the n-range was listed")

    monkeypatch.setattr(bforest.cli, "list", no_list, raising=False)
    cap = bforest.cli._MAX_N_VALUES
    for start, end, step in [(1, cap + 1, 1), (1, 10**30, 10**25)]:
        begin = time.perf_counter()
        code, out, err = invoke(
            capsys, command, "--spec", PRISM, "--n-start", str(start), "--n-end", str(end), "--step", str(step)
        )
        assert time.perf_counter() - begin < 0.2
        assert (code, out) == (1, "")
        assert err == f"invalid spec: n-range {start}..{end} step {step} holds more than {cap} orders\n"


def test_precision_floor(capsys):
    code, _, err = invoke(capsys, "asymptotics", "--spec", PRISM, "--precision", "8")
    assert code == 1
    assert "precision" in err


def test_precision_defaults_to_64(capsys):
    _, default, _ = invoke(capsys, "asymptotics", "--spec", PRISM)
    _, at_64, _ = invoke(capsys, "asymptotics", "--spec", PRISM, "--precision", "64")
    _, at_32, _ = invoke(capsys, "asymptotics", "--spec", PRISM, "--precision", "32")
    assert default == at_64 != at_32


def test_json_output_is_byte_deterministic(capsys):
    args = ("report", "--spec", FAM2, "--n-start", "4", "--n-end", "10", "--step", "2",
            "--max-order", "11")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second
    _, parallel, _ = invoke(capsys, *args, "--jobs", "3")
    assert parallel == first


def test_report_validates_against_shipped_schema(capsys):
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.Draft202012Validator.check_schema(schema)
    code, out, _ = invoke(
        capsys, "report", "--spec", PRISM, "--n-start", "3", "--n-end", "6", "--max-order", "11"
    )
    assert code == 0
    jsonschema.validate(json.loads(out), schema)
    # error rows in every table, the convergence table included
    code, out, _ = invoke(
        capsys, "report", "--spec", FAM2, "--n-start", "4", "--n-end", "5", "--max-order", "11"
    )
    assert code == 0
    doc = json.loads(out)
    assert "error" in doc["asymptotics"]["convergence"][1]
    jsonschema.validate(doc, schema)
    # error rows for orders n <= 0
    code, out, _ = invoke(
        capsys, "report", "--spec", PRISM, "--n-start", "-1", "--n-end", "3", "--max-order", "11"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["compare"]["rows"][1] == {
        "n": 0,
        "error": "group order must be positive, got 0",
        "error_type": "OutOfRange",
    }
    jsonschema.validate(doc, schema)


def strict_json(text):
    """``json.loads`` that refuses the non-JSON tokens Infinity, -Infinity and NaN."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "spec,start,end,first_null", [(PRISM, 530, 545, 535), (BIG, 180, 191, 183)], ids=["prism", "big"]
)
def test_predictions_past_the_float_range_print_as_null(capsys, monkeypatch, spec, start, end, first_null):
    # the prediction is the same float while it fits one, null past about
    # 1.8e308, in text output too; tau, ratio and deviation are computed
    # exactly or in decimal and stay finite.  The oracle's 360-vertex
    # eliminations on big take seconds and give the closed counts, which
    # compare checks elsewhere
    monkeypatch.setattr("bforest.cli.tree_count_oracle", lambda sp: tree_count_closed(sp).tau)
    orders = ("--n-start", str(start), "--n-end", str(end))
    _, out, _ = invoke(capsys, "count", "--spec", spec, *orders)
    taus = {row["n"]: row["tau"] for row in strict_json(out)["rows"]}
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        schema = json.load(fh)
    for command in ("asymptotics", "report"):
        code, out, err = invoke(capsys, command, "--spec", spec, *orders)
        assert (code, err) == (0, ""), command
        doc = strict_json(out)
        rows = doc["convergence"] if command == "asymptotics" else doc["asymptotics"]["convergence"]
        assert [row["n"] for row in rows if row["prediction"] is None] == list(range(first_null, end + 1))
        for row in rows:
            assert row["tau"] == taus[row["n"]]
            assert 0 <= row["deviation"] < 1e-15 and abs(row["ratio"] - 1) <= row["deviation"] + 2**-52
            if row["prediction"] is not None:
                assert row["prediction"] == pytest.approx(row["ratio"] * row["tau"], rel=1e-15)
        if command == "report":
            jsonschema.validate(doc, schema)
    _, out, _ = invoke(capsys, "asymptotics", "--spec", spec, *orders, "--format", "text")
    cells = [dict(cell.split("=") for cell in line.split()) for line in out.splitlines() if "prediction=" in line]
    assert [int(row["n"]) for row in cells if row["prediction"] == "null"] == list(range(first_null, end + 1))
    assert "None" not in out


def test_text_output_writes_values_as_json_does(capsys):
    # null, true and false as the JSON output writes them, not Python's
    # reprs, in lists too; numbers as before, and strings bare
    text = bforest.cli._text
    assert (text(None), text(True), text(False), text([True, False])) == ("null", "true", "false", "[true, false]")
    assert (text(1), text(0), text(0.5), text([1, -2]), text("a b")) == ("1", "0", "0.5", "[1, -2]", "a b")
    code, out, _ = invoke(capsys, "compare", "--spec", PRISM, "--format", "text")
    assert code == 0 and "all_equal: true" in out and "equal=true" in out
    code, out, _ = invoke(capsys, "validate", "--spec", PRISM, "--format", "text")
    assert code == 0 and "gcd_flags: [true, true, false]" in out and "connected: true" in out


def test_successive_runs_share_one_parser_and_keep_their_own_flags(capsys):
    # the parser is built once per process; each call still reads only its own argv
    bforest.cli._build_parser.cache_clear()
    first = invoke(capsys, "count", "--spec", PRISM, "--n-start", "3", "--n-end", "4", "--format", "csv")
    second = invoke(capsys, "count", "--spec", PRISM)
    third = invoke(capsys, "validate", "--spec", PRISM, "--format", "text")
    assert first == (0, "n,tau\n3,75\n4,384\n", "")
    assert second[0] == 0 and json.loads(second[1]) == {"rows": [{"n": 3, "tau": 75}]}
    assert third[0] == 0 and "family: 1" in third[1]
    assert bforest.cli._build_parser.cache_info().misses == 1


def test_precision_capped_at_the_measure_limit(capsys):
    code, _, err = invoke(capsys, "asymptotics", "--spec", PRISM, "--precision", "257")
    assert code == 1
    assert "256" in err
    code, out, _ = invoke(capsys, "count", "--spec", PRISM, "--precision", "256")
    assert code == 0
    assert json.loads(out)["rows"] == [{"n": 3, "tau": 75}]


def test_jobs_runs_rows_in_the_calling_process(capsys, monkeypatch):
    # --jobs still parses but starts no process, and changes no output
    import concurrent.futures
    import multiprocessing.process

    def refuse(*args, **kwargs):
        raise AssertionError("started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)  # every Process class
    for command in ("count", "compare", "arithmetic", "report"):
        args = (command, "--spec", PRISM, "--n-end", "6", "--max-order", "11")
        _, serial, _ = invoke(capsys, *args, "--jobs", "1")
        code, out, _ = invoke(capsys, *args, "--jobs", "64")
        assert (code, out) == (0, serial)


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_oracle_rows_report_the_size_cap(capsys, monkeypatch, command):
    from bforest import matrixtree

    def refuse(spec):
        raise AssertionError("the oracle realized a graph above its cap")

    monkeypatch.setattr(matrixtree, "realize", refuse)
    n = matrixtree.MAX_ORACLE_VERTICES // 2 + 1
    code, out, _ = invoke(capsys, command, "--spec", PRISM, "--n-start", str(n))
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["n"] == n and "vertices" in row["error"]


PRISM_7600 = '{"n":7600,"alphas":[1],"betas":[1],"gammas":[0]}'


def test_answers_past_the_int_digit_limit_print_in_every_format(capsys):
    # tau at n = 7600 has more decimal digits than str(int) converts by
    # default (4300); run lifts the limit only while it writes its output
    limit = sys.get_int_max_str_digits()
    outs = {}
    for fmt in ("json", "csv", "text"):
        status, outs[fmt], err = invoke(capsys, "count", "--spec", PRISM_7600, "--format", fmt)
        assert (status, err, sys.get_int_max_str_digits()) == (0, "", limit), fmt
    # refusals before and after the command ran leave it as they found it
    assert invoke(capsys, "genfun", "--spec", PRISM, "--format", "csv")[0] == 1
    assert invoke(capsys, "genfun", "--spec", PRISM, "--max-order", "3")[0] == 2
    assert sys.get_int_max_str_digits() == limit
    tau = tree_count_closed(validate_spec(json.loads(PRISM_7600))).tau
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(tau)) > 4300
        assert json.loads(outs["json"]) == {"rows": [{"n": 7600, "tau": tau}]}
        assert outs["csv"] == f"n,tau\n7600,{tau}\n"
        assert outs["text"] == f"rows:\n  n=7600 tau={tau}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_report_builds_few_tables_and_counts_each_order_once(capsys, monkeypatch):
    # bench report-cli's first argv: 13 orders and 14 genfun terms, one fold
    # each; compare, arithmetic and the convergence rows reuse the counts
    calls = {"tables": 0, "folds": 0}
    counting = bforest.counting
    post_init, fold = counting.SpectralSystem.__post_init__, counting._fold

    def counted_post_init(self):
        calls["tables"] += 1
        post_init(self)

    def counted_fold(*args):
        calls["folds"] += 1
        return fold(*args)

    monkeypatch.setattr(counting.SpectralSystem, "__post_init__", counted_post_init)
    monkeypatch.setattr(counting, "_fold", counted_fold)
    assert invoke(capsys, "report", "--spec", PRISM, "--n-end", "39", "--step", "3")[0] == 0
    assert calls["tables"] <= 5
    assert calls["folds"] == 13 + 14


def test_bench_report_calls_exit_0_with_their_reference_answers(monkeypatch):
    # bench/worker.py runs each report-cli case through run() with its argv
    # and --jobs 2, and checks the answer against bench/references.json; a
    # change that breaks that call fails here, before any bench run
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "bench"))
    worker = importlib.import_module("worker")
    workloads, references = worker.workloads, worker.load_references()["report-cli"]
    tasks = worker.prepare(workloads.plan(workloads.WORKLOADS["report-cli"], seed=1))
    assert len(tasks) == 2 and worker.CLI_JOBS == "2"
    for task, spec in tasks:
        worker.check(worker.answer_of(worker._report(spec, task.case)), references.get(task.id))
