"""Spec validation, family classification, realization and connectivity."""

import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bforest import (
    HalfWithoutEvenN,
    OutOfRange,
    SpecError,
    check_connectivity,
    is_connected,
    realize,
    validate_spec,
)
from tests.conftest import connected_by_search, random_connected_specs


@st.composite
def any_specs(draw):
    """Valid specs of every family, n in 1..40, zero spokes allowed."""
    half_r, half_t = draw(st.booleans()), draw(st.booleans())
    n = draw(st.integers(1, 40))
    if (half_r or half_t) and n % 2:
        n += 1
    top = (n - 1) // 2
    generators = st.lists(st.integers(1, top), max_size=3) if top else st.just([])
    return validate_spec(
        {
            "n": n,
            "alphas": draw(generators),
            "betas": draw(generators),
            "gammas": draw(st.lists(st.integers(0, n - 1), max_size=4)),
            "half_r": half_r,
            "half_t": half_t,
        }
    )


def test_normalization_sorts_and_dedupes():
    spec = validate_spec({"n": 10, "alphas": [3, 1, 3], "betas": [4, 2], "gammas": [7, 0, 7]})
    assert spec.alphas == (1, 3)
    assert spec.betas == (2, 4)
    assert spec.gammas == (0, 7)
    assert (spec.r, spec.t, spec.s) == (2, 2, 2)


def test_half_flags_classify_families():
    base = {"n": 6, "alphas": [1], "betas": [1], "gammas": [0]}
    assert validate_spec(base).family == 1
    assert validate_spec({**base, "half_r": True}).family == 2
    assert validate_spec({**base, "half_t": True}).family == 3
    assert validate_spec({**base, "half_r": True, "half_t": True}).family == 4


def test_half_flag_requires_even_order():
    with pytest.raises(HalfWithoutEvenN):
        validate_spec({"n": 5, "alphas": [1], "betas": [], "gammas": [0], "half_r": True})


def test_range_checks():
    with pytest.raises(OutOfRange):
        validate_spec({"n": 6, "alphas": [3], "betas": [], "gammas": [0]})  # 3 = n/2
    with pytest.raises(OutOfRange):
        validate_spec({"n": 6, "alphas": [1], "betas": [], "gammas": [6]})
    with pytest.raises(OutOfRange):
        validate_spec({"n": 0, "alphas": [], "betas": [], "gammas": [0]})
    with pytest.raises(SpecError):
        validate_spec(["not", "a", "mapping"])


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 12.7),
        ("n", "12"),
        ("alphas", [1.9]),
        ("gammas", ["0"]),
        ("half_r", "false"),
        ("half_t", 1),
        ("n", True),
        ("alphas", [True]),
        ("n", None),
        ("n", float("inf")),
        ("n", float("nan")),
        ("gammas", 3),
        ("gammas", [None]),
    ],
)
def test_validation_neither_truncates_nor_coerces(field, value):
    with pytest.raises(SpecError):
        validate_spec({"n": 12, "alphas": [1], "gammas": [0], field: value})


def test_validation_refuses_unknown_keys():
    # "alpha" for "alphas" once counted the graph without the layer: 5 trees, not 1805
    with pytest.raises(SpecError, match=r"unknown keys \['alpha', 'n_start'\]"):
        validate_spec({"n": 5, "alpha": [1], "betas": [1], "gammas": [0], "n_start": 3})
    spec = validate_spec({"n": 5, "alphas": [1], "betas": [1], "gammas": [0]})
    assert validate_spec(spec.to_dict()) == spec


@pytest.mark.parametrize(
    "change, error",
    [
        ({"n": 0}, OutOfRange),
        ({"n": 2}, OutOfRange),  # alpha = 1 reaches n/2
        ({"n": 7}, HalfWithoutEvenN),
        ({"betas": (3,)}, OutOfRange),
        ({"gammas": (6,)}, OutOfRange),
    ],
)
def test_a_spec_checks_itself(change, error):
    # the checks are the spec's own, so replace() cannot build an invalid one
    spec = validate_spec({"n": 6, "alphas": [1], "gammas": [0], "half_r": True})
    assert validate_spec(spec) is spec
    with pytest.raises(error):
        dataclasses.replace(spec, **change)


def test_validation_refuses_a_spec_without_an_order():
    with pytest.raises(SpecError, match="missing group order n"):
        validate_spec({"alphas": [1], "gammas": [0]})


def test_validation_refuses_a_bool_order():
    # True == 1, and n = 1 is a valid order for this spec: it once read as one
    with pytest.raises(SpecError, match="must be an integer"):
        validate_spec({"n": True, "gammas": [0]})


def test_validation_takes_integral_floats_as_integers():
    spec = validate_spec({"n": 12.0, "alphas": [1.0], "gammas": [0]})
    assert (spec.n, spec.alphas) == (12, (1,)) and type(spec.n) is int


def test_connected_requires_spokes():
    # a spec without spokes is valid input, but its two layers never meet
    spec = validate_spec({"n": 4, "alphas": [1], "betas": [1], "gammas": []})
    assert spec.s == 0
    assert not is_connected(spec)


def test_json_round_trip():
    spec = validate_spec({"n": 8, "alphas": [1, 2], "betas": [3], "gammas": [0, 5], "half_t": True})
    again = validate_spec(json.loads(spec.to_json()))
    assert again == spec


def test_realize_prism_is_cubic():
    spec = validate_spec({"n": 3, "alphas": [1], "betas": [1], "gammas": [0]})
    neighbours = realize(spec)
    assert len(neighbours) == 6
    assert all(v in neighbours[w] for v, adjacent in enumerate(neighbours) for w in adjacent)
    assert [len(adjacent) for adjacent in neighbours] == [3] * 6
    assert all(v not in adjacent for v, adjacent in enumerate(neighbours))


def test_realize_half_generator_adds_matching():
    spec = validate_spec({"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_r": True})
    neighbours = realize(spec)
    assert 2 in neighbours[0] and 3 in neighbours[1]  # the n/2 chords on the right
    assert all(w < 4 for adjacent in neighbours[4:] for w in adjacent)  # no left-layer edges


def test_realize_gives_sorted_symmetric_lists_of_the_layer_degrees():
    for spec in random_connected_specs(200, seed=15, n_max=30, r_max=3, t_max=3, s_max=4):
        neighbours = realize(spec)
        n = spec.n
        assert len(neighbours) == 2 * n
        for v, adjacent in enumerate(neighbours):
            assert adjacent == sorted(set(adjacent)) and v not in adjacent, spec
            assert all(v in neighbours[w] for w in adjacent), spec
        assert {len(adjacent) for adjacent in neighbours[:n]} == {2 * spec.r + spec.half_r + spec.s}
        assert {len(adjacent) for adjacent in neighbours[n:]} == {2 * spec.t + spec.half_t + spec.s}


def test_gcd_flags_imply_search_connectivity():
    spec = validate_spec({"n": 9, "alphas": [1], "betas": [2], "gammas": [0, 1]})
    report = check_connectivity(spec)
    assert all(report["gcd_flags"])
    assert report["connected"]


def test_single_spoke_difference_condition_is_false():
    spec = validate_spec({"n": 5, "alphas": [1], "betas": [1], "gammas": [0]})
    report = check_connectivity(spec)
    assert report["gcd_flags"][2] is False
    assert report["connected"]


def test_gcd_flags_follow_their_pairwise_definition():
    specs = random_connected_specs(200, seed=16, n_max=30, r_max=3, t_max=3, s_max=4)
    for spec in specs + [dataclasses.replace(sp, gammas=sp.gammas[:k]) for sp in specs[:50] for k in (0, 1)]:
        pairs = [gl - gk for i, gl in enumerate(spec.gammas) for gk in spec.gammas[:i]]
        flags = (
            spec.s > 0 and math.gcd(spec.n, *spec.alphas) == 1,
            spec.s > 0 and math.gcd(spec.n, *spec.betas) == 1,
            bool(pairs) and math.gcd(spec.n, *pairs) == 1,
        )
        assert check_connectivity(spec)["gcd_flags"] == flags, spec


def test_disconnected_layers():
    # steps of 2 on both layers of an even cycle with parity-preserving spokes
    spec = validate_spec({"n": 8, "alphas": [2], "betas": [2], "gammas": [0]})
    assert not is_connected(spec)
    assert spec.family == 1


@given(any_specs())
@example(validate_spec({"n": 1, "alphas": [], "betas": [], "gammas": []}))
@example(validate_spec({"n": 1, "alphas": [], "betas": [], "gammas": [0]}))
# the n/2 chord does not join the parity classes of steps of 2; an odd spoke
# difference does
@example(validate_spec({"n": 8, "alphas": [2], "betas": [2], "gammas": [0], "half_r": True}))
@example(validate_spec({"n": 8, "alphas": [2], "betas": [2], "gammas": [0, 1], "half_r": True}))
@settings(max_examples=400, deadline=None)
def test_arithmetic_connectivity_matches_search(spec):
    truth = connected_by_search(spec)
    assert is_connected(spec) == truth
    assert check_connectivity(spec)["connected"] == truth
