"""Golden CLI outputs: one spec per family, recorded before the counting,
arithmetic, genfun and Mahler paths became folds over the factor table.

Exact outputs (count, arithmetic, genfun JSON) are pinned by sha256; the
asymptotics floats are pinned value by value.  The root-product error bound
is left out: it is an a-posteriori bound that depends on the iteration path.
Tree counts at orders past the oracle's reach are pinned by the sha256 of
their hex form, recorded before the exact count moved from resultants in z
to resultants over x = z + 1/z.
"""

import hashlib
import json

import pytest

from bforest import tree_count_closed, validate_spec
from bforest.cli import run

SPECS = {
    1: ('{"n":3,"alphas":[1],"betas":[1],"gammas":[0]}', ("--n-start", "3", "--n-end", "8")),
    2: (
        '{"n":4,"alphas":[1],"betas":[],"gammas":[0],"half_r":true}',
        ("--n-start", "4", "--n-end", "12", "--step", "2"),
    ),
    3: (
        '{"n":4,"alphas":[1],"betas":[],"gammas":[0],"half_t":true}',
        ("--n-start", "4", "--n-end", "12", "--step", "2"),
    ),
    4: (
        '{"n":4,"alphas":[1],"betas":[],"gammas":[0],"half_r":true,"half_t":true}',
        ("--n-start", "4", "--n-end", "12", "--step", "2"),
    ),
}

DIGESTS = {
    "1:count": "940a4fbe590be224fb017992fecc15a56d27bfb78b24b6003b9367b977fe8cd8",
    "1:arithmetic": "966665b5ac2b171cf310f57261ff9129542825ce34a8779f3de01e9731b7ee0d",
    "1:genfun": "f5245b6fa2ab419a1c608ab2ac70644104e9496702ffbc63b18a049e4d87a5eb",
    "2:count": "f8b61ce06c89a34b25a73fc15f7f8f4e1e2e796a256c71157c1fdaf921649348",
    "2:arithmetic": "d015c7853b9afe878bc548092c8c55b5cb2ee056a0209c22367ec4e5ed67ab08",
    "2:genfun": "8a16ab853c1f865426ad360ffc2ce8d7c28b0df3462788d398f1d3e1df818f8b",
    "3:count": "43f0a243314482381faefa34d54dd0eab0b44da89166910f6c823f8afe2724dc",
    "3:arithmetic": "d75b20c7bc68e49ccdad03b1df165afd7c58671f70202daff114daa0c6c8a408",
    "3:genfun": "96c2e99d2c4e44dac32b1a15571584e5e0403d41be100a2dc1de9fc4419b5229",
    "4:count": "868eca2962df7292b2218a92f1390af1f2b2a8cccc1a6ca00cc4c4cbe03cfebb",
    "4:arithmetic": "a495b337b258f2d5211c72ba6eba1f97330907fe032245ae8eed71ade8ca8b07",
    "4:genfun": "7f84e95d429a581188c2f4c722884b01d59c5d171ed219b49f34729c60da7136",
}

# root-product value, quadrature value and error bound, then
# (prediction, ratio, deviation) per convergence row; the quadrature pair was
# re-recorded when the factors x -+ 2 came to be summed in closed form and the
# rest on 2048 points, within 4e-16 of the exact midpoint sum on 2^20 points
ASYMPTOTICS = {
    1: [
        3.732050807568877, 3.7320557416169677, 1.917071418371316e-05,
        (77.97114317029974, 1.0396152422706633, 0.03961524227066319),
        (387.9896904477143, 1.010389818874256, 0.010389818874255878),
        (1809.9965469547383, 1.0027681700580269, 0.0027681700580268064),
        (8105.9988897111725, 1.000740603668046, 0.0007406036680460329),
        (35293.9996529155, 1.000198363502579, 0.0001983635025790321),
        (150535.99989371313, 1.0000531455524098, 5.314555240972887e-05),
    ],
    2: [
        3.732050807568877, 3.7320557416169677, 1.917071418371316e-05,
        (13.928203230275509, 0.8705127018922193, 0.12948729810778067),
        (77.97114317029974, 0.9626067058061696, 0.03739329419383038),
        (387.9896904477143, 0.989769618489067, 0.010230381510933018),
        (1809.9965469547383, 0.9972432765590845, 0.00275672344091549),
        (8105.9988897111725, 0.9992602181596614, 0.0007397818403386506),
    ],
    3: [
        6.645751311064591, 6.645760097240947, 3.41377450333934e-05,
        (44.166010488516726, 0.6900939138830738, 0.30990608611692616),
        (440.27448316282874, 0.8386180631672928, 0.16138193683270718),
        (3901.2729649435387, 0.9218508896369421, 0.07814911036305797),
        (32408.612401992956, 0.9635383499923579, 0.03646165000764216),
        (258455.4940323946, 0.9832887982118738, 0.0167112017881262),
    ],
    4: [
        13.324555320336758, 13.324572936387595, 6.84452744223735e-05,
        (177.54377448471462, 0.9058355841056869, 0.09416441589431315),
        (3548.537767354461, 0.9775586135962702, 0.022441386403729807),
        (63043.5837165584, 0.9948804399153895, 0.0051195600846104476),
        (1050034.648529455, 0.9988438987200525, 0.0011561012799475114),
        (16789493.71512131, 0.9997395308288304, 0.0002604691711695882),
    ],
}

BIG = {"alphas": [1, 3, 5], "betas": [2, 7], "gammas": [0, 1, 4]}  # degree-22 reduced base
LARGE_ORDER_SPECS = {
    "big": BIG,
    "big-family4": {**BIG, "half_r": True, "half_t": True},
    "prism": {"alphas": [1], "betas": [1], "gammas": [0]},
    "family4": {"alphas": [1], "betas": [], "gammas": [0], "half_r": True, "half_t": True},
}
LARGE_ORDER_DIGESTS = {
    ("big", 1000): "6b69d049305c915741a17e93d73243f82c3f1496e6ad2c51f702c691532113a0",
    ("big", 2000): "a81ea15a9d696635ab0117fe8b6b2ebb8bb6d433fc10b0880972fb28eb1452ea",
    ("big-family4", 2000): "fe22fb155617bd879e6393a378bb61ecd433693dc9b6564cf8fb245d46cc773f",
    ("prism", 40000): "99e980ba171258c4c38a6fc5b4255a8396e61ff3af81fbbe319bb4e088cedb4e",
    ("family4", 40000): "b0df97491bee5942aeb4a041380ee71b233a06afc336e669870485e7c6a6375d",
}


def stdout_of(capsys, *argv) -> str:
    assert run(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("family", sorted(SPECS))
@pytest.mark.parametrize("command", ["count", "arithmetic", "genfun"])
def test_exact_outputs_match_golden_digest(capsys, family, command):
    spec, orders = SPECS[family]
    out = stdout_of(capsys, command, "--spec", spec, *orders, "--max-order", "11")
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[f"{family}:{command}"]


@pytest.mark.parametrize("family", sorted(SPECS))
def test_asymptotics_match_golden_values(capsys, family):
    spec, orders = SPECS[family]
    doc = json.loads(stdout_of(capsys, "asymptotics", "--spec", spec, *orders))
    measure = doc["measure"]
    got = [
        measure["root_product"]["value"],
        measure["quadrature"]["value"],
        measure["quadrature"]["error_bound"],
    ] + [(r["prediction"], r["ratio"], r["deviation"]) for r in doc["convergence"]]
    # the quadrature's log and exp are the platform's libm, so allow for its last place
    assert got[:2] == [ASYMPTOTICS[family][0], pytest.approx(ASYMPTOTICS[family][1], rel=1e-13)]
    assert got[2] == pytest.approx(ASYMPTOTICS[family][2], rel=1e-6)
    assert got[3:] == ASYMPTOTICS[family][3:]


@pytest.mark.parametrize("label,n", sorted(LARGE_ORDER_DIGESTS))
def test_large_order_counts_match_golden_digest(label, n):
    tau = tree_count_closed(validate_spec({**LARGE_ORDER_SPECS[label], "n": n})).tau
    assert hashlib.sha256(hex(tau).encode()).hexdigest() == LARGE_ORDER_DIGESTS[label, n]
