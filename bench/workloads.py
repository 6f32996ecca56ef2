"""The four benchmark workloads as plain data, and the seeded plan of one pass.

Each workload is a fixed list of cases, built so that one layer of bforest
does most of the work:

* ``count-large-n`` -- ``tree_count_closed`` at large n, where the dense
  connectivity check (graphs) dominates and the n = 4e4 cases exhaust the
  worker's address-space cap at the seed;
* ``count-high-degree`` -- ``tree_count_closed`` on the degree-22 "big" spec,
  where the integer resultant (polynomials) dominates;
* ``report-cli`` -- the ``bforest report`` command in-process, where Aberth
  root finding for the asymptotics dominates;
* ``oracle-genfun`` -- the Bareiss matrix-tree oracle against the closed form,
  and Berlekamp-Massey recovery of an order-54 recurrence.

This module imports nothing from bforest, so the harness can read the
workload names without loading the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PRISM = {"alphas": [1], "betas": [1], "gammas": [0]}
FAMILIES = {
    1: PRISM,
    2: {"alphas": [1], "betas": [], "gammas": [0], "half_r": True},
    3: {"alphas": [1], "betas": [], "gammas": [0], "half_t": True},
    4: {"alphas": [1], "betas": [], "gammas": [0], "half_r": True, "half_t": True},
}
# reduced base of degree 22
BIG = {"alphas": [1, 3, 5], "betas": [2, 7], "gammas": [0, 1, 4]}
BIG_FAMILY4 = {**BIG, "half_r": True, "half_t": True}
# family 4 with two spokes; its tree counts obey a recurrence of order 54
TWO_SPOKE = {"alphas": [1], "betas": [1], "gammas": [0, 1], "half_r": True, "half_t": True}


@dataclass(frozen=True)
class Case:
    """One task of a workload.

    ``kind`` selects the runner: ``count`` (closed form at order n),
    ``oracle`` (oracle, closed form and square witness at order n),
    ``genfun`` (``terms`` sequence terms, recurrence, generating function,
    symmetry) or ``report`` (``bforest report`` with ``argv`` over n-range
    starting at n).
    """

    kind: str
    label: str
    spec: dict
    n: int
    terms: int = 0
    max_order: int = 0
    argv: tuple[str, ...] = ()

    @property
    def id(self) -> str:
        return f"{self.kind}:{self.label}@{self.n}"


@dataclass(frozen=True)
class Task:
    """A case with its spokes relabelled by ``shift``: an isomorphic graph."""

    case: Case
    shift: int

    @property
    def id(self) -> str:
        return self.case.id

    def spec(self) -> dict:
        return {
            **self.case.spec,
            "n": self.case.n,
            "gammas": [g + self.shift for g in self.case.spec["gammas"]],
        }


WORKLOADS: dict[str, tuple[Case, ...]] = {
    "count-large-n": tuple(
        [Case("count", "prism", PRISM, n) for n in (2500, 5000, 40000)]
        + [
            Case("count", f"family{k}", FAMILIES[k], n)
            for k in (2, 3, 4)
            for n in (5000, 40000)
        ]
    ),
    "count-high-degree": (
        Case("count", "big", BIG, 1000),
        Case("count", "big", BIG, 2000),
        Case("count", "big-family4", BIG_FAMILY4, 2000),
    ),
    "report-cli": (
        Case("report", "prism", PRISM, 3, argv=("--n-end", "39", "--step", "3")),
        Case(
            "report",
            "two-spoke-family4",
            TWO_SPOKE,
            4,
            argv=("--n-end", "8", "--step", "4", "--max-order", "64"),
        ),
    ),
    "oracle-genfun": tuple(
        [Case("oracle", f"family{k}", FAMILIES[k], n) for k in (1, 2, 3, 4) for n in (60, 100)]
        + [Case("genfun", "two-spoke-family4", TWO_SPOKE, 4, terms=130, max_order=64)]
    ),
}

# A small cap keeps the spoke polynomial, of degree max(gammas) + shift, short.
_MAX_SHIFT = 8


def plan(cases: tuple[Case, ...], seed: int) -> list[Task]:
    """The tasks of one pass: the cases in order, with seeded spoke shifts.

    Adding ``c`` to every spoke offset relabels the left layer, so the graph,
    and every answer the references hold, stays the same.  The shift keeps
    every offset below the smallest order the case realizes (its ``n``).
    The order stays fixed because peak memory depends on it.  Oracle cases
    keep their labelling: Bareiss elimination pivots in vertex order, so a
    relabelling changes its cost (by up to a fifth at n = 100).
    """
    rng = random.Random(seed)
    tasks = []
    for case in cases:
        shift = rng.randrange(min(_MAX_SHIFT, case.n - max(case.spec["gammas"])))
        tasks.append(Task(case, 0 if case.kind == "oracle" else shift))
    return tasks
