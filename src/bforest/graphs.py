"""Bicirculant graph specifications, arithmetic connectivity and neighbour lists.

A bicirculant graph lives on two copies of Z_n.  The right copy carries a
circulant layer generated by ``{+-a : a in alphas}`` (optionally plus n/2),
the left copy one generated by the betas, and the two copies are joined by
spoke edges: right vertex h is adjacent to left vertex h + g for every g in
``gammas``.

Connectivity is the exact voltage-graph gcd test of :func:`is_connected`
(Gross & Tucker, *Topological Graph Theory*, 1987, ch. 2): O(#generators)
time, no adjacency.  Only the matrix-tree oracle calls :func:`realize`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .errors import HalfWithoutEvenN, NotConnected, OutOfRange, Refusal, SpecError

__all__ = [
    "ConnectionSpec",
    "validate_spec",
    "order_row",
    "check_connectivity",
    "is_connected",
    "require_connected",
    "realize",
]


@dataclass(frozen=True)
class ConnectionSpec:
    """Connection data (n, alphas, betas, gammas, half flags) of a simple graph.

    ``alphas`` and ``betas`` are generators below n/2; the optional n/2
    generator is carried by the ``half_r`` / ``half_t`` flags.  The spec checks
    itself: construction, ``dataclasses.replace(spec, n=k)`` included, raises
    :class:`OutOfRange` unless n >= 1, 0 < 2a < n, 0 < 2b < n and 0 <= g < n,
    and :class:`HalfWithoutEvenN` for a half flag at odd n.
    """

    n: int
    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    gammas: tuple[int, ...]
    half_r: bool = False
    half_t: bool = False

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise OutOfRange(f"group order must be positive, got {n}")
        if (self.half_r or self.half_t) and n % 2 != 0:
            raise HalfWithoutEvenN(f"half generator n/2 requires even n, got n={n}")
        for name, values in (("alpha", self.alphas), ("beta", self.betas)):
            for v in values:
                if not 0 < 2 * v < n:
                    raise OutOfRange(f"{name}={v} outside (0, n/2) for n={n}")
        for g in self.gammas:
            if not 0 <= g <= n - 1:
                raise OutOfRange(f"gamma={g} outside [0, n-1] for n={n}")

    @property
    def r(self) -> int:
        return len(self.alphas)

    @property
    def t(self) -> int:
        return len(self.betas)

    @property
    def s(self) -> int:
        return len(self.gammas)

    @property
    def family(self) -> int:
        """Family index in {1, 2, 3, 4} from the two half flags."""
        return 1 + self.half_r + 2 * self.half_t

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "alphas": list(self.alphas),
            "betas": list(self.betas),
            "gammas": list(self.gammas),
            "half_r": self.half_r,
            "half_t": self.half_t,
        }


def _as_int(value, name: str) -> int:
    """``value`` as an int, refusing a bool and what ``int`` would truncate or parse."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise SpecError(f"{name} must be an integer, got {value!r}")


def _as_sorted_ints(values, name: str) -> tuple[int, ...]:
    try:
        return tuple(sorted({_as_int(v, name) for v in values}))
    except TypeError as exc:
        raise SpecError(f"{name} must be a list of integers") from exc


def validate_spec(raw) -> ConnectionSpec:
    """Parse candidate connection data into a :class:`ConnectionSpec`.

    Numbers must be integral and half flags ``bool``; nothing is truncated
    or coerced, and a ``bool`` is not a number.  A key outside the six
    fields is refused, so a misspelt one counts no other graph.  Generators
    are sorted and deduplicated; the range and parity checks are the spec's
    own.  A ``ConnectionSpec`` is returned unchanged.  Raises :class:`HalfWithoutEvenN`,
    :class:`OutOfRange` or another :class:`SpecError` on invalid data.
    """
    if isinstance(raw, ConnectionSpec):
        return raw
    if not isinstance(raw, dict):
        raise SpecError("connection data must be a mapping")
    known = [field.name for field in fields(ConnectionSpec)]
    unknown = sorted(set(raw) - set(known), key=str)
    if unknown:
        raise SpecError(f"unknown keys {unknown}; a spec takes {known}")
    if "n" not in raw:
        raise SpecError("missing group order n")
    n = _as_int(raw["n"], "group order n")
    alphas = _as_sorted_ints(raw.get("alphas", ()), "alphas")
    betas = _as_sorted_ints(raw.get("betas", ()), "betas")
    gammas = _as_sorted_ints(raw.get("gammas", ()), "gammas")
    half_r, half_t = (raw.get(key, False) for key in ("half_r", "half_t"))
    if not isinstance(half_r, bool) or not isinstance(half_t, bool):
        raise SpecError(f"half flags must be true or false, got {half_r!r} and {half_t!r}")
    return ConnectionSpec(n, alphas, betas, gammas, half_r, half_t)


def order_row(compute, spec: ConnectionSpec, n: int) -> dict:
    """One row of a per-order table: ``{"n": n, **compute(replace(spec, n=n))}``.

    Where ``replace`` or ``compute`` raises a :class:`Refusal`, the row is
    ``{"n", "error", "error_type"}`` instead, the last the exception's class
    name; any other error is a bug and propagates.
    """
    try:
        return {"n": n, **compute(replace(spec, n=n))}
    except Refusal as exc:
        return {"n": n, "error": str(exc), "error_type": type(exc).__name__}


def check_connectivity(spec: ConnectionSpec) -> dict:
    """Sufficient gcd conditions plus the exact connectivity verdict.

    The three gcd flags are sufficient but not necessary, so both are
    reported; ``connected`` is the exact test of :func:`is_connected`.  The
    spoke flag takes g_i - g_0, which generate every g_i - g_j; a single
    spoke has none, and its flag is False.
    """
    cond_a = spec.s > 0 and math.gcd(spec.n, *spec.alphas) == 1
    cond_b = spec.s > 0 and math.gcd(spec.n, *spec.betas) == 1
    diffs = [g - spec.gammas[0] for g in spec.gammas[1:]]
    cond_c = bool(diffs) and math.gcd(spec.n, *diffs) == 1
    return {"gcd_flags": (cond_a, cond_b, cond_c), "connected": is_connected(spec)}


def is_connected(spec: ConnectionSpec) -> bool:
    """Exact test: ``s >= 1`` and ``gcd(n, alphas, betas, n/2 if a half
    flag, g_i - g_0) = 1``.

    These are the voltages of closed walks at right vertex 0 (along a layer,
    across a spoke and back, out one spoke and back another); the graph is
    connected iff they generate Z_n (Gross & Tucker, *Topological Graph
    Theory*, 1987, ch. 2).
    """
    if not spec.gammas:
        return False
    half = (spec.n // 2,) if spec.half_r or spec.half_t else ()
    diffs = (g - spec.gammas[0] for g in spec.gammas)
    return math.gcd(spec.n, *spec.alphas, *spec.betas, *half, *diffs) == 1


def require_connected(spec: ConnectionSpec) -> ConnectionSpec:
    """``spec`` itself, or :class:`NotConnected` if its graph is not connected."""
    if not is_connected(spec):
        raise NotConnected(f"spec {spec.to_json()} is not connected")
    return spec


def realize(spec: ConnectionSpec) -> list[list[int]]:
    """The graph as neighbour lists, each in ascending index order: right
    vertex h is index h, left vertex h is index n + h (oracle only)."""
    n = spec.n
    right = {u % n for a in spec.alphas for u in (a, -a)} | ({n // 2} if spec.half_r else set())
    left = {u % n for b in spec.betas for u in (b, -b)} | ({n // 2} if spec.half_t else set())
    rights = [sorted([(h + u) % n for u in right] + [n + (h + g) % n for g in spec.gammas]) for h in range(n)]
    lefts = [sorted([n + (h + u) % n for u in left] + [(h - g) % n for g in spec.gammas]) for h in range(n)]
    return rights + lefts
