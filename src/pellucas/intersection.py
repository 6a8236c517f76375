"""Intersections of Lucas V-sequences via systems of two +-4 Pell equations.

A system pairs x^2 - d1 y^2 = e1*4 with x^2 - d2 z^2 = e2*4.  The common
x-values form either the single point x = 2 (when d1*d2 is not a square),
an infinite Lucas V-sequence (when it is), or, for the mixed-sign variant,
a finite set that is only ever enumerated under an explicit bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Optional

from .errors import InvariantError, SearchCapExceeded
from .lucas import LucasParams, is_square, lucas_uv
from .oracle import square_rows
from .pell import isqrt_exact

FLAVORS = ("plus_plus", "minus_minus", "mixed", "opposite_signs")

DEFAULT_CAP = 10 ** 6


@dataclass(frozen=True)
class PellSystem:
    """Two-equation system; p1/p2 are the recurrence coefficients.

    plus_plus:      d_i = p_i^2 + 4, same sign (+-4) on both equations.
    minus_minus:    d_i = p_i^2 - 4, +4 on both; needs p1 != p2, p_i >= 4.
    mixed:          d1 = p1^2 + 4, d2 = p2^2 - 4, +4 on both; needs p2 >= 4.
    opposite_signs: d_i = p_i^2 + 4, opposite signs; finite solution set.
    """

    flavor: str
    p1: int
    p2: int

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor in ("plus_plus", "opposite_signs"):
            if self.p1 < 1 or self.p2 < 1 or self.p1 == self.p2:
                raise ValueError("need p1, p2 >= 1 and p1 != p2")
        elif self.flavor == "minus_minus":
            if self.p1 < 4 or self.p2 < 4 or self.p1 == self.p2:
                raise ValueError("need p1, p2 >= 4 and p1 != p2")
        else:  # mixed
            if self.p1 < 1 or self.p2 < 4:
                raise ValueError("need p1 >= 1 and p2 >= 4")

    @property
    def d1(self) -> int:
        if self.flavor == "minus_minus":
            return self.p1 * self.p1 - 4
        return self.p1 * self.p1 + 4

    @property
    def d2(self) -> int:
        if self.flavor in ("minus_minus", "mixed"):
            return self.p2 * self.p2 - 4
        return self.p2 * self.p2 + 4

    @property
    def signs1(self) -> tuple[int, ...]:
        """Admissible right-hand sides of the first equation."""
        return (4, -4) if self.flavor in ("plus_plus", "opposite_signs") else (4,)

    def signs2_for(self, sign1: int) -> tuple[int, ...]:
        if self.flavor == "plus_plus":
            return (sign1,)
        if self.flavor == "opposite_signs":
            return (-sign1,)
        return (4,)


@dataclass(frozen=True)
class IntersectionResult:
    verdict: str  # trivial_only | infinite_family | finite_only
    minimal_pair: Optional[tuple[int, int]] = None
    common_params: Optional[LucasParams] = None
    solutions: list[tuple[int, int, int]] = field(default_factory=list)


def square_product_test(system: PellSystem) -> bool:
    """True when d1 * d2 is a perfect square."""
    return is_square(system.d1 * system.d2)


def _weights(system: PellSystem, side: int, step: int):
    """d_i * (i-th sequence term)^2 at index m = step, 2*step, 3*step, ...

    Matching these weights is the same as matching the traces
    d*term^2 +- 2 of the corresponding matrix powers.  The terms come from
    stepping the recurrence u_{m+1} = p u_m - q u_{m-1} (q = -1 for the
    a-sequence, +1 for the b-sequence), one square per yielded weight.
    """
    if side == 1:
        d, p = system.d1, system.p1
        q = 1 if system.flavor == "minus_minus" else -1
    else:
        d, p = system.d2, system.p2
        q = 1 if system.flavor in ("minus_minus", "mixed") else -1
    prev, cur = 0, 1
    while True:
        for _ in range(step - 1):
            prev, cur = cur, p * cur - q * prev
        yield d * cur * cur
        prev, cur = cur, p * cur - q * prev


def minimal_trace_match(system: PellSystem,
                        cap: int = DEFAULT_CAP) -> tuple[int, int]:
    """Least (m, n) with equal traces of the two matrix powers.

    Two-pointer merge over the strictly increasing weight sequences
    d1*u_m^2 and d2*w_n^2; the plus_plus flavor additionally requires m and
    n to have the same parity, and the mixed flavor searches even m only.
    """
    if system.flavor == "opposite_signs":
        raise ValueError("the opposite-sign system has no infinite family")
    if not square_product_test(system):
        raise ValueError("no trace match exists: d1*d2 is not a square")
    step1 = 2 if system.flavor == "mixed" else 1
    w1, w2 = _weights(system, 1, step1), _weights(system, 2, 1)
    m, n = step1, 1
    a, b = next(w1), next(w2)
    parity_matters = system.flavor == "plus_plus"
    while max(m, n) <= cap:
        if a == b and (not parity_matters or (m - n) % 2 == 0):
            return m, n
        advance1, advance2 = a <= b, b <= a
        if advance1:
            m += step1
            a = next(w1)
        if advance2:
            n += 1
            b = next(w2)
    raise SearchCapExceeded(
        f"no trace match with max(m, n) <= {cap} for {system}")


def common_lucas_params(system: PellSystem, m: int, n: int) -> LucasParams:
    """Lucas parameters of the common-x sequence for the minimal pair (m, n).

    The coefficient is the m-th V-term of the first sequence (equal to the
    n-th V-term of the second), the eigenvalue-power sum written in integers.
    """
    if system.flavor == "plus_plus":
        p = lucas_uv(LucasParams(system.p1, -1), m).v
        p_other = lucas_uv(LucasParams(system.p2, -1), n).v
        q = (-1) ** m
    elif system.flavor == "minus_minus":
        p = lucas_uv(LucasParams(system.p1, 1), m).v
        p_other = lucas_uv(LucasParams(system.p2, 1), n).v
        q = 1
    else:  # mixed: m is even, so the V-term is the plain eigenvalue-power sum
        p = lucas_uv(LucasParams(system.p1, -1), m).v
        p_other = lucas_uv(LucasParams(system.p2, 1), n).v
        q = 1
    if p != p_other:
        raise InvariantError(f"the two minimal V-terms disagree: {p} != {p_other}")
    params = LucasParams(p, q)
    if is_square(params.discriminant):
        raise InvariantError("common discriminant unexpectedly square")
    return params


def _solve_coordinate(x: int, d: int, signs: tuple[int, ...]
                      ) -> Optional[tuple[int, int]]:
    """(coordinate, sign) with x^2 - d*coord^2 = sign, trying each sign."""
    for sign in signs:
        num = x * x - sign
        if num >= 0 and num % d == 0:
            root = isqrt_exact(num // d)
            if root is not None:
                return root, sign
    return None


def _triple_for_x(system: PellSystem, x: int) -> Optional[tuple[int, int, int]]:
    for sign1 in system.signs1:
        yc = _solve_coordinate(x, system.d1, (sign1,))
        if yc is None:
            continue
        zc = _solve_coordinate(x, system.d2, system.signs2_for(sign1))
        if zc is not None:
            return (x, yc[0], zc[0])
    return None


def intersect(system: PellSystem, count: int, cap: int = DEFAULT_CAP,
              x_bound: Optional[int] = None) -> IntersectionResult:
    """Decide the system and enumerate its first `count` solutions.

    The opposite_signs flavor is enumeration-only and demands an explicit
    x_bound; its output carries no completeness claim beyond that bound.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if system.flavor == "opposite_signs":
        if x_bound is None:
            raise ValueError("opposite_signs requires an explicit x_bound")
        sols = brute_force_common(system, x_bound)
        return IntersectionResult("finite_only", solutions=sols[:count])
    if not square_product_test(system):
        return IntersectionResult("trivial_only", solutions=[(2, 0, 0)])
    m, n = minimal_trace_match(system, cap=cap)
    params = common_lucas_params(system, m, n)
    solutions = []
    for k in range(count):
        x = lucas_uv(params, k).v
        triple = _triple_for_x(system, x)
        if triple is None:
            raise InvariantError(f"x={x} failed exact substitution")
        solutions.append(triple)
    return IntersectionResult("infinite_family", (m, n), params, solutions)


def brute_force_common(system: PellSystem, x_bound: int) -> list[tuple[int, int, int]]:
    """All solutions (x, y, z) with 2 <= x <= x_bound, by direct search.

    Candidate x-values are the roots of the perfect squares d*w^2 + sign over
    the full w-range of the equation with the larger d (``oracle.square_rows``);
    every candidate is re-verified against both equations in exact integer
    arithmetic.  Bounds whose rows would leave int64 raise ValueError before
    any row is scanned.
    """
    if x_bound < 2:
        raise ValueError("x_bound must be >= 2")
    if system.d1 >= system.d2:
        d, signs = system.d1, system.signs1
    else:
        d = system.d2
        signs = tuple(sorted({s for s1 in system.signs1
                              for s in system.signs2_for(s1)}))
    out = {}
    # d*w^2 = x^2 - sign <= x_bound^2 + 4 is the whole range.
    w_bound = isqrt((x_bound * x_bound + 4) // d)
    # A list, so that the int64 guard of every sign runs before any scan.
    for rows in [square_rows(d, sign, 0, w_bound) for sign in signs]:
        for _, x in rows:
            if 2 <= x <= x_bound:
                triple = _triple_for_x(system, x)
                if triple is not None:
                    out[x] = triple
    return [out[x] for x in sorted(out)]
