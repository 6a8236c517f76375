"""Intersections of Lucas V-sequences via systems of two +-4 Pell equations.

A system pairs x^2 - d1 y^2 = e1 with x^2 - d2 z^2 = e2.  Equation i is a
leg, the Lucas sequence (p_i, q_i) with d_i = p_i^2 - 4 q_i and unit
alpha_i = (p_i + sqrt(d_i))/2; the flavor fixes q1, q2 and the sign pairs
(e1, e2) (``_LEGS``).  The common x-values form either the single point
x = 2 (when d1*d2 is not a square), an infinite Lucas V-sequence (when it
is), or, for the opposite-sign variant, a finite set that is only ever
enumerated under an explicit bound.  The infinite sequence comes from the
least (m, n) with alpha1^m = alpha2^n, a convergent of
log alpha2 / log alpha1: it is the Lucas sequence of that common unit, read
off the two legs' m-th and n-th terms and continued by its own recurrence,
with no square root taken.  The finite set merges the two legs' terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import isqrt
from typing import Iterator, Optional

from .errors import InvariantError, SearchCapExceeded
from .lucas import LucasParams, _mul, is_square, lucas_uv
from .pell import _log_alpha

# flavor: (q1, q2, sign pairs (e1, e2) in the order searches prefer them).
_LEGS = {
    "plus_plus": (-1, -1, ((4, 4), (-4, -4))),
    "minus_minus": (1, 1, ((4, 4),)),
    "mixed": (-1, 1, ((4, 4),)),
    "opposite_signs": (-1, -1, ((4, -4), (-4, 4))),  # finite solution set
}
FLAVORS = tuple(_LEGS)

DEFAULT_CAP = 10 ** 6
# Largest m*n for which the double log alpha2 / log alpha1 is sure to have
# the least match among its convergents; derived in minimal_trace_match.
_MATCH_BOUND = 10 ** 13


@dataclass(frozen=True)
class PellSystem:
    """Two-equation system; p1/p2 are the recurrence coefficients of the legs.

    A leg with q = +1 needs p >= 4, one with q = -1 needs p >= 1, and two
    legs with the same q need p1 != p2.
    """

    flavor: str
    p1: int
    p2: int

    def __post_init__(self):
        if self.flavor not in _LEGS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        q1, q2, _ = _LEGS[self.flavor]
        for name, p, q in (("p1", self.p1, q1), ("p2", self.p2, q2)):
            least = 4 if q == 1 else 1
            if p < least:
                raise ValueError(f"need {name} >= {least} for {self.flavor}")
        if q1 == q2 and self.p1 == self.p2:
            raise ValueError("need p1 != p2")

    @property
    def d1(self) -> int:
        return self.p1 * self.p1 - 4 * _LEGS[self.flavor][0]

    @property
    def d2(self) -> int:
        return self.p2 * self.p2 - 4 * _LEGS[self.flavor][1]

    @property
    def sign_pairs(self) -> tuple[tuple[int, int], ...]:
        """Admissible right-hand sides (e1, e2) of the two equations."""
        return _LEGS[self.flavor][2]


def _legs(system: PellSystem) -> tuple[LucasParams, LucasParams]:
    q1, q2, _ = _LEGS[system.flavor]
    return LucasParams(system.p1, q1), LucasParams(system.p2, q2)


@dataclass(frozen=True)
class IntersectionResult:
    verdict: str  # trivial_only | infinite_family | finite_only
    minimal_pair: Optional[tuple[int, int]] = None
    common_params: Optional[LucasParams] = None
    solutions: list[tuple[int, int, int]] = field(default_factory=list)


def square_product_test(system: PellSystem) -> bool:
    """True when d1 * d2 is a perfect square."""
    return is_square(system.d1 * system.d2)


def _convergents(x: float) -> Iterator[tuple[int, int]]:
    """The convergents h/k of x, by integer Euclid on the exact rational
    that the double holds; the last one is x itself."""
    num, den = x.as_integer_ratio()
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while den:
        a, num, den = num // den, den, num % den
        h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
        yield h, k


def minimal_trace_match(system: PellSystem,
                        cap: int = DEFAULT_CAP) -> tuple[int, int]:
    """Least (m, n) with equal traces of the two matrix powers.

    The traces match exactly when alpha1^m = alpha2^n, that is when
    V_m = V_n and d1 U_m^2 = d2 U_n^2 on the two legs.  Equal units have
    equal norms q1^m = q2^n, so m and n have the same parity for plus_plus
    and m is even for mixed.  When d1*d2 is a square both units are powers
    of the fundamental unit eta of one field, so the matches are the
    multiples of one coprime pair (m0, n0), with m0/n0 = r, r =
    log alpha2 / log alpha1.  The convergents of the double r are walked
    exactly, m = 0 skipped, and the first that passes both exact checks is
    returned; a convergent is coprime, so it is (m0, n0) itself.

    Precision.  ``pell._log_alpha`` takes log(2^65 alpha) - 65 log 2.  For
    log alpha < 19 the first log lies in [32, 64) and the subtraction is
    exact, so the ulp of that log (2^-47), the rounding of 65 log 2
    (2^-48), 65 half-ulps of log 2 (65 * 2^-54) and the rounding of
    2^65 alpha to a double (2^-53) bound the error by 1.5e-14; past 19 the
    relative error is below 1.5e-15.  eta is at least the golden ratio phi, so one unit is at least
    phi and the other, a different power of eta, at least phi^2: the double
    r carries a relative error delta < 1.5e-14 (1/log phi + 1/log phi^2)
    + 2^-53 < 4.7e-14.  By Legendre's theorem m0/n0 is a convergent once
    |r - m0/n0| <= delta m0/n0 < 1/(2 n0^2), that is once
    m0 n0 < 1/(2 delta), 1.06e13.  So every pair with m*n <= 10^13
    (``_MATCH_BOUND``, ten times the default cap squared) is found, and no
    convergent past that bound is tried.

    Raises SearchCapExceeded when no pair with max(m, n) <= cap exists, or,
    for a cap above sqrt(10^13), none with m*n <= 10^13 as well; the
    message names the bound searched.
    """
    if system.flavor == "opposite_signs":
        raise ValueError("the opposite-sign system has no infinite family")
    if not square_product_test(system):
        raise ValueError("no trace match exists: d1*d2 is not a square")
    leg1, leg2 = _legs(system)
    for m, n in _convergents(_log_alpha(leg2) / _log_alpha(leg1)):
        if max(m, n) > cap or m * n > _MATCH_BOUND:
            break
        if m == 0:
            continue
        t1, t2 = lucas_uv(leg1, m), lucas_uv(leg2, n)
        if t1.v == t2.v and system.d1 * t1.u ** 2 == system.d2 * t2.u ** 2:
            return m, n
    searched = f"max(m, n) <= {cap}"
    if cap * cap > _MATCH_BOUND:
        searched += f" and m*n <= {_MATCH_BOUND}"
    raise SearchCapExceeded(f"no trace match with {searched} for {system}")


def intersect(system: PellSystem, count: int, cap: int = DEFAULT_CAP,
              x_bound: Optional[int] = None) -> IntersectionResult:
    """Decide the system and enumerate its first `count` solutions.

    The opposite_signs flavor is enumeration-only and demands an explicit
    x_bound >= 2; its output carries no completeness claim beyond that bound.
    Every other flavor is decided in full and rejects an x_bound.

    An infinite family is the Lucas sequence (P, Q) of the common unit
    alpha1^m = alpha2^n = (P + U_m sqrt(d1))/2 = (P + U_n sqrt(d2))/2, with
    P = V_m of leg 1 and Q = q1^m: its k-th solution is (V_k, U_m U_k,
    U_n U_k) of (P, Q), and every coordinate follows w_{k+1} = P w_k -
    Q w_{k-1}.  Each triple is checked exactly against both equations with
    right-hand side 4 Q^k.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if system.flavor == "opposite_signs":
        if x_bound is None or x_bound < 2:
            raise ValueError("opposite_signs requires an explicit x_bound >= 2")
        sols = list(islice(_leg_walk(system, x_bound), count))
        return IntersectionResult("finite_only", solutions=sols)
    if x_bound is not None:
        raise ValueError(f"x_bound is for opposite_signs, not {system.flavor}")
    if not square_product_test(system):
        return IntersectionResult("trivial_only", solutions=[(2, 0, 0)])
    m, n = minimal_trace_match(system, cap=cap)
    leg1, leg2 = _legs(system)
    t1, t2 = lucas_uv(leg1, m), lucas_uv(leg2, n)
    if t1.v != t2.v:
        raise InvariantError(f"the two minimal V-terms disagree: {t1.v} != {t2.v}")
    params = LucasParams(t1.v, leg1.q ** m)
    if is_square(params.discriminant):
        raise InvariantError("common discriminant unexpectedly square")
    p, q, d1, d2 = params.p, params.q, system.d1, system.d2
    prev, cur = (2, 0, 0), (p, t1.u, t2.u)
    solutions, sign = [], 4
    for _ in range(count):
        x, y, z = prev
        xx = _mul(x, x)
        if xx - d1 * _mul(y, y) != sign or xx - d2 * _mul(z, z) != sign:
            raise InvariantError(f"x={x} failed exact substitution")
        solutions.append(prev)
        prev, cur = cur, tuple(p * c - q * b for b, c in zip(prev, cur))
        sign *= q
    return IntersectionResult("infinite_family", (m, n), params, solutions)


def _leg_terms(leg: LucasParams, x_bound: int) -> Iterator[tuple[int, int, int]]:
    """(x, w, e) for each solution of x^2 - d w^2 = e = +-4 with w >= 0 and
    2 <= x <= x_bound, in nondecreasing x (V_1 = V_0 = 2 for p = 2).  (p, 1)
    has the least w > 0, so it is the fundamental solution, and the solutions
    are its powers: the leg's (V_k, U_k) with e = 4 q^k, k >= 0."""
    p, q = leg.p, leg.q
    v, u, v1, u1, e = 2, 0, p, 1, 4
    while v <= x_bound:
        if v >= 2:
            yield v, u, e
        v, u, v1, u1, e = v1, u1, p * v1 - q * v, p * u1 - q * u, e * q


def _leg_walk(system: PellSystem, x_bound: int) -> Iterator[tuple[int, int, int]]:
    """The solutions (x, y, z) with 2 <= x <= x_bound, in increasing x: the
    legs' terms merged on x.  An x that solves two sign pairings takes the
    first, in the order of ``sign_pairs``."""
    first, second = (_leg_terms(leg, x_bound) for leg in _legs(system))
    a, b = next(first, None), next(second, None)
    while a and b:
        if a[0] < b[0]:
            a = next(first, None)
        elif b[0] < a[0]:
            b = next(second, None)
        else:
            x, ys, zs = a[0], {}, {}
            while a and a[0] == x:
                ys[a[2]], a = a[1], next(first, None)
            while b and b[0] == x:
                zs[b[2]], b = b[1], next(second, None)
            for e1, e2 in system.sign_pairs:
                if e1 in ys and e2 in zs:
                    yield x, ys[e1], zs[e2]
                    break


def brute_force_common(system: PellSystem, x_bound: int) -> list[tuple[int, int, int]]:
    """All solutions (x, y, z) with 2 <= x <= x_bound, by direct search.

    Candidate x-values are the roots of the perfect squares d*w^2 + sign over
    the full w-range of the equation with the larger d (``oracle.square_rows``),
    given the other equation (d', sign') of each sign pairing as a second
    residue condition and a second exact check; the scanned w is one
    coordinate and the other is the isqrt of (x^2 - sign') / d'.  Nothing is
    shared with ``intersect``, so this is its --verify oracle on every flavor.
    An x that solves two sign pairings takes the first pairing, in the order
    of ``sign_pairs``.  Bounds whose rows would leave int64 (past
    ``oracle._row_edge``) raise ValueError before any row is scanned.
    """
    from .oracle import square_rows
    if x_bound < 2:
        raise ValueError("x_bound must be >= 2")
    scan_first = system.d1 >= system.d2
    d, d_other = ((system.d1, system.d2) if scan_first
                  else (system.d2, system.d1))
    # d*w^2 = x^2 - sign <= x_bound^2 + 4 is the whole range.
    w_bound = isqrt((x_bound * x_bound + 4) // d)
    signs = [(s1, s2) if scan_first else (s2, s1)
             for s1, s2 in system.sign_pairs]
    # A list, so that the int64 guard of every sign runs before any scan.
    scans = [square_rows(d, sign, 0, w_bound, (d_other, sign_other))
             for sign, sign_other in signs]
    out = {}
    for (_, sign_other), rows in zip(signs, scans):
        for w, x in rows:
            if 2 <= x <= x_bound and x not in out:
                v = isqrt((x * x - sign_other) // d_other)
                out[x] = (x, w, v) if scan_first else (x, v, w)
    return [out[x] for x in sorted(out)]
