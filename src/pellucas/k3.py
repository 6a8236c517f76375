"""The three-way correspondence: generalized Fibonacci numbers, Pell
y-solutions, and lattice actions of infinite-order K3 automorphisms.

A "pair (surface, automorphism)" is represented purely by its arithmetic
shadow: the lattice, the 2x2 action matrix, its trace, and the sign of the
action on the 2-form.  No geometry is materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt, prod
from typing import Optional

from .errors import InvariantError, SearchCapExceeded
from .lattice import (IsometryAction, Lattice2, _disc_action, isometry_det,
                      make_lattice, preserves_cone)
from .lucas import (LucasParams, Mat2, companion_power, gen_fib_a, gen_fib_b,
                    lucas_uv)
from .pell import is_gen_fib_a, is_gen_fib_b


class NotInCorrespondenceError(ValueError):
    """Raised when a claimed y-solution fails the membership criterion."""


def rank_of_apparition(m: int, a: int) -> int:
    """Smallest n >= 1 with m | a_n, found by running the recurrence mod m.

    The pair (a_j, a_{j+1}) mod m cycles within m^2 steps, and 0 appears in
    every cycle, so the cap is defensive only.
    """
    if m < 2 or a < 1:
        raise ValueError("need m >= 2 and a >= 1")
    prev, cur = 0, 1
    for n in range(1, m * m + 3):
        if cur % m == 0:
            return n
        prev, cur = cur, (a * cur + prev) % m
    raise SearchCapExceeded("apparition search exceeded its pigeonhole cap")


def case_a_lattice(m: int, a: int) -> Lattice2:
    """The lattice m * [[2, a], [a, -2]]."""
    return make_lattice(m, m * a, -m)


def case_b_lattice(b: int) -> Lattice2:
    """The lattice [[2, b], [b, 2]]."""
    return make_lattice(1, b, 1)


def _action(lattice: Lattice2, g: Mat2) -> IsometryAction:
    det = isometry_det(lattice, g)
    if det is None:
        raise InvariantError(f"{g} is not an isometry of {lattice}")
    return IsometryAction(g, det, g.trace, preserves_cone(lattice, g),
                          _disc_action(lattice, g))


@dataclass(frozen=True)
class K3CaseA:
    m: int
    a: int
    n: int
    action: IsometryAction
    omega_sign: int

    @property
    def symplectic(self) -> bool:
        return self.omega_sign == 1


@dataclass(frozen=True)
class K3CaseB:
    b: int
    n: int
    action: IsometryAction

    symplectic: bool = True


def classify_case_a(m: int, a: int) -> K3CaseA:
    """Automorphism action on the lattice m*[[2,a],[a,-2]].

    n is the smallest index with m | a_n; the action is (AB)^n = M_a^{2n},
    symplectic for even n and anti-symplectic for odd n, with
    trace = (a^2+4) a_n^2 + (-1)^n 2.  A = [[1,0],[a,-1]] and
    B = [[1,a],[0,-1]] are involutions with AB = M_a^2 for every a.
    """
    n = rank_of_apparition(m, a)
    g = companion_power("M", a, 2 * n)
    action = _action(case_a_lattice(m, a), g)
    if action.trace != (a * a + 4) * gen_fib_a(a, n) ** 2 + (-1) ** n * 2:
        raise InvariantError(f"trace formula fails for (m, a, n) = {(m, a, n)}")
    return K3CaseA(m, a, n, action, (-1) ** n)


def classify_case_b(b: int, n: int) -> K3CaseB:
    """Symplectic automorphism action C^{2n} on [[2,b],[b,2]], b >= 4.

    For b = 3 the lattice contains a (-2)-element and the automorphism
    group is finite, so b < 4 is rejected.
    """
    if b < 4:
        raise ValueError(
            f"b={b} < 4 rejected: the lattice [[2,b],[b,2]] has a (-2)-element "
            "(or is not hyperbolic), so no infinite-order automorphism exists")
    if n < 1:
        raise ValueError("n must be >= 1")
    g = companion_power("N", b, 2 * n).transpose  # C = N_b^T = [[0,-1],[1,b]]
    action = _action(case_b_lattice(b), g)
    if action.trace != (b * b - 4) * gen_fib_b(b, n) ** 2 + 2:
        raise InvariantError(f"trace formula fails for (b, n) = {(b, n)}")
    if action.disc_action != "+id":
        raise InvariantError(f"C^(2n) acts as {action.disc_action} for b={b}")
    return K3CaseB(b, n, action)


@dataclass(frozen=True)
class CorrespondenceRecord:
    """One point of the correspondence, carrying all three representations."""

    flavor: str                 # "a" or "b"
    param: int                  # a or b
    index: int                  # sequence index n
    term: int                   # a_n or b_n, the Pell y-value
    x: int                      # matching Pell x-value
    pell_sign: int              # +4 or -4
    trace: int                  # trace of the lattice action
    omega_sign: int             # +1 symplectic, -1 anti-symplectic
    m: Optional[int] = None     # a-flavor only: chosen divisor of the term

    @property
    def pell_d(self) -> int:
        p = self.param
        return p * p + 4 if self.flavor == "a" else p * p - 4


_TRIAL_DIVISION_BOUND = 10 ** 4


@cache
def _small_primes() -> tuple[tuple[int, ...], int]:
    """The primes below the trial-division bound and their product.

    Built on first use, so importing the module stays cheap.
    """
    bound = _TRIAL_DIVISION_BOUND
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, bound, i)))
    primes = tuple(i for i in range(bound) if sieve[i])
    return primes, prod(primes)


def _smallest_divisor_ge2(n: int) -> Optional[int]:
    """Smallest divisor >= 2 when it lies below the trial-division bound.

    One gcd with the product of the primes below the bound finds every such
    divisor at once.  With none there, n is prime when n < 10001^2 (every
    odd candidate up to 9999 is ruled out) and is returned; otherwise the
    answer is None (the pair data is then left without a preferred m; any
    divisor works).
    """
    if n < 2:
        return None
    primes, product = _small_primes()
    g = gcd(n, product)
    if g > 1:
        return next(p for p in primes if g % p == 0)
    return n if n < (_TRIAL_DIVISION_BOUND + 1) ** 2 else None


def correspondence_from_term(flavor: str, param: int, index: int) -> CorrespondenceRecord:
    """Record for the sequence term at `index` (index >= 1)."""
    if index < 1:
        raise ValueError("index must be >= 1")
    if flavor == "a":
        if param < 1:
            raise ValueError("a must be >= 1")
        seq = lucas_uv(LucasParams(param, -1), index)
        term, x = seq.u, seq.v
        sign = 4 * (-1) ** index
        omega = (-1) ** index
        trace = (param * param + 4) * term * term + omega * 2
        return CorrespondenceRecord("a", param, index, term, x, sign, trace,
                                    omega, _smallest_divisor_ge2(term))
    if flavor == "b":
        if param < 4:
            raise ValueError("b must be >= 4")
        seq = lucas_uv(LucasParams(param, 1), index)
        term, x = seq.u, seq.v
        trace = (param * param - 4) * term * term + 2
        return CorrespondenceRecord("b", param, index, term, x, 4, trace, 1)
    raise ValueError(f"unknown flavor {flavor!r}")


def correspondence_from_pell_y(flavor: str, param: int, y: int) -> CorrespondenceRecord:
    """Record for a y-coordinate Pell solution; the index is recovered by the
    membership criterion.  Ambiguous values (a = 1 gives a_1 = a_2 = 1) are
    reported with the smallest index >= 2 when one exists.
    """
    if y < 1:
        raise ValueError("y must be >= 1")
    verdict = is_gen_fib_a(y, param) if flavor == "a" else is_gen_fib_b(y, param)
    if not verdict.is_member:
        raise NotInCorrespondenceError(
            f"{y} is not a y-solution for flavor {flavor!r}, param {param}")
    index = verdict.index
    if index == 1 and flavor == "a" and param == 1:
        index = 2  # a_1 = a_2 = 1; the correspondence is stated for n >= 2
    return correspondence_from_term(flavor, param, index)


def correspondence_from_pair(flavor: str, param: int, index: int,
                             m: Optional[int] = None) -> CorrespondenceRecord:
    """Record for pair data (m, a, n) or (b, n); validates m when given."""
    record = correspondence_from_term(flavor, param, index)
    if flavor == "a" and m is not None:
        if m < 2 or record.term % m != 0:
            raise ValueError(f"m={m} does not divide a_{index} = {record.term}")
        record = CorrespondenceRecord(record.flavor, record.param, record.index,
                                      record.term, record.x, record.pell_sign,
                                      record.trace, record.omega_sign, m)
    return record


def correspondence_roundtrip(flavor: str, param: int, index: int) -> dict:
    """Walk every leg from the term at `index` and check mutual consistency.

    Returns the record plus per-leg agreement booleans; raises
    InvariantError if any leg disagrees (which would falsify the
    correspondence).  A start whose term is also the term at the index the
    y-leg reports (a = 1, index 1: a_1 = a_2 = 1) is ambiguous and raises
    ValueError instead.
    """
    base = correspondence_from_term(flavor, param, index)
    via_y = correspondence_from_pell_y(flavor, param, base.term)
    if via_y.index != index and via_y.term == base.term:
        raise ValueError(f"the round trip from index {index} is ambiguous: "
                         f"its term is also the term at index {via_y.index}")
    via_pair = correspondence_from_pair(flavor, param, via_y.index, m=via_y.m)
    # Pell leg: the (x, y) pair must solve the equation with the stated sign.
    d = base.pell_d
    if base.x * base.x - d * base.term * base.term != base.pell_sign:
        raise InvariantError(f"Pell leg fails for {base}")
    # Pair leg: trace must match the lattice action actually constructed.
    if flavor == "a":
        # m | a_index iff the apparition rank of m divides index (Q = -1).
        if base.m is not None and index % classify_case_a(base.m, param).n:
            raise InvariantError(f"apparition rank of m does not divide {index}")
        if base.trace != (param * param + 4) * base.term ** 2 \
                + base.omega_sign * 2:
            raise InvariantError(f"pair-leg trace fails for {base}")
    else:
        case = classify_case_b(param, index)
        if case.action.trace != base.trace:
            raise InvariantError(f"pair-leg trace fails for {base}")
    if via_pair != base:
        raise InvariantError(f"round trip diverged: {via_pair} != {base}")
    return {"record": base, "term_leg": True, "pell_leg": True, "pair_leg": True}
