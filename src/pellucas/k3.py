"""The three-way correspondence: generalized Fibonacci numbers, Pell
y-solutions, and lattice actions of infinite-order K3 automorphisms.

A "pair (surface, automorphism)" is represented purely by its arithmetic
shadow: the lattice, the 2x2 action matrix, its trace, and the sign of the
action on the 2-form.  No geometry is materialized.  Flavors "a" and "b"
are the Lucas legs (a, -1) and (b, 1), with V_n^2 - D U_n^2 = 4 q^n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .errors import InvariantError, SearchCapExceeded
from .lattice import IsometryAction, Lattice2, isometry_action, make_lattice
from .lucas import LucasParams, _companion_power, _mul, lucas_uv
from .pell import _is_member

# Flavor -> (q, least param) of its leg: a_n = U_n(a, -1), b_n = U_n(b, 1).
_LEGS = {"a": (-1, 1), "b": (1, 4)}


class NotInCorrespondenceError(ValueError):
    """Raised when a claimed y-solution fails the membership criterion."""


def rank_of_apparition(m: int, a: int) -> int:
    """Smallest n >= 1 with m | a_n, found by running the recurrence mod m.

    The pair (a_j, a_{j+1}) mod m cycles within m^2 steps, and 0 appears in
    every cycle, so the cap is defensive only.
    """
    if m < 2 or a < 1:
        raise ValueError("need m >= 2 and a >= 1")
    prev, cur = 0, 1  # cur < m throughout, as m >= 2
    for n in range(1, m * m + 3):
        if cur == 0:
            return n
        prev, cur = cur, (a * cur + prev) % m
    raise SearchCapExceeded("apparition search exceeded its pigeonhole cap")


def case_a_lattice(m: int, a: int) -> Lattice2:
    """The lattice m * [[2, a], [a, -2]]."""
    return make_lattice(m, m * a, -m)


def case_b_lattice(b: int) -> Lattice2:
    """The lattice [[2, b], [b, 2]]."""
    return make_lattice(1, b, 1)


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

    @property
    def symplectic(self) -> bool:
        return True


def _case_action(lattice: Lattice2, params: LucasParams, n: int,
                 label: str, key: tuple) -> IsometryAction:
    """Action on `lattice` of the leg's companion power at 2n, transposed for
    q = +1, checked against its trace D U_n^2 + 2 q^n (= V_{2n})."""
    g = _companion_power(params, 2 * n)
    action = isometry_action(lattice, g if params.q == -1 else g.transpose)
    t = lucas_uv(params, n).u
    if action.trace != params.discriminant * _mul(t, t) + 2 * params.q ** n:
        raise InvariantError(f"trace formula fails for {label} = {key}")
    return action


def classify_case_a(m: int, a: int) -> K3CaseA:
    """Automorphism action on the lattice m*[[2,a],[a,-2]].

    n is the smallest index with m | a_n; the action is (AB)^n = M_a^{2n},
    symplectic for even n and anti-symplectic for odd n.  A = [[1,0],[a,-1]]
    and B = [[1,a],[0,-1]] are involutions with AB = M_a^2 for every a.
    """
    n = rank_of_apparition(m, a)
    action = _case_action(case_a_lattice(m, a), LucasParams(a, -1), n,
                          "(m, a, n)", (m, a, n))
    return K3CaseA(m, a, n, action, (-1) ** n)


def classify_case_b(b: int, n: int) -> K3CaseB:
    """Symplectic action C^{2n} on [[2,b],[b,2]], b >= 4, C = [[0,-1],[1,b]].

    For b = 3 the lattice contains a (-2)-element and the automorphism
    group is finite, so b < 4 is rejected.
    """
    if b < 4:
        raise ValueError(
            f"b={b} < 4 rejected: the lattice [[2,b],[b,2]] has a (-2)-element "
            "(or is not hyperbolic), so no infinite-order automorphism exists")
    if n < 1:
        raise ValueError("n must be >= 1")
    action = _case_action(case_b_lattice(b), LucasParams(b, 1), n, "(b, n)",
                          (b, n))
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
    m: Optional[int] = None     # a-flavor only: the term itself, or None
                                # when it is 1 (no m >= 2 divides it)

    @property
    def pell_d(self) -> int:
        return self.param * self.param - 4 * _LEGS[self.flavor][0]


def _leg(flavor: str) -> tuple[int, int]:
    """(q, least param) of `flavor`, or ValueError."""
    if flavor not in _LEGS:
        raise ValueError(f"unknown flavor {flavor!r}")
    return _LEGS[flavor]


def correspondence_from_term(flavor: str, param: int, index: int) -> CorrespondenceRecord:
    """Record for the term at `index` >= 1: (x, y) = (V_n, U_n), sign 4 q^n,
    omega q^n, trace D U_n^2 + 2 q^n, and for flavor a, m = a_n."""
    if index < 1:
        raise ValueError("index must be >= 1")
    q, least = _leg(flavor)
    if param < least:
        raise ValueError(f"{flavor} must be >= {least}")
    params = LucasParams(param, q)
    seq = lucas_uv(params, index)
    term, qn = seq.u, q ** index
    trace = params.discriminant * _mul(term, term) + 2 * qn
    return CorrespondenceRecord(flavor, param, index, term, seq.v, 4 * qn,
                                trace, qn,
                                term if flavor == "a" and term > 1 else None)


def correspondence_from_pell_y(flavor: str, param: int, y: int) -> CorrespondenceRecord:
    """Record for a y-coordinate Pell solution; the index is recovered by the
    membership criterion.  Ambiguous values (a = 1 gives a_1 = a_2 = 1) are
    reported with the smallest index >= 2 when one exists.
    """
    if y < 1:
        raise ValueError("y must be >= 1")
    verdict = _is_member(param, _leg(flavor)[0], y)
    if not verdict.is_member:
        raise NotInCorrespondenceError(
            f"{y} is not a y-solution for flavor {flavor!r}, param {param}")
    index = verdict.index
    if index == 1 and flavor == "a" and param == 1:
        index = 2  # a_1 = a_2 = 1; the correspondence is stated for n >= 2
    return correspondence_from_term(flavor, param, index)


def correspondence_from_pair(flavor: str, param: int, index: int,
                             m: Optional[int] = None) -> CorrespondenceRecord:
    """Record for pair data (m, a, n) or (b, n).

    Any m >= 2 that divides a_n is accepted in place of the record's own
    m = a_n.  Such an m classifies back to index n (``classify_case_a``) only
    when n is its rank of apparition, as it is for m = a_n.
    """
    record = correspondence_from_term(flavor, param, index)
    if flavor == "a" and m is not None:
        if m < 2 or record.term % m != 0:
            raise ValueError(f"m={m} does not divide a_{index} = {record.term}")
        record = replace(record, m=m)
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
    # Pell leg: the (x, y) pair must solve the equation with the stated sign.
    d = base.pell_d
    if base.x * base.x - d * base.term * base.term != base.pell_sign:
        raise InvariantError(f"Pell leg fails for {base}")
    # Pair leg: the pair data classifies back to this index and trace.  For
    # m = a_n > 1 the rank of apparition is n, as gcd(a_i, a_j) = a_gcd(i, j).
    if flavor == "b" or base.m is not None:
        case = (classify_case_a(base.m, param) if flavor == "a"
                else classify_case_b(param, index))
        if case.n != index or case.action.trace != base.trace:
            raise InvariantError(f"pair leg fails for {base}")
    if via_y != base:
        raise InvariantError(f"round trip diverged: {via_y} != {base}")
    return {"record": base, "term_leg": True, "pell_leg": True, "pair_leg": True}
