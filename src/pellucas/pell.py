"""Exact solver for the Pell equations x^2 - d y^2 = +-4.

The fundamental solution is the fundamental unit of the quadratic order of
discriminant d (or 4d), read off one period of a continued fraction whose
walk keeps only small integers; the convergents come from a balanced
product tree.  Odd solutions (d = 5 mod 8) come out directly.  Everything is
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, log
from typing import Optional

from .errors import InvariantError
from .lucas import LucasParams, SeqTerm, lucas_uv, mat2_product

# Partial quotients collapsed into one small-integer leaf of the product tree.
_LEAF = 16


def isqrt_exact(n: int) -> Optional[int]:
    """The integer r with r*r == n, or None when n is not a perfect square."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True)
class PellProblem:
    """The equation u^2 - d v^2 = sign, sign in {+4, -4}."""

    d: int
    sign: int = 4

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("d must be positive")
        if self.sign not in (4, -4):
            raise ValueError("sign must be +4 or -4")


@dataclass(frozen=True)
class PellSolution:
    u: int
    v: int
    sign: int

    def check(self, d: int) -> bool:
        return self.u * self.u - d * self.v * self.v == self.sign


@dataclass(frozen=True)
class MembershipVerdict:
    is_member: bool
    index: Optional[int] = None
    parity: Optional[str] = None
    square_witness: Optional[int] = None


def compose(d: int, s1: PellSolution, s2: PellSolution) -> PellSolution:
    """Product of (u1 + v1 sqrt(d))/2 and (u2 + v2 sqrt(d))/2 as a solution.

    Both numerators are always even for solutions of the +-4 equations.
    """
    un = s1.u * s2.u + d * s1.v * s2.v
    vn = s1.u * s2.v + s2.u * s1.v
    if un % 2 or vn % 2:
        raise InvariantError("half-integer composition parity broken")
    return PellSolution(un // 2, vn // 2, s1.sign * s2.sign // 4)


def _period(d: int) -> tuple[int, list[int]]:
    """b and the partial quotients of one period of w = (b + sqrt(D))/2.

    D = d when d = 0, 1 (mod 4), and D = 4d otherwise; d is nonsquare, and b
    is the largest integer below sqrt(D) with b = D (mod 2).  The continued
    fraction of w is purely periodic.  Its complete quotients are
    (P + sqrt(D))/Q with small integers P, Q, and the period ends when
    (P, Q) returns to (b, 2).
    """
    big_d = d if d % 4 < 2 else 4 * d
    s = isqrt(big_d)
    b = s - (s - big_d) % 2
    # Q_{i+1} = Q_{i-1} + a_i (P_i - P_{i+1}) follows from
    # Q_i Q_{i+1} = D - P_{i+1}^2 and needs no division; Q_{-1} = (D - b^2)/2.
    p, q, q_prev = b, 2, (big_d - b * b) // 2
    quotients = []
    while True:
        a = (p + s) // q
        quotients.append(a)
        p, p_prev = a * q - p, p
        q, q_prev = q_prev + a * (p_prev - p), q
        if q == 2 and p == b:
            return b, quotients


def _fundamental_unit(d: int, b: int, quotients: list[int]) -> tuple[int, int]:
    """Smallest (u, v), u, v > 0, with u^2 - d v^2 = 4 (-1)^l, from the period
    (b, quotients) = _period(d) of length l.

    This is the fundamental unit (u + v sqrt(D))/2 of the quadratic order of
    discriminant D (where u and v are forced to be even when D = 4d).  The
    product of the [[a_i, 1], [1, 0]] has bottom row (q_{l-1}, q_{l-2}), and
    q_{l-1} w + q_{l-2} is the unit, of norm (-1)^l.
    """
    # Only the bottom row, (0, 1) times the product, is needed: run it through
    # the first quotients, then multiply by the tree of the remaining leaves.
    v, w = 0, 1
    for a in quotients[:_LEAF]:
        v, w = a * v + w, v
    leaves = []
    for i in range(_LEAF, len(quotients), _LEAF):
        e, f, g, h = 1, 0, 0, 1
        for a in quotients[i:i + _LEAF]:
            e, f, g, h = a * e + f, e, a * g + h, g
        leaves.append((e, f, g, h))
    e, f, g, h = mat2_product(leaves)
    v, w = v * e + w * g, v * f + w * h
    u = b * v + 2 * w
    # (u + v sqrt(4d))/2 = (u + 2v sqrt(d))/2 when D = 4d.
    return (u, v) if d % 4 < 2 else (u, 2 * v)


def fundamental_solution(problem: PellProblem) -> Optional[PellSolution]:
    """Minimal positive solution, or None when the equation has none.

    For square d and sign +4 the only solution is (2, 0).  For nonsquare d,
    u^2 - d v^2 = -4 is solvable exactly when the period is odd, so an even
    period answers None before any convergent is built.
    """
    d, sign = problem.d, problem.sign
    s = isqrt_exact(d)
    if s is not None:
        if sign == 4:
            return PellSolution(2, 0, 4)
        # u^2 - (sv)^2 = -4 factors as (sv-u)(sv+u) = 4: needs s | 2.
        if d == 1:
            return PellSolution(0, 2, -4)
        if d == 4:
            return PellSolution(0, 1, -4)
        return None
    b, quotients = _period(d)
    norm = -1 if len(quotients) % 2 else 1
    if sign == -4 and norm == 1:
        return None
    u, v = _fundamental_unit(d, b, quotients)
    unit = PellSolution(u, v, 4 * norm)
    # Here sign = -4 implies norm = -1; a unit of norm -1 squares to the +4 one.
    return unit if sign == -4 or norm == 1 else compose(d, unit, unit)


def solutions_iter(problem: PellProblem, count: int) -> list[PellSolution]:
    """First `count` positive solutions in increasing u order.

    +4: powers of the fundamental +4 solution; -4: odd powers of the
    fundamental -4 solution.  Raises ValueError when no solution exists.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    d = problem.d
    fund = fundamental_solution(problem)
    if fund is None:
        raise ValueError(f"x^2 - {d} y^2 = {problem.sign} has no solution")
    if isqrt_exact(d) is not None:
        return [fund]
    out = [fund]
    step = fund if problem.sign == 4 else compose(d, fund, fund)
    cur = fund
    for _ in range(count - 1):
        cur = compose(d, cur, step)
        if not cur.check(d):
            raise InvariantError(f"composed ({cur.u}, {cur.v}) is not a solution")
        out.append(cur)
    return out


def _witness_index(params: LucasParams, n: int, witness: int) -> int:
    """The k >= 1 with (U_k, V_k) = (n, witness), for a witness known to solve
    the Pell equation of the sequence.

    V_k = alpha^k + beta^k with |beta| = 1/alpha, so log(witness)/log(alpha)
    is k to within one; at most three lucas_uv calls confirm it.  alpha =
    (p + sqrt(D))/2 carries 64 extra bits, so its log is good to double
    precision at any size of p.
    """
    log_alpha = log((params.p << 64) + isqrt(params.discriminant << 128)) \
        - 65 * log(2)
    k = round(log(witness) / log_alpha)
    for j in (k, k - 1, k + 1):
        if j >= 1 and lucas_uv(params, j) == SeqTerm(j, n, witness):
            return j
    raise InvariantError("criterion passed but value not in sequence")


def is_gen_fib_a(n: int, a: int) -> MembershipVerdict:
    """Membership of n in {a_k}: (a^2+4)n^2 + 4 or - 4 must be a square.

    The square root is V_k; the +4 branch corresponds to even k, the -4
    branch to odd k.  Both succeed only for n = 1, a = 1, where the -4 branch
    gives the smallest index, 1.
    """
    if n < 1 or a < 1:
        raise ValueError("n and a must be >= 1")
    d = a * a + 4
    witness = isqrt_exact(d * n * n - 4)
    if witness is None:
        witness = isqrt_exact(d * n * n + 4)
        if witness is None:
            return MembershipVerdict(False)
    index = _witness_index(LucasParams(a, -1), n, witness)
    return MembershipVerdict(True, index, "odd" if index % 2 else "even", witness)


def is_gen_fib_b(n: int, b: int) -> MembershipVerdict:
    """Membership of n in {b_k}: (b^2-4)n^2 + 4 must be a square, V_k^2."""
    if n < 1 or b < 4:
        raise ValueError("need n >= 1 and b >= 4")
    witness = isqrt_exact((b * b - 4) * n * n + 4)
    if witness is None:
        return MembershipVerdict(False)
    return MembershipVerdict(True, _witness_index(LucasParams(b, 1), n, witness),
                             None, witness)
