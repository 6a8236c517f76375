"""Exact solver for the Pell equations x^2 - d y^2 = +-4.

The fundamental solution is the fundamental unit of the quadratic order of
discriminant d (or 4d), read off half a period of a continued fraction
whose walk keeps only small integers.  The period's quotients after the
first are a palindrome, so the walk stops at its centre, where P or Q
repeats; the parity of the period is known there, and -4 on an even period
is answered None at once.  The product H of the first half's matrices comes
from a balanced product tree, and the whole period's convergents are the
first row of H H^T (odd period) or H [[a, 1], [1, 0]] H^T (even period, a
the middle quotient).  The unit is checked modulo 2^61 - 1 before it is
returned, and a failed check raises InvariantError.  Odd solutions
(d = 5 mod 8) come out directly.  The further solutions follow the Lucas
recurrence in the trace of the +4 unit.  Everything is integer arithmetic.

One unit is kept: that of the last nonsquare d built, and only once it has
passed its check.  A table asks +4, -4 and the solutions of each of one d in
a row, and each question would otherwise walk the continued fraction and
build the unit again; repeats are adjacent, so one entry serves them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, log
from itertools import islice
from typing import Iterator, Optional

from .errors import InvariantError
from .lucas import (_CHECK_MODULUS, _FFT_LO, LucasParams, SeqTerm, _mod_m61,
                    _mul, lucas_uv, mat2_product)

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
        u, v = self.u, self.v
        if u.bit_length() < _FFT_LO:
            return u * u - d * v * v == self.sign
        return _mul(u, u) - d * _mul(v, v) == self.sign


@dataclass(frozen=True)
class MembershipVerdict:
    is_member: bool
    index: Optional[int] = None
    parity: Optional[str] = None
    square_witness: Optional[int] = None


def _half_period(d: int) -> tuple[int, list[int], Optional[int]]:
    """b, the quotients a_1..a_m of the first half of the period of
    w = (b + sqrt(D))/2, and its middle quotient a_{m+1}, or None when the
    period l is odd.

    D = d when d = 0, 1 (mod 4), and D = 4d otherwise; d is nonsquare, and b
    is the largest integer below sqrt(D) with b = D (mod 2).  The continued
    fraction [a_0; a_1, ..., a_{l-1}] of w is purely periodic, and a_1..a_{l-1}
    is a palindrome because the principal cycle is symmetric.  The complete
    quotients are (P_i + sqrt(D))/Q_i with small integers P, Q, and after
    the first quotient the walk stops at the centre of the palindrome: at the
    first step with P_{i+1} = P_i, which marks l = 2m + 2 with a_i the middle
    quotient, or with Q_{i+1} = Q_i, which marks l = 2m + 1.  Period 1
    returns (P, Q) to (b, 2) after one step.
    """
    big_d = d if d % 4 < 2 else 4 * d
    s = isqrt(big_d)
    b = s - (s - big_d) % 2
    # Q_{i+1} = Q_{i-1} + a_i (P_i - P_{i+1}) follows from
    # Q_i Q_{i+1} = D - P_{i+1}^2 and needs no division; Q_{-1} = (D - b^2)/2.
    a = (b + s) // 2
    p = 2 * a - b
    q, q_prev = (big_d - b * b) // 2 + a * (b - p), 2
    half = []
    if q == 2:
        return b, half, None
    while True:
        a = (p + s) // q
        p_next = a * q - p
        if p_next == p:
            return b, half, a
        half.append(a)
        q_next = q_prev + a * (p - p_next)
        if q_next == q:
            return b, half, None
        p, q, q_prev = p_next, q_next, q


def _convergent_matrix(quotients: list[int]) -> tuple[int, int, int, int]:
    """Product of the [[t, 1], [1, 0]] over `quotients`, as (e00, e01, e10,
    e11): _LEAF quotients per small-integer leaf, then mat2_product's tree."""
    leaves = []
    for i in range(0, len(quotients), _LEAF):
        e, f, g, h = 1, 0, 0, 1
        for t in quotients[i:i + _LEAF]:
            e, f, g, h = t * e + f, e, t * g + h, g
        leaves.append((e, f, g, h))
    return mat2_product(leaves)


def _fundamental_unit(d: int, b: int, half: list[int],
                      middle: Optional[int]) -> tuple[int, int]:
    """Smallest (u, v), u, v > 0, with u^2 - d v^2 = 4 (-1)^l, from
    (b, half, middle) = _half_period(d), or InvariantError.

    This is the fundamental unit (u + v sqrt(D))/2 of the quadratic order of
    discriminant D (where u and v are forced to be even when D = 4d).  The
    product of the [[a_i, 1], [1, 0]] over the whole period has bottom row
    (q_{l-1}, q_{l-2}), and q_{l-1} w + q_{l-2} is the unit, of norm (-1)^l.
    That row is the first row of the product over a_1..a_{l-1}, which by the
    palindrome is H H^T (odd l) or H [[a_{m+1}, 1], [1, 0]] H^T (even l), H
    the product over a_1..a_m.  A wrong centre would give a wrong unit, so
    u^2 - d v^2 is checked modulo 2^61 - 1 before the unit is returned.
    """
    e, f, g, h = _convergent_matrix(half)
    if middle is None:
        v, w, norm = _mul(e, e) + _mul(f, f), e * g + f * h, -4
    else:
        x = middle * e + f
        v, w, norm = e * (x + f), x * g + e * h, 4
    u = b * v + 2 * w
    # (u + v sqrt(4d))/2 = (u + 2v sqrt(d))/2 when D = 4d.
    if d % 4 > 1:
        v *= 2
    um, vm = _mod_m61(u), _mod_m61(v)
    if (um * um - d % _CHECK_MODULUS * vm * vm - norm) % _CHECK_MODULUS:
        raise InvariantError(f"half-period unit of d = {d} fails its norm "
                             f"check modulo 2^61 - 1")
    return u, v


# (d, +4 solution, -4 solution) of the last nonsquare d whose unit was built
# and passed its norm check; the -4 entry is None on an even period, and the
# +4 entry None on an odd one until +4 is asked.  d = 0 is never asked.  It
# is read and rebound as one tuple, which is atomic, so it needs no lock.
_last: tuple[int, Optional[PellSolution], Optional[PellSolution]] = (0, None, None)


def fundamental_solution(problem: PellProblem) -> Optional[PellSolution]:
    """Minimal positive solution, or None when the equation has none.

    For square d and sign +4 the only solution is (2, 0).  For nonsquare d,
    u^2 - d v^2 = -4 is solvable exactly when the period is odd, so an even
    period answers None after half a walk, before any convergent is built.
    The unit of the last nonsquare d built is kept once it has passed its
    norm check, so asking the other sign of the same d next (or the same
    sign again) neither walks nor builds: tables ask both signs of one d in
    a row.  A -4 question answered None after the walk leaves it as it was.
    """
    global _last
    d, sign = problem.d, problem.sign
    last_d, plus, minus = _last
    if last_d != d:
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
        b, half, middle = _half_period(d)
        if sign == -4 and middle is not None:
            return None
        u, v = _fundamental_unit(d, b, half, middle)
        if middle is not None:
            plus, minus = PellSolution(u, v, 4), None
        else:
            plus, minus = None, PellSolution(u, v, -4)
    if sign == 4 and plus is None:
        # The unit of norm -1 squares to the +4 one, ((u^2 + d v^2)/2, u v),
        # and d v^2 = u^2 + 4.
        u, v = minus.u, minus.v
        plus = PellSolution(_mul(u, u) + 2, u * v, 4)
    _last = (d, plus, minus)
    return plus if sign == 4 else minus


def solutions_iter(problem: PellProblem, count: int) -> list[PellSolution]:
    """First `count` positive solutions in increasing u order.

    +4: powers of the fundamental +4 solution; -4: odd powers of the
    fundamental -4 solution.  Raises ValueError when count < 1, and then
    when no solution exists.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    fund = fundamental_solution(problem)
    if fund is None:
        raise ValueError(f"x^2 - {problem.d} y^2 = {problem.sign} has no solution")
    return list(islice(_solutions_from(problem, fund), count))


def _solutions_from(problem: PellProblem,
                    fund: PellSolution) -> Iterator[PellSolution]:
    """The positive solutions from the fundamental solution `fund` on, in
    increasing u order, for a caller that has already found it.

    They are the powers of the unit e = (u + v sqrt(d))/2 (odd powers for
    -4), so u_k and v_k both follow x_{k+1} = s x_k - x_{k-1}, with s the u
    of the +4 unit: u itself for +4 and u^2 + 2 for -4.  The term before
    `fund` is (2, 0) for +4 and (-u, v) for -4, since e^-1 = -conj(e) when
    the norm is -1.  Each solution after `fund` is checked exactly, and a
    failure raises InvariantError.  A square d has `fund` alone.
    """
    yield fund
    d, sign, u, v = problem.d, problem.sign, fund.u, fund.v
    if isqrt_exact(d) is not None:
        return
    s, u_prev, v_prev = (u, 2, 0) if sign == 4 else (u * u + 2, -u, v)
    while True:
        u, u_prev = s * u - u_prev, u
        v, v_prev = s * v - v_prev, v
        sol = PellSolution(u, v, sign)
        if not sol.check(d):
            raise InvariantError(f"recurrence gave ({u}, {v}), not a solution")
        yield sol


def _log_alpha(params: LucasParams) -> float:
    """log alpha, alpha = (p + sqrt(D))/2 the larger root, in double
    precision at any size of p: alpha carries 64 extra bits, and the log of
    the integer 2^65 alpha is taken before 65 log 2 is subtracted."""
    return log((params.p << 64) + isqrt(params.discriminant << 128)) \
        - 65 * log(2)


def _witness_index(params: LucasParams, n: int, witness: int) -> int:
    """The k >= 1 with (U_k, V_k) = (n, witness), for a witness known to solve
    the Pell equation of the sequence.

    V_k = alpha^k + beta^k with |beta| = 1/alpha, so log(witness)/log(alpha)
    is k to within one; at most three lucas_uv calls confirm it.
    """
    k = round(log(witness) / _log_alpha(params))
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
