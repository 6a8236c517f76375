"""Naive reference implementations, kept independent of the fast paths.

These exist so property tests and the CLI --verify flag can cross-check
results by direct enumeration.  They share no code with the modules they
validate.  The big enumerations scan only the rows a residue wheel cannot
rule out, with numpy (imported on first use), and confirm every candidate
in exact integer arithmetic; the brute-force intersection search uses the
same square search.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional

from .errors import InvariantError
from .lucas import LucasParams, Mat2, SeqTerm
from .pell import MembershipVerdict, PellSolution

INT64_MAX = 2 ** 63 - 1
# Square sieve moduli (Cohen, GTM 138, Alg. 1.7.3), pairwise coprime.
WHEEL_MODULI = (64, 9, 5, 7, 11, 13, 17, 19, 23)
WHEEL_CHUNK = 1 << 16


def naive_lucas(params: LucasParams, n: int) -> SeqTerm:
    """(U_n, V_n) by the two-term recurrence."""
    if n < 0:
        raise ValueError("index must be non-negative")
    p, q = params.p, params.q
    u0, u1 = 0, 1
    v0, v1 = 2, p
    for _ in range(n):
        u0, u1 = u1, p * u1 - q * u0
        v0, v1 = v1, p * v1 - q * v0
    return SeqTerm(n, u0, v0)


def _wheel(d: int, sign: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """Ascending int64 chunks (at most 2^16 long) of the w in [lo, hi] for
    which d*w^2 + sign is a square modulo every wheel modulus.

    A square stays a square mod m, so no w with d*w^2 + sign a perfect square
    is dropped (Cohen, GTM 138, Alg. 1.7.3).  Moduli that reject no residue
    are skipped, and none is added once the wheel would outgrow [lo, hi].
    """
    import numpy as np
    wheel, residues = 1, np.zeros(1, dtype=np.int64)
    for m in WHEEL_MODULI:
        if wheel * m > hi - lo + 1:
            break
        squares = {x * x % m for x in range(m)}
        keep = [a for a in range(m) if (d * a * a + sign) % m in squares]
        if len(keep) == m:
            continue
        # Garner's step: r + wheel*((a - r) * wheel^-1 mod m) is r mod wheel
        # and a mod m, and never exceeds wheel*m.
        lift = ((np.array(keep, dtype=np.int64)[None, :]
                 - residues[:, None] % m) * pow(wheel, -1, m)) % m
        residues = np.sort((residues[:, None] + wheel * lift).ravel())
        wheel *= m
    first, count = lo // wheel, len(residues)
    total = (hi // wheel - first + 1) * count
    for start in range(0, total, WHEEL_CHUNK):
        i = np.arange(start, min(start + WHEEL_CHUNK, total), dtype=np.int64)
        w = (first + i // count) * wheel + residues[i % count]
        yield w[(w >= lo) & (w <= hi)]


def square_rows(d: int, sign: int, lo: int,
                hi: int) -> Iterator[tuple[int, int]]:
    """Iterator over (w, r) with lo <= w <= hi and d*w^2 + sign == r^2 >= 0,
    ascending in w.

    Wheel survivors pass a float-sqrt filter, then an exact isqrt check.
    Raises ValueError at once when d*w^2 + sign or the square of its rounded
    root could leave int64, where numpy would wrap silently.
    """
    top = d * hi ** 2 + max(sign, 0)
    if top > INT64_MAX or (isqrt(top) + 1) ** 2 > INT64_MAX:
        raise ValueError(f"d*w^2 + sign for d={d}, w <= {hi} exceeds int64")
    return _confirmed_rows(d, sign, lo, hi)


def _confirmed_rows(d: int, sign: int, lo: int,
                    hi: int) -> Iterator[tuple[int, int]]:
    import numpy as np
    # The guard lets d itself exceed int64 only when hi = 0, where d*w^2 = 0.
    d64 = min(d, INT64_MAX)
    for w in _wheel(d, sign, lo, hi):
        t = d64 * w * w + sign
        r = np.rint(np.sqrt(np.maximum(t, 0).astype(np.float64))).astype(np.int64)
        for ww in w[(np.abs(r * r - t) <= 2) & (t >= 0)].tolist():
            tt = d * ww * ww + sign
            rr = isqrt(tt)
            if rr * rr == tt:
                yield ww, rr


def enumerate_pell(d: int, sign: int, v_bound: int) -> list[PellSolution]:
    """All solutions of u^2 - d v^2 = sign with 0 <= v <= v_bound, u >= 0.

    Direct check of d*v^2 + sign for every v the residue wheel leaves,
    confirmed in exact integer arithmetic.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    return [PellSolution(u, v, sign) for v, u in square_rows(d, sign, 0, v_bound)]


def naive_membership(value: int, flavor: str, param: int,
                     term_bound: int = 10 ** 6) -> MembershipVerdict:
    """Membership by generating the sequence until it passes `value`."""
    if value < 1:
        raise ValueError("value must be >= 1")
    if flavor == "a":
        step = lambda prev, cur: param * cur + prev
    elif flavor == "b":
        step = lambda prev, cur: param * cur - prev
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    prev, cur = 0, 1
    k = 1
    while k <= term_bound:
        if cur == value:
            parity = ("even" if k % 2 == 0 else "odd") if flavor == "a" else None
            return MembershipVerdict(True, k, parity, None)
        if cur > value:
            break
        prev, cur = cur, step(prev, cur)
        k += 1
    return MembershipVerdict(False)


def whitney_member_mask(d: int, shift: int, bound: int) -> np.ndarray:
    """Boolean mask over n = 0..bound of `d*n^2 + shift is a perfect square`.

    Residue wheel with exact confirmation; index 0 is never a member.
    """
    import numpy as np
    rows = square_rows(d, shift, 1, bound)  # int64 guard before the mask
    mask = np.zeros(bound + 1, dtype=bool)
    for n, _ in rows:
        mask[n] = True
    return mask


def enumerate_disc_group(lattice) -> tuple[tuple[int, int], list[tuple[Fraction, Fraction]]]:
    """Invariant factors and coset representatives of the discriminant group.

    The group is (dual lattice)/(lattice); representatives are given in the
    lattice basis as fractional coordinate pairs in [0, 1).  For a 2x2 Gram
    matrix the Smith normal form is diag(g, |det|/g) with g the gcd of the
    entries.
    """
    q = lattice.gram
    det = q.det
    if det == 0:
        raise ValueError("degenerate lattice has no discriminant group")
    order = abs(det)
    if order > 10 ** 4:
        raise ValueError("discriminant group too large to enumerate")
    g = gcd(gcd(q.e00, q.e01), q.e11)
    invariants = (g, order // g)
    # The dual lattice Q^{-1} Z^2 is spanned by the columns c1, c2 of
    # adj(Q)/det; in units of 1/order they are integer vectors mod order.
    # <c1> has n1 elements and the quotient by it is cyclic, generated by c2,
    # so i*c1 + j*c2 (i < n1, j < order/n1) meets every coset exactly once.
    adj, unit = q.adjugate, 1 if det > 0 else -1
    c1 = (unit * adj.e00 % order, unit * adj.e10 % order)
    c2 = (unit * adj.e01 % order, unit * adj.e11 % order)
    n1 = order // gcd(gcd(c1[0], c1[1]), order)
    reps = [(Fraction((i * c1[0] + j * c2[0]) % order, order),
             Fraction((i * c1[1] + j * c2[1]) % order, order))
            for i in range(n1) for j in range(order // n1)]
    if len(set(reps)) != order:
        raise InvariantError(f"{len(set(reps))} distinct cosets, expected {order}")
    return invariants, reps


def disc_action_direct(lattice, g) -> str:
    """Action of g on the discriminant group by checking every coset rep."""
    _, reps = enumerate_disc_group(lattice)
    for eps, tag in ((1, "+id"), (-1, "-id")):
        ok = True
        for x, y in reps:
            gx = g.e00 * x + g.e01 * y - eps * x
            gy = g.e10 * x + g.e11 * y - eps * y
            if gx.denominator != 1 or gy.denominator != 1:
                ok = False
                break
        if ok:
            return tag
    return "other"


def naive_matrix_power(mat: Mat2, k: int) -> Mat2:
    """mat^k (k >= 1) by k - 1 successive multiplications."""
    if k < 1:
        raise ValueError("power must be >= 1")
    out = mat
    for _ in range(k - 1):
        out = out @ mat
    return out


def first_root_in_box(gram: Mat2, bound: int) -> Optional[tuple[int, int]]:
    """First v = (x, y) with |x|, |y| <= bound and v^T G v = -2, or None.

    "First" is the scan order x ascending, then y ascending.  With
    a, c = half the diagonal and b the off-diagonal Gram entry, each x is
    solved exactly for y in a x^2 + b x y + c y^2 = -1, whose discriminant
    in y is x^2 (b^2 - 4ac) - 4c; for c = 0 the equation is linear.
    """
    a, b, c = gram.e00 // 2, gram.e01, gram.e11 // 2
    for x in range(-bound, bound + 1):
        if c == 0:
            # b != 0 for a nondegenerate form, so b*x = 0 means x = 0 and the
            # equation reads 0 = -1.
            num, den = -(a * x * x + 1), b * x
            ys = [num // den] if den and num % den == 0 else []
        else:
            disc = x * x * (b * b - 4 * a * c) - 4 * c
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            ys = sorted(num // (2 * c) for num in (-b * x - s, -b * x + s)
                        if num % (2 * c) == 0)
        for y in ys:
            if -bound <= y <= bound:
                return x, y
    return None
