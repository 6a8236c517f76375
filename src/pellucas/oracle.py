"""Naive reference implementations, kept independent of the fast paths.

These exist so property tests and the CLI --verify flag can cross-check
results by recurrence, by enumeration and by matrix_power, the one matrix
power reference (square and multiply); they share no code with the modules
they validate.  The big enumerations scan only the rows a residue wheel cannot
rule out, with numpy (imported on first use), up to the int64 edge
``_row_edge`` where the CLI's --verify searches stop, and confirm every
candidate exactly; the brute-force intersection search, the intersect
--verify oracle, uses the same square search with a second equation.  Each
numpy chunk is whole wheel turns (turn starts plus the residue list, by
broadcasting) or a slice of one turn, filtered by a float square root in
place.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterator, Optional

from .errors import InvariantError
from .lucas import LucasParams, Mat2, SeqTerm
from .pell import MembershipVerdict, PellSolution

INT64_MAX = 2 ** 63 - 1
_ROOT = isqrt(INT64_MAX)
# Square sieve moduli (Cohen, GTM 138, Alg. 1.7.3), pairwise coprime.
WHEEL_MODULI = (64, 9, 5, 7, 11, 13, 17, 19, 23)
# Rows per numpy chunk.  Each chunk makes a few int64 temporaries of its
# length; at 2^14 rows (128 KB each) the heap hands back the memory the last
# chunk freed, where longer ones are mapped and faulted in afresh.  One
# oracle_enum pass of bench/workloads.py (seed 1, best of 7 per call, the
# cost below; 2-core Xeon VM), in ms over three rounds:
#   rows  2^13            2^14            2^15            2^16
#   ms    43.8/43.7/44.3  41.1/40.9/41.3  49.6/45.6/48.0  59.4/58.0/61.0
WHEEL_CHUNK = 1 << 14
# Rows a residue of the wheel must save to be worth building: building the
# residue list (Garner steps by table lookup, and a sort) costs about this
# many scanned rows per residue.  Warm, a residue cost 1.2-1.9 scanned rows
# (median 1.5 over 16 wheels); a list built once per call also faults in
# its pages.  Over costs 1, 1.5, 2, 3 and 4 the same pass was fastest at 3
# on seeds 1-3.
WHEEL_RESIDUE_COST = 3
# The squares modulo each wheel modulus; they do not depend on the input.
_SQUARES = {m: frozenset(x * x % m for x in range(m)) for m in WHEEL_MODULI}


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


def _wheel(d: int, sign: int, lo: int, hi: int,
           other: Optional[tuple[int, int]] = None) -> Iterator[np.ndarray]:
    """Non-empty ascending int64 chunks (at most WHEEL_CHUNK long) of the w
    in [lo, hi] for which d*w^2 + sign is a square modulo every wheel modulus
    and, given other = (d2, sign2), d*w^2 + sign - sign2 is d2 times a square
    modulo it.

    A square stays a square mod m, so no w with d*w^2 + sign a perfect square
    is dropped (Cohen, GTM 138, Alg. 1.7.3); nor, with a second equation
    x^2 - d2*z^2 = sign2 of the same x, is one where x^2 - sign2 = d2*z^2.
    The second condition prunes when d*d2 is not a square or the signs
    differ; for a square d*d2 and equal signs it is implied modulo every odd
    m prime to d2.
    Moduli that reject no residue are skipped.  A modulus m that keeps k
    residues multiplies the residue list by k and the rows left to scan by
    k/m, so none is added once the rows it would save are fewer than
    WHEEL_RESIDUE_COST times the residues it would build, or once the wheel
    would outgrow [lo, hi].
    A chunk is whole wheel turns, turn start + residue by broadcasting, or a
    slice of one turn when a turn keeps more than WHEEL_CHUNK residues; only
    the first and the last turn are trimmed to [lo, hi], and a chunk that
    trimming empties is skipped.
    """
    import numpy as np
    rows = hi - lo + 1
    wheel, residues = 1, np.zeros(1, dtype=np.int64)
    for m in WHEEL_MODULI:
        if wheel * m > rows:
            break
        squares, dm, sm = _SQUARES[m], d % m, sign % m
        if other is not None:
            # x^2 = d*a^2 + sign is also sign2 + d2 times a square mod m.
            d2, sign2 = other
            squares = squares & {(d2 * s + sign2) % m for s in squares}
        keep = [a for a in range(m) if (dm * a * a + sm) % m in squares]
        if not keep:
            return
        if len(keep) == m:
            continue
        # Per residue of the wheel so far: rows * (m - k) / (wheel * m) rows
        # saved against k residues built.
        if rows * (m - len(keep)) < WHEEL_RESIDUE_COST * wheel * m * len(keep):
            break
        # Garner's step: r + wheel*((a - r) * wheel^-1 mod m) is r mod wheel
        # and a mod m, and never exceeds wheel*m.  It depends on r only
        # through rho = r mod m, so row rho of the table holds it for each a.
        rho = np.arange(m, dtype=np.int64)[:, None]
        step = ((np.array(keep, dtype=np.int64) - rho) * pow(wheel, -1, m)
                % m * wheel)
        residues = np.sort((residues[:, None] + step[residues % m]).ravel())
        wheel *= m
    count = len(residues)
    per_chunk = max(1, WHEEL_CHUNK // count)
    # Equal slices: chunks of one size reuse the same freed memory.
    slices = np.array_split(residues, -(-count // WHEEL_CHUNK))
    first, last = lo // wheel, hi // wheel
    for turn in range(first, last + 1, per_chunk):
        turns = np.arange(turn, min(turn + per_chunk, last + 1),
                          dtype=np.int64) * wheel
        for part in slices:
            w = (turns[:, None] + part).ravel()
            if w[0] < lo or w[-1] > hi:
                w = w[np.searchsorted(w, lo):np.searchsorted(w, hi, "right")]
                if not len(w):
                    continue
            yield w


def square_rows(d: int, sign: int, lo: int, hi: int,
                other: Optional[tuple[int, int]] = None
                ) -> Iterator[tuple[int, int]]:
    """Iterator over (w, r) with lo <= w <= hi and d*w^2 + sign == r^2 >= 0,
    ascending in w; given other = (d2, sign2), only those with r^2 - sign2
    equal to d2 times a perfect square.

    Wheel survivors pass a float-sqrt filter, then exact isqrt checks.
    Raises ValueError at once when hi passes ``_row_edge(d, sign)``, where
    numpy would wrap silently.
    """
    if hi > _row_edge(d, sign):
        raise ValueError(f"d*w^2 + sign for d={d}, w <= {hi} exceeds int64")
    return _confirmed_rows(d, sign, lo, hi, other)


def _row_edge(d: int, sign: int) -> int:
    """The largest hi that ``square_rows(d, sign, lo, hi)`` takes: the largest
    w with t = d*w^2 + max(sign, 0) < _ROOT^2, so that t and the square of its
    rounded root, at most (isqrt(t) + 1)^2, both fit int64."""
    return isqrt((_ROOT * _ROOT - 1 - max(sign, 0)) // d)


def _confirmed_rows(d: int, sign: int, lo: int, hi: int,
                    other: Optional[tuple[int, int]]
                    ) -> Iterator[tuple[int, int]]:
    import numpy as np
    # The guard lets d itself exceed int64 only when hi = 0, where d*w^2 = 0.
    d64 = min(d, INT64_MAX)
    for w in _wheel(d, sign, lo, hi, other):
        # t = d*w^2 + sign and |rint(sqrt(t))^2 - t|, in place.  A negative
        # t (sign < 0 and d*w^2 < -sign) is clipped to 0 for the square root;
        # the exact check below drops its row.
        t = np.multiply(w, w)
        t *= d64
        t += sign
        if sign < 0:
            np.maximum(t, 0, out=t)
        r = np.sqrt(t)
        # Round, and store the int64 root over the float one.
        r = np.rint(r, out=r.view(np.int64), casting="unsafe")
        r *= r
        r -= t
        np.abs(r, out=r)
        for ww in w[r <= 2].tolist():
            tt = d * ww * ww + sign
            if tt >= 0:
                rr = isqrt(tt)
                if rr * rr == tt and (other is None or _solves(rr, *other)):
                    yield ww, rr


def _solves(x: int, d2: int, sign2: int) -> bool:
    """True when x^2 - d2*z^2 = sign2 for an integer z."""
    num = x * x - sign2
    if num < 0 or num % d2:
        return False
    z = isqrt(num // d2)
    return z * z == num // d2


def enumerate_pell(d: int, sign: int, v_bound: int) -> list[PellSolution]:
    """All solutions of u^2 - d v^2 = sign with 0 <= v <= v_bound, u >= 0.

    Direct check of d*v^2 + sign for every v the residue wheel leaves,
    confirmed in exact integer arithmetic.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    return [PellSolution(u, v, sign) for v, u in square_rows(d, sign, 0, v_bound)]


def naive_membership(value: int, params: LucasParams) -> MembershipVerdict:
    """Membership by generating U_k = p U_{k-1} - q U_{k-2} until it passes
    `value`; parity is reported for q = -1.  Only the increasing legs,
    q = -1 with p >= 1 and q = +1 with p >= 2, are accepted."""
    if value < 1:
        raise ValueError("value must be >= 1")
    p, q = params.p, params.q
    if q not in (-1, 1) or p < (1 if q == -1 else 2):
        raise ValueError(f"U_k({p}, {q}) does not increase")
    prev, cur, k = 0, 1, 1
    while cur < value:
        prev, cur, k = cur, p * cur - q * prev, k + 1
    if cur != value:
        return MembershipVerdict(False)
    parity = ("even" if k % 2 == 0 else "odd") if q == -1 else None
    return MembershipVerdict(True, k, parity, None)


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


def _disc_cosets(lattice) -> tuple[int, list[tuple[int, int]]]:
    """The order |det| of the discriminant group (dual lattice)/(lattice)
    and its coset representatives as integer numerators (X, Y) in
    [0, |det|): the representative is (X, Y)/|det| in the lattice basis."""
    q = lattice.gram
    det = q.det
    if det == 0:
        raise ValueError("degenerate lattice has no discriminant group")
    order = abs(det)
    if order > 10 ** 4:
        raise ValueError("discriminant group too large to enumerate")
    # The dual lattice Q^{-1} Z^2 is spanned by the columns c1, c2 of
    # adj(Q)/det; in units of 1/order they are integer vectors mod order.
    # <c1> has n1 elements and the quotient by it is cyclic, generated by c2,
    # so i*c1 + j*c2 (i < n1, j < order/n1) meets every coset exactly once.
    adj, unit = q.adjugate, 1 if det > 0 else -1
    c1 = (unit * adj.e00 % order, unit * adj.e10 % order)
    c2 = (unit * adj.e01 % order, unit * adj.e11 % order)
    n1 = order // gcd(gcd(c1[0], c1[1]), order)
    cosets = [((i * c1[0] + j * c2[0]) % order, (i * c1[1] + j * c2[1]) % order)
              for i in range(n1) for j in range(order // n1)]
    if len(set(cosets)) != order:
        raise InvariantError(f"{len(set(cosets))} distinct cosets, expected {order}")
    return order, cosets


def disc_action_direct(lattice, g) -> str:
    """Action of g on the discriminant group by checking every coset rep.

    g acts as eps*id when (g - eps*id) maps each representative (X, Y)/|det|
    into the lattice, i.e. both coordinates of (g - eps*id)(X, Y) are
    divisible by |det|.
    """
    return _coset_action(*_disc_cosets(lattice), g)


def _coset_action(order: int, cosets: list[tuple[int, int]], g) -> str:
    """``disc_action_direct`` given ``_disc_cosets`` of the lattice, so that
    a caller checking several g builds the cosets once."""
    for eps, tag in ((1, "+id"), (-1, "-id")):
        a, b, c, d = g.e00 - eps, g.e01, g.e10, g.e11 - eps
        if all((a * x + b * y) % order == 0 and (c * x + d * y) % order == 0
               for x, y in cosets):
            return tag
    return "other"


def matrix_power(mat: Mat2, k: int) -> Mat2:
    """mat^k (k >= 0) by binary square and multiply, left to right, in
    Mat2's plain products: independent of lucas_uv and of _mul."""
    if k < 0:
        raise ValueError("power must be >= 0")
    out = Mat2(1, 0, 0, 1)
    for bit in bin(k)[2:]:
        out = out @ out
        if bit == "1":
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
