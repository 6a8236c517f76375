"""Rank-2 even lattices [[2a, b], [b, 2c]]: isometries from Pell solutions,
discriminant-group actions, and (0)/(-2)-element detection.

The (-2) search walks the continued fraction of a root of the indefinite
binary form a x^2 + b x y + c y^2 as the Pell solver does (a square
discriminant factors the form and is answered in closed form); the
exhaustive-search oracle is ``oracle.first_root_in_box``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional

from .errors import InvariantError, SearchCapExceeded
from .lucas import _FFT_LO, Mat2, _mul, is_square
from .pell import (PellProblem, PellSolution, _convergent_matrix,
                   fundamental_solution, isqrt_exact)

CYCLE_CAP = 10 ** 6


@dataclass(frozen=True)
class Lattice2:
    """Even lattice with Gram matrix [[2a, b], [b, 2c]]."""

    a: int
    b: int
    c: int

    @property
    def gram(self) -> Mat2:
        return Mat2(2 * self.a, self.b, self.b, 2 * self.c)

    @property
    def disc(self) -> int:
        return 4 * self.a * self.c - self.b * self.b

    @property
    def pell_d(self) -> int:
        return -self.disc

    @property
    def k(self) -> int:
        return gcd(gcd(self.a, self.b), self.c)

    @property
    def signature(self) -> tuple[int, int]:
        if self.disc < 0:
            return (1, 1)
        return (2, 0) if self.a > 0 else (0, 2)

    @property
    def is_hyperbolic(self) -> bool:
        return self.disc < 0

    def norm(self, x: int, y: int) -> int:
        """v^T G v; a big (-2) witness is squared by the multiply kernel."""
        return 2 * (self.a * _mul(x, x) + self.b * _mul(x, y)
                    + self.c * _mul(y, y))


@dataclass(frozen=True)
class IsometryAction:
    g: Mat2
    det: int
    trace: int
    preserves_cone: bool
    disc_action: str


def make_lattice(a: int, b: int, c: int) -> Lattice2:
    lattice = Lattice2(a, b, c)
    if lattice.disc == 0:
        raise ValueError(f"degenerate lattice: 4*{a}*{c} - {b}^2 = 0")
    return lattice


def isometry_det(lattice: Lattice2, g: Mat2) -> Optional[int]:
    """det g when g^T Q g == Q, else None; checked linearly in g's entries.

    For e = det g = +-1, g^{-1} = e adj(g), so g^T Q g = Q holds exactly when
    e Q g = adj(g)^T Q: four identities whose only full-size products are
    the two inside the determinant, which go to the FFT kernel once both
    factors of either have _FFT_LO bits.  Nothing here needs Q invertible.
    They are homogeneous in (a, b, c), so k*L is tested as L, k the content.
    """
    p, q, r, s = g.e00, g.e01, g.e10, g.e11
    if s.bit_length() < _FFT_LO and q.bit_length() < _FFT_LO:
        e = p * s - q * r  # what _mul would do, without two calls
    else:
        e = _mul(p, s) - _mul(q, r)
    if e != 1 and e != -1:
        return None
    k = lattice.k or 1  # 0 only for the zero form
    a2, b, c2 = 2 * lattice.a // k, lattice.b // k, 2 * lattice.c // k
    if (e * (a2 * p + b * r) == a2 * s - b * r
            and e * (a2 * q + b * s) == b * s - c2 * r
            and e * (b * p + c2 * r) == b * p - a2 * q
            and e * (b * q + c2 * s) == c2 * p - b * q):
        return e
    return None


def disc_group_action(lattice: Lattice2, g: Mat2) -> str:
    """'+id' / '-id' / 'other' action on the discriminant group.

    g acts as eps*id iff (g - eps*I) * Q^{-1} is integral; tested by
    divisibility of (g - eps*I) * adj(Q) by det(Q).
    """
    if isometry_det(lattice, g) is None:
        raise ValueError("matrix is not an isometry of the lattice")
    return _disc_action(lattice, g)


def _disc_action(lattice: Lattice2, g: Mat2) -> str:
    """disc_group_action for a g that the caller has just checked.

    With Q = [[2a, b], [b, 2c]], adj Q = [[2c, -b], [-b, 2a]] and
    g = [[p, q], [r, s]], the entries of (g - eps*I) * adj(Q) are
    (p - eps) 2c - q b, q 2a - (p - eps) b, r 2c - (s - eps) b and
    (s - eps) 2a - r b; g acts as eps*id when det Q divides all four.
    """
    det, a2, b, c2 = lattice.disc, 2 * lattice.a, lattice.b, 2 * lattice.c
    p, q, r, s = g.e00, g.e01, g.e10, g.e11
    for eps, tag in ((1, "+id"), (-1, "-id")):
        if (((p - eps) * c2 - q * b) % det == 0
                and (q * a2 - (p - eps) * b) % det == 0
                and (r * c2 - (s - eps) * b) % det == 0
                and ((s - eps) * a2 - r * b) % det == 0):
            return tag
    return "other"


def isometry_action(lattice: Lattice2, g: Mat2) -> IsometryAction:
    """The IsometryAction of g, which must be a det-1 isometry of lattice.

    In signature (1,1) the det-1 isometries are SO+ (trace >= 2), which keeps
    each component of the positive cone, and -SO+ (trace <= -2), which swaps
    them, so preserves_cone is the sign of the trace.
    """
    if isometry_det(lattice, g) != 1:
        raise InvariantError(f"{g} is not a det-1 isometry of {lattice}")
    return IsometryAction(g, 1, g.trace, g.trace > 0, _disc_action(lattice, g))


def isometry_from_pell(lattice: Lattice2, sol: PellSolution) -> IsometryAction:
    """The SO+ element [[(u-bv)/2, -cv], [av, (u+bv)/2]] of a +4 solution.

    Only a lattice of signature (1,1) is accepted: on a definite one the
    positive cone is not two components, so preserves_cone has no meaning.
    """
    if not lattice.is_hyperbolic:
        raise ValueError("lattice must have signature (1,1)")
    if sol.sign != 4:
        raise ValueError("only solutions of the positive equation give isometries")
    d = lattice.pell_d
    if not sol.check(d):
        raise ValueError(f"({sol.u}, {sol.v}) does not solve u^2 - {d} v^2 = 4")
    u, v, b = sol.u, sol.v, lattice.b
    # u = bv (mod 2) holds for every genuine solution: u^2 = b^2 v^2 (mod 4).
    if (u - b * v) % 2:
        raise InvariantError("parity violation in Pell solution")
    g = Mat2((u - b * v) // 2, -lattice.c * v, lattice.a * v, (u + b * v) // 2)
    return isometry_action(lattice, g)


def so_plus_generator(lattice: Lattice2) -> Optional[IsometryAction]:
    """Generator of SO+(L), or None when pell_d is square (trivial group)."""
    if not lattice.is_hyperbolic:
        raise ValueError("lattice must have signature (1,1)")
    if is_square(lattice.pell_d):
        return None
    fund = fundamental_solution(PellProblem(lattice.pell_d, 4))
    if fund is None:
        raise InvariantError(f"u^2 - {lattice.pell_d} v^2 = 4 reported unsolvable")
    return isometry_from_pell(lattice, fund)


def _represents_minus_one_walk(a: int, b: int, c: int, d: int
                               ) -> Optional[tuple[int, int]]:
    """Witness (x, y) with a x^2 + b x y + c y^2 = -1, nonsquare d = b^2-4ac.

    Walks the continued fraction of w = (-b + sqrt(d))/(2a) as
    pell._half_period does, in complete quotients (P_i + sqrt(d))/Q_i from
    P_0 = -b, Q_0 = 2a, Q_{-1} = -2c.  Its convergents p/q have
    f(p_{i-1}, q_{i-1}) = (-1)^i Q_i/2, by (2ap + bq)^2 - d q^2 = 4a f(p, q),
    and these values lead the forms of f's proper reduction cycle, so -1
    (< sqrt(d)/2 for d >= 5) is represented iff (-1)^i Q_i = -2 before the
    first reduced state recurs with i of the same parity (two laps of an odd
    period).  The witness is the first column of the quotients' product.
    """
    s = isqrt(d)
    p, q, q_prev = -b, 2 * a, -2 * c
    target, quotients, first = -2, [], None  # target = (-1)^i (-2)
    for _ in range(CYCLE_CAP):
        if q == target:
            x, _, y, _ = _convergent_matrix(quotients)
            return (x, y)
        if first is None:
            if 0 < p <= s and s - p < q <= s + p:
                first = (p, q, target)
        elif (p, q, target) == first:
            return None
        t = (p + s) // q if q > 0 else (p + s + 1) // q
        quotients.append(t)
        p_next = t * q - p  # Q_{i+1} = Q_{i-1} + t_i (P_i - P_{i+1})
        p, q, q_prev, target = p_next, q_prev + t * (p - p_next), q, -target
    raise SearchCapExceeded(f"root walk exceeded the step cap of {CYCLE_CAP}")


def _represents_minus_one_square_disc(a: int, b: int, c: int, d: int
                                      ) -> Optional[tuple[int, int]]:
    """Witness (x, y) with a x^2 + b x y + c y^2 = -1, for d = b^2 - 4ac = s^2,
    in closed form.

    For a = 0 the form is y (b x + c y), so y = 1 and b | 1 + c.  Otherwise
    4a(a x^2 + b x y + c y^2) = e f with e = 2ax + (b - s)y and
    f = 2ax + (b + s)y.  The primitive isotropic vector ((s - b)/g, 2a/g),
    g = gcd(2a, s - b), completes to a det-1 basis in which the form is
    b' X Y + c' Y^2 with b' = +-s, and e = -g Y there; -1 needs Y = +-1, so
    every witness has e = +-g.  The one with e = g, f = -4a/g is returned
    when it is integral; its negative is the only other with e = +-g.
    """
    s = isqrt(d)
    if a == 0:
        return ((-1 - c) // b, 1) if (1 + c) % b == 0 else None
    g = gcd(2 * a, s - b)
    y, r = divmod(-4 * a // g - g, 2 * s)
    if r:
        return None
    x, r = divmod(g - (b - s) * y, 2 * a)
    return None if r else (x, y)


def find_roots(lattice: Lattice2, norm_target: int) -> Optional[tuple[int, int]]:
    """Nonzero (x, y) with self-pairing norm_target in {0, -2}, or None."""
    if not lattice.is_hyperbolic:
        raise ValueError("lattice must have signature (1,1)")
    if norm_target not in (0, -2):
        raise ValueError("norm_target must be 0 or -2")
    a, b, c = lattice.a, lattice.b, lattice.c
    d = lattice.pell_d
    if norm_target == 0:
        s = isqrt_exact(d)
        if s is None:
            return None
        if a == 0:
            return (1, 0)
        x, y = s - b, 2 * a
        g = gcd(x, y)
        witness = (x // g, y // g) if g else (x, y)
        if lattice.norm(*witness) != 0:
            raise InvariantError(f"isotropic witness {witness} has nonzero norm")
        return witness
    # norm -2 means a x^2 + b x y + c y^2 = -1: content must be 1.
    if lattice.k != 1:
        return None
    if is_square(d):
        witness = _represents_minus_one_square_disc(a, b, c, d)
    else:
        witness = _represents_minus_one_walk(a, b, c, d)
    if witness is not None and lattice.norm(*witness) != -2:
        raise InvariantError(f"root witness {witness} does not have norm -2")
    return witness
