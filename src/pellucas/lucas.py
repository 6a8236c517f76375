"""Lucas sequence pairs U_n, V_n and their companion-matrix machinery.

Everything here is exact integer arithmetic.  The characteristic roots are
never materialized; identities that textbooks state via the roots are
rewritten as integer identities before evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isqrt


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@dataclass(frozen=True)
class LucasParams:
    """Coefficient pair (p, q) of the recurrence x_{n+1} = p*x_n - q*x_{n-1}."""

    p: int
    q: int

    @property
    def discriminant(self) -> int:
        return self.p * self.p - 4 * self.q

    @property
    def nondegenerate(self) -> bool:
        """True when the discriminant is positive and not a perfect square."""
        d = self.discriminant
        return d > 0 and not is_square(d)


@dataclass(frozen=True)
class SeqTerm:
    """A single (U_n, V_n) pair."""

    n: int
    u: int
    v: int


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix."""

    e00: int
    e01: int
    e10: int
    e11: int

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.e00 * other.e00 + self.e01 * other.e10,
            self.e00 * other.e01 + self.e01 * other.e11,
            self.e10 * other.e00 + self.e11 * other.e10,
            self.e10 * other.e01 + self.e11 * other.e11,
        )

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            raise ValueError("negative matrix powers are not used")
        result = Mat2.identity()
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.e00 + other.e00, self.e01 + other.e01,
                    self.e10 + other.e10, self.e11 + other.e11)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.e00 - other.e00, self.e01 - other.e01,
                    self.e10 - other.e10, self.e11 - other.e11)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.e00, -self.e01, -self.e10, -self.e11)

    @property
    def trace(self) -> int:
        return self.e00 + self.e11

    @property
    def det(self) -> int:
        return self.e00 * self.e11 - self.e01 * self.e10

    @property
    def transpose(self) -> "Mat2":
        return Mat2(self.e00, self.e10, self.e01, self.e11)

    @property
    def adjugate(self) -> "Mat2":
        return Mat2(self.e11, -self.e01, -self.e10, self.e00)

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return (self.e00 * x + self.e01 * y, self.e10 * x + self.e11 * y)

    def rows(self) -> list[list[int]]:
        return [[self.e00, self.e01], [self.e10, self.e11]]


def mat2_product(mats: list[tuple[int, int, int, int]]
                 ) -> tuple[int, int, int, int]:
    """Ordered product of 2x2 matrices given as (e00, e01, e10, e11) tuples.

    Neighbours are multiplied pairwise, level by level (a balanced product
    tree), so large factors only meet near the root and have like sizes;
    multiplying left to right would instead pay a full-size bigint product
    at every step.  The empty product is the identity.
    """
    if not mats:
        return (1, 0, 0, 1)
    while len(mats) > 1:
        paired = []
        for i in range(1, len(mats), 2):
            a, b, c, d = mats[i - 1]
            e, f, g, h = mats[i]
            paired.append((a * e + b * g, a * f + b * h,
                           c * e + d * g, c * f + d * h))
        if len(mats) % 2:
            paired.append(mats[-1])
        mats = paired
    return mats[0]


def lucas_uv(params: LucasParams, n: int) -> SeqTerm:
    """(U_n, V_n) by the doubling scheme, O(log n) big-integer steps.

    Doubling: U_{2k} = U_k V_k, V_{2k} = V_k^2 - 2 q^k.
    Step:     U_{k+1} = (p U_k + V_k)/2, V_{k+1} = (D U_k + p V_k)/2,
    where both numerators are even because V_k = p U_k (mod 2).
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    p, q = params.p, params.q
    d = params.discriminant
    u, v, qk = 0, 2, 1
    for bit in bin(n)[2:] if n else "":
        u, v, qk = u * v, v * v - 2 * qk, qk * qk
        if bit == "1":
            u, v = (p * u + v) // 2, (d * u + p * v) // 2
            qk *= q
    return SeqTerm(n, u, v)


def gen_fib_a(a: int, n: int) -> int:
    """a_n for a_0=0, a_1=1, a_n = a*a_{n-1} + a_{n-2}; equals U_n(a, -1)."""
    if a < 1:
        raise ValueError("a must be >= 1")
    return lucas_uv(LucasParams(a, -1), n).u


def gen_fib_b(b: int, n: int) -> int:
    """b_n for b_0=0, b_1=1, b_n = b*b_{n-1} - b_{n-2}; equals U_n(b, 1).

    Values b < 4 are accepted (the recurrence is fine) but warned about:
    the downstream lattice constructions degenerate there.
    """
    if b < 4:
        warnings.warn(f"b={b} < 4: downstream lattice constructions degenerate",
                      stacklevel=2)
    return lucas_uv(LucasParams(b, 1), n).u


def m_matrix(a: int) -> Mat2:
    """Companion matrix [[0,1],[1,a]] of the a-sequence."""
    return Mat2(0, 1, 1, a)


def n_matrix(b: int) -> Mat2:
    """Companion matrix [[0,1],[-1,b]] of the b-sequence."""
    return Mat2(0, 1, -1, b)


def companion_power(kind: str, value: int, n: int) -> Mat2:
    """n-th power of M_a or N_b, read off one lucas_uv call.

    kind "M": returns [[a_{n-1}, a_n], [a_n, a_{n+1}]], a_k = U_k(a, -1).
    kind "N": returns [[-b_{n-1}, b_n], [-b_n, b_{n+1}]], b_k = U_k(b, 1).

    With (U_n, V_n) = lucas_uv((p, q), n): U_{n+1} = (p U_n + V_n)/2 and
    U_{n-1} = (p U_n - V_n)/(2q); both numerators are even because
    V_n = p U_n (mod 2).  So either power is
    [[(V_n - p U_n)/2, U_n], [-q U_n, (V_n + p U_n)/2]].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in ("M", "N"):
        raise ValueError(f"unknown companion kind {kind!r}")
    q = -1 if kind == "M" else 1
    t = lucas_uv(LucasParams(value, q), n)
    pu = value * t.u
    return Mat2((t.v - pu) // 2, t.u, -q * t.u, (t.v + pu) // 2)


@dataclass(frozen=True)
class IdentityReport:
    name: str
    holds: bool
    lhs: int
    rhs: int


def check_identity_a(a: int, n: int, k: int = 1) -> list[IdentityReport]:
    """Evaluate the three a-sequence identities at (n, k) and report each.

    1. addition law   a_{n+k} = a_k a_{n+1} + a_{k-1} a_n
    2. Catalan-type   a_{n+1} a_{n-1} - a_n^2 = (-1)^n
    3. trace identity a_{2n+1} + a_{2n-1} = (a^2+4) a_n^2 + (-1)^n 2
    """
    if a < 1 or n < 1 or k < 1:
        raise ValueError("a, n, k must all be >= 1")
    f = lambda i: gen_fib_a(a, i)
    reports = [
        IdentityReport("addition", True,
                       f(n + k), f(k) * f(n + 1) + f(k - 1) * f(n)),
        IdentityReport("catalan", True,
                       f(n + 1) * f(n - 1) - f(n) ** 2, (-1) ** n),
        IdentityReport("trace", True,
                       f(2 * n + 1) + f(2 * n - 1),
                       (a * a + 4) * f(n) ** 2 + (-1) ** n * 2),
    ]
    return [IdentityReport(r.name, r.lhs == r.rhs, r.lhs, r.rhs) for r in reports]


def check_identity_b(b: int, n: int, k: int = 1) -> list[IdentityReport]:
    """Evaluate the three b-sequence identities at (n, k) and report each.

    1. addition law   b_{n+k} = b_k b_{n+1} - b_{k-1} b_n
    2. determinant    b_n^2 - b_{n-1} b_{n+1} = 1   (holds for all n >= 1;
       unlike the a-sequence there is no alternating sign since Q = 1)
    3. trace identity b_{2n+1} - b_{2n-1} = (b^2-4) b_n^2 + 2
    """
    if n < 1 or k < 1:
        raise ValueError("n, k must be >= 1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = lambda i: gen_fib_b(b, i)
        reports = [
            IdentityReport("addition", True,
                           g(n + k), g(k) * g(n + 1) - g(k - 1) * g(n)),
            IdentityReport("determinant", True,
                           g(n) ** 2 - g(n - 1) * g(n + 1), 1),
            IdentityReport("trace", True,
                           g(2 * n + 1) - g(2 * n - 1),
                           (b * b - 4) * g(n) ** 2 + 2),
        ]
    return [IdentityReport(r.name, r.lhs == r.rhs, r.lhs, r.rhs) for r in reports]
