"""Lucas sequence pairs U_n, V_n and their companion-matrix machinery.

Everything here is exact integer arithmetic.  The characteristic roots are
never materialized; identities that textbooks state via the roots are
rewritten as integer identities before evaluation.

Big terms cost one full-size product and one full-size square per bit of the
index in the doubling step of lucas_uv.  From _TOOM_CUTOFF bits on, and when
the discriminant D is nonzero and below 2^64 in size, the step takes two
squares instead, and both go to _square, a Toom-3 squaring kernel that beats
CPython's Karatsuba at that size.  The two-square step divides by D, so D = 0
and large D keep the product.

The one floating-point step is _square's leaf for _FFT_LO to _FFT_HI bits:
a numpy real FFT over the bytes of the operand (numpy is imported there, on
first use).  Its rounding error has an a-priori bound far below 1/2 at the
lengths that cap allows, and every square is checked at run time by its
rounding distance and modulo 2^61 - 1; a failed check raises InvariantError.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isqrt

from .errors import InvariantError

# Bit length from which _square takes a Toom-3 step and lucas_uv doubles by
# two squares.  Swept over lucas_uv at n = 2*10^4 .. 2*10^5 for (p, q) = (1, -1)
# and (4, 1) (CPython 3.11.7, 2-vCPU x86 VM): the total time is flat from
# 10 000 to 40 000 bits, about 0.78 of the product step's, and rises to 0.83
# at 60 000 and 0.86 at 80 000.  20 000 sits inside the flat range.
_TOOM_CUTOFF = 20_000
# Bit lengths squared by the FFT leaf _fft_square.  Timed against the Toom-3
# step on random operands (median ratio of 40 alternating pairs, same VM),
# Toom-3/FFT is 0.81 at 30 000 bits, 1.10 at 40 000, 1.07-1.29 from 50 000 to
# 90 000 and 1.74 at 130 000.  _FFT_HI caps the transform length, and so its
# memory: pocketfft holds about four times the float64 array, and one
# uncapped square at 950 kbit adds 7.9 MB of peak RSS.
_FFT_LO = 40_000
_FFT_HI = 524_000
# Mersenne prime modulus of the residue check on every FFT square.
_CHECK_MODULUS = (1 << 61) - 1


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


def _smooth_length(size: int) -> int:
    """The least n = 2^a 3^b 5^c with n >= size."""
    best = 1 << (size - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-size // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _mod_m61(x: int) -> int:
    """x mod 2^61 - 1 for x >= 0, by folding: 2^s = 1 modulo it when 61 | s.

    Four times faster than x % (2^61 - 1) at a million bits (0.18 against
    0.82 ms), where CPython divides digit by digit.
    """
    while x.bit_length() > 122:
        s = x.bit_length() // 122 * 61
        x = (x >> s) + (x & ((1 << s) - 1))
    return x % _CHECK_MODULUS


def _fft_square(x: int) -> int:
    """x * x by one real FFT over the bytes of |x|, exactly or InvariantError.

    The bytes a_i of |x| (little-endian, nb of them) are the coefficients of
    a polynomial whose value at 256 is |x|.  Its square's 2 nb - 1
    coefficients come back from rfft, a pointwise square and irfft at the
    least 3-5-smooth length n >= 2 nb - 1, so nothing wraps around.  Each is
    rounded to the nearest integer and is at most nb * 255^2 < 2^33 (nb <=
    _FFT_HI / 8 = 65 500), so the bytes of all of them, taken plane by plane
    (byte j of every coefficient), add up to the square with at most five
    shifted int.from_bytes terms.

    Error bound.  For a radix-2 transform of length 2^L, Percival ("Rapid
    multiplication modulo the sum and difference of highly composite
    numbers", Math. Comp. 72, 2003) bounds the error of every coefficient by
    |a|^2 ((1 + e)^(3L) (1 + e sqrt 5)^(3L+1) (1 + b)^(3L) - 1), with
    e = 2^-53 and b the relative error of the twiddle factors.  The cap
    keeps |a|^2 <= 255^2 * 65 500 < 2^32 and n <= 2^17 = 131 072, so L <= 17
    and the bound is about 2^32 (3L + (3L + 1) sqrt 5 + 3L b/e) 2^-53, under
    2^-12 for any b <= 4e; pocketfft's radix-3 and radix-5 passes have
    constants of the same order.  The largest distance to an integer
    measured inside the cap was 2.9e-6 (all bytes 0xFF, 500 000 bits,
    n = 125 000).  Nothing rests on the bound alone: a distance of 1/4 or
    more, or a square that disagrees with (x mod M)^2 mod M for
    M = 2^61 - 1, raises InvariantError.
    """
    import numpy as np

    x = abs(x)
    nbytes = (x.bit_length() + 7) // 8
    size = 2 * nbytes - 1
    n = _smooth_length(size)
    spectrum = np.fft.rfft(np.frombuffer(x.to_bytes(nbytes, "little"),
                                         dtype=np.uint8), n)
    spectrum *= spectrum
    conv = np.fft.irfft(spectrum, n)[:size]
    del spectrum  # freed before the rounding allocates
    coeffs = np.rint(conv)
    conv -= coeffs
    drift = float(np.abs(conv, out=conv).max())
    if not drift < 0.25:
        raise InvariantError(f"FFT square of a {8 * nbytes}-bit operand is "
                             f"{drift} away from an integer")
    coeffs = coeffs.astype("<u8")
    planes = coeffs.view(np.uint8).reshape(size, 8)
    sq = 0
    for j in reversed(range((int(coeffs.max()).bit_length() + 7) // 8)):
        sq = (sq << 8) + int.from_bytes(planes[:, j].tobytes(), "little")
    xm = _mod_m61(x)
    if _mod_m61(sq) != xm * xm % _CHECK_MODULUS:
        raise InvariantError(f"FFT square of a {8 * nbytes}-bit operand "
                             f"fails its check modulo 2^61 - 1")
    return sq


def _square(x: int) -> int:
    """x * x; from _TOOM_CUTOFF bits on by one Toom-3 step, recursively, and
    from _FFT_LO to _FFT_HI bits by the FFT leaf _fft_square.

    |x| = x2 B^2 + x1 B + x0 with B = 2^k is squared at the points 0, 1, -1,
    -2 and infinity, and the five coefficients of the square come back by
    Bodrato's interpolation sequence ("Towards Optimal Toom-Cook
    Multiplication for Univariate and Multivariate Polynomials in
    Characteristic 2 and 0", WAIFI 2007), whose only divisions are one exact
    // 3 and exact halvings.  Above _FFT_HI, Toom-3 steps split the operand
    until the pieces fit the FFT leaf.
    """
    bits = x.bit_length()
    if bits < _TOOM_CUTOFF:
        return x * x
    if _FFT_LO <= bits <= _FFT_HI:
        return _fft_square(x)
    x = abs(x)
    k = (bits + 2) // 3
    mask = (1 << k) - 1
    x0, x1, x2 = x & mask, (x >> k) & mask, x >> 2 * k
    t = x0 + x2
    r0, r1, rm1 = _square(x0), _square(t + x1), _square(t - x1)
    rm2 = _square(((t - x1 + x2) << 1) - x0)
    r4 = _square(x2)
    r3 = (rm2 - r1) // 3
    r1 = (r1 - rm1) >> 1
    r2 = rm1 - r0
    r3 = ((r2 - r3) >> 1) + (r4 << 1)
    r2 += r1 - r4
    r1 -= r3
    return ((((((r4 << k) + r3) << k) + r2) << k) + r1 << k) + r0


def lucas_uv(params: LucasParams, n: int) -> SeqTerm:
    """(U_n, V_n) by the doubling scheme, O(log n) big-integer steps.

    Doubling: U_{2k} = U_k V_k, V_{2k} = V_k^2 - 2 q^k.
    Step:     U_{k+1} = (p U_k + V_k)/2, V_{k+1} = (D U_k + p V_k)/2,
    where both numerators are even because V_k = p U_k (mod 2).

    From _TOOM_CUTOFF bits of V_k on, and when 0 < |D| < 2^64, the doubling
    takes two squares instead of a product and a square, so that both go to
    the Toom-3 kernel _square: with s = V_k^2, U_k^2 = (s - 4 q^k)/D exactly
    (from V_k^2 - D U_k^2 = 4 q^k), U_{2k} = ((U_k + V_k)^2 - s - U_k^2)/2
    and V_{2k} = s - 2 q^k.  For D = 0 there is nothing to divide by; below
    the cutoff, or for a larger D, the product is the cheaper step.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    p, q = params.p, params.q
    d = params.discriminant
    # The division by D costs a few percent of a square only while D is a
    # word or two: at 40 000 bits, 4-5% for a 60- to 120-bit D but 31% for a
    # 2500-bit one, where the two-square step loses to the product.
    two_squares = 0 < abs(d) < 1 << 64
    u, v, qk = 0, 2, 1
    for bit in bin(n)[2:] if n else "":
        if two_squares and v.bit_length() >= _TOOM_CUTOFF:
            s = _square(v)
            u = (_square(u + v) - s - (s - 4 * qk) // d) >> 1
            v = s - 2 * qk
        else:
            u, v = u * v, v * v - 2 * qk
        qk *= qk
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
