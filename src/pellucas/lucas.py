"""Lucas sequence pairs U_n, V_n and their companion-matrix machinery.

Everything here is exact integer arithmetic.  The characteristic roots are
never materialized; identities that textbooks state via the roots are
rewritten as integer identities before evaluation.

Big terms cost one full-size product and one full-size square per bit of the
index in the doubling step of lucas_uv.  From _FFT_LO bits on, and when the
discriminant D is nonzero and below 2^64 in size, the step takes two squares
instead.  The step divides by D, so D = 0 and large D keep the product.

Every full-size square and product goes to _mul, which has three size bands:
plain x * y below _FFT_LO bits; up to a cap, _fft_mul, an exact product by
one numpy real FFT convolution over 12-bit digits (numpy is imported there,
on first use); past the cap, one Toom-3 step into five smaller _mul calls.
The FFT's rounding error has an a-priori bound near 2^-4 at the lengths the
cap allows, and every result is checked at run time by its rounding distance
and modulo 2^61 - 1; a failed check raises InvariantError.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isqrt

from .errors import InvariantError

# Bit length from which _mul multiplies by _fft_mul, and lucas_uv doubles by
# two squares.  Median ms over random operands (CPython 3.11.7, 2-vCPU x86
# VM; the VM's speed moves about 1.5x between spells, so read each row on
# its own):
#
#   bits     x*x     FFT square   x*y     FFT product
#   20 000   0.122   0.152        0.185   0.221
#   25 000   0.185   0.181        0.265   0.238
#   27 500   0.212   0.189        0.301   0.249
#   30 000   0.256   0.217        0.605   0.430
#   32 500   0.485   0.361        0.723   0.496
#   35 000   0.495   0.365        0.738   0.487
#   40 000   0.676   0.425        0.993   0.572
#
# Both cross over near 25 000 bits.  A higher switch costs lucas_uv, whose
# doublings below it take the product step: with 30 000, a call whose last
# doubling starts at 26-30 kbit (e.g. (p, q) = (4, 1), n = 3*10^4) ran 1.2x
# slower than with 25 000, in one process, alternating.
#
# _FFT_HI caps the transform length (nx + ny <= 2 _FFT_HI / 12 digits), and
# so its memory and its error bound: one transform at a square of 1 000 000
# bits took 15.8 ms and 5.1 MB over a warmed-up numpy.  The top squares of
# lucas_uv(4, 1, 10^6), about 950 000 bits, take one.
_FFT_LO = 25_000
_FFT_HI = 1_000_000
# Mersenne prime modulus of the residue check on every FFT product.
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

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.e00 * other.e00 + self.e01 * other.e10,
            self.e00 * other.e01 + self.e01 * other.e11,
            self.e10 * other.e00 + self.e11 * other.e10,
            self.e10 * other.e01 + self.e11 * other.e11,
        )

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


def _fft_digits(x: int, n: int):
    """|x| in 12-bit digits, least first, in a zero float64 array of length n.

    Each 24-bit group of bytes (3k .. 3k + 2) holds digits 2k (its low 12
    bits) and 2k + 1 (its high 12 bits).  A strided uint32 view reads the
    groups straight from the bytes of |x|, one spare byte past the top.
    """
    import numpy as np

    groups = -(-x.bit_length() // 24)
    word = np.ndarray((groups,), "<u4", x.to_bytes(3 * groups + 1, "little"),
                      0, (3,))
    a = np.zeros(n)
    np.bitwise_and(word, 0xFFF, out=a[0:2 * groups:2])
    np.bitwise_and(word >> 12, 0xFFF, out=a[1:2 * groups:2])
    return a


def _fft_mul(x: int, y: int) -> int:
    """x * y by one real FFT convolution of 12-bit digits, exactly or
    InvariantError.  A square (x is y) takes one forward transform.

    The 12-bit digits of |x| (nx of them, rounded up to even) are the
    coefficients of a polynomial whose value at 2^12 is |x|; likewise |y|.
    The product's coefficients come back from rfft, a pointwise product and
    irfft at the least 3-5-smooth length n >= nx + ny, so nothing wraps
    around.  Each is rounded to the nearest integer, and neighbours are
    paired as c_2k + 2^12 c_2k+1, one uint64 per 24 bits of the product.
    The three 24-bit planes of those pairs (bytes 0-2, 3-5 and 6 of each)
    are joined by int.from_bytes and two shifted additions.

    Error bound.  For a radix-2 transform of length 2^L, Percival ("Rapid
    multiplication modulo the sum and difference of highly composite
    numbers", Math. Comp. 72, 2003) bounds the error of every coefficient by
    |x| |y| ((1 + e)^(3L) (1 + e sqrt 5)^(3L+1) (1 + b)^(3L) - 1), with
    |x|, |y| the Euclidean norms of the digit vectors, e = 2^-53 and b the
    relative error of the twiddle factors.  Under the cap (nx + ny <=
    2 _FFT_HI / 12, about 166 700) each norm squared is at most
    83 334 * 4095^2, about 2^40.4, and n <= 2^18, so L <= 18 and the bound
    is about 2^40.4 (3L + (3L + 1) sqrt 5 + 3L b/e) 2^-53, near 2^-4 for any
    b <= 4e; pocketfft's radix-3 and radix-5 passes have constants of the
    same order.  The largest distance to an integer measured with every
    digit 0xFFF was 0.0005 at 524 kbit and 0.001 at 1 Mbit.  Each coefficient
    is below 2^41 there, so a pair is below 2^53.  Nothing rests on the bound
    alone: a distance of 1/4 or more, or a result that disagrees with
    (x mod M)(y mod M) mod M for M = 2^61 - 1, raises InvariantError.
    """
    import numpy as np

    square = x is y
    negative = (x < 0) != (y < 0)
    x, y = abs(x), abs(y)
    size = 2 * (-(-x.bit_length() // 24) - (-y.bit_length() // 24))
    n = _smooth_length(size)
    spectrum = np.fft.rfft(_fft_digits(x, n))
    if square:
        spectrum *= spectrum
    else:
        spectrum *= np.fft.rfft(_fft_digits(y, n))
    conv = np.fft.irfft(spectrum, n)[:size]
    del spectrum  # freed before the rounding allocates
    coeffs = np.rint(conv)
    conv -= coeffs
    drift = float(np.abs(conv, out=conv).max())
    del conv
    if not drift < 0.25:
        raise InvariantError(f"FFT product of {x.bit_length()}- and "
                             f"{y.bit_length()}-bit operands is {drift} away "
                             f"from an integer")
    coeffs = coeffs.astype("<u8")
    pairs = coeffs[1::2] << 12
    pairs += coeffs[0::2]
    del coeffs
    top = np.zeros((len(pairs), 3), np.uint8)
    top[:, 0] = pairs.view(np.uint8)[6::8]  # byte 7 is zero
    prod = int.from_bytes(top.tobytes(), "little")
    for j in (3, 0):
        plane = np.ndarray((len(pairs),), "V3", pairs, j, (8,))
        prod = (prod << 24) + int.from_bytes(plane.tobytes(), "little")
    xm = _mod_m61(x)
    ym = xm if square else _mod_m61(y)
    if _mod_m61(prod) != xm * ym % _CHECK_MODULUS:
        raise InvariantError(f"FFT product of {x.bit_length()}- and "
                             f"{y.bit_length()}-bit operands fails its check "
                             f"modulo 2^61 - 1")
    return -prod if negative else prod


def _mul(x: int, y: int) -> int:
    """x * y: plain below _FFT_LO bits, by _fft_mul up to its cap (2 _FFT_HI
    bits of product), and past the cap by one Toom-3 step.  A square (x is
    y) stays a square all the way down, so each of its leaves takes one
    forward transform.

    The step writes |x| = x2 B^2 + x1 B + x0 with B = 2^k, k a third of the
    longer factor, and likewise |y|; multiplies the two at the points 0, 1,
    -1, -2 and infinity by five recursive _mul calls; and recovers the five
    coefficients of the product by Bodrato's interpolation sequence
    ("Towards Optimal Toom-Cook Multiplication for Univariate and
    Multivariate Polynomials in Characteristic 2 and 0", WAIFI 2007), whose
    only divisions are one exact // 3 and exact halvings.
    """
    bx, by = x.bit_length(), y.bit_length()
    if bx < _FFT_LO or by < _FFT_LO:
        return x * y
    if bx + by <= 2 * _FFT_HI:
        return _fft_mul(x, y)
    k = (max(bx, by) + 2) // 3
    px = _toom3_points(abs(x), k)
    py = px if x is y else _toom3_points(abs(y), k)
    r0, r1, rm1, rm2, r4 = map(_mul, px, py)
    r3 = (rm2 - r1) // 3
    r1 = (r1 - rm1) >> 1
    r2 = rm1 - r0
    r3 = ((r2 - r3) >> 1) + (r4 << 1)
    r2 += r1 - r4
    r1 -= r3
    prod = ((((((r4 << k) + r3) << k) + r2) << k) + r1 << k) + r0
    return -prod if (x < 0) != (y < 0) else prod


def _toom3_points(x: int, k: int) -> tuple[int, int, int, int, int]:
    """x2 t^2 + x1 t + x0, for x = x2 2^(2k) + x1 2^k + x0 >= 0, at t = 0, 1,
    -1, -2 and infinity."""
    mask = (1 << k) - 1
    x0, x1, x2 = x & mask, (x >> k) & mask, x >> 2 * k
    t = x0 + x2
    return x0, t + x1, t - x1, ((t - x1 + x2) << 1) - x0, x2


def lucas_uv(params: LucasParams, n: int) -> SeqTerm:
    """(U_n, V_n) by the doubling scheme, O(log n) big-integer steps.

    Doubling: U_{2k} = U_k V_k, V_{2k} = V_k^2 - 2 q^k.
    Step:     U_{k+1} = (p U_k + V_k)/2, V_{k+1} = (D U_k + p V_k)/2,
    where both numerators are even because V_k = p U_k (mod 2).

    Below _FFT_LO bits of V_k the doubling multiplies plainly.  From _FFT_LO
    on, and when 0 < |D| < 2^64, it takes two squares instead of a product
    and a square, since _mul squares with one forward transform where a
    product needs two: with s = V_k^2, U_k^2 = (s - 4 q^k)/D exactly (from
    V_k^2 - D U_k^2 = 4 q^k), U_{2k} = ((U_k + V_k)^2 - s - U_k^2)/2 and
    V_{2k} = s - 2 q^k.  For D = 0 there is nothing to divide by, and for a
    larger D the product is the cheaper step; both go to _mul.
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
        if v.bit_length() < _FFT_LO:
            u, v = u * v, v * v - 2 * qk
        elif two_squares:
            s = _mul(v, v)
            w = u + v
            u = (_mul(w, w) - s - (s - 4 * qk) // d) >> 1
            v = s - 2 * qk
        else:
            u, v = _mul(u, v), _mul(v, v) - 2 * qk
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
    """n-th power of M_a (kind "M", leg (a, -1)) or N_b ("N", leg (b, 1))."""
    if kind not in ("M", "N"):
        raise ValueError(f"unknown companion kind {kind!r}")
    return _companion_power(LucasParams(value, -1 if kind == "M" else 1), n)


def _companion_power(params: LucasParams, n: int) -> Mat2:
    """n-th power [[-q U_{n-1}, U_n], [-q U_n, U_{n+1}]] of [[0, 1], [-q, p]],
    q = +-1, from one lucas_uv call: U_{n+1} = (p U_n + V_n)/2 and
    U_{n-1} = (p U_n - V_n)/(2q), both numerators even as V_n = p U_n mod 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = lucas_uv(params, n)
    pu = params.p * t.u
    return Mat2((t.v - pu) // 2, t.u, -params.q * t.u, (t.v + pu) // 2)
