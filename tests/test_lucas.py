import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pellucas import lucas, pell
from pellucas.errors import InvariantError
from pellucas.k3 import (case_a_lattice, case_b_lattice, classify_case_a,
                         classify_case_b)
from pellucas.lattice import isometry_det
from pellucas.lucas import (_FFT_HI, _FFT_LO, LucasParams, Mat2, _fft_mul,
                            _mul, companion_power, gen_fib_a, gen_fib_b,
                            lucas_uv, m_matrix, n_matrix)
from pellucas.oracle import matrix_power, naive_lucas


def test_initial_terms():
    t = lucas_uv(LucasParams(1, -1), 0)
    assert (t.u, t.v) == (0, 2)


def test_fibonacci_and_pell_numbers():
    t = lucas_uv(LucasParams(1, -1), 10)
    assert (t.u, t.v) == (55, 123)
    t = lucas_uv(LucasParams(2, -1), 5)
    assert (t.u, t.v) == (29, 82)


def test_gen_fib_examples():
    assert gen_fib_a(1, 6) == 8
    assert gen_fib_a(2, 0) == 0
    assert gen_fib_a(3, 4) == 33
    assert gen_fib_b(4, 3) == 15
    assert gen_fib_b(5, 1) == 1
    assert gen_fib_b(14, 2) == 14


def test_gen_fib_b_warns_below_4():
    with pytest.warns(UserWarning):
        gen_fib_b(3, 5)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 200))
def test_norm_identity(p, q, n):
    params = LucasParams(p, q)
    t = lucas_uv(params, n)
    assert t.v ** 2 - params.discriminant * t.u ** 2 == 4 * q ** n


@given(st.integers(-15, 15), st.integers(-15, 15), st.integers(0, 400))
@settings(max_examples=60)
def test_doubling_matches_naive(p, q, n):
    params = LucasParams(p, q)
    fast = lucas_uv(params, n)
    slow = naive_lucas(params, n)
    assert (fast.u, fast.v) == (slow.u, slow.v)


def test_companion_power_examples():
    assert companion_power("M", 1, 4) == Mat2(2, 3, 3, 5)
    assert companion_power("N", 4, 2) == Mat2(-1, 4, -4, 15)
    assert companion_power("M", 7, 1) == Mat2(0, 1, 1, 7)


@given(st.integers(1, 9), st.integers(1, 60))
@settings(max_examples=40)
def test_companion_power_matches_repeated_multiplication(a, n):
    direct = matrix_power(m_matrix(a), n)
    assert companion_power("M", a, n) == direct
    assert direct == Mat2(gen_fib_a(a, n - 1), gen_fib_a(a, n),
                          gen_fib_a(a, n), gen_fib_a(a, n + 1))
    assert direct.det == (-1) ** n


@given(st.integers(4, 12), st.integers(1, 60))
@settings(max_examples=40)
def test_n_matrix_power_structure(b, n):
    direct = matrix_power(n_matrix(b), n)
    assert companion_power("N", b, n) == direct
    assert direct == Mat2(-gen_fib_b(b, n - 1), gen_fib_b(b, n),
                          -gen_fib_b(b, n), gen_fib_b(b, n + 1))
    assert direct.det == 1


def _assert_identities_a(a, n, k):
    f = lambda i: gen_fib_a(a, i)
    # addition law
    assert f(n + k) == f(k) * f(n + 1) + f(k - 1) * f(n)
    # Catalan-type
    assert f(n + 1) * f(n - 1) - f(n) ** 2 == (-1) ** n
    # trace identity
    assert f(2 * n + 1) + f(2 * n - 1) == (a * a + 4) * f(n) ** 2 + (-1) ** n * 2


def _assert_identities_b(b, n, k):
    g = lambda i: gen_fib_b(b, i)
    # addition law
    assert g(n + k) == g(k) * g(n + 1) - g(k - 1) * g(n)
    # determinant: no alternating sign, since Q = 1
    assert g(n) ** 2 - g(n - 1) * g(n + 1) == 1
    # trace identity
    assert g(2 * n + 1) - g(2 * n - 1) == (b * b - 4) * g(n) ** 2 + 2


@given(st.integers(1, 10), st.integers(1, 100), st.integers(1, 100))
@settings(max_examples=60)
def test_identities_a(a, n, k):
    _assert_identities_a(a, n, k)


@given(st.integers(4, 12), st.integers(2, 100), st.integers(1, 100))
@settings(max_examples=60)
def test_identities_b_from_n2(b, n, k):
    _assert_identities_b(b, n, k)


def test_identity_b_determinant_holds_at_n1():
    # b_1^2 - b_0 b_2 = 1 - 0: no alternating sign for the b-family.
    _assert_identities_b(5, 1, 1)


@given(st.integers(1, 8), st.integers(1, 200))
@settings(max_examples=40)
def test_trace_identity_m(a, n):
    lhs = matrix_power(m_matrix(a), 2 * n).trace
    assert lhs == (a * a + 4) * gen_fib_a(a, n) ** 2 + (-1) ** n * 2


@given(st.integers(4, 10), st.integers(1, 200))
@settings(max_examples=40)
def test_trace_identity_n(b, n):
    lhs = matrix_power(n_matrix(b), 2 * n).trace
    assert lhs == (b * b - 4) * gen_fib_b(b, n) ** 2 + 2


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        lucas_uv(LucasParams(1, -1), -1)


def test_degenerate_params_still_evaluate():
    params = LucasParams(2, 1)
    assert params.discriminant == 0
    t = lucas_uv(params, 7)
    assert (t.u, t.v) == (7, 2)  # U_n = n, V_n = 2 at the repeated root 1


@given(st.sampled_from("MN"), st.integers(4, 30), st.integers(10 ** 3, 3 * 10 ** 4))
@settings(max_examples=10, deadline=None)
def test_companion_power_matches_square_and_multiply_at_bigint_size(kind, value, n):
    # The power read off lucas_uv against Mat2 square-and-multiply.
    base = m_matrix(value) if kind == "M" else n_matrix(value)
    assert companion_power(kind, value, n) == matrix_power(base, n)


# --- Squares through _mul, and the two-square doubling step -------------------

def _shaped(bits, seed, shape):
    """A non-negative integer of exactly `bits` bits with the given shape."""
    if bits == 0:
        return 0
    if shape == "ones":
        return (1 << bits) - 1
    if shape == "power":
        return 1 << (bits - 1)
    return random.Random(seed).getrandbits(bits) | 1 << (bits - 1)


_SHAPES = ("random", "ones", "power")


@given(st.one_of(st.integers(0, 4 * _FFT_LO), st.integers(0, 2 * 10 ** 6 + 1)),
       st.integers(0, 2 ** 32), st.sampled_from(_SHAPES), st.booleans())
@example(2 * 10 ** 6 + 1, 0, "power", False)  # 2^(2*10^6) itself
@example(2 * 10 ** 6, 1, "random", True)
@example(2 * 10 ** 6, 0, "ones", False)
@settings(max_examples=25, deadline=None)
def test_square_matches_product(bits, seed, shape, negative):
    x = _shaped(bits, seed, shape)
    x = -x if negative else x
    assert _mul(x, x) == x * x


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("offset", range(-3, 4))
def test_square_at_the_cutoff(offset, shape):
    # Both sides of the switch from plain squares to the FFT kernel.
    for seed in range(3):
        x = _shaped(_FFT_LO + offset, seed, shape)
        y = -x
        assert _mul(x, x) == x * x
        assert _mul(y, y) == x * x


def _matrix_uv(params, n):
    """(U_n, V_n) from [[p, -q], [1, 0]]^n = [[U_{n+1}, -q U_n], [U_n, ...]]."""
    m = matrix_power(Mat2(params.p, -params.q, 1, 0), n)
    return m.e10, 2 * m.e00 - params.p * m.e10


@pytest.mark.parametrize("p, q, n", [
    (20, -1, 2 * 10 ** 4),
    (25, 1, 5 * 10 ** 4),
    (-21, 3, 3 * 10 ** 4),     # negative p
    (1, 2, 2 * 10 ** 5),       # D = -7 < 0
    (3, -5, 5 * 10 ** 4),      # |q| > 1
    (2 ** 31 + 11, -3, 3000),  # |D| just below 2^64: two squares
    (2 ** 32 + 1, 1, 3000),    # |D| above 2^64: the product step
    (20, 100, 2 * 10 ** 4),    # D = 0 with big operands: U_n = n 10^(n-1)
    (2, 1, 5 * 10 ** 4),       # D = 0: U_n = n, V_n = 2
])
def test_lucas_uv_in_squaring_regime_matches_matrix_power(p, q, n):
    params = LucasParams(p, q)
    t = lucas_uv(params, n)
    assert (t.u, t.v) == _matrix_uv(params, n)
    if params.discriminant:
        # V_n doubled from half its size, so the last steps took the
        # two-square (or, for a large D, the product) step through _mul.
        assert t.v.bit_length() >= 2 * _FFT_LO


@given(st.integers(20, 40), st.integers(-9, 9).filter(bool),
       st.integers(2 * 10 ** 4, 5 * 10 ** 4))
@settings(max_examples=8, deadline=None)
def test_lucas_uv_squaring_regime_property(p, q, n):
    params = LucasParams(p, q)
    t = lucas_uv(params, n)
    assert t.v.bit_length() >= 2 * _FFT_LO
    assert (t.u, t.v) == _matrix_uv(params, n)


# --- FFT kernel ----------------------------------------------------------------

@given(st.one_of(st.sampled_from((_FFT_LO, _FFT_HI)).flatmap(
                     lambda edge: st.integers(edge - 3, edge + 3)),
                 st.integers(_FFT_HI, 2 * _FFT_HI)),
       st.integers(0, 2 ** 32), st.sampled_from(_SHAPES), st.booleans())
@example(_FFT_LO - 1, 0, "ones", False)   # the last plain square
@example(_FFT_HI + 1, 0, "ones", True)    # a Toom-3 step above the cap
@example(2 * 10 ** 6, 5, "random", True)  # one Toom-3 step, then FFT squares
@settings(max_examples=8, deadline=None)
def test_square_at_the_fft_bounds(bits, seed, shape, negative):
    x = _shaped(bits, seed, shape)
    x = -x if negative else x
    assert _mul(x, x) == x * x


def test_fft_square_of_all_ff_bytes_at_the_cap():
    # Every 12-bit digit 0xFFF (bar the top one) makes every convolution
    # coefficient as large as the cap allows: the middle one is about
    # 83 334 * 4095^2, past 2^40.
    x = (1 << _FFT_HI) - 1
    assert _mul(x, x) == x * x


def _sparse(bits, seed):
    """Top bit, a random 1000-bit tail and a run of zeros between them."""
    return 1 << (bits - 1) | random.Random(seed).getrandbits(1000)


# _fft_mul itself has no lower bound (_mul calls it from _FFT_LO bits on).
# Partial top digits near 40 000 bits, digit counts of both parities (12 *
# 3333 bits are an odd count of 12-bit digits, 12 * 3334 an even one), and
# both sides of _FFT_HI.
_KERNEL_BITS = (39_999, 40_001, 12 * 3333, 12 * 3334,
                _FFT_HI - 1, _FFT_HI + 1, 12 * 83_333)


@pytest.mark.parametrize("bits", _KERNEL_BITS)
@pytest.mark.parametrize("shape", ("ones", "random", "sparse"))
def test_fft_mul_matches_plain_multiplication(bits, shape):
    if shape == "ones":
        # Every digit 0xFFF: the square has a closed form.
        top = 1 << bits
        x, xx = top - 1, (top << bits) - 2 * top + 1
    else:
        x = _sparse(bits, 1) if shape == "sparse" else _shaped(bits, 1, shape)
        xx = x * x
    # A second factor of the same length; one plain square serves both.
    y, xy = x - 2, xx - 2 * x
    assert _fft_mul(x, x) == xx
    assert _fft_mul(-x, -x) == xx
    assert _fft_mul(x, -y) == -xy


@pytest.mark.parametrize("bits_x, bits_y", [
    (_FFT_LO, 3 * _FFT_LO),              # 1:3
    (3 * _FFT_LO + 5, _FFT_LO - 1),      # one factor just under _FFT_LO
    (_FFT_HI // 3, _FFT_HI),             # 1:3 at the cap
    (2 * _FFT_HI - _FFT_LO, _FFT_LO),    # the longest product under the cap
])
def test_fft_mul_of_unequal_lengths(bits_x, bits_y):
    for seed, shape in ((3, "random"), (0, "ones")):
        x, y = _shaped(bits_x, seed, shape), _shaped(bits_y, seed + 1, shape)
        xy = x * y
        assert _fft_mul(x, y) == xy
        assert _fft_mul(-y, x) == -xy
        assert _mul(x, y) == xy


@pytest.mark.parametrize("bits_x, bits_y", [
    (_FFT_LO - 1, _FFT_HI),        # a short factor: plain *
    (_FFT_HI + 7, _FFT_HI),        # balanced, past the cap: one Toom-3 step
    (3 * _FFT_HI, _FFT_LO + 3),    # y lies in the low piece of x's split
])
def test_mul_matches_plain_multiplication(bits_x, bits_y):
    x, y = _shaped(bits_x, 4, "random"), -_shaped(bits_y, 5, "random")
    xy = x * y
    assert _mul(x, y) == xy
    assert _mul(y, x) == xy


def test_mul_past_the_cap_with_zero_pieces():
    # A zero factor, and a power of two whose low two pieces are zero, so
    # that the Toom-3 step multiplies a zero piece at t = 0.
    x, y = _shaped(_FFT_HI + 7, 0, "power"), _shaped(_FFT_HI, 6, "random")
    assert _mul(x, 0) == _mul(0, -x) == 0
    assert _mul(x, -y) == -(x * y)
    assert _mul(y, x) == y * x


def _spy_fft_mul(monkeypatch):
    """Record, for each _fft_mul call, whether it was a square (x is y)."""
    calls = []
    true_fft_mul = lucas._fft_mul

    def spy(x, y):
        calls.append(x is y)
        return true_fft_mul(x, y)

    monkeypatch.setattr(lucas, "_fft_mul", spy)
    return calls


def test_squares_reach_the_fft_kernel_as_squares(monkeypatch):
    # A square takes one forward transform only when its operands are one
    # object; an equal copy would pay for two.
    calls = _spy_fft_mul(monkeypatch)
    d = 10_000_000_537                      # odd period; 75 kbit halves
    x = _shaped(3 * _FFT_HI, 7, "random")
    for stage in (lambda: _mul(x, x),       # Toom-3 steps past the cap
                  lambda: lucas_uv(LucasParams(1, -1), 10 ** 5),
                  lambda: pell._fundamental_unit(d, *pell._half_period(d))):
        before = len(calls)
        stage()
        assert len(calls) > before
    assert all(calls)


def _uv_mod(params, n, prime):
    """(U_n, V_n) mod prime from [[p, -q], [1, 0]]^n, square and multiply."""
    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) % prime
                           for j in range(2)) for i in range(2))
    result, base = ((1, 0), (0, 1)), ((params.p, -params.q), (1, 0))
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    u = result[1][0]
    return u, (2 * result[0][0] - params.p * u) % prime


@pytest.mark.parametrize("p, q, n", [(1, -1, 10 ** 6 + 3), (4, 1, 10 ** 6 - 7)])
def test_lucas_uv_near_a_million_in_the_fft_regime(p, q, n):
    params = LucasParams(p, q)
    t = lucas_uv(params, n)
    # V_n was squared from half its size, so the FFT kernel ran; for (4, 1) the
    # last squares (950 kbit) take one transform, just under _FFT_HI.
    assert t.v.bit_length() > 2 * _FFT_LO
    assert t.v * t.v - params.discriminant * t.u * t.u == 4 * q ** n
    prime = (1 << 89) - 1
    assert (t.u % prime, t.v % prime) == _uv_mod(params, n, prime)


def _patch_irfft(monkeypatch, delta):
    """Make the FFT kernel's inverse transform add delta to coefficient 0."""
    true_irfft = np.fft.irfft

    def wrong_irfft(*args, **kwargs):
        out = true_irfft(*args, **kwargs)
        out[0] += delta
        return out

    monkeypatch.setattr(np.fft, "irfft", wrong_irfft)


@pytest.mark.parametrize("delta, guard", [(0.5, "away from an integer"),
                                          (1.0, "check modulo")])
def test_fft_guards_raise(monkeypatch, delta, guard):
    # Half a unit fails the rounding-distance check; a whole unit rounds
    # cleanly to a wrong integer and fails the residue check.
    _patch_irfft(monkeypatch, delta)
    x = _shaped(2 * _FFT_LO, 1, "random")
    with pytest.raises(InvariantError, match=guard):
        _mul(x, x)


@pytest.mark.parametrize("delta, guard", [(0.5, "away from an integer"),
                                          (1.0, "check modulo")])
def test_fft_guards_raise_for_a_product(monkeypatch, delta, guard):
    _patch_irfft(monkeypatch, delta)
    x, y = _shaped(2 * _FFT_LO, 1, "random"), _shaped(3 * _FFT_LO, 2, "random")
    with pytest.raises(InvariantError, match=guard):
        _mul(x, y)


def test_fft_guards_raise_under_python_O():
    # -O strips assert statements; the guards must not depend on them.
    code = """
import numpy as np
from pellucas.errors import InvariantError
from pellucas.lucas import _FFT_LO, _mul
true_irfft = np.fft.irfft
x = (1 << 2 * _FFT_LO) - 12345
for delta in (0.5, 1.0):
    def wrong_irfft(*args, delta=delta, **kwargs):
        out = true_irfft(*args, **kwargs)
        out[0] += delta
        return out
    np.fft.irfft = wrong_irfft
    for call in (lambda: _mul(x, x), lambda: _mul(x, x + 1)):
        try:
            call()
        except InvariantError:
            print("raised")
"""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-B", "-O", "-c", code],
                         capture_output=True, text=True, timeout=120,
                         env={"PYTHONPATH": str(src)})
    assert out.stdout.split() == ["raised"] * 4, out.stderr


# --- Callers of the kernel -----------------------------------------------------

@pytest.mark.parametrize("flavor, param, n", [
    ("a", 100, 8011),     # m = 8011 has apparition rank 8010: ~106 kbit entries
    ("b", 104, 9952),     # ~133 kbit entries
    ("b", 104, 30_000),   # ~400 kbit entries
])
def test_isometry_and_trace_checks_match_plain_products(flavor, param, n):
    if flavor == "a":
        case = classify_case_a(n, param)
        k, lat = case.n, case_a_lattice(n, param)
        t = gen_fib_a(param, k)
        trace = (param * param + 4) * t * t + (-1) ** k * 2
    else:
        case = classify_case_b(param, n)
        k, lat = n, case_b_lattice(param)
        t = gen_fib_b(param, k)
        trace = (param * param - 4) * t * t + 2
    g = case.action.g
    assert g.e00.bit_length() > 100_000
    assert case.action.trace == trace == g.trace
    assert case.action.det == g.e00 * g.e11 - g.e01 * g.e10 == 1
    # One unit off in a corner breaks the determinant: the kernel must see it.
    assert isometry_det(lat, Mat2(g.e00 + 1, g.e01, g.e10, g.e11)) is None
