import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellucas.lucas import (LucasParams, Mat2, check_identity_a,
                            check_identity_b, companion_power, gen_fib_a,
                            gen_fib_b, lucas_uv, m_matrix, n_matrix)
from pellucas.oracle import naive_lucas


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
    direct = Mat2.identity()
    for _ in range(n):
        direct = direct @ m_matrix(a)
    assert companion_power("M", a, n) == direct
    assert direct == Mat2(gen_fib_a(a, n - 1), gen_fib_a(a, n),
                          gen_fib_a(a, n), gen_fib_a(a, n + 1))
    assert direct.det == (-1) ** n


@given(st.integers(4, 12), st.integers(1, 60))
@settings(max_examples=40)
def test_n_matrix_power_structure(b, n):
    direct = Mat2.identity()
    for _ in range(n):
        direct = direct @ n_matrix(b)
    assert companion_power("N", b, n) == direct
    assert direct == Mat2(-gen_fib_b(b, n - 1), gen_fib_b(b, n),
                          -gen_fib_b(b, n), gen_fib_b(b, n + 1))
    assert direct.det == 1


@given(st.integers(1, 10), st.integers(1, 100), st.integers(1, 100))
@settings(max_examples=60)
def test_identities_a(a, n, k):
    for report in check_identity_a(a, n, k):
        assert report.holds, report


@given(st.integers(4, 12), st.integers(2, 100), st.integers(1, 100))
@settings(max_examples=60)
def test_identities_b_from_n2(b, n, k):
    for report in check_identity_b(b, n, k):
        assert report.holds, report


def test_identity_b_determinant_holds_at_n1():
    # b_1^2 - b_0 b_2 = 1 - 0: no alternating sign for the b-family.
    reports = {r.name: r for r in check_identity_b(5, 1)}
    assert reports["determinant"].holds and reports["determinant"].lhs == 1
    assert reports["addition"].holds and reports["trace"].holds


@given(st.integers(1, 8), st.integers(1, 200))
@settings(max_examples=40)
def test_trace_identity_m(a, n):
    lhs = (m_matrix(a) ** (2 * n)).trace
    assert lhs == (a * a + 4) * gen_fib_a(a, n) ** 2 + (-1) ** n * 2


@given(st.integers(4, 10), st.integers(1, 200))
@settings(max_examples=40)
def test_trace_identity_n(b, n):
    lhs = (n_matrix(b) ** (2 * n)).trace
    assert lhs == (b * b - 4) * gen_fib_b(b, n) ** 2 + 2


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        lucas_uv(LucasParams(1, -1), -1)


def test_degenerate_params_still_evaluate():
    params = LucasParams(2, 1)  # discriminant 0
    assert not params.nondegenerate
    t = lucas_uv(params, 7)
    assert (t.u, t.v) == (7, 2)  # U_n = n, V_n = 2 at the repeated root 1


@given(st.sampled_from("MN"), st.integers(4, 30), st.integers(10 ** 3, 3 * 10 ** 4))
@settings(max_examples=10, deadline=None)
def test_companion_power_matches_square_and_multiply_at_bigint_size(kind, value, n):
    # The power read off lucas_uv against Mat2 square-and-multiply.
    base = m_matrix(value) if kind == "M" else n_matrix(value)
    assert companion_power(kind, value, n) == base ** n
