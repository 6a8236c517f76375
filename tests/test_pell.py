import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from math import isqrt

from pellucas import pell
from pellucas.errors import InvariantError
from pellucas.lucas import (LucasParams, is_square, lucas_uv, m_matrix,
                            mat2_product, n_matrix)
from pellucas.oracle import enumerate_pell, matrix_power, naive_membership
from pellucas.pell import (PellProblem, PellSolution, fundamental_solution,
                           is_gen_fib_a, is_gen_fib_b, isqrt_exact,
                           solutions_iter)


def _compose(d, s1, s2):
    """Reference: the product of (u1 + v1 sqrt(d))/2 and (u2 + v2 sqrt(d))/2,
    by half-integer composition, independent of the library's recurrence."""
    un = s1.u * s2.u + d * s1.v * s2.v
    vn = s1.u * s2.v + s2.u * s1.v
    assert un % 2 == 0 and vn % 2 == 0
    return PellSolution(un // 2, vn // 2, s1.sign * s2.sign // 4)


def test_isqrt_exact():
    assert isqrt_exact(324) == 18
    assert isqrt_exact(0) == 0
    assert isqrt_exact(325) is None
    assert isqrt_exact(-4) is None


@given(st.integers(0, 10 ** 30))
def test_isqrt_exact_roundtrip(n):
    r = isqrt_exact(n * n)
    assert r == n


def test_fundamental_examples():
    assert fundamental_solution(PellProblem(5, 4)) == PellSolution(3, 1, 4)
    assert fundamental_solution(PellProblem(5, -4)) == PellSolution(1, 1, -4)
    assert fundamental_solution(PellProblem(12, -4)) is None
    assert fundamental_solution(PellProblem(9, 4)) == PellSolution(2, 0, 4)


def test_solutions_iter_examples():
    assert [(s.u, s.v) for s in solutions_iter(PellProblem(5, 4), 3)] == \
        [(3, 1), (7, 3), (18, 8)]
    assert [(s.u, s.v) for s in solutions_iter(PellProblem(5, -4), 3)] == \
        [(1, 1), (4, 2), (11, 5)]
    assert [(s.u, s.v) for s in solutions_iter(PellProblem(9, 4), 1)] == [(2, 0)]


@pytest.mark.parametrize("k", [7_001, 20_001, 100_001])
@pytest.mark.parametrize("sign", [4, -4])
def test_check_of_big_solutions_matches_plain_products(k, sign):
    # The k-th power of the unit of norm sign/4 at d = 13, for odd k, is
    # (V_k(u, N), v U_k(u, N)) with (u, v) = (11, 3) or (3, 1) and N = sign/4.
    u0, v0 = (11, 3) if sign == 4 else (3, 1)
    t = lucas_uv(LucasParams(u0, sign // 4), k)
    u, v = t.v, v0 * t.u
    assert u * u - 13 * v * v == sign
    assert PellSolution(u, v, sign).check(13)
    for wrong in ((u + 2, v), (u, v + 1), (u, -v - 1)):
        assert not PellSolution(*wrong, sign).check(13)


def test_unsolvable_reported():
    with pytest.raises(ValueError):
        solutions_iter(PellProblem(7, -4), 2)


@pytest.mark.parametrize("d", [d for d in range(2, 120) if not is_square(d)])
def test_solver_matches_enumeration_small(d):
    for sign in (4, -4):
        oracle = [(s.u, s.v) for s in enumerate_pell(d, sign, 10 ** 4)]
        if sign == 4:
            oracle.remove((2, 0))
        try:
            sols = solutions_iter(PellProblem(d, sign), 12)
        except ValueError:
            assert oracle == []
            continue
        got = [(s.u, s.v) for s in sols if s.v <= 10 ** 4]
        assert got == oracle[: len(got)]
        assert len(got) >= len(oracle) or sols[-1].v > 10 ** 4


@pytest.mark.parametrize("d", [d for d in range(2, 200) if not is_square(d)])
def test_beta_squared_is_alpha(d):
    neg = fundamental_solution(PellProblem(d, -4))
    if neg is None:
        return
    pos = fundamental_solution(PellProblem(d, 4))
    assert _compose(d, neg, neg) == pos


def test_composition_sign_and_validity():
    d = 5
    a = fundamental_solution(PellProblem(d, 4))
    b = fundamental_solution(PellProblem(d, -4))
    mixed = _compose(d, a, b)
    assert mixed.sign == -4 and mixed.check(d)


def test_membership_examples():
    v = is_gen_fib_a(8, 1)
    assert (v.is_member, v.index, v.parity, v.square_witness) == (True, 6, "even", 18)
    assert not is_gen_fib_a(4, 1).is_member
    v = is_gen_fib_a(10, 3)
    assert (v.is_member, v.index, v.parity, v.square_witness) == (True, 3, "odd", 36)
    v = is_gen_fib_b(15, 4)
    assert (v.is_member, v.index, v.square_witness) == (True, 3, 52)
    assert not is_gen_fib_b(2, 4).is_member
    v = is_gen_fib_b(1, 7)
    assert (v.is_member, v.index, v.square_witness) == (True, 1, 7)


def _leg_grid(p, q):
    """Every n <= 10^4, and each member of {U_k(p, q)} up to 10^30 with its
    two neighbours."""
    prev, cur, near = 0, 1, set(range(1, 10 ** 4 + 1))
    while cur <= 10 ** 30:
        near |= {cur - 1, cur, cur + 1}
        prev, cur = cur, p * cur - q * prev
    return sorted(near - {0})


def test_membership_matches_naive_a():
    # Every leg (a, -1) with a <= 12.
    for a in range(1, 13):
        for n in _leg_grid(a, -1):
            fast = is_gen_fib_a(n, a)
            slow = naive_membership(n, LucasParams(a, -1))
            assert (fast.is_member, fast.index, fast.parity) == \
                (slow.is_member, slow.index, slow.parity), (a, n)


def test_membership_matches_naive_b():
    # Every leg (b, 1) with 4 <= b <= 12.
    for b in range(4, 13):
        for n in _leg_grid(b, 1):
            fast = is_gen_fib_b(n, b)
            slow = naive_membership(n, LucasParams(b, 1))
            assert (fast.is_member, fast.index, fast.parity) == \
                (slow.is_member, slow.index, slow.parity), (b, n)


@given(st.integers(1, 50), st.integers(4, 50), st.integers(10 ** 3, 10 ** 5))
@settings(max_examples=20, deadline=None)
def test_membership_index_in_bigint_regime(a, b, k):
    # U_k is the corner and V_k the trace of the k-th companion power, by
    # Mat2 square-and-multiply: a reference independent of lucas_uv.
    m, n = matrix_power(m_matrix(a), k), matrix_power(n_matrix(b), k)
    parity = "odd" if k % 2 else "even"
    assert astuple(is_gen_fib_a(m.e01, a)) == (True, k, parity, m.trace)
    assert astuple(is_gen_fib_b(n.e01, b)) == (True, k, None, n.trace)
    for shift in (-1, 1):
        assert not is_gen_fib_a(m.e01 + shift, a).is_member
        assert not is_gen_fib_b(n.e01 + shift, b).is_member


def test_membership_a_equals_one_takes_the_smallest_index():
    # a_1 = a_2 = 1 for a = 1: index 1, with its witness V_1 = 1.
    assert astuple(is_gen_fib_a(1, 1)) == (True, 1, "odd", 1)


@given(st.integers(2, 3000))
@settings(max_examples=100)
def test_emitted_solutions_are_sound(d):
    if is_square(d):
        return
    for sign in (4, -4):
        try:
            sols = solutions_iter(PellProblem(d, sign), 5)
        except ValueError:
            continue
        for s in sols:
            assert s.u * s.u - d * s.v * s.v == sign


def _sympy_fundamental(d, sign):
    """Least positive (u, v) with v > 0 among sympy's class representatives."""
    diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    reps = [(abs(x), abs(y)) for x, y in diophantine.diop_DN(d, sign) if y]
    return min(reps, key=lambda r: r[1], default=None)


def _pair(sol):
    return None if sol is None else (sol.u, sol.v)


def test_fundamental_matches_sympy():
    for d in range(2, 10 ** 4 + 1):
        if is_square(d):
            continue
        for sign in (4, -4):
            got = fundamental_solution(PellProblem(d, sign))
            assert _pair(got) == _sympy_fundamental(d, sign), (d, sign)


@given(st.integers(10 ** 6, 10 ** 8))
@settings(max_examples=8, deadline=None)
def test_fundamental_matches_sympy_bigint(d):
    assume(not is_square(d))
    for sign in (4, -4):
        got = fundamental_solution(PellProblem(d, sign))
        assert _pair(got) == _sympy_fundamental(d, sign), (d, sign)


@given(st.integers(10 ** 6, 10 ** 9))
@example(999999937)  # continued-fraction period 25817
@settings(max_examples=25, deadline=None)
def test_fundamental_sound_to_1e9(d):
    """+4 unit solves its equation; the -4 answer is its square root or None.

    A -4 solution (s + t sqrt(d))/2 squares to the +4 unit (u + v sqrt(d))/2
    exactly when u - 2 = s^2 and u + 2 = d t^2.
    """
    assume(not is_square(d))
    plus = fundamental_solution(PellProblem(d, 4))
    assert plus.v > 0 and plus.u * plus.u - d * plus.v * plus.v == 4
    s = isqrt_exact(plus.u - 2)
    t = isqrt_exact((plus.u + 2) // d) if (plus.u + 2) % d == 0 else None
    minus = fundamental_solution(PellProblem(d, -4))
    if s is None or t is None:
        assert minus is None
    else:
        assert _pair(minus) == (s, t) and minus.check(d)


def _raises_under_python_O(setup, call):
    """Whether `call`, after `setup`, raises InvariantError in an interpreter
    run with -O, which strips asserts."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"from pellucas.errors import InvariantError\n{setup}\n"
            "assert False, 'asserts must be stripped'\n"
            f"try:\n    {call}\nexcept InvariantError:\n"
            "    print('InvariantError')\n")
    out = subprocess.run([sys.executable, "-B", "-O", "-c", code], capture_output=True,
                         text=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "InvariantError"


def test_corrupt_unit_raises_on_the_next_solution_under_python_O():
    # (3, 2) does not solve u^2 - 5 v^2 = 4; the recurrence in its trace
    # gives (7, 6), which the exact check rejects.
    setup = ("from pellucas.pell import PellProblem, PellSolution, "
             "_solutions_from\n"
             "gen = _solutions_from(PellProblem(5, 4), PellSolution(3, 2, 4))\n"
             "next(gen)")
    assert _raises_under_python_O(setup, "next(gen)")
    gen = pell._solutions_from(PellProblem(5, 4), PellSolution(3, 2, 4))
    assert next(gen) == PellSolution(3, 2, 4)
    with pytest.raises(InvariantError):
        next(gen)


# --- solutions as a Lucas sequence ---------------------------------------------

def _lucas_solutions(d, sign, count):
    """Reference: the k-th solution is (V_k(u, N), v U_k(u, N)) for the unit
    (u + v sqrt(d))/2 of norm N = sign/4, over k = 1, 2, ... for +4 and
    odd k for -4, each term from its own lucas_uv call."""
    fund = fundamental_solution(PellProblem(d, sign))
    ks = range(1, count + 1) if sign == 4 else range(1, 2 * count, 2)
    terms = (lucas_uv(LucasParams(fund.u, sign // 4), k) for k in ks)
    return [(t.v, fund.v * t.u) for t in terms]


def test_solutions_are_lucas_terms_below_2000():
    for d in range(2, 2000):
        if is_square(d):
            continue
        for sign in (4, -4):
            if fundamental_solution(PellProblem(d, sign)) is None:
                continue
            got = [(s.u, s.v) for s in solutions_iter(PellProblem(d, sign), 12)]
            assert got == _lucas_solutions(d, sign, 12), (d, sign)


@given(st.integers(10 ** 9, 10 ** 11))
@settings(max_examples=5, deadline=None)
def test_solutions_are_lucas_terms_bigint(d):
    assume(not is_square(d))
    for sign in (4, -4):
        if fundamental_solution(PellProblem(d, sign)) is None:
            continue
        got = [(s.u, s.v) for s in solutions_iter(PellProblem(d, sign), 4)]
        assert got == _lucas_solutions(d, sign, 4), (d, sign)


def test_square_d_has_the_fundamental_solution_alone():
    # Without the stop, d = 4 with -4 would repeat (0, 1) forever.
    for d, sign, fund in ((4, -4, (0, 1)), (1, -4, (0, 2)), (9, 4, (2, 0))):
        sols = solutions_iter(PellProblem(d, sign), 5)
        assert [(s.u, s.v) for s in sols] == [fund]


def test_count_is_checked_before_solvability():
    for sign in (4, -4):  # x^2 - 7 y^2 = -4 has no solution
        with pytest.raises(ValueError, match="count must be >= 1"):
            solutions_iter(PellProblem(7, sign), 0)
    with pytest.raises(ValueError, match="has no solution"):
        solutions_iter(PellProblem(7, -4), 1)


# --- the kept unit -----------------------------------------------------------

COLD = (0, None, None)


@pytest.fixture
def cold_memo(monkeypatch):
    """Start from no kept unit, so no earlier test's d is answered from it;
    the entry before the test is restored after it."""
    monkeypatch.setattr(pell, "_last", COLD)


def _cold_answer(d, sign):
    pell._last = COLD
    return fundamental_solution(PellProblem(d, sign))


def _cold_solutions(d, sign, count):
    pell._last = COLD
    try:
        return solutions_iter(PellProblem(d, sign), count)
    except ValueError:
        return None


@pytest.mark.parametrize("ds", [
    [d for d in range(2, 2001) if not is_square(d)],
    # even and odd periods, half periods of 5 000 to 36 000 steps
    [10 ** 9 + 7, 10 ** 9 + 21, 10 ** 10 + 13, 10 ** 11 + 3, 10 ** 12 + 3,
     10 ** 12 + 85]],
    ids=["d<=2000", "d in 1e9..1e12"])
def test_kept_unit_answers_as_a_cold_one(cold_memo, ds):
    for d in ds:
        want = {sign: _cold_answer(d, sign) for sign in (4, -4)}
        sols = {sign: _cold_solutions(d, sign, 4) for sign in (4, -4)}
        for order in ((4, -4), (-4, 4)):
            pell._last = COLD
            for sign in order + order:  # the second round is all hits
                assert fundamental_solution(PellProblem(d, sign)) == want[sign]
            for sign in order:
                if sols[sign] is None:
                    with pytest.raises(ValueError, match="has no solution"):
                        solutions_iter(PellProblem(d, sign), 4)
                else:
                    assert solutions_iter(PellProblem(d, sign), 4) == sols[sign]


def _counting(monkeypatch, name):
    calls = []
    true_fn = getattr(pell, name)

    def counted(*args):
        calls.append(args)
        return true_fn(*args)

    monkeypatch.setattr(pell, name, counted)
    return calls


@pytest.mark.parametrize("d", [5, 13, 10 ** 9 + 7, 999999937])
def test_a_table_row_walks_once(cold_memo, monkeypatch, d):
    # +4, -4 and the solutions of each: one walk; a repeated +4 on an odd
    # period does not square the -4 unit again.
    walks = _counting(monkeypatch, "_half_period")
    squares = _counting(monkeypatch, "_mul")
    fundamental_solution(PellProblem(d, 4))
    squared = len(squares)
    fundamental_solution(PellProblem(d, -4))
    fundamental_solution(PellProblem(d, 4))
    assert len(squares) == squared
    solutions_iter(PellProblem(d, 4), 3)
    try:
        solutions_iter(PellProblem(d, -4), 3)
    except ValueError:
        pass
    assert len(walks) == 1


@pytest.mark.parametrize("d", [3, 6, 7, 94, 10 ** 9 + 7, 10 ** 12 + 3])
def test_minus_on_even_period_builds_no_convergent(cold_memo, monkeypatch, d):
    built = _counting(monkeypatch, "_convergent_matrix")
    assert fundamental_solution(PellProblem(d, -4)) is None
    assert built == [] and pell._last == COLD
    fundamental_solution(PellProblem(d, 4))
    assert fundamental_solution(PellProblem(d, -4)) is None
    assert len(built) == 1 and pell._last[0] == d


# --- half-period kernel -------------------------------------------------------

def _full_period(d):
    """Reference: b and the quotients of one whole period of
    w = (b + sqrt(D))/2, walked until (P, Q) returns to (b, 2)."""
    big_d = d if d % 4 < 2 else 4 * d
    s = isqrt(big_d)
    b = s - (s - big_d) % 2
    p, q, q_prev = b, 2, (big_d - b * b) // 2
    quotients = []
    while True:
        a = (p + s) // q
        quotients.append(a)
        p, p_prev = a * q - p, p
        q, q_prev = q_prev + a * (p_prev - p), q
        if q == 2 and p == b:
            return b, quotients


def _whole_period_answers(d):
    """Reference: the period and the fundamental solutions of +4 and -4 (None
    when unsolvable), from the product over the whole period, whose bottom
    row (q_{l-1}, q_{l-2}) gives the unit q_{l-1} w + q_{l-2} of norm
    (-1)^l."""
    b, quotients = _full_period(d)
    leaves = []
    for i in range(0, len(quotients), 16):
        e, f, g, h = 1, 0, 0, 1
        for a in quotients[i:i + 16]:
            e, f, g, h = a * e + f, e, a * g + h, g
        leaves.append((e, f, g, h))
    _, _, v, w = mat2_product(leaves)
    u = b * v + 2 * w
    if d % 4 > 1:
        v *= 2
    if len(quotients) % 2 == 0:
        return quotients, (u, v), None
    return quotients, ((u * u + d * v * v) // 2, u * v), (u, v)


def _answers(d):
    return tuple(_pair(fundamental_solution(PellProblem(d, sign)))
                 for sign in (4, -4))


def test_half_period_matches_whole_period_below_2e4():
    for d in range(2, 2 * 10 ** 4):
        if is_square(d):
            continue
        quotients, plus, minus = _whole_period_answers(d)
        assert _answers(d) == (plus, minus), d
        # The walk stops at the centre of the palindrome a_1..a_{l-1}.
        b, half, middle = pell._half_period(d)
        centre = [] if middle is None else [middle]
        assert quotients[1:] == half + centre + half[::-1], d
        assert (middle is None) == (len(quotients) % 2 == 1), d


@given(st.integers(10 ** 9, 10 ** 11))
@settings(max_examples=15, deadline=None)
def test_half_period_matches_whole_period_bigint(d):
    assume(not is_square(d))
    _, plus, minus = _whole_period_answers(d)
    assert _answers(d) == (plus, minus)
    assert plus[0] ** 2 - d * plus[1] ** 2 == 4
    if minus is not None:
        assert minus[0] ** 2 - d * minus[1] ** 2 == -4


@pytest.mark.parametrize("d, plus, minus", [
    (2, (6, 4), (2, 2)), (3, (4, 2), None), (5, (3, 1), (1, 1)),
    (6, (10, 4), None), (7, (16, 6), None), (8, (6, 2), (2, 1)),
    (10, (38, 12), (6, 2)), (13, (11, 3), (3, 1))])
def test_tiny_periods(d, plus, minus):
    assert _answers(d) == (plus, minus)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 100, 101, 10 ** 6 + 3, 10 ** 30 + 1,
                               10 ** 30 + 2])
def test_tiny_period_families(n):
    # Periods 1 to 4: the units of n^2 + 1, n^2 - 1, n^2 + 2 and n^2 - 2
    # in closed form (8 = 3^2 - 1 also solves -4, so n starts at 4).
    assert _answers(n * n + 1) == ((4 * n * n + 2, 4 * n), (2 * n, 2))
    assert _answers(n * n - 1) == ((2 * n, 2), None)
    assert _answers(n * n + 2) == ((2 * n * n + 2, 2 * n), None)
    assert _answers(n * n - 2) == ((2 * n * n - 2, 2 * n), None)


def test_norm_guard_catches_a_wrong_product(cold_memo, monkeypatch):
    def corrupt(mats):
        e, f, g, h = mat2_product(mats)
        return e + 1, f, g, h

    kept = fundamental_solution(PellProblem(5, 4))
    entry = pell._last
    monkeypatch.setattr(pell, "mat2_product", corrupt)
    # -4 on an even period answers None before any product is built.
    for d, sign in ((2, 4), (2, -4), (3, 4), (94, 4), (13, -4), (10 ** 9 + 7, 4)):
        with pytest.raises(InvariantError, match="norm check"):
            fundamental_solution(PellProblem(d, sign))
        assert pell._last is entry  # a unit that fails is never kept
    assert fundamental_solution(PellProblem(5, 4)) == kept


def test_norm_guard_survives_python_O():
    assert _raises_under_python_O(
        "from pellucas import pell\n"
        "product = pell.mat2_product\n"
        "pell.mat2_product = lambda m: (lambda e, f, g, h: "
        "(e + 1, f, g, h))(*product(m))",
        "pell.fundamental_solution(pell.PellProblem(10 ** 9 + 7, 4))")
