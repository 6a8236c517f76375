import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pellucas import k3
from pellucas.errors import InvariantError
from pellucas.k3 import (NotInCorrespondenceError, case_a_lattice,
                         case_b_lattice, classify_case_a, classify_case_b,
                         correspondence_from_pair, correspondence_from_pell_y,
                         correspondence_from_term, correspondence_roundtrip,
                         rank_of_apparition)
from pellucas.lattice import isometry_det
from pellucas.lucas import Mat2, gen_fib_a, m_matrix
from pellucas.oracle import naive_matrix_power
from pellucas.pell import MembershipVerdict


def test_rank_of_apparition_examples():
    assert rank_of_apparition(2, 1) == 3
    assert rank_of_apparition(4, 1) == 6
    assert rank_of_apparition(3, 3) == 2


def test_rank_of_apparition_minimality():
    for m in range(2, 51):
        for a in range(1, 9):
            n = rank_of_apparition(m, a)
            assert gen_fib_a(a, n) % m == 0
            for j in range(1, n):
                assert gen_fib_a(a, j) % m != 0


def test_ab_product_is_m_squared():
    # The involutions A = [[1,0],[a,-1]] and B = [[1,a],[0,-1]] of case (a):
    # AB = M_a^2 for every a, which classify_case_a relies on.
    for a in list(range(-50, 51)) + [10 ** 6 + 3, 2 ** 70 + 1, -(3 ** 50)]:
        mat_a, mat_b = Mat2(1, 0, a, -1), Mat2(1, a, 0, -1)
        assert mat_a @ mat_b == Mat2(1, a, a, a * a + 1) == m_matrix(a) ** 2


def test_classify_case_a_examples():
    case = classify_case_a(2, 1)
    assert case.n == 3 and not case.symplectic
    assert case.action.trace == 18
    assert case.action.g == Mat2(5, 8, 8, 13)
    case = classify_case_a(3, 3)
    assert case.n == 2 and case.symplectic and case.action.trace == 119


def test_case_a_action_is_cone_preserving_isometry():
    for m in range(2, 12):
        for a in range(1, 6):
            case = classify_case_a(m, a)
            lat = case_a_lattice(m, a)
            assert isometry_det(lat, case.action.g) == 1
            assert case.action.det == 1 and case.action.preserves_cone


def test_classify_case_b_examples():
    case = classify_case_b(4, 1)
    assert case.action.trace == 14
    assert case.action.g == Mat2(-1, -4, 4, 15)
    assert case.action.disc_action == "+id"
    assert classify_case_b(5, 2).action.trace == 527


def test_classify_case_b_disc_action_range():
    for b in range(4, 21):
        for n in range(1, 21):
            case = classify_case_b(b, n)
            assert case.action.disc_action == "+id"
            assert case.action.preserves_cone


def test_case_b_rejects_small_b():
    with pytest.raises(ValueError):
        classify_case_b(3, 1)


def test_correspondence_term_examples():
    rec = correspondence_from_term("a", 1, 6)
    assert (rec.term, rec.x, rec.pell_sign, rec.trace) == (8, 18, 4, 322)
    rec = correspondence_from_term("b", 4, 2)
    assert (rec.term, rec.x, rec.trace) == (4, 14, 194)
    assert 14 * 14 - 12 * 16 == 4


def test_correspondence_y_index_ambiguity():
    rec = correspondence_from_pell_y("a", 1, 1)
    assert rec.index == 2


def test_correspondence_rejects_non_member():
    with pytest.raises(NotInCorrespondenceError):
        correspondence_from_pell_y("a", 1, 4)


def test_correspondence_pair_m_validation():
    rec = correspondence_from_pair("a", 1, 6, m=4)
    assert rec.m == 4
    with pytest.raises(ValueError):
        correspondence_from_pair("a", 1, 6, m=3)


def test_roundtrip_small_grid():
    for a in range(1, 9):
        for n in range(2, 31):
            assert correspondence_roundtrip("a", a, n)["pair_leg"]
    for b in range(4, 9):
        for n in range(2, 31):
            assert correspondence_roundtrip("b", b, n)["pair_leg"]


def test_lattices():
    assert case_a_lattice(2, 1).gram == Mat2(4, 2, 2, -4)
    assert case_b_lattice(5).gram == Mat2(2, 5, 5, 2)


def test_roundtrip_pair_leg_checks_the_apparition_rank(monkeypatch):
    # a_12 = 144 for a = 1, so m = 2, whose apparition rank 3 divides 12.
    assert correspondence_roundtrip("a", 1, 12)["record"].m == 2
    monkeypatch.setattr(k3, "rank_of_apparition", lambda m, a: 5)
    with pytest.raises(InvariantError):
        correspondence_roundtrip("a", 1, 12)


@given(st.integers(4, 40), st.integers(1, 300))
@settings(max_examples=30, deadline=None)
def test_case_b_action_matches_repeated_multiplication(b, n):
    c = Mat2(0, -1, 1, b)
    assert classify_case_b(b, n).action.g == naive_matrix_power(c, 2 * n)


@given(st.integers(2, 150), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_case_a_action_matches_repeated_multiplication(m, a):
    case = classify_case_a(m, a)
    assume(case.n <= 300)
    assert case.action.g == naive_matrix_power(m_matrix(a), 2 * case.n)


def _trial_division(n):
    # The odd candidates 3, 5, ..., 9999, stopping past sqrt(n).
    if n % 2 == 0:
        return 2
    i = 3
    while i * i <= n and i <= 10 ** 4:
        if n % i == 0:
            return i
        i += 2
    return n if i * i > n else None


def test_smallest_divisor_matches_trial_division():
    edge = 10001 ** 2
    cases = list(range(2, 3000)) + list(range(edge - 3000, edge + 3000))
    cases += [10007 ** 2, 10007 ** 2 - 1, 10007 ** 2 + 1, 9973 * 10007,
              10007 * 10009, 9973 ** 2, 2 ** 61 - 1, 3 ** 80]
    for n in cases:
        assert k3._smallest_divisor_ge2(n) == _trial_division(n), n
    assert k3._smallest_divisor_ge2(1) is None


def test_roundtrip_from_the_ambiguous_start_is_rejected():
    # a_1 = a_2 = 1 for a = 1: the y-leg cannot recover index 1.
    with pytest.raises(ValueError, match="ambiguous"):
        correspondence_roundtrip("a", 1, 1)
    assert correspondence_roundtrip("a", 1, 2)["record"].index == 2
    assert correspondence_roundtrip("a", 2, 1)["record"].index == 1


def test_roundtrip_divergence_is_not_taken_for_ambiguity(monkeypatch):
    # A y-leg that reports a wrong index has a different term there, so the
    # round trip must fail as a falsified correspondence, not as a bad start.
    real = k3.is_gen_fib_a

    def off_by_one(n, a):
        verdict = real(n, a)
        return MembershipVerdict(True, verdict.index + 1, verdict.parity,
                                 verdict.square_witness)

    monkeypatch.setattr(k3, "is_gen_fib_a", off_by_one)
    with pytest.raises(InvariantError, match="diverged"):
        correspondence_roundtrip("a", 2, 5)
