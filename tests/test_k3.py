import pytest

from pellucas import k3
from pellucas.errors import InvariantError
from pellucas.k3 import (NotInCorrespondenceError, a_generators, case_a_lattice,
                         case_b_lattice, classify_case_a, classify_case_b,
                         correspondence_from_pair, correspondence_from_pell_y,
                         correspondence_from_term, correspondence_roundtrip,
                         rank_of_apparition)
from pellucas.lattice import is_isometry
from pellucas.lucas import Mat2, gen_fib_a, m_matrix


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
    for a in range(1, 10):
        mat_a, mat_b = a_generators(a)
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
            assert is_isometry(lat, case.action.g)
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
