from fractions import Fraction
from itertools import islice
from math import pi

import pytest

from pellucas import intersection
from pellucas.intersection import (DEFAULT_CAP, PellSystem, SearchCapExceeded,
                                   _convergents, _triple_for_x,
                                   brute_force_common, common_lucas_params,
                                   intersect, minimal_trace_match,
                                   square_product_test)
from pellucas.lucas import LucasParams, gen_fib_a, gen_fib_b, is_square, lucas_uv
from pellucas.oracle import common_from_units


def test_square_product_examples():
    assert square_product_test(PellSystem("plus_plus", 1, 4))
    assert not square_product_test(PellSystem("plus_plus", 1, 2))
    assert square_product_test(PellSystem("minus_minus", 4, 14))


# Each cap sits at or just above the known answer's max(m, n), so a search
# that skips the match fails at once instead of running on toward the
# default cap.

def test_minimal_trace_match_examples():
    assert minimal_trace_match(PellSystem("plus_plus", 1, 4), cap=4) == (3, 1)
    assert minimal_trace_match(PellSystem("minus_minus", 4, 14), cap=3) == (2, 1)
    assert minimal_trace_match(PellSystem("mixed", 1, 7), cap=5) == (4, 1)
    # Both indices above 1, in both orders.
    assert minimal_trace_match(PellSystem("plus_plus", 4, 11), cap=5) == (5, 3)
    assert minimal_trace_match(PellSystem("plus_plus", 11, 4), cap=5) == (3, 5)
    assert minimal_trace_match(PellSystem("mixed", 11, 18), cap=6) == (6, 5)


def test_intersect_examples():
    r = intersect(PellSystem("plus_plus", 1, 4), 4, cap=4)
    assert [s[0] for s in r.solutions] == [2, 4, 18, 76]
    assert r.solutions[1] == (4, 2, 1) and r.solutions[2] == (18, 8, 4)
    assert r.common_params == LucasParams(4, -1)

    r = intersect(PellSystem("minus_minus", 4, 14), 3, cap=3)
    assert [s[0] for s in r.solutions] == [2, 14, 194]
    assert r.solutions[1] == (14, 4, 1)
    assert r.common_params == LucasParams(14, 1)

    r = intersect(PellSystem("mixed", 1, 7), 4, cap=5)
    assert [s[0] for s in r.solutions] == [2, 7, 47, 322]
    assert r.solutions[1] == (7, 3, 1)
    assert r.common_params == LucasParams(7, 1)


def test_nonsquare_trivial_only():
    r = intersect(PellSystem("plus_plus", 1, 2), 5)
    assert r.verdict == "trivial_only" and r.solutions == [(2, 0, 0)]


def test_brute_force_examples():
    s = PellSystem("plus_plus", 1, 4)
    assert brute_force_common(s, 100) == [(2, 0, 0), (4, 2, 1), (18, 8, 4), (76, 34, 17)]
    assert brute_force_common(PellSystem("plus_plus", 1, 2), 10 ** 6) == [(2, 0, 0)]
    assert brute_force_common(PellSystem("plus_plus", 1, 2), 10 ** 8) == [(2, 0, 0)]
    # The scan of d2 = 13 at the int64 edge; x = 3 and 11 take one sign
    # pairing each.
    assert brute_force_common(PellSystem("opposite_signs", 1, 3),
                              3 * 10 ** 9) == [(3, 1, 1), (11, 5, 3)]
    assert brute_force_common(PellSystem("minus_minus", 4, 14), 200) == \
        [(2, 0, 0), (14, 4, 1), (194, 56, 14)]


def _walk(system, x_bound):
    """Reference: every x in [2, x_bound] substituted into both equations."""
    triples = (_triple_for_x(system, x) for x in range(2, x_bound + 1))
    return [t for t in triples if t is not None]


def test_brute_force_paths_agree():
    # the residue-wheel search against the walk over every x
    for system in (PellSystem("plus_plus", 1, 4),
                   PellSystem("minus_minus", 4, 14),
                   PellSystem("mixed", 1, 7),
                   PellSystem("opposite_signs", 1, 3)):
        assert brute_force_common(system, 150_000) == _walk(system, 150_000)


@pytest.mark.parametrize("flavor", intersection.FLAVORS)
def test_unit_oracle_agrees_with_brute_force(flavor):
    # Every system with p1, p2 <= 30: the units oracle shares nothing with
    # the square search, whose wheel sieves with both equations.  It is the
    # --verify oracle of the opposite_signs flavor, whose fast path is
    # brute_force_common itself; p = 2 gives d = 8 and the point x = 2.
    for p1 in range(1, 31):
        for p2 in range(1, 31):
            try:
                system = PellSystem(flavor, p1, p2)
            except ValueError:
                continue
            for x_bound in (2, 10, 10 ** 6):
                assert (common_from_units(system, x_bound)
                        == brute_force_common(system, x_bound)), system


def test_brute_force_huge_p_small_bound():
    # d exceeds int64 while no w >= 1 is in range: only the row w = 0 is left.
    p = 10 ** 10
    for x_bound in (2, 3, 1000):
        for flavor, want in (("plus_plus", [(2, 0, 0)]), ("opposite_signs", [])):
            system = PellSystem(flavor, p, p + 1)
            assert brute_force_common(system, x_bound) == want
            assert _walk(system, x_bound) == want


def test_solutions_substitute_exactly():
    for system in (PellSystem("plus_plus", 1, 4),
                   PellSystem("minus_minus", 4, 14),
                   PellSystem("mixed", 1, 7)):
        r = intersect(system, 8)
        for x, y, z in r.solutions:
            assert (x * x - system.d1 * y * y,
                    x * x - system.d2 * z * z) in system.sign_pairs


def test_lucas_closure_of_emitted_x():
    r = intersect(PellSystem("plus_plus", 1, 4), 10)
    p, q = r.common_params.p, r.common_params.q
    xs = [s[0] for s in r.solutions]
    for k in range(2, len(xs)):
        assert xs[k] == p * xs[k - 1] - q * xs[k - 2]
    assert not is_square(r.common_params.discriminant)


def test_common_params_cross_flavor_identity():
    system = PellSystem("minus_minus", 4, 14)
    m, n = minimal_trace_match(system)
    params = common_lucas_params(system, m, n)
    assert params.p == lucas_uv(LucasParams(4, 1), m).v
    assert params.p == lucas_uv(LucasParams(14, 1), n).v


def test_divisor_structure_of_further_matches():
    system = PellSystem("plus_plus", 1, 4)
    m, n = minimal_trace_match(system)
    d1, d2 = system.d1, system.d2
    from pellucas.lucas import gen_fib_a
    matches = []
    for k in range(1, 10 * m + 1):
        w = d1 * gen_fib_a(1, k) ** 2
        for l in range(1, 200):
            if d2 * gen_fib_a(4, l) ** 2 == w and (k - l) % 2 == 0:
                matches.append((k, l))
    for k, l in matches:
        assert k % m == 0 and l % n == 0


def test_opposite_signs_requires_bound():
    with pytest.raises(ValueError):
        intersect(PellSystem("opposite_signs", 1, 3), 3)
    r = intersect(PellSystem("opposite_signs", 1, 3), 5, x_bound=10 ** 5)
    assert r.verdict == "finite_only"
    assert (3, 1, 1) in r.solutions


@pytest.mark.parametrize("flavor, p1, p2", [("plus_plus", 1, 4),
                                            ("minus_minus", 4, 14),
                                            ("mixed", 1, 7)])
def test_x_bound_is_refused_where_it_would_be_unread(flavor, p1, p2):
    # These flavors are decided in full; a bound would be silently ignored.
    with pytest.raises(ValueError, match="x_bound"):
        intersect(PellSystem(flavor, p1, p2), 3, x_bound=10)


def test_domain_validation():
    with pytest.raises(ValueError):
        PellSystem("minus_minus", 3, 14)
    with pytest.raises(ValueError):
        PellSystem("plus_plus", 2, 2)
    with pytest.raises(ValueError):
        PellSystem("mixed", 1, 3)


def test_cap_exceeded_is_reported():
    system = PellSystem("plus_plus", 1, 4)
    with pytest.raises(SearchCapExceeded, match=r"max\(m, n\) <= 2 for"):
        minimal_trace_match(system, cap=2)


def test_intersect_agrees_with_brute_force_grid():
    systems = []
    for p1 in range(1, 12):
        for p2 in range(p1 + 1, 13):
            systems.append(PellSystem("plus_plus", p1, p2))
    for p1 in range(4, 12):
        for p2 in range(p1 + 1, 13):
            systems.append(PellSystem("minus_minus", p1, p2))
    for a in range(1, 8):
        for b in range(4, 13):
            systems.append(PellSystem("mixed", a, b))
    for system in systems:
        expect = brute_force_common(system, 100_000)
        if square_product_test(system):
            r = intersect(system, 12)
            got = [s for s in r.solutions if s[0] <= 100_000]
            assert got == expect, system
        else:
            assert expect == [(2, 0, 0)], system


def _trace_match_reference(system, cap=10 ** 4):
    # Two-pointer merge with every weight recomputed from scratch.
    kind1 = "b" if system.flavor == "minus_minus" else "a"
    kind2 = "b" if system.flavor in ("minus_minus", "mixed") else "a"
    term = {"a": gen_fib_a, "b": gen_fib_b}
    step1 = 2 if system.flavor == "mixed" else 1
    m, n = step1, 1
    while max(m, n) <= cap:
        w1 = system.d1 * term[kind1](system.p1, m) ** 2
        w2 = system.d2 * term[kind2](system.p2, n) ** 2
        if w1 == w2 and (system.flavor != "plus_plus" or (m - n) % 2 == 0):
            return m, n
        if w1 <= w2:
            m += step1
        if w2 <= w1:
            n += 1
    return None


def _square_systems(top):
    """Every square system of the three infinite flavors with p1, p2 <= top,
    in both orders."""
    systems = []
    for flavor in ("plus_plus", "minus_minus", "mixed"):
        for p1 in range(1, top + 1):
            for p2 in range(1, top + 1):
                try:
                    system = PellSystem(flavor, p1, p2)
                except ValueError:
                    continue
                if square_product_test(system):
                    systems.append(system)
    return systems


def _towers():
    """p2 = V_k(p1) and its mirror: the least match is (k, 1), or (1, k)."""
    out = []
    for flavor, q, p1, k in (("plus_plus", -1, 1, 3001),
                             ("plus_plus", -1, 2, 1001),
                             ("minus_minus", 1, 4, 1000),
                             ("minus_minus", 1, 5, 3)):
        p2 = lucas_uv(LucasParams(p1, q), k).v
        out += [(PellSystem(flavor, p1, p2), (k, 1)),
                (PellSystem(flavor, p2, p1), (1, k))]
    return out


def test_minimal_trace_match_matches_recomputed_weights():
    systems = _square_systems(60)
    assert len(systems) == 53
    assert sum(s.p1 > s.p2 for s in systems) == 21
    for system in systems:
        m, n = minimal_trace_match(system, cap=10 ** 4)
        assert (m, n) == _trace_match_reference(system), system
        with pytest.raises(SearchCapExceeded):
            minimal_trace_match(system, cap=max(m, n) - 1)
    for system, pair in _towers():
        assert minimal_trace_match(system, cap=max(pair)) == pair, system
        with pytest.raises(SearchCapExceeded):
            minimal_trace_match(system, cap=max(pair) - 1)
    # p2 = V_1001(2, -1) against the reference's own walk.
    system = _towers()[2][0]
    assert _trace_match_reference(system, cap=1001) == (1001, 1)


def test_convergents_are_exact():
    # Integer Euclid on the double's rational: the known head of pi's
    # expansion, then on to the double itself, each step unimodular.
    conv = list(islice(_convergents(pi), 100))
    assert conv[:4] == [(3, 1), (22, 7), (333, 106), (355, 113)]
    assert Fraction(*conv[-1]) == Fraction(pi)
    for (h0, k0), (h1, k1) in zip(conv, conv[1:]):
        assert abs(h1 * k0 - h0 * k1) == 1
    assert list(_convergents(0.75)) == [(0, 1), (1, 1), (3, 4)]
    assert list(_convergents(3.0)) == [(3, 1)]


def test_precision_bound_covers_the_default_cap():
    assert intersection._MATCH_BOUND >= DEFAULT_CAP ** 2
    system = PellSystem("plus_plus", 1, 4)
    assert minimal_trace_match(system, cap=10 ** 7) == (3, 1)


def test_cap_past_the_precision_bound_names_the_bound(monkeypatch):
    # With a bound of 2, (3, 1) lies past it: a cap above sqrt(2) reports
    # the bound it searched, a cap below it the cap alone.
    monkeypatch.setattr(intersection, "_MATCH_BOUND", 2)
    system = PellSystem("plus_plus", 1, 4)
    with pytest.raises(SearchCapExceeded,
                       match=r"max\(m, n\) <= 3 and m\*n <= 2 "):
        minimal_trace_match(system, cap=3)
    with pytest.raises(SearchCapExceeded, match=r"max\(m, n\) <= 1 for"):
        minimal_trace_match(system, cap=1)


def test_an_imprecise_ratio_raises_instead_of_returning_a_pair(monkeypatch):
    # log alpha2 / log alpha1 read as 7/4 instead of 5/3: the convergents
    # 1/1, 2/1, 7/4 all fail the exact check, and the walk ends.
    system = PellSystem("plus_plus", 4, 11)
    monkeypatch.setattr(intersection, "_log_alpha",
                        lambda params: {4: 4.0, 11: 7.0}[params.p])
    with pytest.raises(SearchCapExceeded):
        minimal_trace_match(system)
