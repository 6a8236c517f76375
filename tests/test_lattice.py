import random
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellucas.lattice import (Lattice2, _disc_action, disc_group_action,
                              find_roots, isometry_det, isometry_from_pell,
                              make_lattice, so_plus_generator)
from pellucas.lucas import Mat2, is_square
from pellucas.oracle import _coset_action, _disc_cosets, disc_action_direct
from pellucas.pell import PellProblem, PellSolution, fundamental_solution

from matpow import IDENTITY

rng = random.Random(20250823)


def random_hyperbolic(bound=30, nonsquare=False):
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        d = b * b - 4 * a * c
        if d <= 0:
            continue
        if nonsquare and is_square(d):
            continue
        return make_lattice(a, b, c)


def test_make_lattice_examples():
    lm = make_lattice(2, 2, -2)
    assert lm.pell_d == 20 and lm.k == 2
    lb = make_lattice(1, 5, 1)
    assert lb.pell_d == 21 and lb.k == 1
    pd = make_lattice(1, 0, 1)
    assert pd.pell_d == -4 and pd.signature == (2, 0)
    with pytest.raises(ValueError):
        make_lattice(1, 2, 1)


def test_isometry_from_pell_examples():
    act = isometry_from_pell(make_lattice(1, 4, 1), PellSolution(4, 1, 4))
    assert act.g == Mat2(0, -1, 1, 4)
    assert act.trace == 4 and act.det == 1
    ident = isometry_from_pell(make_lattice(1, 4, 1), PellSolution(2, 0, 4))
    assert ident.g == IDENTITY
    act = isometry_from_pell(make_lattice(1, 1, -1), PellSolution(3, 1, 4))
    assert act.g == Mat2(1, 1, 1, 2)


def test_wrong_sign_rejected():
    with pytest.raises(ValueError):
        isometry_from_pell(make_lattice(1, 1, -1), PellSolution(1, 1, -4))


@pytest.mark.parametrize("abc, uv", [
    ((1, 0, 1), (0, 1)),      # [[2, 0], [0, 2]]
    ((-1, 1, -1), (1, 1)),    # negative definite
])
def test_definite_lattice_rejected(abc, uv):
    # (u, v) solves u^2 - d v^2 = 4 for d = -4 and d = -3, but a definite
    # lattice has no positive cone in two components to preserve.
    lattice = make_lattice(*abc)
    assert PellSolution(*uv, 4).check(lattice.pell_d)
    with pytest.raises(ValueError, match="signature"):
        isometry_from_pell(lattice, PellSolution(*uv, 4))


def test_disc_group_action_basics():
    lat = make_lattice(1, 4, 1)
    assert disc_group_action(lat, IDENTITY) == "+id"
    assert disc_group_action(lat, Mat2(-1, 0, 0, -1)) == "-id"
    g = Mat2(0, -1, 1, 4)
    assert disc_group_action(lat, g @ g) == "+id"


def test_disc_group_action_matches_direct_enumeration():
    # Every nonsquare hyperbolic form with |a|, |b|, |c| <= 12, non-primitive
    # ones included, and g = +-gen, +-gen^2, +-gen^3.  Here 256 cases meet
    # the two diagonal congruences of (g - eps*I) adj(Q) but not the two
    # off-diagonal ones, e.g. (-12, -8, 12), its generator and eps = 1.
    minus_id, span = Mat2(-1, 0, 0, -1), range(-12, 13)
    checked = 0
    for a in span:
        for b in span:
            for c in span:
                d = b * b - 4 * a * c
                if d <= 0 or is_square(d):
                    continue
                lat = make_lattice(a, b, c)
                cosets = _disc_cosets(lat)
                g = so_plus_generator(lat).g
                g2 = g @ g
                for h in (g, g2, g2 @ g):
                    for m in (h, minus_id @ h):
                        assert disc_group_action(lat, m) == \
                            _coset_action(*cosets, m), (a, b, c, m)
                checked += 1
    assert checked == 7296
    lat = make_lattice(-12, -8, 12)
    assert lat.k == 4
    assert disc_group_action(lat, so_plus_generator(lat).g) == "other"


def test_disc_action_divisibility_matches_direct_on_every_small_matrix():
    # g = eps on (dual lattice)/(lattice) is defined for every integer g, not
    # only isometries.  On isometries each off-diagonal congruence follows
    # from the other three on every case tried; here each one decides some.
    span = range(-2, 3)
    mats = [Mat2(p, q, r, s) for p in span for q in span for r in span
            for s in span]
    for a in span:
        for b in span:
            for c in span:
                lat = Lattice2(a, b, c)
                if lat.disc == 0:
                    continue
                for g in mats:
                    assert _disc_action(lat, g) == disc_action_direct(lat, g), \
                        (a, b, c, g)


def test_enumerate_disc_group_orders():
    assert _disc_cosets(make_lattice(1, 4, 1))[0] == 12
    order, cosets = _disc_cosets(make_lattice(1, 1, 1))
    assert order == 3 and len(cosets) == 3
    order, cosets = _disc_cosets(Lattice2(1, 0, -1))
    assert order == 4 and len(cosets) == 4


def test_so_plus_generator_examples():
    assert so_plus_generator(make_lattice(1, 4, 1)).trace == 4
    assert so_plus_generator(make_lattice(1, 4, 0)) is None  # pell_d = 16
    assert so_plus_generator(make_lattice(1, 1, -1)).trace == 3


def _positive_vector(lat, box=24):
    """Reference: the first (x, y) with y > 0 of positive norm in a box."""
    return next((x, y) for y in range(1, box + 1) for x in range(-box, box + 1)
                if lat.norm(x, y) > 0)


def test_preserves_cone_matches_a_positive_vector():
    # Signature (1,1) forms with a <= 0 and c <= 0, where no basis vector has
    # positive norm.  g keeps the cone's component of a positive w exactly
    # when w . g w > 0, since two positive vectors pair to a nonzero number
    # whose sign tells whether they share a component.  The unit (u, v)
    # keeps it and (-u, v) swaps it.
    for a in range(-12, 1):
        for c in range(-12, 1):
            for b in range(-12, 13):
                if b * b - 4 * a * c <= 0:
                    continue
                lat = make_lattice(a, b, c)
                w = _positive_vector(lat)
                qx, qy = lat.gram.apply(*w)
                fund = fundamental_solution(PellProblem(lat.pell_d, 4))
                for u, keeps in ((fund.u, True), (-fund.u, False)):
                    action = isometry_from_pell(lat, PellSolution(u, fund.v, 4))
                    gx, gy = action.g.apply(*w)
                    assert action.preserves_cone is keeps is (gx * qx + gy * qy > 0), \
                        (a, b, c)


def _compose(d, s1, s2):
    """Reference: the product of (u1 + v1 sqrt(d))/2 and (u2 + v2 sqrt(d))/2,
    by half-integer composition, independent of the library's recurrence."""
    un = s1.u * s2.u + d * s1.v * s2.v
    vn = s1.u * s2.v + s2.u * s1.v
    assert un % 2 == 0 and vn % 2 == 0
    return PellSolution(un // 2, vn // 2, s1.sign * s2.sign // 4)


def test_generator_group_law():
    for _ in range(50):
        lat = random_hyperbolic(bound=12, nonsquare=True)
        d = lat.pell_d
        fund = fundamental_solution(PellProblem(d, 4))
        power = fund
        g = isometry_from_pell(lat, fund).g
        acc = g
        for _ in range(4):
            power = _compose(d, power, fund)
            acc = acc @ g
            assert isometry_from_pell(lat, power).g == acc


def test_isometry_contract_random():
    for _ in range(100):
        lat = random_hyperbolic(nonsquare=True)
        gen = so_plus_generator(lat)
        q = lat.gram
        assert gen.g.transpose @ q @ gen.g == q
        assert gen.det == 1 and gen.preserves_cone


def _exhaustive_root(lat, target, bound=200):
    import numpy as np
    xs = np.arange(-bound, bound + 1, dtype=np.int64)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    vals = 2 * (lat.a * x * x + lat.b * x * y + lat.c * y * y)
    hits = np.argwhere((vals == target) & ((x != 0) | (y != 0)))
    if len(hits) == 0:
        return None
    i, j = hits[0]
    return (int(x[i, j]), int(y[i, j]))


def test_find_roots_examples():
    assert find_roots(make_lattice(2, 2, -2), -2) is None
    witness = find_roots(make_lattice(1, 3, 1), -2)
    assert witness is not None and make_lattice(1, 3, 1).norm(*witness) == -2
    assert find_roots(make_lattice(1, 3, 0), 0) is not None  # pell_d = 9


def test_find_roots_witness_outside_small_box():
    # No (-2)-root has both coordinates within +-200 (see test_cli).
    assert find_roots(make_lattice(-9, 7, 6), -2) == (-12413, 24080)


@pytest.mark.parametrize("form, witness", [
    ((-1, 5, 3), (1, 0)),  # -1 leads the form: found before the first step
    ((7, 1000003, -13), None),  # d ~ 10^12: the cycle closes after 120 867 steps
])
def test_find_roots_pinned(form, witness):
    assert find_roots(make_lattice(*form), -2) == witness


def test_find_roots_large_witness():
    # d ~ 10^13: the witness the walk finds has about 807 kbit.
    lat = make_lattice(3, 3162281, -5)
    got = find_roots(lat, -2)
    assert got is not None and lat.norm(*got) == -2


def test_find_roots_against_exhaustive_search():
    # 400 random forms, searched in a box of 200, then every primitive form
    # with |a|, |b|, |c| <= 10 and nonsquare discriminant (3540 forms), in a
    # box of 30; the grid reaches the odd-period cycles, where -1 can first
    # lead a form on the second lap.
    draws = [(tuple(rng.randint(-20, 20) for _ in range(3)), 200)
             for _ in range(400)]
    span = range(-10, 11)
    grid = [((a, b, c), 30) for a in span for b in span for c in span
            if b * b - 4 * a * c > 0 and not is_square(b * b - 4 * a * c)
            and gcd(gcd(a, b), c) == 1]
    assert len(grid) == 3540
    checked = 0
    for (a, b, c), bound in draws + grid:
        if b * b - 4 * a * c <= 0:
            continue
        lat = make_lattice(a, b, c)
        for target in (0, -2):
            got = find_roots(lat, target)
            expect = _exhaustive_root(lat, target, bound)
            # Exhaustive search is bounded, so it can only refute a `None`.
            if expect is not None:
                assert got is not None, (a, b, c, target, expect)
            if got is not None:
                assert lat.norm(*got) == target
                if max(abs(got[0]), abs(got[1])) <= bound:
                    assert expect is not None, (a, b, c, target, got)
        checked += 1
    assert checked > 150 + 3540


def _square_disc_root_by_divisors(a, b, c):
    """Reference: a x^2 + b x y + c y^2 = -1 for b^2 - 4ac = s^2 by trying
    every divisor e of 4a in 4a(a x^2 + b x y + c y^2) = e f, with
    e = 2ax + (b - s)y and f = 2ax + (b + s)y."""
    s = isqrt(b * b - 4 * a * c)
    if a == 0:
        for y in (1, -1):
            num = -1 - c
            if b != 0 and num % (b * y) == 0:
                return (num // (b * y), y)
        return None
    target = -4 * a
    for e in range(1, abs(target) + 1):
        if target % e:
            continue
        for e1 in (e, -e):
            f1 = target // e1
            if (f1 - e1) % (2 * s):
                continue
            y = (f1 - e1) // (2 * s)
            num = e1 - (b - s) * y
            if num % (2 * a) == 0:
                x = num // (2 * a)
                if a * x * x + b * x * y + c * y * y == -1:
                    return (x, y)
    return None


def test_square_disc_roots_match_divisor_search():
    primitive = rooted = 0
    for a in range(-25, 26):
        for b in range(-25, 26):
            for c in range(-25, 26):
                d = b * b - 4 * a * c
                if d <= 0 or not is_square(d) or gcd(gcd(a, b), c) != 1:
                    continue
                lat = make_lattice(a, b, c)
                got = find_roots(lat, -2)
                assert got == _square_disc_root_by_divisors(a, b, c), (a, b, c)
                if got is not None:
                    assert lat.norm(*got) == -2
                primitive += 1
                rooted += got is not None
    assert (primitive, rooted) == (8952, 1638)


@pytest.mark.parametrize("a, b, witness", [
    (10 ** 12, 1, (1, -10 ** 12 - 1)), (10 ** 12, 3, None),
    (10 ** 40, 1, (1, -10 ** 40 - 1)), (-10 ** 40, 1, (-1, 1 - 10 ** 40)),
    (10 ** 40, 3, None)])
def test_square_disc_roots_at_large_a(a, b, witness):
    # 4a divisors would be tried one by one; the closed form takes one step.
    lat = make_lattice(a, b, 0)
    got = find_roots(lat, -2)
    assert got == witness
    if witness is not None:
        assert lat.norm(*got) == -2


def test_parity_always_holds():
    for _ in range(50):
        lat = random_hyperbolic(nonsquare=True)
        d = lat.pell_d
        sol = fundamental_solution(PellProblem(d, 4))
        assert (sol.u - lat.b * sol.v) % 2 == 0


def test_non_isometry_rejected():
    with pytest.raises(ValueError):
        disc_group_action(make_lattice(1, 4, 1), Mat2(1, 1, 0, 1))


def _preserves_gram(lattice, g):
    # g^T Q g == Q with det g = +-1, entry by entry in plain integers.
    a2, b, c2 = 2 * lattice.a, lattice.b, 2 * lattice.c
    p, q, r, s = g.e00, g.e01, g.e10, g.e11
    return ((a2 * p * p + 2 * b * p * r + c2 * r * r,
             a2 * p * q + b * (p * s + q * r) + c2 * r * s,
             a2 * q * q + 2 * b * q * s + c2 * s * s) == (a2, b, c2)
            and abs(p * s - q * r) == 1)


def test_isometry_det_exhaustive_small_grid():
    # Every lattice and matrix with entries in [-2, 2], degenerate forms and
    # det != +-1 included; a = c = 0 is where the four identities of the
    # linear check are all independent.
    span = range(-2, 3)
    lattices = [Lattice2(a, b, c) for a in span for b in span for c in span]
    mats = [Mat2(p, q, r, s) for p in span for q in span for r in span
            for s in span]
    hits = 0
    for lat in lattices:
        for g in mats:
            expect = _preserves_gram(lat, g)
            det = isometry_det(lat, g)
            assert (det is not None) == expect, (lat, g)
            assert det in (None, g.det), (lat, g)
            hits += expect
    assert hits == 920


@st.composite
def lattice_and_matrix(draw):
    a, b, c = (draw(st.integers(-6, 6)) for _ in range(3))
    lat = Lattice2(a, b, c)
    candidates = [Mat2(1, 0, 0, 1), Mat2(-1, 0, 0, -1), Mat2(0, 1, 1, 0),
                  Mat2(1, 0, 0, -1)]
    if lat.is_hyperbolic and not is_square(lat.pell_d):
        g = so_plus_generator(lat).g
        candidates += [g, Mat2(-1, 0, 0, -1) @ g, g @ g, g @ Mat2(0, 1, 1, 0)]
    g = draw(st.one_of(st.sampled_from(candidates),
                       st.builds(Mat2, *(st.integers(-6, 6) for _ in range(4)))))
    # Nudge one entry: an isometry becomes a near miss, often det +-1 still.
    nudge = draw(st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, -1, 0, 0),
                                  (0, 0, 1, 0), (0, 0, 0, -1)]))
    return lat, Mat2(*(e + n for e, n in zip(
        (g.e00, g.e01, g.e10, g.e11), nudge)))


@given(lattice_and_matrix())
@settings(max_examples=400)
def test_isometry_det_matches_gram_preservation(case):
    lat, g = case
    assert (isometry_det(lat, g) is not None) == _preserves_gram(lat, g)
