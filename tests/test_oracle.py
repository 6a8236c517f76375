import random
import warnings
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import numpy as np

from pellucas import oracle, pell
from pellucas.intersection import PellSystem, brute_force_common
from pellucas.lattice import make_lattice
from pellucas.lucas import LucasParams
from pellucas.oracle import (INT64_MAX, WHEEL_CHUNK, WHEEL_MODULI,
                             WHEEL_RESIDUE_COST, _disc_cosets, _wheel,
                             enumerate_pell,
                             first_root_in_box, naive_lucas, naive_membership,
                             square_rows, whitney_member_mask)


def test_naive_lucas_examples():
    assert naive_lucas(LucasParams(1, -1), 7).u == 13
    t = naive_lucas(LucasParams(2, -1), 0)
    assert (t.u, t.v) == (0, 2)
    assert naive_lucas(LucasParams(4, 1), 4).u == 56


def test_enumerate_pell_examples():
    assert [(s.u, s.v) for s in enumerate_pell(5, 4, 10)] == \
        [(2, 0), (3, 1), (7, 3), (18, 8)]
    assert [(s.u, s.v) for s in enumerate_pell(5, -4, 6)] == \
        [(1, 1), (4, 2), (11, 5)]
    assert enumerate_pell(7, -4, 10 ** 4) == []


def test_naive_membership_examples():
    assert naive_membership(8, "a", 1).index == 6
    assert not naive_membership(9, "a", 1).is_member
    assert naive_membership(1, "b", 9).index == 1
    # Pell numbers (a = 2): 2, 5, 12, 29, 70 are a_2..a_6; 3 and 100 are not.
    assert [naive_membership(n, "a", 2).index for n in (2, 5, 12, 29, 70)] \
        == [2, 3, 4, 5, 6]
    assert not naive_membership(3, "a", 2).is_member
    assert not naive_membership(100, "a", 2).is_member


def test_whitney_mask_matches_sequence():
    mask = whitney_member_mask(5, 4, 100)  # Fibonacci, even index
    evens = {1, 3, 8, 21, 55}
    assert {i for i in range(1, 101) if mask[i]} == evens


def test_enumerate_disc_group_examples():
    # Coset numerators (X, Y): the representative is (X, Y)/order.
    order, cosets = _disc_cosets(make_lattice(1, 4, 1))
    assert order == 12 and len(cosets) == 12
    order, cosets = _disc_cosets(make_lattice(1, 1, 1))
    assert order == 3 and len(cosets) == 3
    order, cosets = _disc_cosets(make_lattice(1, 0, -1))
    assert order == 4 and len(cosets) == 4
    assert (2, 0) in cosets or (0, 2) in cosets  # (1/2, 0) or (0, 1/2)


# --- residue-wheel square search ----------------------------------------------

def _squares_in(d, sign, lo, hi):
    """Reference: every w in [lo, hi] with d*w^2 + sign a perfect square."""
    out = []
    for w in range(lo, hi + 1):
        t = d * w * w + sign
        if t >= 0 and isqrt(t) ** 2 == t:
            out.append((w, isqrt(t)))
    return out


def _w_max(d, sign):
    """Largest hi that square_rows accepts for (d, sign)."""
    hi = isqrt(INT64_MAX // d)
    while True:
        try:
            square_rows(d, sign, hi, hi)
            return hi
        except ValueError:
            hi -= 1


def _lucas_square(p, plus, sign, w_cap):
    """Largest Lucas U_n <= w_cap that solves d*U_n^2 + sign = V_n^2, with
    d = p^2 + 4 (Q = -1; sign = 4 for even n, -4 for odd n) or d = p^2 - 4
    (Q = 1, sign = 4)."""
    q = -1 if plus else 1
    u0, u1, n, best = 0, 1, 0, None
    while u0 <= w_cap:
        if not plus or (sign == 4) == (n % 2 == 0):
            best = u0
        u0, u1, n = u1, p * u1 - q * u0, n + 1
    return best


@given(d=st.integers(2, 10 ** 9), sign=st.sampled_from((4, -4)),
       near_top=st.booleans(), width=st.integers(0, 3000))
@settings(max_examples=60, deadline=None)
def test_square_rows_equal_reference(d, sign, near_top, width):
    hi = _w_max(d, sign) if near_top else width
    lo = max(0, hi - width)
    want = _squares_in(d, sign, lo, hi)
    survivors = [w for chunk in _wheel(d, sign, lo, hi) for w in chunk.tolist()]
    assert {w for w, _ in want} <= set(survivors)
    assert list(square_rows(d, sign, lo, hi)) == want


@given(p=st.integers(1, 31622), plus=st.booleans(),
       sign=st.sampled_from((4, -4)), below=st.integers(0, 10 ** 4),
       above=st.integers(0, 3 * 10 ** 10), near_top=st.booleans())
@settings(max_examples=60, deadline=None)
@example(p=1, plus=True, sign=-4, below=5, above=10, near_top=True)
def test_wheel_keeps_known_squares(p, plus, sign, below, above, near_top):
    # Windows as wide as the whole wheel (every modulus in use), placed at
    # Lucas terms up to the int64 limit; only the chunks up to the known
    # square are consumed, so the reference is that square alone.
    assume(plus or (p >= 3 and sign == 4))
    d = p * p + 4 if plus else p * p - 4
    w_max = _w_max(d, sign)
    w = _lucas_square(p, plus, sign, w_max if near_top else w_max // 10 ** 6)
    assume(w is not None)
    lo, hi = max(0, w - below), min(w_max, w + above)
    seen, last = [], -1
    for chunk in _wheel(d, sign, lo, hi):
        values = chunk.tolist()
        assert len(values) <= WHEEL_CHUNK
        assert values == sorted(values) and all(lo <= v <= hi for v in values)
        assert not values or values[0] > last
        seen += values
        if values:
            last = values[-1]
        if last >= w:
            break
    assert w in seen
    rows = dict(square_rows(d, sign, lo, w))
    assert rows[w] ** 2 == d * w * w + sign


@given(p=st.integers(1, 31622), plus=st.booleans(),
       sign=st.sampled_from((4, -4)), sign2=st.sampled_from((4, -4)),
       d2=st.integers(1, 10 ** 9), hit=st.booleans(),
       below=st.integers(0, 10 ** 6), above=st.integers(0, 10 ** 6),
       near_top=st.booleans())
@settings(max_examples=60, deadline=None)
@example(p=1, plus=True, sign=-4, sign2=4, d2=1, hit=True, below=5, above=10,
         near_top=True)
def test_second_equation_keeps_exactly_its_rows(p, plus, sign, sign2, d2, hit,
                                                below, above, near_top):
    # Given x^2 - d2*z^2 = sign2 as well, square_rows yields the one-equation
    # rows (w, x) whose x solves it, and no others.  One window sits at a
    # Lucas square, near the int64 limit or not, and a hit sets
    # d2 = x^2 - sign2 (z = 1), so that its row solves both equations; near
    # the limit a second window ends at the last w that square_rows accepts.
    assume(plus or (p >= 3 and sign == 4))
    d = p * p + 4 if plus else p * p - 4
    w_max = _w_max(d, sign)
    w = _lucas_square(p, plus, sign, w_max if near_top else w_max // 10 ** 6)
    assume(w is not None)
    x = isqrt(d * w * w + sign)
    if hit:
        d2 = x * x - sign2
        assume(d2 > 0)

    def solves(r):
        num = r * r - sign2
        return num >= 0 and num % d2 == 0 and isqrt(num // d2) ** 2 == num // d2

    windows = [(max(0, w - below), min(w_max, w + above))]
    if near_top:
        windows.append((max(0, w_max - above), w_max))
    for lo, hi in windows:
        want = [(v, r) for v, r in square_rows(d, sign, lo, hi) if solves(r)]
        assert list(square_rows(d, sign, lo, hi, (d2, sign2))) == want
        assert not hit or (w, x) in want or not lo <= w <= hi


def test_square_rows_near_int64_limit():
    # 5*F_45^2 - 4 = L_45^2 is the last Fibonacci square below 2^63.
    f45, l45 = 1134903170, 2537720636
    assert list(square_rows(5, -4, f45 - 3, f45 + 3)) == [(f45, l45)]


def test_int64_guard_raises_before_scanning(monkeypatch):
    def no_scan(*args):
        raise AssertionError("rows scanned before the int64 guard")

    monkeypatch.setattr(oracle, "_wheel", no_scan)
    # minus_minus(4, 14) has x = 19726764302, z = 1423656585 (d2 = 192);
    # 192*z^2 + 4 is 3.9e20, which int64 would wrap.
    z = 1423656585
    with pytest.raises(ValueError, match="int64"):
        square_rows(192, 4, z - 10, z + 10)
    with pytest.raises(ValueError, match="int64"):
        brute_force_common(PellSystem("minus_minus", 4, 14), 2 * 10 ** 10)
    with pytest.raises(ValueError, match="int64"):
        enumerate_pell(5, 4, 2 * 10 ** 9)
    with pytest.raises(ValueError, match="int64"):
        whitney_member_mask(5, -4, 2 * 10 ** 9)


def test_wheel_without_residues_yields_nothing():
    # 3*w^2 - 1 is 2 or 3 mod 4 and 2 or 8 mod 9: never a square mod 64.
    assert list(_wheel(3, -1, 0, 10 ** 6)) == []
    assert list(square_rows(3, -1, 0, 10 ** 6)) == []
    assert list(square_rows(3, -1, 0, 3000)) == _squares_in(3, -1, 0, 3000) == []


@pytest.mark.parametrize("d, sign", [(5, 4), (5, -4), (2, 1), (2, -1), (8, 4),
                                     (13, -4)])
def test_square_rows_unaligned_edges(d, sign):
    # Ranges that stop one row short of a square, or start one row past it,
    # at widths around the wheel sizes 64, 64*9 and 64*9*5 and four times
    # them (moduli that reject nothing are skipped, and a modulus joins the
    # wheel at a width that depends on how many residues it keeps, so the
    # wheel itself varies with d).
    roots = [w for w, _ in _squares_in(d, sign, 0, 40000) if w >= 2]
    assert len(roots) >= 4
    widths = (0, 1, 5, 63, 64, 65, 255, 257, 575, 577, 2303, 2305, 2879,
              2881, 11519, 11521)
    for s in roots:
        for width in widths:
            for lo, hi in ((s + 1, s + 1 + width), (max(0, s - 1 - width), s - 1),
                           (max(0, s - width // 2), s + width // 2)):
                got = list(square_rows(d, sign, lo, hi))
                assert got == _squares_in(d, sign, lo, hi), (lo, hi)


def test_negative_rows_raise_no_warning():
    # d*w^2 + sign < 0 for the first rows; t = 0 is a square (w = 3, d = 1).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, sign in ((1, -9), (5, -4), (2, -7), (3, -100)):
            for hi in (0, 1, 10, 70, 5000):
                assert list(square_rows(d, sign, 0, hi)) == \
                    _squares_in(d, sign, 0, hi)
        assert list(square_rows(1, -9, 0, 3)) == [(3, 0)]


def _modular_survivors(d, sign, lo, hi, top):
    """Reference: the w in [lo, top] that _wheel keeps over [lo, hi], by
    testing each w against the moduli that a wheel over [lo, hi] uses."""
    tests, wheel, rows = [], 1, hi - lo + 1
    for m in WHEEL_MODULI:
        if wheel * m > rows:
            break
        squares = np.zeros(m, dtype=bool)
        squares[[x * x % m for x in range(m)]] = True
        kept = int(squares[[(d * a * a + sign) % m for a in range(m)]].sum())
        if kept == 0:
            return []
        if kept == m:
            continue
        if rows * (m - kept) < WHEEL_RESIDUE_COST * wheel * m * kept:
            break
        tests.append((m, squares))
        wheel *= m
    out = []
    # In blocks of 2^20 rows, so a sparse wheel needs no window-sized array.
    for start in range(lo, top + 1, 1 << 20):
        w = np.arange(start, min(start + (1 << 20), top + 1), dtype=np.int64)
        keep = np.ones(len(w), dtype=bool)
        for m, squares in tests:
            keep &= squares[(d * (w % m) ** 2 + sign) % m]
        out += w[keep].tolist()
    return out


def test_wheel_splits_turns_longer_than_a_chunk():
    # Over [1234567, 35355339] the wheel is 64*9*5*7*11*13 = 2882880 long and
    # keeps 70560 residues of 8*w^2 + 4 per turn, more than one chunk holds.
    lo, hi = 1234567, 35355339
    chunks = []
    for chunk in _wheel(8, 4, lo, hi):
        chunks.append(chunk.tolist())
        if len(chunks) == 5:
            break
    for values in chunks:
        assert 0 < len(values) <= WHEEL_CHUNK
        assert all(a < b for a, b in zip(values, values[1:]))
    assert max(len(values) for values in chunks) > WHEEL_CHUNK // 2
    # Contiguous: together the chunks are every survivor up to the last one.
    seen = [w for values in chunks for w in values]
    assert seen == _modular_survivors(8, 4, lo, hi, seen[-1])


@given(d=st.integers(1, 10 ** 9), sign=st.sampled_from((4, -4, 1, -1)),
       lo=st.integers(0, 10 ** 9),
       width=st.one_of(st.integers(0, 10 ** 4), st.integers(10 ** 6, 10 ** 8)))
@settings(max_examples=30, deadline=None)
@example(d=8, sign=4, lo=2_000_000, width=33_355_339)
def test_wheel_chunks_over_random_windows(d, sign, lo, width):
    # Non-empty chunks of at most WHEEL_CHUNK rows, ascending and disjoint,
    # that together hold every survivor up to the last row consumed; the
    # scan stops once more than one chunk's worth has been seen.  In the
    # example a turn is 2882880 rows long and keeps 70560 residues, in
    # slices; lo falls past the first slice of the first turn, so trimming
    # empties it.
    hi, seen, done = lo + width, [], True
    for chunk in _wheel(d, sign, lo, hi):
        values = chunk.tolist()
        assert 0 < len(values) <= WHEEL_CHUNK
        seen += values
        if len(seen) > WHEEL_CHUNK:
            done = False
            break
    assert all(a < b for a, b in zip(seen, seen[1:]))
    assert seen == _modular_survivors(d, sign, lo, hi, hi if done else seen[-1])


# --- discriminant group -------------------------------------------------------

def _cosets_by_all_pairs(lattice):
    """Reference: reduce i*c1 + j*c2 mod Z^2 for all order^2 pairs (i, j), as
    numerators over order."""
    q = lattice.gram
    det, adj = q.det, q.adjugate
    order, unit = abs(det), 1 if det > 0 else -1
    return {(unit * (adj.e00 * i + adj.e01 * j) % order,
             unit * (adj.e10 * i + adj.e11 * j) % order)
            for i in range(order) for j in range(order)}


def test_disc_group_matches_all_pairs():
    rng = random.Random(2024)
    forms = [(1, 4, 1), (1, 0, -1), (1, 1, 1), (5, 0, -5), (-7, 0, 7),
             (0, 10, 0), (3, 6, -5)]
    while len(forms) < 60:
        a, b, c = (rng.randint(-12, 12) for _ in range(3))
        if 0 < abs(4 * a * c - b * b) <= 200:
            forms.append((a, b, c))
    for a, b, c in forms:
        lattice = make_lattice(a, b, c)
        order, cosets = _disc_cosets(lattice)
        assert len(cosets) == order == abs(lattice.disc)
        assert all(0 <= x < order and 0 <= y < order for x, y in cosets)
        assert set(cosets) == _cosets_by_all_pairs(lattice), (a, b, c)


# --- lattice --verify root search -----------------------------------------------

def _first_root_by_scan(gram, bound):
    """Reference: the 2-D box scan, x ascending, then y ascending."""
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            gx, gy = gram.apply(x, y)
            if (x, y) != (0, 0) and x * gx + y * gy == -2:
                return x, y
    return None


def test_first_root_in_box_matches_scan():
    rng = random.Random(77)
    forms = [(a, b, 0) for a in range(-4, 5) for b in (-3, -1, 2, 5)]
    forms += [(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
              for _ in range(400)]
    hits = 0
    for i, (a, b, c) in enumerate(forms):
        if b * b == 4 * a * c:
            continue
        gram = make_lattice(a, b, c).gram
        for bound in ((5, 20, 60) if i % 10 == 0 else (5, 20)):
            want = _first_root_by_scan(gram, bound)
            assert first_root_in_box(gram, bound) == want, (a, b, c, bound)
            hits += want is not None
    assert hits > 200


def test_units_oracle_finds_each_unit_once(monkeypatch):
    # The unit (11 + 3 sqrt(13))/2: the solutions up to 10^300 are (2, 0) and
    # (V_k, 3 U_k) of (P, Q) = (11, 1) for k = 1..289, one walk of the
    # continued fraction for all of them.
    calls = []
    found = oracle.fundamental_solution

    def counted(problem):
        calls.append(problem)
        return found(problem)

    monkeypatch.setattr(oracle, "fundamental_solution", counted)
    monkeypatch.setattr(pell, "fundamental_solution", counted)
    got = oracle._solutions_to(13, 4, 10 ** 300)
    assert len(calls) == 1
    want = {2: 0}
    for k in range(1, 290):
        t = naive_lucas(LucasParams(11, 1), k)
        want[t.v] = 3 * t.u
    assert got == want and len(got) == 290
    assert naive_lucas(LucasParams(11, 1), 290).v > 10 ** 300
