"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every check is exact integer equality (tolerance zero).  The big enumerations
lean on the numpy-backed oracles so the whole file stays well under the
five-minute budget.
"""

import json
import random

import numpy as np
import pytest

from pellucas import pell
from pellucas.cli import main as cli_main
from pellucas.intersection import (PellSystem, brute_force_common, intersect,
                                   square_product_test)
from pellucas.k3 import classify_case_a, correspondence_roundtrip
from pellucas.lattice import (disc_group_action, isometry_from_pell,
                              make_lattice, so_plus_generator)
from pellucas.lucas import (LucasParams, Mat2, gen_fib_a, gen_fib_b,
                            is_square, lucas_uv, m_matrix, n_matrix)
from pellucas.oracle import (disc_action_direct, enumerate_pell,
                             whitney_member_mask)
from pellucas.pell import (MembershipVerdict, PellProblem, PellSolution,
                           fundamental_solution, is_gen_fib_a, is_gen_fib_b,
                           solutions_iter)

rng = random.Random(0xACCE97)


def _compose(d, s1, s2):
    """Reference: the product of (u1 + v1 sqrt(d))/2 and (u2 + v2 sqrt(d))/2,
    by half-integer composition, independent of the library's recurrence."""
    un = s1.u * s2.u + d * s1.v * s2.v
    vn = s1.u * s2.v + s2.u * s1.v
    assert un % 2 == 0 and vn % 2 == 0
    return PellSolution(un // 2, vn // 2, s1.sign * s2.sign // 4)


def _verdict(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"[acceptance {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
              + (f"  ({detail})" if detail and not ok else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_norm_identity(capsys):
    """V_n^2 - D U_n^2 = 4 Q^n for 10^4 random (P, Q, n)."""
    bad = None
    for _ in range(10_000):
        p = rng.randint(-20, 20)
        q = rng.randint(-20, 20)
        n = rng.randint(0, 200)
        t = lucas_uv(LucasParams(p, q), n)
        d = p * p - 4 * q
        if t.v ** 2 - d * t.u ** 2 != 4 * q ** n:
            bad = (p, q, n)
            break
    _verdict(capsys, 1, "norm identity V^2 - D U^2 = 4Q^n", bad is None,
             f"failed at (P,Q,n)={bad}")


def _sequence_by_parity(flavor, param, bound):
    """(even-index member set, odd-index member set) for terms <= bound."""
    evens, odds = set(), set()
    prev, cur, k = 0, 1, 1
    while cur <= bound:
        (evens if k % 2 == 0 else odds).add(cur)
        step = param * cur + prev if flavor == "a" else param * cur - prev
        prev, cur, k = cur, step, k + 1
    return evens, odds


def test_02_whitney_criterion(capsys):
    """Square test == sequence membership for every n <= 10^6, with parity."""
    bound = 10 ** 6
    bad = None
    for a in range(1, 11):
        d = a * a + 4
        mask_even = whitney_member_mask(d, 4, bound)
        mask_odd = whitney_member_mask(d, -4, bound)
        evens, odds = _sequence_by_parity("a", a, bound)
        if set(np.flatnonzero(mask_even).tolist()) != evens or \
                set(np.flatnonzero(mask_odd).tolist()) != odds:
            bad = ("a", a)
            break
        # the packaged membership test must agree pointwise on every member
        # and on a random sample of non-members, with matching parity
        sample = sorted(evens | odds) + [rng.randint(1, bound) for _ in range(500)]
        for n in sample:
            v = is_gen_fib_a(n, a)
            if v.is_member != (n in evens or n in odds):
                bad = ("a", a, n)
                break
            if v.is_member:
                want = "even" if n in evens else "odd"
                both = n in evens and n in odds  # a=1 has a_1 = a_2 = 1
                if not both and v.parity != want:
                    bad = ("a", a, n, v.parity)
                    break
        if bad:
            break
    if bad is None:
        for b in range(4, 13):
            mask = whitney_member_mask(b * b - 4, 4, bound)
            evens, odds = _sequence_by_parity("b", b, bound)
            members = evens | odds
            if set(np.flatnonzero(mask).tolist()) != members:
                bad = ("b", b)
                break
            sample = sorted(members) + [rng.randint(1, bound) for _ in range(500)]
            if any(is_gen_fib_b(n, b).is_member != (n in members) for n in sample):
                bad = ("b", b)
                break
    _verdict(capsys, 2, "Whitney square criterion == sequence membership",
             bad is None, f"mismatch at {bad}")


def test_03_pell_completeness(capsys):
    """Solver output == enumeration up to v <= 10^6 for d <= 500; beta^2 = alpha."""
    v_bound = 10 ** 6
    bad = None
    for d in range(2, 501):
        if is_square(d):
            continue
        plus = fundamental_solution(PellProblem(d, 4))
        got_plus = [s for s in solutions_iter(PellProblem(d, 4), 64)
                    if s.v <= v_bound]
        want_plus = [s for s in enumerate_pell(d, 4, v_bound) if s.v > 0]
        if [(s.u, s.v) for s in got_plus] != [(s.u, s.v) for s in want_plus]:
            bad = (d, 4)
            break
        minus = fundamental_solution(PellProblem(d, -4))
        got_minus = [] if minus is None else \
            [s for s in solutions_iter(PellProblem(d, -4), 64) if s.v <= v_bound]
        want_minus = enumerate_pell(d, -4, v_bound)
        if [(s.u, s.v) for s in got_minus] != [(s.u, s.v) for s in want_minus]:
            bad = (d, -4)
            break
        if minus is not None:
            sq = _compose(d, minus, minus)
            if (sq.u, sq.v) != (plus.u, plus.v):
                bad = (d, "beta^2 != alpha")
                break
    _verdict(capsys, 3, "Pell solver complete vs enumeration, beta^2 = alpha",
             bad is None, f"mismatch at {bad}")


def _random_hyperbolic(bound):
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        d = b * b - 4 * a * c
        if d > 0 and not is_square(d):
            return make_lattice(a, b, c)


def test_04_isometry_suite(capsys):
    """Generator contract + Pell-composition group law on 200 random lattices."""
    bad = None
    for _ in range(200):
        lat = _random_hyperbolic(30)
        gen = so_plus_generator(lat)
        q = lat.gram
        if gen.g.transpose @ q @ gen.g != q or gen.det != 1 \
                or not gen.preserves_cone:
            bad = (lat.a, lat.b, lat.c)
            break
        fund = fundamental_solution(PellProblem(lat.pell_d, 4))
        power, acc = fund, gen.g
        for _ in range(5):
            power = _compose(lat.pell_d, power, fund)
            acc = acc @ gen.g
            if isometry_from_pell(lat, power).g != acc:
                bad = (lat.a, lat.b, lat.c, "group law")
                break
        if bad:
            break
    _verdict(capsys, 4, "isometry contract and composition group law",
             bad is None, f"failed for lattice {bad}")


def test_05_disc_action_agreement(capsys):
    """Divisibility test == direct discriminant-group action, |disc| <= 200."""
    bad = None
    checked = 0
    for a in range(-5, 6):
        for b in range(-5, 6):
            for c in range(-5, 6):
                d = b * b - 4 * a * c
                if d <= 0 or is_square(d) or d > 200:
                    continue
                lat = make_lattice(a, b, c)
                gen = so_plus_generator(lat)
                for g in (gen.g, Mat2(-1, 0, 0, -1) @ gen.g, gen.g @ gen.g):
                    if disc_group_action(lat, g) != disc_action_direct(lat, g):
                        bad = (a, b, c)
                        break
                checked += 1
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    _verdict(capsys, 5, "discriminant-group action: test == enumeration",
             bad is None and checked > 100, f"mismatch at {bad}, n={checked}")


def test_06_trace_formulas(capsys):
    """trace of incremental matrix powers == closed trace formulas, n <= 200."""
    bad = None
    for a in range(1, 9):
        m2 = m_matrix(a) @ m_matrix(a)
        g = m2
        for n in range(1, 201):
            if g.trace != (a * a + 4) * gen_fib_a(a, n) ** 2 + (-1) ** n * 2:
                bad = ("a", a, n)
                break
            g = g @ m2
        if bad:
            break
    if bad is None:
        for b in range(4, 9):
            c2 = n_matrix(b).transpose @ n_matrix(b).transpose
            g = c2
            for n in range(1, 201):
                if g.trace != (b * b - 4) * gen_fib_b(b, n) ** 2 + 2:
                    bad = ("b", b, n)
                    break
                g = g @ c2
            if bad:
                break
    _verdict(capsys, 6, "trace formulas for both companion-power families",
             bad is None, f"failed at {bad}")


def test_07_k3_classification(capsys):
    """(2,1) -> n=3 anti-symplectic trace 18; (3,3) -> n=2 symplectic 119."""
    c1 = classify_case_a(2, 1)
    c2 = classify_case_a(3, 3)
    # matrix-power oracle: repeated multiplication, no fast exponentiation
    def naive_power(mat, k):
        out = mat
        for _ in range(k - 1):
            out = out @ mat
        return out
    ok = (c1.n, c1.symplectic, c1.action.trace) == (3, False, 18) \
        and c1.action.g == naive_power(m_matrix(1), 2 * 3) \
        and (c2.n, c2.symplectic, c2.action.trace) == (2, True, 119) \
        and c2.action.g == naive_power(m_matrix(3), 2 * 2)
    _verdict(capsys, 7, "K3 classification of (2,1) and (3,3)", ok,
             f"got {(c1.n, c1.symplectic, c1.action.trace)}, "
             f"{(c2.n, c2.symplectic, c2.action.trace)}")


def test_08_intersections_to_1e9(capsys):
    """Closed-form families == brute force to x <= 10^9, exact substitution."""
    bound = 10 ** 9
    bad = None
    # cap: just above max(m, n) of the minimal pairs (3, 1), (2, 1), (4, 1),
    # so a merge that skips the match fails instead of running on.
    cases = [
        (PellSystem("plus_plus", 1, 4), LucasParams(4, -1), [2, 4, 18, 76], 4),
        (PellSystem("minus_minus", 4, 14), LucasParams(14, 1), [2, 14, 194], 3),
        (PellSystem("mixed", 1, 7), LucasParams(7, 1), [2, 7, 47, 322], 5),
    ]
    for system, params, prefix, cap in cases:
        r = intersect(system, 16, cap=cap)
        xs = [s[0] for s in r.solutions]
        if r.common_params != params or xs[:len(prefix)] != prefix \
                or any(xs[k] != lucas_uv(params, k).v for k in range(16)):
            bad = (system.flavor, "closed form")
            break
        for x, y, z in r.solutions:
            if (x * x - system.d1 * y * y,
                    x * x - system.d2 * z * z) not in system.sign_pairs:
                bad = (system.flavor, "substitution", x)
                break
        if bad:
            break
        expect = brute_force_common(system, bound)
        if [s for s in r.solutions if s[0] <= bound] != expect:
            bad = (system.flavor, "brute force")
            break
    if bad is None:
        nonsq = PellSystem("plus_plus", 1, 2)
        if square_product_test(nonsq) \
                or intersect(nonsq, 5).solutions != [(2, 0, 0)] \
                or brute_force_common(nonsq, bound) != [(2, 0, 0)]:
            bad = ("plus_plus(1,2)", "non-square case")
    _verdict(capsys, 8, "V-sequence intersections vs brute force to 1e9",
             bad is None, f"failed: {bad}")


def test_09_roundtrip(capsys):
    """Every leg composition returns to its input, params <= 8, index <= 30."""
    bad = None
    for a in range(1, 9):
        for idx in range(1, 31):
            if a == 1 and idx == 1:
                continue  # a_1 = a_2 = 1: the y-leg resolves to index 2
            if not correspondence_roundtrip("a", a, idx)["pair_leg"]:
                bad = ("a", a, idx)
                break
        if bad:
            break
    if bad is None:
        for b in range(4, 9):
            for idx in range(1, 31):
                if not correspondence_roundtrip("b", b, idx)["pair_leg"]:
                    bad = ("b", b, idx)
                    break
            if bad:
                break
    _verdict(capsys, 9, "three-way correspondence round trip", bad is None,
             f"diverged at {bad}")


def test_10_cli_contract(capsys, monkeypatch):
    """Golden structured outputs, exit-code table, injected --verify fault."""
    def run(*argv):
        code = cli_main(list(argv) + ["--format", "structured"])
        out = capsys.readouterr()
        return code, json.loads(out.out) if out.out else None, out.err

    problems = []
    goldens = [
        (["lucas", "--p", "1", "--q", "-1", "--n", "10"],
         {"u": ["55"], "v": ["123"]}),
        (["pell", "--d", "5", "--count", "2"],
         {"solvable": True,
          "solutions": [{"u": "3", "v": "1"}, {"u": "7", "v": "3"}]}),
        (["member", "--value", "8", "--a", "1"],
         {"is_member": True, "index": "6", "parity": "even",
          "square_witness": "18"}),
    ]
    for argv, want in goldens:
        code, doc, _ = run(*argv)
        got = {k: doc["result"].get(k) for k in want}
        if code != 0 or got != want:
            problems.append((argv, got))
    code, doc, _ = run("lattice", "--a", "1", "--b", "4", "--c", "1")
    if code != 0 or doc["result"]["pell_d"] != "12" \
            or doc["result"]["so_plus"]["trace"] != "4":
        problems.append("lattice golden")
    code, doc, _ = run("k3", "--m", "2", "--a", "1")
    if code != 0 or doc["result"]["trace"] != "18" or doc["result"]["symplectic"]:
        problems.append("k3 golden")
    code, doc, _ = run("intersect", "--flavor", "++", "--p1", "1", "--p2", "4",
                       "--count", "3")
    if code != 0 or doc["result"]["solutions"] != \
            [["2", "0", "0"], ["4", "2", "1"], ["18", "8", "4"]]:
        problems.append("intersect golden")

    # exit-code table: 0 success / 2 usage / 3 unsolvable / 4 cap exceeded
    if run("member", "--value", "3")[0] != 2:
        problems.append("usage exit 2")
    if run("pell", "--d", "7", "--sign=-4", "--require-solution")[0] != 3:
        problems.append("unsolvable exit 3")
    if run("intersect", "--flavor", "++", "--p1", "1", "--p2", "4",
           "--cap", "2")[0] != 4:
        problems.append("cap exit 4")

    code, doc, _ = run("member", "--value", "8", "--a", "1", "--verify")
    if code != 0 or doc["verify"]["agrees"] is not True:
        problems.append("verify agreement")
    # A fast path with a flipped verdict must be caught by the oracle.
    with monkeypatch.context() as patch:
        patch.setattr(pell, "is_gen_fib_a",
                      lambda n, a: MembershipVerdict(not is_gen_fib_a(n, a).is_member))
        code, doc, err = run("member", "--value", "8", "--a", "1", "--verify")
    if code != 1 or doc["verify"]["agrees"] is not False \
            or "DISAGREEMENT" not in err:
        problems.append("fault injection")
    _verdict(capsys, 10, "CLI golden outputs, exit codes, verify fault path",
             not problems, f"{problems}")
