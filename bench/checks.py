"""Exact checks of benchmark results, run outside the timed region.

Each check re-derives the defining property of an answer with arithmetic of
its own (2x2 integer products, its own Lucas recurrence, ``math.isqrt``).
The oracle results are compared with the library's fast paths, which share
no code with the oracles.  A check returns True when the answer is right.

Checks of Pell answers read the verified ``+4`` unit of the same ``d`` from
``memo``, the per-pass record of earlier results keyed by ``Op.key``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt

# --- arithmetic of the benchmark's own ---------------------------------------


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _mul(x, y, mod):
    a, b, c, d = x
    e, f, g, h = y
    out = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return tuple(v % mod for v in out) if mod else out


def lucas_u_pair(p: int, q: int, n: int, mod: int = 0) -> tuple[int, int]:
    """(U_n, U_{n+1}) of x_{k+1} = p x_k - q x_{k-1}, by 2x2 matrix powers.

    [[p, -q], [1, 0]]^n = [[U_{n+1}, -q U_n], [U_n, -q U_{n-1}]].
    """
    result, base = (1, 0, 0, 1), (p, -q, 1, 0)
    while n:
        if n & 1:
            result = _mul(result, base, mod)
        base = _mul(base, base, mod)
        n >>= 1
    return result[2], result[0]


def lucas_u(p: int, q: int, n: int) -> int:
    return lucas_u_pair(p, q, n)[0]


def lucas_v(p: int, q: int, n: int) -> int:
    """V_n = 2 U_{n+1} - p U_n."""
    u, u1 = lucas_u_pair(p, q, n)
    return 2 * u1 - p * u


PRIME = (1 << 61) - 1


def gram_of(lattice) -> tuple[int, int, int, int]:
    return (2 * lattice.a, lattice.b, lattice.b, 2 * lattice.c)


def norm_of(lattice, x: int, y: int) -> int:
    return 2 * (lattice.a * x * x + lattice.b * x * y + lattice.c * y * y)


def is_isometry_det1(lattice, g) -> bool:
    m = (g.e00, g.e01, g.e10, g.e11)
    mt = (g.e00, g.e10, g.e01, g.e11)
    q = gram_of(lattice)
    return (_mul(_mul(mt, q, 0), m, 0) == q
            and g.e00 * g.e11 - g.e01 * g.e10 == 1)


def disc_tag(lattice, g) -> str:
    """Action on the discriminant group from the dual basis Q^{-1} e_i."""
    a2, b, _, c2 = gram_of(lattice)
    det = a2 * c2 - b * b
    dual = ((Fraction(c2, det), Fraction(-b, det)),
            (Fraction(-b, det), Fraction(a2, det)))
    for eps, tag in ((1, "+id"), (-1, "-id")):
        if all(((g.e00 - eps) * x + g.e01 * y).denominator == 1
               and (g.e10 * x + (g.e11 - eps) * y).denominator == 1
               for x, y in dual):
            return tag
    return "other"


def compose(d: int, s, t) -> tuple[int, int]:
    """(u, v) of ((s.u + s.v sqrt d)/2) * ((t.u + t.v sqrt d)/2)."""
    u, v = s[0] * t[0] + d * s[1] * t[1], s[0] * t[1] + s[1] * t[0]
    if u % 2 or v % 2:
        raise ArithmeticError("odd half-integer product")
    return u // 2, v // 2


def equation_sides(flavor: str, p1: int, p2: int):
    """(d1, d2, allowed (sign1, sign2) pairs) of an intersection system."""
    d1 = p1 * p1 - 4 if flavor == "minus_minus" else p1 * p1 + 4
    d2 = p2 * p2 - 4 if flavor in ("minus_minus", "mixed") else p2 * p2 + 4
    signs = {"plus_plus": ((4, 4), (-4, -4)),
             "opposite_signs": ((4, -4), (-4, 4))}.get(flavor, ((4, 4),))
    return d1, d2, signs


def triple_ok(flavor: str, p1: int, p2: int, triple) -> bool:
    x, y, z = triple
    d1, d2, signs = equation_sides(flavor, p1, p2)
    return y >= 0 and z >= 0 and (x * x - d1 * y * y,
                                  x * x - d2 * z * z) in signs


def _increasing(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


# --- lucas -------------------------------------------------------------------


def lucas_uv(p: int, q: int, n: int, r, memo) -> bool:
    """V^2 - D U^2 = 4 Q^n, and U agrees with the recurrence mod a prime."""
    return (r.n == n and r.v * r.v - (p * p - 4 * q) * r.u * r.u == 4 * q ** n
            and (r.u - lucas_u_pair(p, q, n, PRIME)[0]) % PRIME == 0)


def companion_power(kind: str, value: int, n: int, m, memo) -> bool:
    q, det = (-1, (-1) ** n) if kind == "M" else (1, 1)
    u, u1 = lucas_u_pair(value, q, n, PRIME)
    if kind == "M":
        shape = m.e01 == m.e10
    else:
        shape = m.e10 == -m.e01
    return (shape and m.e00 * m.e11 - m.e01 * m.e10 == det
            and (m.e01 - u) % PRIME == 0 and (m.e11 - u1) % PRIME == 0)


# --- pell --------------------------------------------------------------------


def fund_plus(d: int, s, memo) -> bool:
    return (s is not None and s.sign == 4 and s.u > 0 and s.v > 0
            and s.u * s.u - d * s.v * s.v == 4)


def fund_minus(d: int, s, memo) -> bool:
    """-4 is solvable iff the +4 unit u is a square: u - 2 = s^2, u + 2 = d t^2."""
    plus = memo[("fund", d, 4)]
    solvable = (is_square(plus.u - 2) and (plus.u + 2) % d == 0
                and is_square((plus.u + 2) // d))
    if s is None:
        return not solvable
    return (solvable and s.sign == -4 and s.u > 0 and s.v > 0
            and s.u * s.u - d * s.v * s.v == -4 and s.u * s.u == plus.u - 2)


def solutions(d: int, sign: int, count: int, sols, memo) -> bool:
    fund = memo[("fund", d, sign)]
    if isinstance(sols, ValueError):
        return fund is None
    if fund is None or len(sols) != count:
        return False
    step = memo[("fund", d, 4)]
    cur = (fund.u, fund.v)
    for s in sols:
        if (s.u, s.v) != cur or s.sign != sign:
            return False
        cur = compose(d, cur, (step.u, step.v))
    return True


def _membership(p: int, q: int, n: int, verdict, witness_sq: int) -> bool:
    from pellucas.lucas import LucasParams, lucas_uv as fast_uv
    k = verdict.index
    return (k is not None and k >= 1 and fast_uv(LucasParams(p, q), k).u == n
            and (k == 1 or fast_uv(LucasParams(p, q), k - 1).u < n)
            and verdict.square_witness ** 2 == witness_sq)


def member_a(n: int, a: int, verdict, memo) -> bool:
    d = a * a + 4
    if not verdict.is_member:
        return not is_square(d * n * n + 4) and not is_square(d * n * n - 4)
    if verdict.parity != ("even" if verdict.index % 2 == 0 else "odd"):
        return False
    sign = 4 if verdict.index % 2 == 0 else -4
    return _membership(a, -1, n, verdict, d * n * n + sign)


def member_b(n: int, b: int, verdict, memo) -> bool:
    d = b * b - 4
    if not verdict.is_member:
        return not is_square(d * n * n + 4)
    return verdict.parity is None and _membership(b, 1, n, verdict, d * n * n + 4)


# --- lattice -----------------------------------------------------------------


def generator(lattice, action, memo) -> bool:
    d = lattice.b * lattice.b - 4 * lattice.a * lattice.c
    if is_square(d):
        return action is None
    if action is None:
        return False
    g = action.g
    t = g.e00 + g.e11
    return (is_isometry_det1(lattice, g) and action.det == 1
            and action.trace == t and (t * t - 4) % d == 0
            and is_square((t * t - 4) // d) and action.preserves_cone
            and action.disc_action == disc_tag(lattice, g))


ROOT_BOX = 12


def roots(lattice, target: int, r, memo) -> bool:
    d = lattice.b * lattice.b - 4 * lattice.a * lattice.c
    if r is not None:
        return r != (0, 0) and norm_of(lattice, *r) == target
    if target == 0:
        return not is_square(d)
    if gcd(gcd(lattice.a, lattice.b), lattice.c) != 1:
        return True
    return all(norm_of(lattice, x, y) != -2
               for x in range(-ROOT_BOX, ROOT_BOX + 1)
               for y in range(-ROOT_BOX, ROOT_BOX + 1))


def disc_action(lattice, g, tag, memo) -> bool:
    return tag == disc_tag(lattice, g)


# --- k3 ----------------------------------------------------------------------


def _apparition(m: int, a: int) -> int:
    prev, cur, n = 0, 1, 1
    while cur % m:
        prev, cur, n = cur, (a * cur + prev) % m, n + 1
    return n


def case_a(m: int, a: int, case, memo) -> bool:
    from pellucas.lattice import Lattice2
    n = _apparition(m, a)
    term = lucas_u(a, -1, n)
    g = case.action.g
    return (case.n == n and case.omega_sign == (-1) ** n
            and case.action.trace == (a * a + 4) * term * term + (-1) ** n * 2
            and is_isometry_det1(Lattice2(m, m * a, -m), g))


def case_b(b: int, n: int, case, memo) -> bool:
    from pellucas.lattice import Lattice2
    term = lucas_u(b, 1, n)
    return (case.n == n and case.action.disc_action == "+id"
            and case.action.trace == (b * b - 4) * term * term + 2
            and is_isometry_det1(Lattice2(1, b, 1), case.action.g))


def roundtrip(flavor: str, param: int, index: int, out, memo) -> bool:
    rec = out["record"]
    q, d = (-1, param * param + 4) if flavor == "a" else (1, param * param - 4)
    term = lucas_u(param, q, index)
    omega = (-1) ** index if flavor == "a" else 1
    return (out["term_leg"] and out["pell_leg"] and out["pair_leg"]
            and rec.index == index and rec.term == term
            and rec.x * rec.x - d * term * term == rec.pell_sign
            and rec.omega_sign == omega
            and rec.trace == d * term * term + 2 * omega)


# --- intersection ------------------------------------------------------------


def intersect(system, count: int, x_bound, res, memo) -> bool:
    flavor, p1, p2 = system.flavor, system.p1, system.p2
    sols = res.solutions
    xs = [t[0] for t in sols]
    if not all(triple_ok(flavor, p1, p2, t) for t in sols) or not _increasing(xs):
        return False
    if flavor == "opposite_signs":
        return (res.verdict == "finite_only" and len(sols) <= count
                and all(x <= x_bound for x in xs))
    d1, d2, _ = equation_sides(flavor, p1, p2)
    if not is_square(d1 * d2):
        return res.verdict == "trivial_only" and sols == [(2, 0, 0)]
    params = res.common_params
    return (res.verdict == "infinite_family" and len(sols) == count
            and xs == [lucas_v(params.p, params.q, k) for k in range(count)])


def trace_match(system, pair, memo) -> bool:
    flavor, p1, p2 = system.flavor, system.p1, system.p2
    m, n = pair
    d1, d2, _ = equation_sides(flavor, p1, p2)
    q1 = 1 if flavor == "minus_minus" else -1
    q2 = 1 if flavor in ("minus_minus", "mixed") else -1
    parity = (m - n) % 2 == 0 if flavor == "plus_plus" else True
    even = m % 2 == 0 if flavor == "mixed" else True
    return (m >= 1 and n >= 1 and parity and even
            and d1 * lucas_u(p1, q1, m) ** 2 == d2 * lucas_u(p2, q2, n) ** 2)


def brute_force(system, x_bound: int, sols, memo) -> bool:
    """Equal to the closed-form family (or x = 2 alone) below the bound."""
    from pellucas.intersection import intersect as closed_form
    flavor, p1, p2 = system.flavor, system.p1, system.p2
    if not all(triple_ok(flavor, p1, p2, t) for t in sols):
        return False
    family = closed_form(system, 64).solutions
    if family[-1][0] <= x_bound and len(family) == 64:
        return False
    return sols == [t for t in family if t[0] <= x_bound]


# --- oracle ------------------------------------------------------------------


def enumerate_pell(d: int, sign: int, v_bound: int, sols, memo) -> bool:
    from pellucas.pell import PellProblem, fundamental_solution
    fund = fundamental_solution(PellProblem(d, sign))
    step = fundamental_solution(PellProblem(d, 4))
    expect = [(2, 0)] if sign == 4 else []
    cur = (fund.u, fund.v) if fund is not None else None
    while cur is not None and cur[1] <= v_bound:
        expect.append(cur)
        cur = compose(d, cur, (step.u, step.v))
    return [(s.u, s.v) for s in sols] == expect and all(s.sign == sign for s in sols)


def whitney_mask(a: int, shift: int, bound: int, mask, memo) -> bool:
    want = set()
    prev, cur, k = 0, 1, 1
    while cur <= bound:
        if (k % 2 == 0) == (shift == 4):
            want.add(cur)
        prev, cur, k = cur, a * cur + prev, k + 1
    return len(mask) == bound + 1 and {int(i) for i in mask.nonzero()[0]} == want


def disc_direct(lattice, g, tag, memo) -> bool:
    from pellucas.lattice import disc_group_action
    return tag == disc_group_action(lattice, g)


# --- cli ---------------------------------------------------------------------


def _ints(xs):
    return [int(x) for x in xs]


FLAVOR_ALIASES = {"++": "plus_plus", "--": "minus_minus", "mm": "minus_minus",
                  "+-": "mixed", "pm": "mixed", "opp": "opposite_signs"}


def cli(argv: list[str], out, memo) -> bool:
    """Exit code 0, verify agreement when asked, and the key result exact."""
    code, text = out
    if code != 0:
        return False
    doc = json.loads(text)
    if doc["command"] != argv[0]:
        return False
    if "--verify" in argv and not (doc["verify"] or {}).get("agrees"):
        return False
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1)
           if argv[i].startswith("--") and not argv[i + 1].startswith("--")}
    num = {k: int(v) for k, v in opt.items() if k not in ("--flavor", "--format")}
    res, sub = doc["result"], argv[0]
    if sub == "lucas":
        if "--a" in num:
            return _ints(res["terms"]) == [lucas_u(num["--a"], -1, num["--n"])]
        return _ints(res["u"]) == [lucas_u(num["--p"], num["--q"], num["--n"])]
    if sub == "pell":
        d, sign = num["--d"], num.get("--sign", 4)
        return res["solvable"] and all(
            int(s["u"]) ** 2 - d * int(s["v"]) ** 2 == sign
            for s in res["solutions"])
    if sub == "member":
        a, value = num["--a"], num["--value"]
        k = res.get("index")
        if k is None:
            d = a * a + 4
            return (not res["is_member"] and not is_square(d * value * value + 4)
                    and not is_square(d * value * value - 4))
        return res["is_member"] and lucas_u(a, -1, int(k)) == value
    if sub == "lattice":
        from pellucas.lattice import Lattice2
        from pellucas.lucas import Mat2
        lattice = Lattice2(num["--a"], num["--b"], num["--c"])
        g = Mat2(*_ints(sum(res["so_plus"]["matrix"], [])))
        return is_isometry_det1(lattice, g)
    if sub == "k3":
        if "--b" in num:
            b, n = num["--b"], num.get("--n", 1)
            term = lucas_u(b, 1, n)
            return int(res["trace"]) == (b * b - 4) * term * term + 2
        m, a = num["--m"], num["--a"]
        n = _apparition(m, a)
        term = lucas_u(a, -1, n)
        return int(res["trace"]) == (a * a + 4) * term * term + (-1) ** n * 2
    if sub == "intersect":
        flavor = FLAVOR_ALIASES.get(opt["--flavor"], opt["--flavor"])
        return all(triple_ok(flavor, num["--p1"], num["--p2"], _ints(t))
                   for t in res["solutions"])
    return False
