"""The three benchmark workloads, built from a seed as lists of operations.

An operation is one call into one public function of a ``pellucas`` module
(or one in-process ``pellucas.cli.main`` invocation) plus the exact check of
its answer.  A workload's pass is its full list of operations; the runner
repeats passes.  The seed picks every input; the library sees nothing else.
A layer that a workload does not call reports 0 calls on it.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from functools import partial
from math import isqrt
from typing import Any, Callable, Hashable

import checks
from checks import is_square, lucas_u, lucas_v
from pellucas import cli, intersection, k3, lattice, lucas, oracle, pell
from pellucas.intersection import PellSystem
from pellucas.lucas import LucasParams, Mat2
from pellucas.pell import PellProblem


@dataclass(frozen=True)
class Op:
    layer: str                       # "<module>.<function>" or "cli.main.<sub>"
    fn: Callable[..., Any]
    args: tuple
    check: Callable[[Any, dict], bool]
    key: Hashable = None             # memo key; later checks may read the result
    expect: tuple = ()               # exception types that are a legal answer
    kwargs: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``pellucas <argv>`` in-process, with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# --- input helpers -----------------------------------------------------------


def cf_period(n: int) -> int:
    """Period length of the continued fraction of sqrt(n), n not a square."""
    a0 = isqrt(n)
    m, den, a, length = 0, 1, a0, 0
    while a != 2 * a0:
        m = den * a - m
        den = (n - m * m) // den
        a = (a0 + m) // den
        length += 1
    return length


def jitter(rng: random.Random, n: int, share: float = 0.03) -> int:
    return max(1, n + rng.randint(-int(n * share), int(n * share)))


def hyperbolic_form(rng: random.Random, bound: int,
                    disc_range: tuple[int, int] | None = None
                    ) -> lattice.Lattice2:
    """Random [[2a, b], [b, 2c]] of signature (1, 1), coefficients <= bound."""
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        d = b * b - 4 * a * c
        if d <= 0:
            continue
        if disc_range is None or disc_range[0] <= d <= disc_range[1]:
            return lattice.make_lattice(a, b, c)


def isometry_for(lat: lattice.Lattice2) -> Mat2:
    """The SO+ generator (prepared before timing), or -id when it is trivial."""
    gen = lattice.so_plus_generator(lat)
    return gen.g if gen is not None else Mat2(-1, 0, 0, -1)


def sequence_terms(p: int, q: int, bound: int) -> list[int]:
    """U_1, U_2, ... of (p, q) up to bound."""
    out, prev, cur = [], 0, 1
    while cur <= bound:
        out.append(cur)
        prev, cur = cur, p * cur - q * prev
    return out


# --- op constructors ---------------------------------------------------------


def pell_ops(d: int) -> list[Op]:
    """Both signs; the -4 check reads the +4 result, so +4 comes first."""
    return [Op("pell.fundamental_solution", pell.fundamental_solution,
               (PellProblem(d, sign),),
               partial(checks.fund_plus if sign == 4 else checks.fund_minus, d),
               key=("fund", d, sign))
            for sign in (4, -4)]


def solutions_op(d: int, sign: int, count: int) -> Op:
    return Op("pell.solutions_iter", pell.solutions_iter,
              (PellProblem(d, sign), count),
              partial(checks.solutions, d, sign, count), expect=(ValueError,))


def member_op(flavor: str, n: int, param: int) -> Op:
    if flavor == "a":
        return Op("pell.is_gen_fib_a", pell.is_gen_fib_a, (n, param),
                  partial(checks.member_a, n, param))
    return Op("pell.is_gen_fib_b", pell.is_gen_fib_b, (n, param),
              partial(checks.member_b, n, param))


def lattice_ops(lat: lattice.Lattice2) -> list[Op]:
    g = isometry_for(lat)
    return [
        Op("lattice.so_plus_generator", lattice.so_plus_generator, (lat,),
           partial(checks.generator, lat)),
        Op("lattice.find_roots", lattice.find_roots, (lat, 0),
           partial(checks.roots, lat, 0)),
        Op("lattice.find_roots", lattice.find_roots, (lat, -2),
           partial(checks.roots, lat, -2)),
        Op("lattice.disc_group_action", lattice.disc_group_action, (lat, g),
           partial(checks.disc_action, lat, g)),
    ]


def lucas_op(p: int, q: int, n: int) -> Op:
    return Op("lucas.lucas_uv", lucas.lucas_uv, (LucasParams(p, q), n),
              partial(checks.lucas_uv, p, q, n))


def companion_op(kind: str, value: int, n: int) -> Op:
    return Op("lucas.companion_power", lucas.companion_power, (kind, value, n),
              partial(checks.companion_power, kind, value, n))


def case_a_op(m: int, a: int) -> Op:
    return Op("k3.classify_case_a", k3.classify_case_a, (m, a),
              partial(checks.case_a, m, a))


def case_b_op(b: int, n: int) -> Op:
    return Op("k3.classify_case_b", k3.classify_case_b, (b, n),
              partial(checks.case_b, b, n))


def roundtrip_op(flavor: str, param: int, index: int) -> Op:
    return Op("k3.correspondence_roundtrip", k3.correspondence_roundtrip,
              (flavor, param, index),
              partial(checks.roundtrip, flavor, param, index))


def intersect_op(system: PellSystem, count: int,
                 x_bound: int | None = None) -> Op:
    kwargs = {} if x_bound is None else {"x_bound": x_bound}
    return Op("intersection.intersect", intersection.intersect,
              (system, count), partial(checks.intersect, system, count, x_bound),
              kwargs=kwargs)


def trace_match_op(system: PellSystem) -> Op:
    return Op("intersection.minimal_trace_match",
              intersection.minimal_trace_match, (system,),
              partial(checks.trace_match, system))


def brute_op(system: PellSystem, x_bound: int) -> Op:
    return Op("intersection.brute_force_common",
              intersection.brute_force_common, (system, x_bound),
              partial(checks.brute_force, system, x_bound))


def enumerate_op(d: int, sign: int, v_bound: int) -> Op:
    return Op("oracle.enumerate_pell", oracle.enumerate_pell, (d, sign, v_bound),
              partial(checks.enumerate_pell, d, sign, v_bound))


def whitney_op(a: int, shift: int, bound: int) -> Op:
    return Op("oracle.whitney_member_mask", oracle.whitney_member_mask,
              (a * a + 4, shift, bound),
              partial(checks.whitney_mask, a, shift, bound))


def disc_direct_op(lat: lattice.Lattice2) -> Op:
    g = isometry_for(lat)
    return Op("oracle.disc_action_direct", oracle.disc_action_direct, (lat, g),
              partial(checks.disc_direct, lat, g))


def cli_op(argv: list[str]) -> Op:
    argv = argv + ["--format", "structured"]
    return Op(f"cli.main.{argv[0]}", run_cli, (argv,), partial(checks.cli, argv))


def grid_systems(flavor: str, top: int):
    """Admissible (p1 < p2 <= top) systems of one flavor."""
    lo1 = 4 if flavor == "minus_minus" else 1
    lo2 = 1 if flavor in ("plus_plus", "opposite_signs") else 4
    for p1 in range(lo1, top + 1):
        for p2 in range(max(p1 + 1, lo2), top + 1):
            yield PellSystem(flavor, p1, p2)


def is_square_system(system: PellSystem) -> bool:
    d1, d2, _ = checks.equation_sides(system.flavor, system.p1, system.p2)
    return is_square(d1 * d2)


# --- workloads ---------------------------------------------------------------


def survey(rng: random.Random, small: bool) -> list[Op]:
    """Thousands of small-parameter calls, as the scripts and tables make."""
    ops = []
    d_max, n_member, n_forms = (60, 40, 10) if small else (1500, 600, 300)
    for d in range(2, d_max + 1):
        if is_square(d):
            continue
        ops += pell_ops(d)
        ops += [solutions_op(d, 4, rng.randint(2, 6)),
                solutions_op(d, -4, rng.randint(2, 6))]
    for flavor, lo, hi, q in (("a", 1, 10, -1), ("b", 4, 12, 1)):
        for _ in range(n_member):
            param = rng.randint(lo, hi)
            # Mostly non-members; one in six draws a member.
            n = (rng.choice(sequence_terms(param, q, 10 ** 6))
                 if rng.random() < 1 / 6 else rng.randint(1, 10 ** 6))
            ops.append(member_op(flavor, n, param))
    for _ in range(n_forms):
        ops += lattice_ops(hyperbolic_form(rng, 50))
    for _ in range(n_forms // 2):
        ops.append(case_a_op(rng.randint(2, 200), rng.randint(1, 10)))
        ops.append(case_b_op(rng.randint(4, 12), rng.randint(1, 50)))
        flavor = rng.choice("ab")
        ops.append(roundtrip_op(flavor, rng.randint(1, 8) if flavor == "a"
                                else rng.randint(4, 10), rng.randint(2, 30)))
    top = 6 if small else 12
    for flavor in intersection.FLAVORS:
        for system in grid_systems(flavor, top):
            if flavor == "opposite_signs":
                ops.append(intersect_op(system, 5, x_bound=1000))
                continue
            ops.append(intersect_op(system, 5))
            if is_square_system(system):
                ops.append(trace_match_op(system))
    return ops


# (decade exponent k, continued-fraction period P, how many d): d is drawn
# from [10^k, 10^(k+1)) with period in [P, 1.1 P).  The period, not d, sets
# the cost (unit digits ~ 0.5 * P), so pinning it keeps each rung's cost
# steady across seeds.  The counts are not the library's traffic: the P = 300
# and P = 3000 rungs are sized for the latency median and 90th percentile to
# fall inside them, each a cluster of like costs (see README.md).
# No random-d rung reaches [10^8, 10^9): five such d took 105 s in total,
# too long to repeat for every run.
PELL_RUNGS = ((4, 30, 2), (5, 100, 2), (6, 300, 20), (7, 1000, 4), (7, 3000, 8))


def pell_rung_d(rng: random.Random, k: int, period: int) -> int:
    while True:
        d = rng.randrange(10 ** k, 10 ** (k + 1))
        if d % 4 and not is_square(d) and period <= cf_period(d) < period * 1.1:
            return d


def bigint_scale(rng: random.Random, small: bool) -> list[Op]:
    """About 150 calls on geometric size ladders; bigint size sets the cost."""
    scale = 100 if small else 1
    ops = []
    for n in (10 ** 4, 10 ** 5, 10 ** 6):
        n = jitter(rng, n // scale, 0.02)
        ops += [lucas_op(1, -1, n), lucas_op(4, 1, n)]
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        n = jitter(rng, n // scale, 0.02)
        ops += [companion_op("M", 1, n), companion_op("N", 4, n)]
    rungs = PELL_RUNGS[:2] if small else PELL_RUNGS
    for k, period, count in rungs:
        ds = [pell_rung_d(rng, k, period) for _ in range(count)]
        for d in ds:
            ops += pell_ops(d)
        ops.append(solutions_op(ds[0], 4, 6))
    for flavor, param, q, top in (("a", 1, -1, 10 ** 4), ("b", 4, 1, 3162)):
        for index in (100, 316, 1000, 3162, 10 ** 4):
            if index <= top:
                index = jitter(rng, max(2, index // scale))
                ops.append(member_op(flavor, lucas_u(param, q, index), param))
    for target in (10 ** 4, 10 ** 6, 10 ** 8):
        b = jitter(rng, isqrt(target // scale))
        ops += lattice_ops(lattice.make_lattice(1, b, 1))
        m = rng.randint(2, 9)
        a = max(1, jitter(rng, isqrt(target // scale) // m))
        ops += lattice_ops(lattice.make_lattice(m, m * a, -m))
    for m in (10 ** 2, 10 ** 3, 10 ** 4):
        for _ in range(2):
            ops.append(case_a_op(jitter(rng, max(2, m // scale)),
                                 rng.randint(1, 10)))
    for n, reps in ((10 ** 2, 2), (10 ** 3, 2), (10 ** 4, 1)):
        for _ in range(reps):
            ops.append(case_b_op(rng.randint(95, 105), jitter(rng, n // scale)))
    for index in (100, 300, 1000, 2000):
        index = jitter(rng, max(2, index // scale))
        ops.append(roundtrip_op("a", rng.randint(1, 3), index))
        ops.append(roundtrip_op("b", rng.randint(4, 6), index))
    for m in (11, 101, 1001):
        m = jitter(rng, max(3, m // scale), 0.1) | 1
        p1 = rng.randint(1, 3)
        system = PellSystem("plus_plus", p1, lucas_v(p1, -1, m))
        ops += [trace_match_op(system), intersect_op(system, 5)]
    return ops


# The ``--verify`` invocations the Tier-1 CLI tests make, one per subcommand.
# ``lattice --verify`` on seeded random forms is left out: it reports a false
# disagreement (exit 1) whenever the least (-2)-root lies outside the
# searched box, e.g. ``lattice --a -9 --b 7 --c 6 --verify --bound 200``.
VERIFY_ARGVS = (["lucas", "--p", "2", "--q", "-1", "--n", "30"],
                ["pell", "--d", "13", "--count", "3"],
                ["member", "--value", "29", "--a", "2"],
                ["lattice", "--a", "1", "--b", "5", "--c", "1"],
                ["k3", "--b", "5", "--n", "2"],
                ["intersect", "--flavor", "mm", "--p1", "4", "--p2", "14",
                 "--count", "3"])

# acceptance-08 systems plus the non-square plus_plus(1, 2)
BRUTE_SYSTEMS = (PellSystem("plus_plus", 1, 4), PellSystem("minus_minus", 4, 14),
                 PellSystem("mixed", 1, 7), PellSystem("plus_plus", 1, 2))


def oracle_enum(rng: random.Random, small: bool) -> list[Op]:
    """The exhaustive paths: brute force, oracles and ``--verify``."""
    scale = 1000 if small else 1
    ops = []
    # 10^5 takes the pure-Python walk (<= 200 000); 10^7 and 10^8 the numpy one.
    for x_bound in (10 ** 5, 10 ** 7, 10 ** 8):
        for system in BRUTE_SYSTEMS:
            ops.append(brute_op(system, x_bound // scale))
    # The larger d of the system sets the rows scanned, so p2 stays fixed.
    for _ in range(4):
        system = PellSystem("opposite_signs", rng.randint(1, 5), 6)
        ops.append(intersect_op(system, 10, x_bound=10 ** 7 // scale))
    nonsquare = [x for x in range(2, 501) if not is_square(x)]
    # The 10^6 rung and the Whitney masks are the cluster the latency median
    # falls in.
    for v_bound, count in ((10 ** 4, 10), (10 ** 5, 10), (10 ** 6, 30)):
        for _ in range(2 if small else count):
            ops.append(enumerate_op(rng.choice(nonsquare), rng.choice((4, -4)),
                                    v_bound // scale))
    for a in range(1, 11):
        for shift in (4, -4):
            ops.append(whitney_op(a, shift, 10 ** 6 // scale))
    # Coset enumeration costs ~ order^2, so the order is held in a narrow
    # band; these calls are the cluster the latency p90 falls in.
    for _ in range(1 if small else 10):
        ops.append(disc_direct_op(hyperbolic_form(
            rng, 12, disc_range=(20, 40) if small else (108, 116))))
    ops += [cli_op(argv + ["--verify"]) for argv in VERIFY_ARGVS]
    return ops


WORKLOADS = {"survey": survey, "bigint_scale": bigint_scale,
             "oracle_enum": oracle_enum}


def build(workload: str, seed: int, small: bool = False) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), small)
