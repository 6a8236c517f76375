"""Command-line front end.

Subcommands: lucas, pell, member, lattice, k3, intersect.  Global flags
--format/--verify/--cap/--bound work on every subcommand, and each flag can
be preset through an environment variable PELLUCAS_<FLAG> (e.g.
PELLUCAS_FORMAT=structured).  Structured output is one JSON document per
invocation with keys {command, inputs, result, verify, version}; every
integer is serialized as a decimal string because results outgrow 64 bits
quickly.

Exit codes: 0 success, 1 verification disagreement, 2 usage error,
3 unsolvable equation when a solution was demanded, 4 search cap exceeded,
5 a result has more digits than the interpreter converts to text (nothing
is printed to stdout then).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import __version__
from . import intersection as ix
from . import k3, lattice as lat, lucas, oracle, pell
from .errors import SearchCapExceeded

ENV_PREFIX = "PELLUCAS_"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSOLVABLE = 3
EXIT_CAP = 4
EXIT_TOO_LONG = 5


def _env_default(name: str, fallback=None, cast=str):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None:
        return fallback
    if cast is bool:
        return raw.lower() in ("1", "true", "yes")
    return cast(raw)


def _jsonable(obj):
    if is_dataclass(obj):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


class Record:
    """Output record accumulated by each subcommand."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.result: dict = {}
        self.verify: dict | None = None
        self.started = time.perf_counter()

    def render(self, fmt: str) -> str:
        """The whole output text; ValueError if an integer is too long for
        str() under the interpreter's digit limit."""
        if fmt == "structured":
            doc = {"command": self.command, "inputs": _jsonable(self.inputs),
                   "result": _jsonable(self.result),
                   "verify": _jsonable(self.verify), "version": __version__}
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"
        lines = [f"# {self.command} {self.inputs}"]
        lines += [f"{key}: {value}" for key, value in self.result.items()]
        if self.verify is not None:
            lines.append(f"verify: {self.verify}")
        lines.append(f"elapsed: {time.perf_counter() - self.started:.3f}s")
        return "\n".join(lines) + "\n"

    def check_verify(self) -> int:
        if self.verify is not None and not self.verify.get("agrees", True):
            print("VERIFY DISAGREEMENT:", self.verify, file=sys.stderr)
            return EXIT_VERIFY_FAILED
        return EXIT_OK


def _parse_range(spec: str) -> range:
    lo, _, hi = spec.partition("..")
    return range(int(lo), int(hi) + 1)


def cmd_lucas(args, rec: Record) -> int:
    indices = _parse_range(args.range) if args.range else [args.n]
    if args.a is not None:
        rec.result["terms"] = [lucas.gen_fib_a(args.a, n) for n in indices]
    elif args.b is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rec.result["terms"] = [lucas.gen_fib_b(args.b, n) for n in indices]
        if args.b < 4:
            rec.result["degenerate_warning"] = "b < 4"
    else:
        params = lucas.LucasParams(args.p, args.q)
        terms = [lucas.lucas_uv(params, n) for n in indices]
        rec.result["u"] = [t.u for t in terms]
        rec.result["v"] = [t.v for t in terms]
        rec.result["discriminant"] = params.discriminant
    if args.verify:
        if args.a is not None:
            expect = [oracle.naive_lucas(lucas.LucasParams(args.a, -1), n).u
                      for n in indices]
            got = rec.result["terms"]
        elif args.b is not None:
            expect = [oracle.naive_lucas(lucas.LucasParams(args.b, 1), n).u
                      for n in indices]
            got = rec.result["terms"]
        else:
            expect = [oracle.naive_lucas(lucas.LucasParams(args.p, args.q), n).u
                      for n in indices]
            got = rec.result["u"]
        rec.verify = {"oracle": "naive_lucas", "agrees": got == expect,
                      "expected": expect}
    return EXIT_OK


def cmd_pell(args, rec: Record) -> int:
    problem = pell.PellProblem(args.d, args.sign)
    fund = pell.fundamental_solution(problem)
    if fund is None:
        rec.result["solvable"] = False
        if args.require_solution:
            return EXIT_UNSOLVABLE
        return EXIT_OK
    rec.result["solvable"] = True
    rec.result["fundamental"] = {"u": fund.u, "v": fund.v}
    sols = pell.solutions_iter(problem, args.count)
    rec.result["solutions"] = [{"u": s.u, "v": s.v} for s in sols]
    if args.verify:
        bound = min(max(s.v for s in sols), args.bound)
        expect = [(s.u, s.v) for s in
                  oracle.enumerate_pell(args.d, args.sign, bound)]
        if args.sign == 4 and (2, 0) in expect:
            expect.remove((2, 0))
        got = [(s.u, s.v) for s in sols if s.v <= bound]
        rec.verify = {"oracle": "enumerate_pell", "agrees": got == expect,
                      "expected": expect, "bound": bound}
    return EXIT_OK


def cmd_member(args, rec: Record) -> int:
    if args.a is not None:
        verdict = pell.is_gen_fib_a(args.value, args.a)
        flavor, param = "a", args.a
    else:
        verdict = pell.is_gen_fib_b(args.value, args.b)
        flavor, param = "b", args.b
    rec.result["is_member"] = verdict.is_member
    if verdict.is_member:
        rec.result["index"] = verdict.index
        rec.result["parity"] = verdict.parity
        rec.result["square_witness"] = verdict.square_witness
    if args.verify:
        expect = oracle.naive_membership(args.value, flavor, param)
        agrees = (expect.is_member == verdict.is_member
                  and (not expect.is_member or expect.index == verdict.index))
        rec.verify = {"oracle": "naive_membership", "agrees": agrees,
                      "expected": {"is_member": expect.is_member,
                                   "index": expect.index}}
    return EXIT_OK


def cmd_lattice(args, rec: Record) -> int:
    try:
        lattice = lat.make_lattice(args.a, args.b, args.c)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    rec.result["gram"] = lattice.gram.rows()
    rec.result["disc"] = lattice.disc
    rec.result["pell_d"] = lattice.pell_d
    rec.result["gcd"] = lattice.k
    rec.result["signature"] = list(lattice.signature)
    if lattice.is_hyperbolic:
        gen = lat.so_plus_generator(lattice)
        if gen is None:
            rec.result["so_plus"] = "trivial"
        else:
            rec.result["so_plus"] = {"matrix": gen.g.rows(), "trace": gen.trace,
                                     "disc_action": gen.disc_action}
        rec.result["isotropic"] = lat.find_roots(lattice, 0)
        rec.result["root_minus2"] = lat.find_roots(lattice, -2)
    if args.verify and lattice.is_hyperbolic:
        root = rec.result["root_minus2"]
        if root is not None:
            # A witness is certified by its norm v^T G v from the Gram entries;
            # the least root can lie outside any search box.
            gx, gy = lattice.gram.apply(*root)
            norm = root[0] * gx + root[1] * gy
            rec.verify = {"oracle": "gram_norm", "agrees": norm == -2,
                          "expected": -2, "norm": norm, "bound": None}
        else:
            # Only a None answer needs the box search, which can refute it.
            bound = min(args.bound, 1000)
            found = oracle.first_root_in_box(lattice.gram, bound)
            rec.verify = {"oracle": "exhaustive_root_search",
                          "agrees": found is None, "expected": found,
                          "bound": bound}
    return EXIT_OK


def cmd_k3(args, rec: Record) -> int:
    if args.b is not None:
        case = k3.classify_case_b(args.b, args.n)
        rec.result["lattice"] = k3.case_b_lattice(args.b).gram.rows()
        rec.result["n"] = case.n
        rec.result["symplectic"] = True
        action = case.action
    else:
        case = k3.classify_case_a(args.m, args.a)
        rec.result["lattice"] = k3.case_a_lattice(args.m, args.a).gram.rows()
        rec.result["n"] = case.n
        rec.result["symplectic"] = case.symplectic
        rec.result["omega_sign"] = case.omega_sign
        action = case.action
    rec.result["action"] = action.g.rows()
    rec.result["trace"] = action.trace
    rec.result["det"] = action.det
    rec.result["disc_action"] = action.disc_action
    if args.verify:
        # The action recomputed as M_a^(2n) or (C^T)^(2n) by repeated
        # multiplication; its matrix and its trace must both agree.
        step = (lucas.n_matrix(args.b).transpose if args.b is not None
                else lucas.m_matrix(args.a))
        expect = oracle.naive_matrix_power(step, 2 * case.n)
        rec.verify = {"oracle": "matrix_trace",
                      "agrees": (expect == action.g
                                 and expect.trace == action.trace),
                      "expected": expect.trace}
    return EXIT_OK


def cmd_intersect(args, rec: Record) -> int:
    flavor = {"++": "plus_plus", "--": "minus_minus", "mm": "minus_minus",
              "+-": "mixed", "pm": "mixed",
              "opp": "opposite_signs"}.get(args.flavor, args.flavor)
    try:
        system = ix.PellSystem(flavor, args.p1, args.p2)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    result = ix.intersect(system, args.count, cap=args.cap, x_bound=args.x_bound)
    rec.result["verdict"] = result.verdict
    if result.minimal_pair:
        rec.result["minimal_pair"] = list(result.minimal_pair)
    if result.common_params:
        rec.result["common_params"] = {"p": result.common_params.p,
                                       "q": result.common_params.q}
    rec.result["solutions"] = [list(t) for t in result.solutions]
    if args.verify:
        top = max((s[0] for s in result.solutions), default=2)
        bound = min(top, args.bound)
        expect = [list(t) for t in ix.brute_force_common(system, bound)]
        got = [list(t) for t in result.solutions if t[0] <= bound]
        rec.verify = {"oracle": "brute_force_common", "agrees": got == expect,
                      "expected": expect, "bound": bound}
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "structured"),
                        default=_env_default("format", "plain"))
    common.add_argument("--verify", action="store_true",
                        default=_env_default("verify", False, bool))
    common.add_argument("--cap", type=int,
                        default=_env_default("cap", ix.DEFAULT_CAP, int),
                        help="search cap for trace matching")
    common.add_argument("--bound", type=int,
                        default=_env_default("bound", 10 ** 6, int),
                        help="enumeration bound used by --verify")

    parser = argparse.ArgumentParser(prog="pellucas", parents=[common])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("lucas", parents=[common])
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--range")
    p.set_defaults(func=cmd_lucas)

    p = sub.add_parser("pell", parents=[common])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sign", type=lambda s: int(s.replace("+", "")),
                   choices=(4, -4), default=4)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--require-solution", action="store_true")
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("member", parents=[common])
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("lattice", parents=[common])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("k3", parents=[common])
    p.add_argument("--m", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_k3)

    p = sub.add_parser("intersect", parents=[common])
    p.add_argument("--flavor", required=True,
                   choices=("++", "--", "mm", "+-", "pm", "opp") + ix.FLAVORS)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--p2", type=int, required=True)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--x-bound", type=int)
    p.set_defaults(func=cmd_intersect)
    return parser


def _validate(args) -> str | None:
    if args.subcommand == "lucas":
        if args.a is None and args.b is None and (args.p is None or args.q is None):
            return "lucas needs --a, --b, or both --p and --q"
        if args.n is None and args.range is None:
            return "lucas needs --n or --range"
    if args.subcommand == "member" and (args.a is None) == (args.b is None):
        return "member needs exactly one of --a / --b"
    if args.subcommand == "k3":
        if args.b is None and (args.m is None or args.a is None):
            return "k3 needs --b or both --m and --a"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _validate(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    rec = Record(args.subcommand, {k: v for k, v in vars(args).items()
                                   if k not in ("func", "format", "verify",
                                                "cap", "bound")
                                   and v is not None})
    try:
        code = args.func(args, rec)
    except SearchCapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if code not in (EXIT_OK, EXIT_UNSOLVABLE):
        return code
    try:
        text = rec.render(args.format)
    except ValueError:
        print("error: a result has more digits than this interpreter converts "
              "to text; set PYTHONINTMAXSTRDIGITS=0 to lift the limit",
              file=sys.stderr)
        return EXIT_TOO_LONG
    sys.stdout.write(text)
    return code if code != EXIT_OK else rec.check_verify()


if __name__ == "__main__":
    sys.exit(main())
