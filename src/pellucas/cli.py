"""Command-line front end.

Subcommands: lucas, pell, member, lattice, k3, intersect.  --format and
--verify work on every subcommand, --bound (of the --verify search) on pell,
lattice and intersect, and --cap (of the trace match) on intersect; each
other subcommand rejects them as a usage error.  The flags follow the
subcommand (given before it they are a usage error), and each can be preset
through an environment variable PELLUCAS_<FLAG> (e.g.
PELLUCAS_FORMAT=structured), which is converted and checked as the flag's
value is: a bad preset is a usage error.  Structured output is one JSON
document per invocation with keys {command, inputs, result, verify,
version}; every integer is serialized as a decimal string because results
outgrow 64 bits quickly.

Each subcommand imports the modules it runs (the oracle only under
--verify and for the opposite_signs square search), so parsing the command
line loads no math module.  A call whose argv[0] names a subcommand builds
that subcommand's parser alone; anything else goes to build_parser(), the
parser of all six.  A flag that the call would leave unread is a usage error.

Integers of any size cross the boundary both ways: _int_to_str and
_parse_int convert past the interpreter's int/str digit limit without
changing it.

Exit codes: 0 success, 1 verification disagreement, 2 usage error,
3 unsolvable equation when a solution was demanded, 4 search cap exceeded,
6 a failed internal invariant (InvariantError; nothing is printed to stdout
then).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
import warnings
from itertools import islice

from . import __version__
from .errors import InvariantError, SearchCapExceeded

ENV_PREFIX = "PELLUCAS_"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSOLVABLE = 3
EXIT_CAP = 4
EXIT_INVARIANT = 6


_FORMATS = ("plain", "structured")
# Short names of the intersect flavors.  The parser imports no math module,
# so the flavor names of intersection.FLAVORS are listed here, in its order.
_FLAVOR_ALIASES = {"++": "plus_plus", "--": "minus_minus", "mm": "minus_minus",
                   "+-": "mixed", "pm": "mixed", "opp": "opposite_signs"}
_FLAVORS = tuple(dict.fromkeys(_FLAVOR_ALIASES.values()))


def _env_default(name: str, fallback=None):
    """PELLUCAS_<NAME> as text, which argparse converts with the flag's own
    type like a command-line value; fallback when it is unset."""
    return os.environ.get(ENV_PREFIX + name.upper(), fallback)


# Every int of at most this many bits or decimal digits converts by plain
# str()/int(): 2000 bits are 603 digits, and the interpreter's limit cannot
# be set below 640 digits (sys.int_info.str_digits_check_threshold).
_PLAIN_BITS = 2000
_PLAIN_DIGITS = 600


def _int_to_str(n: int) -> str:
    """str(n) at any size, without touching the interpreter's digit limit.

    Past _PLAIN_BITS the number is split by powers of two, and the halves
    are joined in decimal, whose multiplication is libmpdec's
    number-theoretic transform, under a local context that is exact at any
    size (as CPython 3.12's Lib/_pylong.py does).
    """
    if n.bit_length() <= _PLAIN_BITS:
        return str(n)
    import decimal
    powers = {}

    def two_to(w):
        if w not in powers:
            powers[w] = (decimal.Decimal(2) ** w if w <= _PLAIN_BITS
                         else two_to(w >> 1) * two_to(w - (w >> 1)))
        return powers[w]

    def join(n, w):
        if w <= _PLAIN_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return join(n - (hi << half), half) + join(hi, w - half) * two_to(half)

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        digits = str(join(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def _parse_int(text: str) -> int:
    """int(text) at any length, without touching the interpreter's digit
    limit.  Past _PLAIN_DIGITS, text must be ASCII digits with an optional
    sign; they are split in halves, which are joined with int products."""
    match = (re.fullmatch(r"\s*([+-]?)([0-9]+)\s*", text)
             if len(text) > _PLAIN_DIGITS else None)
    if match is None:
        try:
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text[:_PLAIN_DIGITS]!r}") from None
    sign, digits = match.groups()

    def join(a, b):
        if b - a <= _PLAIN_DIGITS:
            return int(digits[a:b])
        mid = (a + b) // 2
        return join(a, mid) * 10 ** (b - mid) + join(mid, b)

    value = join(0, len(digits))
    return -value if sign == "-" else value


def _parse_range(spec: str) -> range:
    """LO..HI, both ends included, each end read by _parse_int."""
    lo, sep, hi = spec.partition("..")
    try:
        if sep:
            return range(_parse_int(lo), _parse_int(hi) + 1)
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected LO..HI, not {spec[:_PLAIN_DIGITS]!r}")


class _Digits(str):
    """Decimal digits that show without quotes inside a container's repr."""

    def __repr__(self) -> str:
        return str(self)


def _render(obj, text):
    """obj for output: every int, also inside lists, tuples and dicts,
    becomes text of its decimal digits (_Digits for plain output, str for
    JSON), and a range its LO..HI."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return text(_int_to_str(obj))
    if isinstance(obj, range):
        return f"{_int_to_str(obj.start)}..{_int_to_str(obj.stop - 1)}"
    if isinstance(obj, dict):
        return {k: _render(v, text) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_render(v, text) for v in obj)
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
        """The whole output text."""
        if fmt == "structured":
            import json
            doc = {"command": self.command, "inputs": self.inputs,
                   "result": self.result, "verify": self.verify,
                   "version": __version__}
            return json.dumps(_render(doc, str), indent=2, sort_keys=True) + "\n"
        lines = [f"# {self.command} {_render(self.inputs, _Digits)}"]
        lines += [f"{k}: {v}" for k, v in _render(self.result, _Digits).items()]
        if self.verify is not None:
            lines.append(f"verify: {_render(self.verify, _Digits)}")
        lines.append(f"elapsed: {time.perf_counter() - self.started:.3f}s")
        return "\n".join(lines) + "\n"

    def check_verify(self) -> int:
        if self.verify is not None and not self.verify.get("agrees", True):
            print("VERIFY DISAGREEMENT:", self.verify, file=sys.stderr)
            return EXIT_VERIFY_FAILED
        return EXIT_OK


def cmd_lucas(args, rec: Record) -> int:
    from . import lucas
    indices = [args.n] if args.range is None else args.range
    if args.a is not None:
        rec.result["terms"] = got = [lucas.gen_fib_a(args.a, n) for n in indices]
        params = lucas.LucasParams(args.a, -1)
    elif args.b is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rec.result["terms"] = got = [lucas.gen_fib_b(args.b, n)
                                         for n in indices]
        if args.b < 4:
            rec.result["degenerate_warning"] = "b < 4"
        params = lucas.LucasParams(args.b, 1)
    else:
        params = lucas.LucasParams(args.p, args.q)
        terms = [lucas.lucas_uv(params, n) for n in indices]
        rec.result["u"] = got = [t.u for t in terms]
        rec.result["v"] = [t.v for t in terms]
        rec.result["discriminant"] = params.discriminant
    if args.verify:
        from . import oracle
        expect = [oracle.naive_lucas(params, n).u for n in indices]
        rec.verify = {"oracle": "naive_lucas", "agrees": got == expect,
                      "expected": expect}
    return EXIT_OK


def cmd_pell(args, rec: Record) -> int:
    from . import pell
    if args.count < 1:
        raise ValueError("count must be >= 1")
    problem = pell.PellProblem(args.d, args.sign)
    fund = pell.fundamental_solution(problem)
    rec.result["solvable"] = fund is not None
    sols = []
    if fund is not None:
        sols = list(islice(pell._solutions_from(problem, fund), args.count))
        rec.result["solutions"] = [{"u": s.u, "v": s.v} for s in sols]
    if args.verify:
        from math import isqrt
        from . import oracle
        # An unsolvable equation is searched up to --bound for a solution.
        bound = min(max((s.v for s in sols), default=args.bound), args.bound)
        # No further than the largest v that the oracle's int64 guard takes:
        # it needs d*v^2 + max(sign, 0) < isqrt(INT64_MAX)^2.
        root = isqrt(oracle.INT64_MAX)
        bound = min(bound, isqrt((root * root - 1 - max(args.sign, 0))
                                 // args.d))
        expect = [(s.u, s.v) for s in
                  oracle.enumerate_pell(args.d, args.sign, bound)]
        got = [(s.u, s.v) for s in sols if s.v <= bound]
        # The trivial (2, 0) is a solution only the oracle lists, unless d is
        # a square: then it is the fast path's fundamental one.
        if (2, 0) in expect and (2, 0) not in got:
            expect.remove((2, 0))
        rec.verify = {"oracle": "enumerate_pell", "agrees": got == expect,
                      "expected": expect, "bound": bound}
    if fund is None and args.require_solution:
        return EXIT_UNSOLVABLE
    return EXIT_OK


def cmd_member(args, rec: Record) -> int:
    from . import pell
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
        from . import oracle
        expect = oracle.naive_membership(args.value, flavor, param)
        agrees = (expect.is_member == verdict.is_member
                  and (not expect.is_member or expect.index == verdict.index))
        rec.verify = {"oracle": "naive_membership", "agrees": agrees,
                      "expected": {"is_member": expect.is_member,
                                   "index": expect.index}}
    return EXIT_OK


def cmd_lattice(args, rec: Record) -> int:
    from . import lattice as lat
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
            from . import oracle
            bound = min(args.bound, 1000)
            found = oracle.first_root_in_box(lattice.gram, bound)
            rec.verify = {"oracle": "exhaustive_root_search",
                          "agrees": found is None, "expected": found,
                          "bound": bound}
    return EXIT_OK


def cmd_k3(args, rec: Record) -> int:
    from . import k3
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
        from . import lucas, oracle
        step = (lucas.n_matrix(args.b).transpose if args.b is not None
                else lucas.m_matrix(args.a))
        expect = oracle.naive_matrix_power(step, 2 * case.n)
        rec.verify = {"oracle": "matrix_trace",
                      "agrees": (expect == action.g
                                 and expect.trace == action.trace),
                      "expected": expect.trace}
    return EXIT_OK


def cmd_intersect(args, rec: Record) -> int:
    from . import intersection as ix
    flavor = _FLAVOR_ALIASES.get(args.flavor, args.flavor)
    try:
        system = ix.PellSystem(flavor, args.p1, args.p2)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    cap = ix.DEFAULT_CAP if args.cap is None else args.cap
    result = ix.intersect(system, args.count, cap=cap, x_bound=args.x_bound)
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
        if flavor == "opposite_signs":
            # The fast path of this flavor is brute_force_common itself.
            from . import oracle
            name, expect = "pell_units", oracle.common_from_units(system, bound)
        else:
            name, expect = ("brute_force_common",
                            ix.brute_force_common(system, bound))
        expect = [list(t) for t in expect]
        got = [list(t) for t in result.solutions if t[0] <= bound]
        rec.verify = {"oracle": name, "agrees": got == expect,
                      "expected": expect, "bound": bound}
    return EXIT_OK


_COMMANDS = {"lucas": cmd_lucas, "pell": cmd_pell, "member": cmd_member,
             "lattice": cmd_lattice, "k3": cmd_k3, "intersect": cmd_intersect}


def _common_parser() -> argparse.ArgumentParser:
    """The parent parser of the flags that every subcommand takes."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS,
                        default=_env_default("format", "plain"))
    common.add_argument("--verify", action="store_true",
                        default=_env_default("verify", "").lower()
                        in ("1", "true", "yes"))
    return common


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """Add the flags of subcommand `name` to its parser p."""
    # Only the subcommands whose cmd_* reads --bound (or --cap) take it.
    bound = dict(type=_parse_int, default=_env_default("bound", 10 ** 6),
                 help="enumeration bound used by --verify")
    if name == "lucas":
        p.add_argument("--p", type=_parse_int)
        p.add_argument("--q", type=_parse_int)
        p.add_argument("--a", type=_parse_int)
        p.add_argument("--b", type=_parse_int)
        p.add_argument("--n", type=_parse_int)
        p.add_argument("--range", type=_parse_range)
    elif name == "pell":
        p.add_argument("--bound", **bound)
        p.add_argument("--d", type=_parse_int, required=True)
        p.add_argument("--sign", type=lambda s: int(s.replace("+", "")),
                       choices=(4, -4), default=4)
        p.add_argument("--count", type=_parse_int, default=1)
        p.add_argument("--require-solution", action="store_true")
    elif name == "member":
        p.add_argument("--value", type=_parse_int, required=True)
        p.add_argument("--a", type=_parse_int)
        p.add_argument("--b", type=_parse_int)
    elif name == "lattice":
        p.add_argument("--bound", **bound)
        p.add_argument("--a", type=_parse_int, required=True)
        p.add_argument("--b", type=_parse_int, required=True)
        p.add_argument("--c", type=_parse_int, required=True)
    elif name == "k3":
        p.add_argument("--m", type=_parse_int)
        p.add_argument("--a", type=_parse_int)
        p.add_argument("--b", type=_parse_int)
        p.add_argument("--n", type=_parse_int)  # 1 for --b, set by _validate
    elif name == "intersect":
        p.add_argument("--cap", type=_parse_int, default=_env_default("cap"),
                       help="search cap for trace matching")
        p.add_argument("--bound", **bound)
        p.add_argument("--flavor", required=True,
                       choices=(*_FLAVOR_ALIASES, *_FLAVORS))
        p.add_argument("--p1", type=_parse_int, required=True)
        p.add_argument("--p2", type=_parse_int, required=True)
        p.add_argument("--count", type=_parse_int, default=5)
        p.add_argument("--x-bound", type=_parse_int)


def build_parser() -> argparse.ArgumentParser:
    """The parser of all six subcommands, which main uses only when argv[0]
    names none of them: it prints the top-level help and usage errors."""
    common = _common_parser()
    parser = argparse.ArgumentParser(prog="pellucas")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        _add_arguments(sub.add_parser(name, parents=[common]), name)
    return parser


def _validate(args) -> str | None:
    """The usage error of args that argparse cannot see, or None.  It also
    applies k3's --n default, which only --b reads."""
    if args.format not in _FORMATS:  # argparse checks no default (env value)
        return (f"{ENV_PREFIX}FORMAT must be one of {', '.join(_FORMATS)}, "
                f"not {args.format!r}")
    if args.subcommand == "lucas":
        given = ((args.a is not None) + (args.b is not None)
                 + (args.p is not None or args.q is not None))
        if given > 1:
            return "lucas takes only one of --a, --b, or --p with --q"
        if args.a is None and args.b is None and (args.p is None or args.q is None):
            return "lucas needs --a, --b, or both --p and --q"
        if args.n is not None and args.range is not None:
            return "lucas takes --n or --range, not both"
        if args.n is None and args.range is None:
            return "lucas needs --n or --range"
    if args.subcommand == "member" and (args.a is None) == (args.b is None):
        return "member needs exactly one of --a / --b"
    if args.subcommand == "k3":
        if args.b is not None:
            if args.m is not None or args.a is not None:
                return "k3 takes --b or --m with --a, not both"
            if args.n is None:
                args.n = 1
        elif args.m is None or args.a is None:
            return "k3 needs --b or both --m and --a"
        elif args.n is not None:
            return ("k3 takes --n with --b only: for --m and --a, n is the "
                    "rank of apparition")
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A first word that names a subcommand is the subcommand: the top-level
    # parser takes no flag.  Otherwise the full parser reports the error.
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"pellucas {name}",
                                         parents=[_common_parser()])
        _add_arguments(parser, name)
        # subcommand comes first in the namespace, so in the plain header.
        args = parser.parse_args(argv[1:], argparse.Namespace(subcommand=name))
    else:
        args = build_parser().parse_args(argv)
    problem = _validate(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    rec = Record(args.subcommand, {k: v for k, v in vars(args).items()
                                   if k not in ("format", "verify", "cap", "bound")
                                   and v is not None})
    try:
        code = _COMMANDS[args.subcommand](args, rec)
    except SearchCapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except InvariantError as err:
        print(f"error: internal invariant failed: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if code not in (EXIT_OK, EXIT_UNSOLVABLE):
        return code
    sys.stdout.write(rec.render(args.format))
    return code if code != EXIT_OK else rec.check_verify()


if __name__ == "__main__":
    sys.exit(main())
