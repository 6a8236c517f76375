import argparse
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pellucas import intersection, k3, lattice, oracle, pell
from pellucas.cli import _int_to_str, _parse_int, main
from pellucas.errors import InvariantError
from pellucas.lucas import LucasParams, gen_fib_a, lucas_uv

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv, **kw):
    code, out, err = run(capsys, *argv, "--format", "structured", **kw)
    return code, json.loads(out) if out else None, err


def test_lucas_golden(capsys):
    code, doc, _ = run_json(capsys, "lucas", "--p", "1", "--q", "-1", "--n", "10")
    assert code == 0
    assert doc["command"] == "lucas"
    assert doc["result"]["u"] == ["55"] and doc["result"]["v"] == ["123"]
    assert doc["version"] == "0.1.0"


def test_lucas_range(capsys):
    code, doc, _ = run_json(capsys, "lucas", "--a", "3", "--range", "0..5")
    assert code == 0
    assert doc["inputs"]["range"] == "0..5"
    assert doc["result"]["terms"] == ["0", "1", "3", "10", "33", "109"]
    # Both ends are read past the interpreter's int/str digit limit.
    big = 10 ** 5000
    code, doc, _ = run_json(capsys, "lucas", "--a", "3", "--range",
                            f"{_int_to_str(big)}..{_int_to_str(big - 1)}")
    assert code == 0 and doc["result"]["terms"] == []


def test_pell_golden(capsys):
    code, doc, _ = run_json(capsys, "pell", "--d", "5", "--count", "2")
    assert code == 0
    # The unit is printed once, as the first solution.
    assert doc["result"] == {"solvable": True,
                             "solutions": [{"u": "3", "v": "1"},
                                           {"u": "7", "v": "3"}]}


def test_pell_square_d(capsys):
    code, doc, _ = run_json(capsys, "pell", "--d", "9")
    assert code == 0
    assert doc["result"]["solutions"] == [{"u": "2", "v": "0"}]


def test_pell_unsolvable_status_vs_error(capsys):
    code, doc, _ = run_json(capsys, "pell", "--d", "7", "--sign=-4")
    assert code == 0 and doc["result"]["solvable"] is False
    code, _, _ = run(capsys, "pell", "--d", "7", "--sign=-4", "--require-solution")
    assert code == 3
    # A square d other than 1 and 4 has no -4 solution.
    code, out, _ = run(capsys, "pell", "--d", "9", "--sign=-4",
                       "--require-solution")
    assert code == 3 and "solvable: False" in out.splitlines()


@pytest.mark.parametrize("sign", ["4", "-4"])  # 7 is unsolvable with -4
def test_pell_count_is_checked_before_solvability(capsys, sign):
    code, out, err = run(capsys, "pell", "--d", "7", f"--sign={sign}",
                         "--count", "0")
    assert code == 2 and out == "" and "count must be >= 1" in err


@pytest.mark.parametrize("d, sign, solvable", [(13, 4, True), (13, -4, True),
                                               (7, -4, False)])
def test_pell_builds_the_unit_once(capsys, monkeypatch, d, sign, solvable):
    calls = []
    true_fundamental = pell.fundamental_solution

    def counted(problem):
        calls.append(problem)
        return true_fundamental(problem)

    monkeypatch.setattr(pell, "fundamental_solution", counted)
    code, doc, _ = run_json(capsys, "pell", "--d", str(d), f"--sign={sign}",
                            "--count", "3")
    assert code == 0 and doc["result"]["solvable"] is solvable
    assert calls == [pell.PellProblem(d, sign)]
    if solvable:
        fund = pell.fundamental_solution(pell.PellProblem(d, sign))
        assert doc["result"]["solutions"][0] == {"u": str(fund.u),
                                                 "v": str(fund.v)}


def test_member_golden(capsys):
    code, doc, _ = run_json(capsys, "member", "--value", "8", "--a", "1")
    assert code == 0
    assert doc["result"] == {"is_member": True, "index": "6",
                             "parity": "even", "square_witness": "18"}


def test_lattice_golden(capsys):
    code, doc, _ = run_json(capsys, "lattice", "--a", "1", "--b", "4", "--c", "1")
    assert code == 0
    assert doc["result"]["pell_d"] == "12"
    assert doc["result"]["so_plus"]["trace"] == "4"
    assert doc["result"]["root_minus2"] is None


def test_k3_golden(capsys):
    code, doc, _ = run_json(capsys, "k3", "--m", "2", "--a", "1")
    assert code == 0
    # n is read off the rank of apparition, so no --n default is echoed.
    assert doc["inputs"] == {"subcommand": "k3", "m": "2", "a": "1"}
    assert doc["result"]["n"] == "3"
    assert doc["result"]["symplectic"] is False
    assert doc["result"]["trace"] == "18"
    # --b alone keeps --n's default of 1.
    code, doc, _ = run_json(capsys, "k3", "--b", "5")
    assert code == 0 and doc["inputs"]["n"] == doc["result"]["n"] == "1"


def test_intersect_golden(capsys):
    code, doc, _ = run_json(capsys, "intersect", "--flavor", "++",
                            "--p1", "1", "--p2", "4", "--count", "3")
    assert code == 0
    assert doc["result"]["verdict"] == "infinite_family"
    assert doc["result"]["solutions"] == [["2", "0", "0"], ["4", "2", "1"],
                                          ["18", "8", "4"]]


def test_structured_output_is_deterministic(capsys):
    _, doc1, _ = run_json(capsys, "member", "--value", "8", "--a", "1")
    _, doc2, _ = run_json(capsys, "member", "--value", "8", "--a", "1")
    assert doc1 == doc2
    assert "elapsed" not in json.dumps(doc1)


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "lucas")[0] == 2
    assert run(capsys, "member", "--value", "3")[0] == 2
    assert run(capsys, "lattice", "--a", "1", "--b", "2", "--c", "1")[0] == 2
    with pytest.raises(SystemExit) as err:
        main(["pell"])  # missing required --d
    assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["lattice", "--a", "1", "--b", "2", "--c", "1"],
     "degenerate lattice: 4*1*1 - 2^2 = 0"),
    (["intersect", "--flavor", "mixed", "--p1", "1", "--p2", "2"],
     "need p2 >= 4 for mixed"),
    (["lucas", "--a", "0", "--n", "5"], "a must be >= 1"),
    (["lucas", "--a", "1"], "lucas needs --n or --range"),
    (["k3", "--m", "5"], "k3 needs --b or both --m and --a")],
    ids=["lattice", "intersect", "lucas-a", "lucas-n", "k3-m-a"])
def test_invalid_input_is_one_error_line(capsys, argv, message):
    # A ValueError from a subcommand, or an input that _validate refuses,
    # reaches main's one usage-error path.
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, line", [
    (["lattice", "--a", "0", "--b", "1", "--c", "0"], "so_plus: trivial"),
    (["lucas", "--b", "3", "--n", "5"], "degenerate_warning: b < 4")],
    ids=["so-plus-trivial", "lucas-b-below-4"])
def test_plain_output_names_the_edge_case(capsys, argv, line):
    # The hyperbolic plane has only the identity in SO+, and b < 4 is not a
    # leg (p, 1); both answers say so.
    code, out, _ = run(capsys, *argv)
    assert code == 0 and line in out.splitlines()


_LUCAS_5 = ["lucas", "--p", "1", "--q", "-1", "--n", "5"]


@pytest.mark.parametrize("flag, argv, took_effect", [
    (["--format", "structured"], _LUCAS_5,
     lambda code, out: code == 0 and json.loads(out)["command"] == "lucas"),
    (["--verify"], _LUCAS_5,
     lambda code, out: code == 0 and "verify: {'oracle': 'matrix_power'" in out),
    (["--cap", "2"], ["intersect", "--flavor", "++", "--p1", "1", "--p2", "4"],
     lambda code, out: code == 4),
    (["--bound", "20"], ["pell", "--d", "13", "--count", "3", "--verify"],
     lambda code, out: code == 0 and "'bound': 20}" in out)],
    ids=["format", "verify", "cap", "bound"])
def test_global_flags_follow_the_subcommand(capsys, flag, argv, took_effect):
    code, out, _ = run(capsys, *argv, *flag)
    assert took_effect(code, out), out
    # Before the subcommand the flag is a usage error, not silently dropped.
    with pytest.raises(SystemExit) as exc:
        main([*flag, *argv])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "usage:" in out.err and "Traceback" not in out.err


_MEMBER_8 = ["member", "--value", "8", "--a", "1"]
_K3_5 = ["k3", "--b", "5", "--n", "2"]


@pytest.mark.parametrize("flag, argv", [
    (["--cap", "2"], _LUCAS_5), (["--cap", "2"], _MEMBER_8),
    (["--cap", "2"], _K3_5), (["--bound", "20"], _LUCAS_5),
    (["--bound", "20"], _MEMBER_8), (["--bound", "20"], _K3_5)],
    ids=["cap-lucas", "cap-member", "cap-k3", "bound-lucas", "bound-member",
         "bound-k3"])
def test_flag_a_subcommand_never_reads_is_a_usage_error(capsys, flag, argv):
    # Only intersect reads --cap; only pell, lattice and intersect --bound.
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    # Reported with the subcommand's usage line, which lists what it takes.
    assert out.err.startswith(f"usage: pellucas {argv[0]} [-h] [--format")
    assert f"pellucas {argv[0]}: error: unrecognized arguments: {flag[0]}" in out.err


def test_named_call_builds_two_parsers(capsys, monkeypatch):
    # The common parent and the named subcommand's own parser; the parser of
    # all six is built only for a call that names none.
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, *_LUCAS_5)[0] == 0
    assert built == [None, "pellucas lucas"]


@pytest.mark.parametrize("argv", [
    ["lucas", "--a", "3", "--b", "5", "--n", "4"],
    ["lucas", "--p", "1", "--q", "-1", "--a", "3", "--n", "4"],
    ["lucas", "--p", "1", "--a", "3", "--n", "4"],
    ["lucas", "--a", "1", "--n", "5", "--range", "1..3"],
    ["k3", "--b", "5", "--m", "2", "--a", "3"],
    ["k3", "--m", "2", "--a", "3", "--n", "7"],
    ["intersect", "--flavor", "++", "--p1", "1", "--p2", "4", "--x-bound", "10"]],
    ids=["a-b", "pq-a", "p-a", "n-range", "k3-b-ma", "k3-ma-n", "x-bound"])
def test_unread_input_is_a_usage_error(capsys, argv):
    # Each flag is read or refused: none is dropped from a call that exits 0.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("spec", ["5", "5..", "..5", "a..5", "1..x", "1...3",
                                  "1-3"])
def test_malformed_range_is_a_usage_error(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["lucas", "--a", "1", "--range", spec])
    out = capsys.readouterr()
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert exc.value.code == 2 and out.out == ""
    assert errors == [f"pellucas lucas: error: argument --range: "
                      f"expected LO..HI, not {spec!r}"]


def test_cap_exceeded_exit_4(capsys):
    code, _, err = run(capsys, "intersect", "--flavor", "++", "--p1", "1",
                       "--p2", "4", "--cap", "2")
    assert code == 4 and "cap" in err.lower() or "match" in err.lower()


def test_verify_ok_and_fault_injection(capsys, monkeypatch):
    code, doc, _ = run_json(capsys, "member", "--value", "8", "--a", "1",
                            "--verify")
    assert code == 0 and doc["verify"]["agrees"] is True

    # A fast path with a flipped verdict must be caught by the oracle.
    true_verdict = pell._is_member
    monkeypatch.setattr(pell, "_is_member", lambda p, q, n: pell.MembershipVerdict(
        not true_verdict(p, q, n).is_member))
    code, doc, err = run_json(capsys, "member", "--value", "8", "--a", "1",
                              "--verify")
    assert code == 1
    assert doc["verify"]["agrees"] is False
    assert "DISAGREEMENT" in err


def test_pell_verify_reports_its_bound(capsys):
    # The solutions (11, 3), (119, 33), (1298, 360) reach v = 360.
    code, doc, _ = run_json(capsys, "pell", "--d", "13", "--count", "3",
                            "--verify", "--bound", "10")
    assert code == 0 and doc["verify"]["agrees"] is True
    assert doc["verify"]["bound"] == "10"
    assert doc["verify"]["expected"] == [["11", "3"]]
    code, doc, _ = run_json(capsys, "pell", "--d", "13", "--count", "3",
                            "--verify")
    assert doc["verify"]["bound"] == "360"


def test_intersect_verify_reports_its_bound(capsys):
    # The solutions reach x = 194, above --bound 20.
    code, doc, _ = run_json(capsys, "intersect", "--flavor", "mm", "--p1", "4",
                            "--p2", "14", "--count", "3", "--verify",
                            "--bound", "20")
    assert code == 0 and doc["verify"]["agrees"] is True
    assert doc["verify"]["bound"] == "20"
    assert doc["verify"]["expected"] == [["2", "0", "0"], ["14", "4", "1"]]
    code, doc, _ = run_json(capsys, "intersect", "--flavor", "mm", "--p1", "4",
                            "--p2", "14", "--count", "3", "--verify")
    assert doc["verify"]["bound"] == "194"


def test_env_override_format(capsys, monkeypatch):
    monkeypatch.setenv("PELLUCAS_FORMAT", "structured")
    code, out, _ = run(capsys, "member", "--value", "8", "--a", "1")
    assert code == 0
    assert json.loads(out)["command"] == "member"


@pytest.mark.parametrize("name, value", [("CAP", "abc"), ("BOUND", "1e3"),
                                         ("FORMAT", "xml")])
def test_bad_env_value_is_a_usage_error(capsys, monkeypatch, name, value):
    # Converted and checked like the flag itself, by the subcommands that take
    # the flag: exit 2 and one error line, not a traceback.
    monkeypatch.setenv(f"PELLUCAS_{name}", value)
    argv = {"CAP": ["intersect", "--flavor", "++", "--p1", "1", "--p2", "4"],
            "BOUND": ["pell", "--d", "13"]}.get(name, _LUCAS_5)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert code == 2 and out.out == ""
    assert len(errors) == 1 and repr(value) in errors[0]
    if name != "FORMAT":
        # A subcommand without the flag does not read its preset.
        assert main(_LUCAS_5) == 0


def test_env_values_convert_like_flags(capsys, monkeypatch):
    monkeypatch.setenv("PELLUCAS_CAP", "2")
    code, _, err = run(capsys, "intersect", "--flavor", "++", "--p1", "1",
                       "--p2", "4")
    assert code == 4 and "<= 2 " in err
    monkeypatch.setenv("PELLUCAS_BOUND", "+20")
    code, doc, _ = run_json(capsys, "pell", "--d", "13", "--count", "3",
                            "--verify")
    assert code == 0 and doc["verify"]["bound"] == "20"


def test_verify_agreement_for_each_subcommand(capsys):
    for argv in (["lucas", "--p", "2", "--q", "-1", "--n", "30"],
                 ["pell", "--d", "13", "--count", "3"],
                 ["pell", "--d", "21", "--sign=-4"],
                 ["pell", "--d", "9"],
                 ["pell", "--d", "10000019"],
                 ["member", "--value", "29", "--a", "2"],
                 ["lattice", "--a", "1", "--b", "5", "--c", "1"],
                 ["k3", "--b", "5", "--n", "2"],
                 ["intersect", "--flavor", "mm", "--p1", "4", "--p2", "14",
                  "--count", "3"]):
        code, doc, err = run_json(capsys, *argv, "--verify")
        assert code == 0, (argv, err)
        assert doc["verify"]["agrees"] is True, argv


def test_pell_verify_searches_up_to_the_int64_edge(capsys):
    # d*v^2 + 4 leaves int64 below the default bound of 10^6 here, so the
    # search stops at the largest v that the oracle's guard accepts.
    code, doc, err = run_json(capsys, "pell", "--d", "10000019", "--verify")
    assert code == 0, err
    bound = int(doc["verify"]["bound"])
    assert 0 < bound < 10 ** 6
    oracle.square_rows(10000019, 4, 0, bound)  # accepted: no ValueError
    with pytest.raises(ValueError, match="int64"):
        oracle.square_rows(10000019, 4, 0, bound + 1)


def test_lattice_verify_certifies_root_outside_box(capsys):
    code, doc, err = run_json(capsys, "lattice", "--a", "-9", "--b", "7",
                              "--c", "6", "--verify", "--bound", "200")
    assert code == 0, err
    assert doc["result"]["root_minus2"] == ["-12413", "24080"]
    assert doc["verify"]["agrees"] is True
    assert doc["verify"]["oracle"] == "gram_norm"
    code, doc, _ = run_json(capsys, "lattice", "--a", "1", "--b", "5", "--c", "1",
                            "--verify", "--bound", "5000")
    assert code == 0 and doc["result"]["root_minus2"] is None
    assert doc["verify"]["oracle"] == "exhaustive_root_search"
    assert doc["verify"]["bound"] == "1000"


def test_cycle_cap_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(lattice, "CYCLE_CAP", 1)
    code, out, err = run(capsys, "lattice", "--a", "-9", "--b", "7", "--c", "6")
    assert code == 4
    assert "step cap" in err and "Traceback" not in err


def test_invariant_error_exit_6(capsys, monkeypatch):
    def broken(problem):
        raise InvariantError("unit fails its norm check")

    monkeypatch.setattr(pell, "fundamental_solution", broken)
    code, out, err = run(capsys, "pell", "--d", "13")
    assert code == 6 and out == ""
    assert err == "error: internal invariant failed: unit fails its norm check\n"


def test_k3_verify_recomputes_the_action(capsys, monkeypatch):
    code, doc, _ = run_json(capsys, "k3", "--b", "5", "--n", "2", "--verify")
    assert code == 0 and doc["verify"]["agrees"] is True
    assert doc["verify"]["expected"] == doc["result"]["trace"] == "527"
    # A fast path whose action reports a trace off by 2.
    true_case = k3.classify_case_b

    def off_by_two(b, n):
        case = true_case(b, n)
        return replace(case, action=replace(case.action,
                                            trace=case.action.trace + 2))

    monkeypatch.setattr(k3, "classify_case_b", off_by_two)
    code, doc, err = run_json(capsys, "k3", "--b", "5", "--n", "2", "--verify")
    assert code == 1
    assert doc["verify"]["agrees"] is False
    assert "DISAGREEMENT" in err


def test_k3_verify_checks_the_matrix_not_only_its_trace(capsys, monkeypatch):
    # A wrong action with the right trace: the transpose of C^(2n).
    true_case = k3.classify_case_b

    def transposed(b, n):
        case = true_case(b, n)
        return replace(case, action=replace(case.action,
                                            g=case.action.g.transpose))

    monkeypatch.setattr(k3, "classify_case_b", transposed)
    code, doc, err = run_json(capsys, "k3", "--b", "5", "--n", "2", "--verify")
    assert code == 1 and doc["verify"]["agrees"] is False
    assert "DISAGREEMENT" in err


def test_intersect_verify_is_independent_of_the_fast_path(capsys, monkeypatch):
    system = intersection.PellSystem("minus_minus", 4, 14)
    want = intersection.brute_force_common(system, 37634)
    assert [t[0] for t in want] == [2, 14, 194, 2702, 37634]
    # A fast path that starts from a non-minimal pair (2m, 2n): every triple
    # it lists solves the system, but it skips 14 and 2702.
    true_match = intersection.minimal_trace_match
    monkeypatch.setattr(intersection, "minimal_trace_match",
                        lambda system, cap: tuple(2 * v for v in true_match(system, cap)))
    assert intersection.brute_force_common(system, 37634) == want
    code, doc, err = run_json(capsys, "intersect", "--flavor", "mm", "--p1", "4",
                              "--p2", "14", "--count", "3", "--verify")
    assert [t[0] for t in doc["result"]["solutions"]] == ["2", "194", "37634"]
    assert code == 1 and doc["verify"]["agrees"] is False
    assert doc["verify"]["expected"] == [[str(v) for v in t] for t in want]
    assert "DISAGREEMENT" in err


def test_intersect_verify_is_independent_on_opposite_signs(capsys, monkeypatch):
    argv = ("intersect", "--flavor", "opp", "--p1", "1", "--p2", "3",
            "--x-bound", "1000", "--verify")
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0 and doc["verify"]["agrees"] is True
    assert doc["verify"]["oracle"] == "brute_force_common"
    assert doc["result"]["solutions"] == [["3", "1", "1"], ["11", "5", "3"]]
    # The fast path of this flavor is the walk of the two legs: drop its
    # first triple.
    true_walk = intersection._leg_walk
    monkeypatch.setattr(intersection, "_leg_walk",
                        lambda *args: list(true_walk(*args))[1:])
    code, doc, err = run_json(capsys, *argv)
    assert code == 1 and doc["verify"]["agrees"] is False
    assert doc["verify"]["expected"] == [["3", "1", "1"], ["11", "5", "3"]]
    assert "DISAGREEMENT" in err


@pytest.mark.parametrize("argv, system, edge", [
    (["--flavor", "mm", "--p1", "4", "--p2", "14", "--count", "20",
      "--bound", "1000000000000"], ("minus_minus", 4, 14), 3037000499),
    (["--flavor", "++", "--p1", "1", "--p2", "4", "--count", "30",
      "--bound", "100000000000"], ("plus_plus", 1, 4), 3037000501)],
    ids=["mm", "pp"])
def test_intersect_verify_stops_at_the_int64_edge(capsys, argv, system, edge):
    # Both families pass the square search's int64 edge before --bound: the
    # search stops at the largest x it takes, isqrt(d*(W + 1)^2 - 5) for the
    # larger d and its row edge W, and reports it.
    code, doc, _ = run_json(capsys, "intersect", *argv, "--verify")
    assert code == 0 and doc["verify"]["agrees"] is True
    assert doc["verify"]["bound"] == str(edge)
    assert int(doc["result"]["solutions"][-1][0]) > edge
    system = intersection.PellSystem(*system)
    assert intersection.brute_force_common(system, edge)
    with pytest.raises(ValueError, match="int64"):
        intersection.brute_force_common(system, edge + 1)


def _pellucas(*argv):
    """``pellucas <argv>`` as a subprocess under the default digit limit."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PELLUCAS_")}
    env.update(PYTHONPATH=str(SRC), PYTHONINTMAXSTRDIGITS="4300")
    return subprocess.run([sys.executable, "-B", "-m", "pellucas.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@contextmanager
def _no_digit_limit():
    """Lift the int/str digit limit inside a test, to check printed values
    with plain int()."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt", ["plain", "structured"])
def test_result_past_the_digit_limit_prints_in_full(fmt):
    # F_100000 has 20899 digits, past the interpreter's default 4300.
    out = _pellucas("lucas", "--p", "1", "--q", "-1", "--n", "100000",
                    "--format", fmt)
    assert out.returncode == 0 and out.stderr == ""
    if fmt == "plain":
        line = next(l for l in out.stdout.splitlines() if l.startswith("u: "))
        printed = line[len("u: ["):-1]
    else:
        printed = json.loads(out.stdout)["result"]["u"][0]
    with _no_digit_limit():
        assert int(printed) == lucas_uv(LucasParams(1, -1), 100000).u


def test_big_values_cross_the_cli_boundary():
    with _no_digit_limit():
        out = _pellucas("pell", "--d", "999999937", "--format", "structured")
        assert out.returncode == 0, out.stderr
        fund = json.loads(out.stdout)["result"]["solutions"][0]
        want = pell.fundamental_solution(pell.PellProblem(999999937, 4))
        assert (int(fund["u"]), int(fund["v"])) == (want.u, want.v)
        assert want.v.bit_length() > 14300  # past 4300 digits

        out = _pellucas("k3", "--b", "5", "--n", "20000", "--format", "structured")
        assert out.returncode == 0, out.stderr
        trace = json.loads(out.stdout)["result"]["trace"]
        assert int(trace) == k3.classify_case_b(5, 20000).action.trace

        # a_n passes 4300 digits at n = 20 577; the whole range 1..100000
        # would print about 10^9 digits.
        out = _pellucas("lucas", "--a", "1", "--range", "20500..20700",
                        "--format", "structured")
        assert out.returncode == 0, out.stderr
        terms = json.loads(out.stdout)["result"]["terms"]
        assert [int(t) for t in terms] == [gen_fib_a(1, n)
                                           for n in range(20500, 20701)]

        # Input: a_30000 has 6270 digits.
        value = gen_fib_a(1, 30000)
        out = _pellucas("member", "--a", "1", "--value", str(value),
                        "--format", "structured")
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert int(doc["inputs"]["value"]) == value
        assert doc["result"]["is_member"] is True
        assert doc["result"]["index"] == "30000"
        witness = lucas_uv(LucasParams(1, -1), 30000).v
        assert int(doc["result"]["square_witness"]) == witness


@given(st.integers(10 ** 3, 2 * 10 ** 6), st.integers(0, 2 ** 32), st.booleans())
@example(2001, 0, False)    # the first size past plain str()
@example(2 * 10 ** 6, 1, True)
@settings(max_examples=8, deadline=None)
def test_int_text_round_trip(bits, seed, negative):
    n = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
    n = -n if negative else n
    text = _int_to_str(n)
    assert _parse_int(text) == n
    assert _parse_int(f" +{text} " if n > 0 else f" {text} ") == n
    tail = str(abs(n) % 10 ** 600).zfill(600)
    assert text.lstrip("-")[-600:].zfill(600) == tail
    if bits <= 3 * 10 ** 5:  # str() is quadratic: 7 s at 2 Mbit
        with _no_digit_limit():
            assert text == str(n)


def test_parse_int_rejects_what_int_rejects(capsys):
    with pytest.raises(SystemExit) as err:
        main(["member", "--a", "1", "--value", "1" * 5000 + "x"])
    assert err.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
