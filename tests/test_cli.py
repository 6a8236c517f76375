import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pellucas import intersection, k3, lattice, pell
from pellucas.cli import main

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
    assert doc["result"]["terms"] == ["0", "1", "3", "10", "33", "109"]


def test_pell_golden(capsys):
    code, doc, _ = run_json(capsys, "pell", "--d", "5", "--count", "2")
    assert code == 0
    assert doc["result"]["fundamental"] == {"u": "3", "v": "1"}
    assert doc["result"]["solutions"] == [{"u": "3", "v": "1"},
                                          {"u": "7", "v": "3"}]


def test_pell_square_d(capsys):
    code, doc, _ = run_json(capsys, "pell", "--d", "9")
    assert code == 0
    assert doc["result"]["solutions"] == [{"u": "2", "v": "0"}]


def test_pell_unsolvable_status_vs_error(capsys):
    code, doc, _ = run_json(capsys, "pell", "--d", "7", "--sign=-4")
    assert code == 0 and doc["result"]["solvable"] is False
    code, _, _ = run(capsys, "pell", "--d", "7", "--sign=-4", "--require-solution")
    assert code == 3


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
    assert doc["result"]["n"] == "3"
    assert doc["result"]["symplectic"] is False
    assert doc["result"]["trace"] == "18"


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


def test_cap_exceeded_exit_4(capsys):
    code, _, err = run(capsys, "intersect", "--flavor", "++", "--p1", "1",
                       "--p2", "4", "--cap", "2")
    assert code == 4 and "cap" in err.lower() or "match" in err.lower()


def test_verify_ok_and_fault_injection(capsys, monkeypatch):
    code, doc, _ = run_json(capsys, "member", "--value", "8", "--a", "1",
                            "--verify")
    assert code == 0 and doc["verify"]["agrees"] is True

    # A fast path with a flipped verdict must be caught by the oracle.
    true_verdict = pell.is_gen_fib_a
    monkeypatch.setattr(pell, "is_gen_fib_a", lambda n, a: pell.MembershipVerdict(
        not true_verdict(n, a).is_member))
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


def test_verify_agreement_for_each_subcommand(capsys):
    for argv in (["lucas", "--p", "2", "--q", "-1", "--n", "30"],
                 ["pell", "--d", "13", "--count", "3"],
                 ["member", "--value", "29", "--a", "2"],
                 ["lattice", "--a", "1", "--b", "5", "--c", "1"],
                 ["k3", "--b", "5", "--n", "2"],
                 ["intersect", "--flavor", "mm", "--p1", "4", "--p2", "14",
                  "--count", "3"]):
        code, doc, err = run_json(capsys, *argv, "--verify")
        assert code == 0, (argv, err)
        assert doc["verify"] is None or doc["verify"]["agrees"] is True, argv


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
    want = intersection.brute_force_common(system, 200)
    # A fast path that builds wrong triples: right x, zero coordinates.
    monkeypatch.setattr(intersection, "_triple_for_x", lambda system, x: (x, 0, 0))
    assert intersection.brute_force_common(system, 200) == want
    code, doc, err = run_json(capsys, "intersect", "--flavor", "mm", "--p1", "4",
                              "--p2", "14", "--count", "3", "--verify")
    assert code == 1 and doc["verify"]["agrees"] is False
    assert doc["verify"]["expected"] == [[str(v) for v in t] for t in want]
    assert "DISAGREEMENT" in err


@pytest.mark.parametrize("fmt", ["plain", "structured"])
def test_result_too_long_to_print_exits_5_with_no_output(fmt):
    # F_100000 has 20899 digits, past the interpreter's default 4300.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PELLUCAS_")}
    env.update(PYTHONPATH=str(SRC), PYTHONINTMAXSTRDIGITS="4300")
    out = subprocess.run([sys.executable, "-m", "pellucas.cli", "lucas", "--p",
                          "1", "--q", "-1", "--n", "100000", "--format", fmt],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 5
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
