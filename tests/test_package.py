import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import pellucas
from pellucas import cli, intersection

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pellucas"

# The public surface as the package listed it when it imported every
# submodule: submodule -> the names it exports.  The submodules are public.
SURFACE = {
    "errors": ["InvariantError", "SearchCapExceeded"],
    "lucas": ["LucasParams", "Mat2", "SeqTerm", "companion_power", "gen_fib_a",
              "gen_fib_b", "lucas_uv"],
    "pell": ["MembershipVerdict", "PellProblem", "PellSolution",
             "fundamental_solution", "is_gen_fib_a", "is_gen_fib_b",
             "isqrt_exact", "solutions_iter"],
    "lattice": ["IsometryAction", "Lattice2", "disc_group_action", "find_roots",
                "isometry_from_pell", "make_lattice", "so_plus_generator"],
    "k3": ["CorrespondenceRecord", "K3CaseA", "K3CaseB",
           "NotInCorrespondenceError", "classify_case_a", "classify_case_b",
           "correspondence_from_pair", "correspondence_from_pell_y",
           "correspondence_from_term", "correspondence_roundtrip",
           "rank_of_apparition"],
    "intersection": ["IntersectionResult", "PellSystem", "brute_force_common",
                     "intersect", "minimal_trace_match", "square_product_test"],
    "oracle": [],
}
MATH_MODULES = {f"pellucas.{name}" for name in
                ("lucas", "pell", "lattice", "k3", "intersection", "oracle")}


def loaded_by(code: str) -> set[str]:
    """The modules that running ``code`` adds to those of a bare
    interpreter, each in a fresh ``python -B``."""
    def modules(body):
        out = subprocess.run(
            [sys.executable, "-B", "-c",
             body + "\nimport sys\nprint(*sys.modules, file=sys.stderr)\n"],
            capture_output=True, text=True, check=True, timeout=60,
            env={"PYTHONPATH": str(PACKAGE.parent)})
        return set(out.stderr.split())
    return modules(code) - modules("")


def test_cli_import_does_not_load_numpy():
    # Only the FFT kernel of lucas._mul and the enumeration oracles import
    # numpy; a small CLI call and a 7 kbit lucas_uv stay below both.
    code = ("import sys, pellucas, pellucas.cli\n"
            "pellucas.cli.build_parser()\n"
            "loaded = ['numpy' in sys.modules]\n"
            "pellucas.cli.main(['lucas', '--p', '1', '--q', '-1', '--n', '1000'])\n"
            "pellucas.lucas.lucas_uv(pellucas.lucas.LucasParams(1, -1), 10 ** 4)\n"
            "loaded.append('numpy' in sys.modules)\n"
            "print(loaded, file=sys.stderr)\n")
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={"PYTHONPATH": str(PACKAGE.parent)})
    assert out.stderr.strip() == "[False, False]"


def test_no_bare_assert_in_package():
    # Invariants must hold under python -O, which strips assert statements.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_startup_loads_no_math_module():
    # What every pellucas invocation pays before its subcommand runs.
    new = loaded_by("import pellucas, pellucas.cli\n"
                    "pellucas.cli.build_parser()")
    heavy = MATH_MODULES | {"dataclasses", "fractions", "decimal", "json",
                            "numpy"}
    assert new & heavy == set()


def test_a_subcommand_loads_what_it_runs():
    new = loaded_by("import pellucas.cli\n"
                    "pellucas.cli.main(['lucas', '--p', '1', '--q', '-1', "
                    "'--n', '30'])")
    assert "pellucas.lucas" in new
    assert new & MATH_MODULES == {"pellucas.lucas"}
    new = loaded_by("import pellucas.cli\n"
                    "pellucas.cli.main(['lattice', '--a', '1', '--b', '5', "
                    "'--c', '1'])")
    assert "pellucas.lattice" in new
    assert new & {"pellucas.k3", "pellucas.intersection"} == set()
    # brute_force_common imports its oracle only when it runs.
    new = loaded_by("import pellucas.cli\n"
                    "pellucas.cli.main(['intersect', '--flavor', 'mm', "
                    "'--p1', '4', '--p2', '14'])")
    assert "pellucas.intersection" in new
    assert "pellucas.oracle" not in new
    # Nor does an opposite_signs call: its answer is the walk of the legs.
    new = loaded_by("import pellucas.cli\n"
                    "pellucas.cli.main(['intersect', '--flavor', 'opp', "
                    "'--p1', '1', '--p2', '3', '--x-bound', '1000'])")
    assert "pellucas.intersection" in new
    assert new & {"pellucas.oracle", "numpy"} == set()


def test_lazy_surface_is_the_eager_one():
    expected = sorted([*SURFACE, *(n for names in SURFACE.values() for n in names)])
    assert len(expected) == 48
    assert sorted(pellucas.__all__) == expected
    for module, names in SURFACE.items():
        sub = importlib.import_module(f"pellucas.{module}")
        assert getattr(pellucas, module) is sub
        for name in names:
            assert getattr(pellucas, name) is getattr(sub, name), name
    namespace = {}
    exec("from pellucas import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expected)
    assert set(expected) <= set(dir(pellucas))


def test_names_resolve_on_first_use():
    code = ("import sys, pellucas\n"
            "print(pellucas.lucas.lucas_uv(pellucas.LucasParams(1, -1), 10).u,"
            " pellucas.oracle.__name__, 'pellucas.k3' in sys.modules)")
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={"PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.split() == ["55", "pellucas.oracle", "False"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pellucas.no_such_name
    with pytest.raises(ImportError):
        from pellucas import no_such_name  # noqa: F401


# The parser imports no math module, so it holds its own copies of these.
def test_cli_flavors_are_the_library_flavors():
    assert cli._FLAVORS == intersection.FLAVORS
    assert set(cli._FLAVOR_ALIASES.values()) == set(intersection.FLAVORS)


def test_intersect_without_cap_uses_the_library_default(capsys, monkeypatch):
    seen = []
    match = intersection.minimal_trace_match

    def spy(system, cap):
        seen.append(cap)
        return match(system, cap)

    monkeypatch.setattr(intersection, "minimal_trace_match", spy)
    argv = ["intersect", "--flavor", "mm", "--p1", "4", "--p2", "14"]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--cap", "7"]) == 0
    capsys.readouterr()
    assert seen == [intersection.DEFAULT_CAP, 7]
