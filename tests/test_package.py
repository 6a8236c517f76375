import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pellucas"


def test_cli_import_does_not_load_numpy():
    code = ("import sys, pellucas, pellucas.cli\n"
            "pellucas.cli.build_parser()\n"
            "print('numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={"PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False"


def test_no_bare_assert_in_package():
    # Invariants must hold under python -O, which strips assert statements.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
