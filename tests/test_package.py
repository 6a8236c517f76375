import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pellucas"


def test_cli_import_does_not_load_numpy():
    # Only the FFT kernel of lucas._square and the enumeration oracles import
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
