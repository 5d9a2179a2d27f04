"""Start-up cost: a command imports only the layers it runs.

Each check runs in a fresh interpreter and looks at the modules that
``import adjhier.cli`` and one ``main`` call add to its ``sys.modules``,
measured against the interpreter's own start, as ``site`` may already
have loaded some of them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

CHILD = """
import os, sys
base = set(sys.modules)
import adjhier.cli
argv = {argv!r}
if argv:
    sys.stdout = open(os.devnull, "w")
    code = adjhier.cli.main(argv)
    sys.stdout = sys.__stdout__
    assert code == 0, code
print(sorted(set(sys.modules) - base))
"""

HEAVY = {"dataclasses", "inspect", "hashlib", "json", "decimal"}
LAYERS = {f"adjhier.{m}" for m in ("oracle", "hfs", "verify", "asymptotics",
                                   "cache", "refinements", "bounded")}


def _added(argv):
    out = subprocess.run([sys.executable, "-c", CHILD.format(argv=argv)],
                         env=CHILD_ENV, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    return set(ast.literal_eval(out))


@pytest.mark.parametrize("argv", [
    [],
    ["levels", "--n", "3", "--format", "csv"],
])
def test_light_path_loads_no_other_layer(argv):
    added = _added(argv)
    assert "adjhier.cli" in added
    assert not added & (HEAVY | LAYERS)


def test_oracle_verify_loads_no_cache_or_constant():
    added = _added(["oracle-verify", "--variant", "plain", "--n", "3",
                    "--format", "plain"])
    assert {"adjhier.oracle", "adjhier.verify"} <= added
    assert not added & {"dataclasses", "inspect", "hashlib",
                        "adjhier.asymptotics", "adjhier.cache"}


def test_no_module_imports_dataclasses():
    for path in (ROOT / "src" / "adjhier").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name


def test_package_names_resolve_on_first_use():
    import adjhier
    for name in adjhier.__all__:
        assert getattr(adjhier, name).__module__.startswith("adjhier.")
    with pytest.raises(AttributeError):
        adjhier.no_such_name


def test_count_table_cache_loads_no_refinements(tmp_path):
    argv = ["levels", "--n", "5", "--cache", str(tmp_path / "levels.json")]
    for phase in ("cold", "warm"):
        added = _added(argv)
        assert "adjhier.cache" in added, phase
        assert "adjhier.refinements" not in added, phase
    assert (tmp_path / "levels.json").exists()
