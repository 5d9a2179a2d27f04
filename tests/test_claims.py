"""The README's map from the paper's claims to the checks that cover them
cannot drift: every test it names exists."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADING = "## The paper's claims and their checks"


def _claim_rows():
    """The table rows of the README's claims section, as lists of cells."""
    text = (ROOT / "README.md").read_text()
    section = text.split(HEADING, 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    return [[cell.strip() for cell in row.strip("|").split("|")]
            for row in rows[1:]]  # the header row aside


def _tests_in(path):
    tree = ast.parse((ROOT / path).read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")}


def test_every_claim_names_existing_checks():
    rows = _claim_rows()
    assert len(rows) == 8
    named = []
    for claim, checks, depth in rows:
        found = re.findall(r"`(tests/\w+\.py)::(test_\w+)`", checks)
        if "Θ(2^n)" in claim:
            assert checks.startswith("not reproduced") and not found
        else:
            assert found and depth, claim
        named += found
    missing = [f"{path}::{name}" for path, name in named
               if name not in _tests_in(path)]
    assert not missing, missing
