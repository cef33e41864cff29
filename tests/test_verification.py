"""Verification checks must run in every interpreter mode and reach the
verdict they guard."""

import ast
import json
from pathlib import Path

import b2sets
import b2sets.decompose as decompose
from b2sets.analyze import BVerdict
from b2sets.cli import main

PACKAGE = Path(b2sets.__file__).parent


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so a check written as one
    # silently stops running.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_meyer_failed_subset_is_a_cli_fail(tmp_path, monkeypatch):
    def failing_is_b2(values, g):
        return BVerdict(False, "sum", g, g + 1, None)

    monkeypatch.setattr(decompose, "is_b2", failing_is_b2)
    out = tmp_path / "meyer.json"
    code = main(["meyer", "--nmax", "6", "--trials", "5", "--seed", "1", "--out", str(out)])
    assert code == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["pass"] for v in verdicts] == [False]
