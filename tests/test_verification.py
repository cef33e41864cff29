"""Verification checks must run in every interpreter mode and reach the
verdict they guard."""

import ast
import json
from pathlib import Path

import b2sets
import b2sets.codes as codes
import b2sets.decompose as decompose
from b2sets.analyze import BVerdict
from b2sets.cli import main
from b2sets.errors import InternalVerificationFailure

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
        return BVerdict(False, g + 1, None)

    monkeypatch.setattr(decompose, "is_b2", failing_is_b2)
    out = tmp_path / "meyer.json"
    code = main(["meyer", "--nmax", "6", "--trials", "5", "--seed", "1", "--out", str(out)])
    assert code == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["pass"] for v in verdicts] == [False]


def test_internal_failure_has_its_own_exit_code(tmp_path, monkeypatch):
    def broken(family):
        raise InternalVerificationFailure("collision values disagree")

    fam = tmp_path / "w.json"
    assert main(["build", "--kind", "W", "--k", "3", "--n", "10", "--out", str(fam)]) == 0
    monkeypatch.setattr(decompose, "pair_collision_values", broken)
    out = tmp_path / "cert.json"
    code = main(["certify", str(fam), "--g", "1", "--parts", "2", "--out", str(out)])
    assert code == 5
    assert not out.exists()


def test_failed_matrix_self_check_is_internal(tmp_path, monkeypatch):
    # a singular minor is a fault of the tool's own construction, not of
    # the parameters it was given
    monkeypatch.setattr(codes, "int_det", lambda rows: 0)
    out = tmp_path / "w.json"
    assert main(["build", "--kind", "W", "--k", "3", "--n", "10", "--out", str(out)]) == 5
    assert not out.exists()
