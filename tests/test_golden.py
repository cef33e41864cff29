"""Frozen report bytes.

The commands of acceptance criterion 12, plus the representation profile
of the planar product family in both modes and the additive energy of
two planar products, must keep producing exactly
the bytes stored in ``tests/golden``. Criterion 12 only compares a run
with itself; this test compares a run with the frozen files, so a change
to counting, witness selection or value decoding shows up as a diff.
Commands run from a temporary directory with relative file names, so the
``setfile`` field of each report is stable.

Reports of ``build`` and the library-level records are large, so they
are pinned by sha256 digest in ``digests.json``; every other report is
stored as a file and compared byte for byte. Each command's exit code is
pinned too, and so is what ``--format text`` and ``--format json`` print
to stdout.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from b2sets.analyze import collision_census, rep_profile
from b2sets.cli import main as cli_main
from b2sets.construct import build_product, build_w

GOLDEN = Path(__file__).parent / "golden"

SIGNED_POWERS = ",".join(
    [str(5**i) for i in range(1, 9)] + [str(-(5**i)) for i in range(1, 9)]
)

SETUP = [
    ["build", "--kind", "W", "--k", "3", "--n", "30", "--out", "w30.json"],
    ["build", "--kind", "W", "--k", "3", "--n", "40", "--out", "w40.json"],
    ["build", "--kind", "product", "--k", "3", "--n", "6", "--out", "p36.json"],
    ["build", "--kind", "Wcirc", "--k", "5", "--n", "14", "--out", "wc14.json"],
    ["build", "--kind", "product", "--k", "5", "--n", "19", "--out", "p519.json"],
    ["build", "--kind", "W", "--k", "2", "--n", "10", "--out", "w2_10.json"],
]

COMMANDS = {
    "build_w30": ["build", "--kind", "W", "--k", "3", "--n", "30"],
    "build_wcirc5_14": ["build", "--kind", "Wcirc", "--k", "5", "--n", "14"],
    "build_meyer9": ["build", "--kind", "meyer", "--nmax", "9"],
    "build_prop2_4": ["build", "--kind", "proposition", "--k", "2", "--n", "4"],
    "b2circ_w30": ["analyze", "w30.json", "--check", "b2circ", "--g", "2"],
    "census_sum_w30": ["analyze", "w30.json", "--check", "census", "--mode", "sum"],
    "energy_w30": ["analyze", "w30.json", "--check", "energy"],
    "energy_p36": ["analyze", "p36.json", "--check", "energy"],
    "energy_p519": ["analyze", "p519.json", "--check", "energy"],
    "audit_w30": ["analyze", "w30.json", "--check", "audit", "--trials", "100", "--seed", "11"],
    "certify_w40": ["certify", "w40.json", "--g", "1", "--parts", "2"],
    "certify_wc14": ["certify", "wc14.json", "--g", "1", "--parts", "4"],
    "certify_w2_10_t2": ["certify", "w2_10.json", "--g", "1", "--parts", "2"],
    "certify_mixed_p519": ["certify", "p519.json", "--g", "1", "--parts", "1"],
    "certify_nolarge_p519": ["certify", "p519.json", "--g", "1", "--delta-prime", "1"],
    "decompose_powers": ["decompose", "--values", SIGNED_POWERS, "--g", "7", "--kind", "sum"],
    "meyer9": ["meyer", "--nmax", "9", "--trials", "1000", "--seed", "7"],
    "embed_powers": ["embed", "--values", "5,25,125,625"],
    "profile_sum_p36": ["analyze", "p36.json", "--check", "profile", "--mode", "sum"],
    "profile_diff_p36": ["analyze", "p36.json", "--check", "profile", "--mode", "diff"],
    "disjoint_w30": ["analyze", "w30.json", "--check", "disjoint"],
    "census_diff_wc14": ["analyze", "wc14.json", "--check", "census", "--mode", "diff"],
    "b2_fail_values": ["analyze", "--values", "0,1,2,3", "--check", "b2", "--g", "1"],
    "decompose_greedy_powers": ["decompose", "--values", SIGNED_POWERS, "--g", "1", "--kind", "sum", "--greedy"],
    "decompose_timeout": ["decompose", "--values", ",".join(map(str, range(14))), "--g", "1",
                          "--kind", "sum", "--max-parts", "2", "--budget", "5"],
}

# every command not listed here exits 0
EXIT_CODES = {
    "certify_wc14": 1,
    "certify_w2_10_t2": 1,
    "certify_mixed_p519": 1,
    "certify_nolarge_p519": 1,
    "b2_fail_values": 1,
    "decompose_timeout": 4,
}

# stdout of a command run with the given extra arguments, pinned in
# ``stdout_<name>.txt``
STDOUT = {
    "text_b2_fail_values": ("b2_fail_values", ["--format", "text"]),
    "text_decompose_greedy_powers": ("decompose_greedy_powers", ["--format", "text"]),
    "text_energy_p36": ("energy_p36", ["--format", "text"]),
    "text_energy_p519": ("energy_p519", ["--format", "text"]),
    "text_out_disjoint_w30": ("disjoint_w30", ["--format", "text", "--out", "report.json"]),
    "json_b2_fail_values": ("b2_fail_values", ["--format", "json"]),
    "json_out_embed_powers": ("embed_powers", ["--format", "json", "--out", "report.json"]),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests() -> dict:
    return json.loads((GOLDEN / "digests.json").read_text())


def _labels(elem) -> list:
    if hasattr(elem, "left"):
        return [_labels(elem.left), _labels(elem.right)]
    return [list(elem.point.coords), list(elem.point.preimage), elem.vector_index]


def _census_records(family, mode) -> bytes:
    rep = collision_census(family, mode)
    records = [
        [
            str(r.value),
            [[_labels(a), _labels(b)] for a, b in r.reps],
            r.classification,
            r.pattern,
            list(r.part_pair) if r.part_pair else None,
        ]
        for r in rep.records
    ]
    return json.dumps(records).encode()


def _profile_witnesses(family, mode) -> bytes:
    elems = family.union_elements()
    index = {e.value: e for e in elems}
    prof = rep_profile([e.value for e in elems], mode)
    witnesses = [
        [
            str(w.value),
            w.count,
            [[_labels(index[a]), _labels(index[b])] for a, b in w.pairs],
        ]
        for w in prof.witnesses
    ]
    return json.dumps(witnesses).encode()


def _setup(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in SETUP:
            assert cli_main(argv) == 0


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_report_matches_golden(name, tmp_path, monkeypatch):
    _setup(tmp_path, monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(COMMANDS[name] + ["--out", "report.json"])
    assert code == EXIT_CODES.get(name, 0)
    got = (tmp_path / "report.json").read_bytes()
    frozen = GOLDEN / f"{name}.json"
    if frozen.exists():
        assert got == frozen.read_bytes()
    else:
        assert _sha256(got) == _digests()[name]


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_cli_stdout_matches_golden(name, tmp_path, monkeypatch):
    command, extra = STDOUT[name]
    _setup(tmp_path, monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(COMMANDS[command] + extra)
    assert code == EXIT_CODES.get(command, 0)
    assert out.getvalue() == (GOLDEN / f"stdout_{name}.txt").read_text()


@pytest.mark.parametrize("mode", ["sum", "diff"])
def test_census_records_match_golden(mode):
    got = _census_records(build_w(3, 10), mode)
    assert _sha256(got) == _digests()[f"census_{mode}_w3_10"]


@pytest.mark.parametrize("mode", ["sum", "diff"])
def test_planar_witnesses_match_golden(mode):
    got = _profile_witnesses(build_product(3, 6), mode)
    assert _sha256(got) == _digests()[f"witnesses_{mode}_p36"]
