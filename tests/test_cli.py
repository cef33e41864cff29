import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import b2sets
from b2sets.cli import main


def run(tmp_path, *argv):
    return main(list(argv))


def read(path):
    return json.loads(path.read_text())


class TestBuild:
    def test_w_family_file(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["build", "--kind", "W", "--k", "3", "--n", "10", "--out", str(out)]) == 0
        data = read(out)
        assert data["schema"] == "b2sets.setfamily/1"
        assert sum(len(p["elements"]) for p in data["parts"]) == 36

    def test_meyer_count(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["build", "--kind", "meyer", "--nmax", "9", "--out", str(out)]) == 0
        data = read(out)
        assert len(data["parts"][0]["elements"]) == 45

    def test_wcirc_warning_flag(self, tmp_path):
        out = tmp_path / "wc.json"
        assert main(["build", "--kind", "Wcirc", "--k", "3", "--n", "30", "--out", str(out)]) == 0
        assert read(out)["warnings"]

    def test_config_error_exit_2(self, tmp_path):
        assert main(["build", "--kind", "meyer"]) == 2  # missing --nmax
        assert main(["build", "--kind", "W", "--k", "3", "--n", "3"]) == 2  # empty
        out_dir = ["--out", str(tmp_path)]  # an output path that is a directory
        assert main(["build", "--kind", "W", "--k", "3", "--n", "10", *out_dir]) == 2

    def test_resource_cap_exit_3(self, tmp_path):
        assert (
            main(
                ["build", "--kind", "product", "--k", "5", "--n", "19",
                 "--element-cap", "10"]
            )
            == 3
        )


class TestUnexpectedErrors:
    def _raise(self, monkeypatch, exc):
        def boom(elements):
            raise exc

        monkeypatch.setattr("b2sets.cli.additive_energy", boom)
        return main(["analyze", "--values", "0,1,2", "--check", "energy"])

    def test_exception_exits_5_with_traceback(self, monkeypatch, capsys):
        # not 1, which would read as a verdict failure
        assert self._raise(monkeypatch, RuntimeError("unexpected")) == 5
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: unexpected" in err

    def test_memory_error_exits_3(self, monkeypatch, capsys):
        assert self._raise(monkeypatch, MemoryError()) == 3
        assert "MemoryError" in capsys.readouterr().err


class TestAnalyze:
    @pytest.fixture()
    def wfile(self, tmp_path):
        out = tmp_path / "w.json"
        main(["build", "--kind", "W", "--k", "3", "--n", "10", "--out", str(out)])
        return out

    def test_b2circ_pass_exit_0(self, wfile, tmp_path):
        out = tmp_path / "r.json"
        code = main(["analyze", str(wfile), "--check", "b2circ", "--g", "2", "--out", str(out)])
        assert code == 0
        rep = read(out)
        assert rep["verdicts"][0]["pass"] is True

    def test_b2_fail_exit_1(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["analyze", "--values", "0,1,2,3", "--check", "b2", "--g", "1", "--out", str(out)])
        assert code == 1
        rep = read(out)
        assert rep["results"]["witness"]["value"] == "2"

    def test_census_anomaly_free(self, wfile, tmp_path):
        out = tmp_path / "r.json"
        assert main(["analyze", str(wfile), "--check", "census", "--mode", "sum", "--out", str(out)]) == 0
        rep = read(out)
        assert rep["results"]["census"]["anomalies"] == 0

    def test_energy(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["analyze", "--values", "0,1,2", "--check", "energy", "--out", str(out)]) == 0
        assert read(out)["results"]["energy"]["e_plus"] == 19

    def test_disjoint(self, wfile):
        assert main(["analyze", str(wfile), "--check", "disjoint"]) == 0

    def test_audit(self, wfile, tmp_path):
        out = tmp_path / "r.json"
        assert (
            main(
                ["analyze", str(wfile), "--check", "audit", "--audit-mode", "sample",
                 "--trials", "50", "--seed", "3", "--min-size", "4", "--out", str(out)]
            )
            == 0
        )
        assert read(out)["results"]["audit"]["subsets_examined"] == 50

    def test_profile_check(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["analyze", "--values", "0,1,2", "--check", "profile",
                     "--mode", "diff", "--out", str(out)]) == 0
        prof = read(out)["results"]["profile"]
        assert prof["max_count"] == 2
        assert prof["witnesses"][0]["value"] == "1"

    def test_json_format_stdout(self, capsys):
        assert main(["analyze", "--values", "1,2,5,11", "--check", "b2",
                     "--g", "1", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["verdicts"][0]["pass"] is True

    def test_missing_file_exit_2(self):
        assert main(["analyze", "nope.json", "--check", "b2"]) == 2


ELEMENTS = "b2sets.elements/1"


@pytest.mark.parametrize(
    "source",
    [
        "1,abc",
        {"schema": ELEMENTS},
        {"schema": ELEMENTS, "elements": 5},
        {"schema": ELEMENTS, "elements": ["7*5^3"]},
        {"schema": ELEMENTS, "elements": ["7" * 4400]},
        "0,1,0",
        {"schema": ELEMENTS, "elements": [["0", "1"], ["2", "3"], ["0", "1"]]},
        {"schema": ELEMENTS, "elements": [["0", "0"], "5"]},
        {"schema": ELEMENTS, "elements": [["0"], ["1", "2"]]},
        {"schema": ELEMENTS, "elements": [["0", "0"], ["0", "1", "5"]]},
    ],
    ids=["values-text", "no-elements", "elements-not-list", "digit-7", "overlong-decimal",
         "duplicate-values", "duplicate-points", "mixed", "ragged", "ragged-fake-grid"],
)
def test_malformed_elements_are_a_config_error(source, tmp_path, capsys):
    # bad text, a digit outside [-2, 2], a decimal past the int-string
    # limit (4,300 digits), repeated elements and points of different
    # dimensions are the user's input, not the tool's failure; energy must
    # reject them before it looks for a grid
    if isinstance(source, str):
        argv = ["--values", source]
    else:
        path = tmp_path / "elements.json"
        path.write_text(json.dumps(source))
        argv = [str(path)]
    assert main(["analyze", *argv, "--check", "b2"]) == 2
    assert main(["analyze", *argv, "--check", "energy"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--check", "b2"],
        ["analyze", "--check", "b2circ"],
        ["analyze", "--check", "profile"],
        ["decompose", "--g", "1", "--kind", "sum"],
        ["decompose", "--g", "1", "--kind", "diff", "--greedy"],
    ],
    ids=["b2", "b2circ", "profile", "decompose", "decompose-greedy"],
)
def test_empty_set_is_a_config_error(argv, tmp_path, capsys):
    # an empty set has nothing to verify or decompose: no PASS, no minimum
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"schema": ELEMENTS, "elements": []}))
    out = tmp_path / "report.json"
    assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta_prime", ["abc", "1/0", ""], ids=["text", "zero-denominator", "empty"])
def test_malformed_delta_prime_is_a_config_error(delta_prime, tmp_path, capsys):
    path = tmp_path / "p35.json"
    assert main(["build", "--kind", "product", "--k", "3", "--n", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["certify", str(path), "--g", "1", "--delta-prime", delta_prime]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "build",
    [["--kind", "product", "--k", "3", "--n", "5"], ["--kind", "meyer", "--nmax", "4"]],
    ids=["product35", "meyer4"],
)
def test_disjointness_of_one_part_is_a_config_error(build, tmp_path, capsys):
    # one part has no pair of part sumsets to compare: no PASS
    path = tmp_path / "family.json"
    assert main(["build", *build, "--out", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--check", "disjoint", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_search_budget_below_one_is_a_config_error(budget, tmp_path, capsys):
    # no search can run on no nodes: no TIMEOUT for every t
    out = tmp_path / "report.json"
    argv = ["decompose", "--values", "1,2,3", "--g", "1", "--kind", "sum", "--budget", budget]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error")
    assert captured.out == ""
    assert not out.exists()


class TestCertifyDecompose:
    def test_certificate_pass(self, tmp_path):
        out = tmp_path / "w40.json"
        main(["build", "--kind", "W", "--k", "3", "--n", "40", "--out", str(out)])
        rep_path = tmp_path / "cert.json"
        code = main(["certify", str(out), "--g", "1", "--parts", "2", "--out", str(rep_path)])
        assert code == 0
        rep = read(rep_path)
        assert rep["results"]["lhs"] == 247
        assert rep["results"]["collision_value_count"] == 111

    def test_certificate_fail_exit_1(self, tmp_path):
        out = tmp_path / "w10.json"
        main(["build", "--kind", "W", "--k", "3", "--n", "10", "--out", str(out)])
        assert main(["certify", str(out), "--g", "1", "--parts", "2"]) == 1

    def test_certificate_not_applicable_exit_1(self, tmp_path):
        # W(3,60) has lhs=570 > capacity=513 at t=3, but its own 3 parts
        # are a 3-part decomposition: t >= k is no certificate at all.
        out = tmp_path / "w60.json"
        main(["build", "--kind", "W", "--k", "3", "--n", "60", "--out", str(out)])
        rep_path = tmp_path / "cert.json"
        assert main(["certify", str(out), "--g", "1", "--parts", "3", "--out", str(rep_path)]) == 1
        rep = read(rep_path)
        assert rep["results"]["lhs"] > rep["results"]["capacity"]
        assert rep["results"]["sketch"].startswith("not applicable (t >= k)")
        assert main(["certify", str(out), "--g", "1", "--parts", "2"]) == 0

    def test_decompose_minimum(self, tmp_path):
        values = ",".join(
            [str(5**i) for i in range(1, 9)] + [str(-(5**i)) for i in range(1, 9)]
        )
        out = tmp_path / "d.json"
        code = main(["decompose", "--values", values, "--g", "7", "--kind", "sum", "--out", str(out)])
        assert code == 0
        assert read(out)["results"]["minimum"] == 2

    def test_decompose_timeout_exit_4(self, tmp_path):
        values = ",".join(str(v) for v in range(14))
        code = main(["decompose", "--values", values, "--g", "1", "--kind", "sum",
                     "--max-parts", "2", "--budget", "5"])
        assert code == 4

    def test_decompose_greedy(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["decompose", "--values", "0,1,2,3", "--g", "1",
                     "--kind", "sum", "--greedy", "--out", str(out)]) == 0
        assert read(out)["results"]["greedy_parts"] == 2

    def test_certify_report_carries_sketch(self, tmp_path):
        w = tmp_path / "w.json"
        main(["build", "--kind", "W", "--k", "3", "--n", "40", "--out", str(w)])
        out = tmp_path / "c.json"
        main(["certify", str(w), "--g", "1", "--parts", "2", "--out", str(out)])
        sketch = read(out)["results"]["sketch"]
        assert "247" in sketch and "222" in sketch


class TestMeyerEmbed:
    def test_meyer_mean_in_band(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(["meyer", "--nmax", "9", "--trials", "1000", "--seed", "7", "--out", str(out)])
        assert code == 0
        mean = read(out)["results"]["mean_ratio"]
        assert 0.20 <= mean["approx"] <= 0.30

    def test_embed(self, tmp_path):
        out = tmp_path / "e.json"
        assert main(["embed", "--values", "5,25,125", "--out", str(out)]) == 0
        report = read(out)
        assert "verification" not in report["results"]
        assert report["verdicts"] == [
            {"check": "structure-preserving-embedding", "detail": "certified", "pass": True}
        ]


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--kind", "W", "--k", "3", "--n", "10"],
            ["build", "--kind", "meyer", "--nmax", "6"],
            ["meyer", "--nmax", "8", "--trials", "100", "--seed", "5"],
            ["analyze", "--values", "0,1,2,3", "--check", "energy"],
        ],
        ids=["build-W", "build-meyer", "meyer", "energy"],
    )
    def test_byte_identical_reruns(self, tmp_path, argv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seeded_audit_byte_identical(self, tmp_path):
        w = tmp_path / "w.json"
        main(["build", "--kind", "W", "--k", "3", "--n", "10", "--out", str(w)])
        argv = ["analyze", str(w), "--check", "audit", "--trials", "40", "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestStartup:
    """The CLI owns its process, so it starts numpy with one BLAS thread;
    the library leaves a caller's environment alone."""

    # 700 ints spread over 10^12: 245,350 sum pairs, so is_b2 takes the
    # residue path, which loads numpy
    VALUES = ",".join(map(str, random.Random(23).sample(range(10**12), 700)))
    REPORT = (
        "import os, sys\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 0\n"
        "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'), tasks)\n"
    )

    def child(self, code, **env):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | env
        env["PYTHONPATH"] = str(Path(b2sets.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split("\n")[-2].split()

    def run_cli(self, **env):
        argv = ["analyze", "--values", self.VALUES, "--check", "b2", "--out", os.devnull]
        code = f"from b2sets.cli import main\nmain({argv!r})\n" + self.REPORT
        return self.child(code, **env)

    def test_numpy_starts_with_one_thread(self):
        loaded, threads, tasks = self.run_cli()
        assert (loaded, threads) == ("True", "1")
        if tasks != "0":  # 0: no /proc/self/task to count
            assert tasks == "1"

    def test_a_callers_setting_wins(self):
        loaded, threads, _ = self.run_cli(OPENBLAS_NUM_THREADS="2")
        assert (loaded, threads) == ("True", "2")

    def test_importing_the_cli_leaves_the_environment_alone(self):
        code = (
            "import os\n"
            "before = dict(os.environ)\n"
            "import b2sets.cli\n"
            "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
        )
        assert self.child(code) == ["True", "False"]
