import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecodyn import cli
from ecodyn.allen import AllenScaling, PhillipsParams, phillips_solve
from ecodyn.odelin import TimeGrid, sup_rel_diff

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ARGS = ["fredholm-solve", "--kernel", "t-plus-eta", "--lam", "0.5", "--q", "t",
               "--nodes", "21"]
# a characteristic number of t + eta: 1/lambda is an eigenvalue of K*diag(w)
CHAR_NUMBER_ARGS = ["fredholm-solve", "--kernel", "t-plus-eta",
                    "--lam", repr(-6.0 + 4.0 * math.sqrt(3.0)), "--nodes", "201"]
EVEN_NODES_ARGS = ["fredholm-solve", "--kernel", "t-plus-eta", "--lam", "0.5", "--nodes", "10"]


def run(capsys, argv):
    rc = cli.run(argv)
    out, err = capsys.readouterr()
    return rc, out, err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        rc, out, err = run(capsys, GOLDEN_ARGS)
        assert rc == 0
        assert out.startswith("t,phi\n")
        assert err == ""

    def test_rejected_input_is_two_with_key(self, capsys):
        rc, out, err = run(capsys, EVEN_NODES_ARGS)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: Simpson needs an odd node count")
        assert err.rstrip().endswith("(key: nodes)")

    def test_characteristic_number_is_three(self, capsys):
        rc, out, err = run(capsys, CHAR_NUMBER_ARGS)
        assert rc == 3
        assert out == ""
        assert "sits within 1e-08 of the characteristic number" in err


class TestAtomicOut:
    @pytest.mark.parametrize("argv", [EVEN_NODES_ARGS, CHAR_NUMBER_ARGS])
    def test_failed_run_leaves_no_file(self, capsys, tmp_path, argv):
        target = tmp_path / "out.csv"
        rc, out, _ = run(capsys, argv + ["--out", str(target)])
        assert rc in (2, 3)
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_successful_run_writes_the_stdout_bytes(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        assert run(capsys, GOLDEN_ARGS + ["--out", str(target)])[0] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text(encoding="utf-8") == run(capsys, GOLDEN_ARGS)[1]


class TestGolden:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fredholm_solve_t_plus_eta_bytes(self, capsys, fmt):
        rc, out, _ = run(capsys, GOLDEN_ARGS + ["--format", fmt])
        assert rc == 0
        expected = (GOLDEN / f"fredholm_solve_t_plus_eta.{fmt}").read_text(encoding="utf-8")
        assert out == expected


LEONTIEF_ARGS = ["leontief-dynamic", "--matrix", str(GOLDEN / "leontief_matrix.txt"),
                 "--order", "2", "--x0", "1,1,1", "--xdot0", "0,0.1,0", "--steps", "40"]
# CSV written by the stage-by-stage RK4 integrator: the closed-form Harrod
# paths must match byte for byte, the integrated paths to 1e-12 of each
# column's sup norm
TRAJECTORY_GOLDEN = {
    "harrod": ["harrod", "--mu", "0.3", "--nu", "2.5", "--y0", "1.5", "--t-end", "20",
               "--steps", "40"],
    "harrod_corrected": ["harrod-corrected", "--mu", "0.3", "--nu-star", "2.5",
                         "--t-end", "7", "--steps", "40"],
    "harrod_domar": ["harrod-domar", "--mu", "0.3", "--nu", "2.5", "--t0", "2",
                     "--t-end", "20", "--steps", "40"],
    "longwave": ["longwave", "--p", "0.11", "--r", "0.11", "--t-end", "120",
                 "--steps", "240"],
    "leontief_dynamic_o2": LEONTIEF_ARGS + ["--demand", "0.5,0.3,0.2"],
    "leontief_dynamic_o2_file": LEONTIEF_ARGS + [
        "--demand-file", str(GOLDEN / "leontief_demand.csv")],
}


def read_csv(text: str) -> tuple[str, np.ndarray]:
    header, _, body = text.partition("\n")
    return header, np.array([[float(v) for v in ln.split(",")] for ln in body.splitlines()])


class TestTrajectoryGolden:
    @pytest.mark.parametrize("name", ["harrod", "harrod_corrected", "harrod_domar"])
    def test_closed_form_bytes(self, capsys, name):
        rc, out, _ = run(capsys, TRAJECTORY_GOLDEN[name])
        assert rc == 0
        assert out == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", ["longwave", "leontief_dynamic_o2",
                                      "leontief_dynamic_o2_file"])
    def test_integrated_columns(self, capsys, name):
        rc, out, _ = run(capsys, TRAJECTORY_GOLDEN[name])
        assert rc == 0
        header, got = read_csv(out)
        expected_header, expected = read_csv((GOLDEN / f"{name}.csv").read_text(encoding="utf-8"))
        assert header == expected_header
        assert got.shape == expected.shape
        scale = np.max(np.abs(expected), axis=0)
        assert np.all(np.max(np.abs(got - expected), axis=0) <= 1e-12 * scale)


class TestScaleCheckInitialData:
    PARAMS = {"kappa": 1.3, "nu": 0.8, "mu": 0.4, "lam": 1.1}

    def scale_check(self, capsys, y0, ydot0):
        argv = ["scale-check", "--model", "phillips", "--t0-a", "1.0", "--t0-b", "2.5",
                "--t-end", "4.0", "--steps", "400", "--y0", repr(y0), "--ydot0", repr(ydot0)]
        argv += [f"--{key}={value!r}" for key, value in self.PARAMS.items()]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        return json.loads(out)["data"]["max_rel_deviation"]

    def test_ydot0_reaches_the_model(self, capsys):
        assert self.scale_check(capsys, 1.5, 3.0) != self.scale_check(capsys, 1.5, 0.0)

    def test_matches_two_phillips_solves(self, capsys):
        y0, ydot0 = 1.5, 3.0
        params = PhillipsParams(**self.PARAMS)
        grid = TimeGrid(0.0, 4.0, 400)
        Ya, Yb = (
            phillips_solve(params, AllenScaling(t0=t0), (y0, ydot0), grid).trajectory.column("Y")
            for t0 in (1.0, 2.5)
        )
        expected = sup_rel_diff(Ya, Yb)
        assert np.isfinite(expected)
        assert self.scale_check(capsys, y0, ydot0) == pytest.approx(expected, rel=1e-12)


# JSON made with the commit before the columnar output path, asserted byte for
# byte; run from inside GOLDEN so that file flags (and their echo in "meta")
# are relative paths
JSON_GOLDEN = {
    "harrod_domar": TRAJECTORY_GOLDEN["harrod_domar"],
    "phillips": ["phillips", "--kappa", "1.3", "--nu", "0.8", "--mu", "0.4", "--lam", "1.1",
                 "--ydot0", "0.5", "--t-end", "10", "--steps", "20"],
    "longwave": ["longwave", "--p", "0.11", "--r", "0.11", "--t-end", "120", "--steps", "24"],
    "harrod_discrete": ["harrod-discrete", "--mu", "0.3", "--nu", "2.5", "--years", "12"],
    "fredholm_spectrum": ["fredholm-spectrum", "--kernel", "t-plus-eta", "--nodes", "7"],
    "fredholm_sweep": ["fredholm-sweep", "--k0", "zero", "--k1", "exp-diff", "--mu-min", "0",
                       "--mu-max", "1.5", "--mu-count", "7", "--nodes", "21"],
    "leontief_static": ["leontief-static", "--matrix", "leontief_matrix.txt",
                        "--demand", "0.5,0.3,0.2", "--method", "iterate"],
    "dim_check": ["dim-check", "--relation", "Y = C + K", "--dims", "Y:$/s,C:$/s,K:$"],
    "scale_check": ["scale-check", "--model", "phillips", "--t0-a", "1", "--t0-b", "2.5",
                    "--kappa", "1.3", "--nu", "0.8", "--mu", "0.4", "--lam", "1.1",
                    "--t-end", "4", "--steps", "40"],
    # sigma = 0: no pole, so blowup_time and forecast_horizon render as null
    "harrod_corrected_mu0": ["harrod-corrected", "--mu", "0", "--nu-star", "2.5",
                             "--t-end", "5", "--steps", "10"],
}
# commands with int columns
CSV_GOLDEN = ("harrod_discrete", "fredholm_sweep")


class TestOutputGolden:
    @pytest.mark.parametrize("name", sorted(JSON_GOLDEN))
    def test_json_bytes(self, capsys, monkeypatch, name):
        monkeypatch.chdir(GOLDEN)
        rc, out, _ = run(capsys, JSON_GOLDEN[name] + ["--format", "json"])
        assert rc == 0
        assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", CSV_GOLDEN)
    def test_csv_bytes(self, capsys, name):
        rc, out, _ = run(capsys, JSON_GOLDEN[name] + ["--format", "csv"])
        assert rc == 0
        assert out == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")

    def test_json_is_deterministic(self, capsys):
        argv = JSON_GOLDEN["phillips"] + ["--format", "json"]
        assert run(capsys, argv) == run(capsys, argv)


class TestScenario:
    def test_same_bytes_as_flags(self, capsys, tmp_path):
        scenario = tmp_path / "run.scenario"
        scenario.write_text(
            "# Phillips with complex roots\n"
            "command = phillips\n"
            "kappa = 1.3   # trailing comment\n"
            "nu = 0.8\nmu = 0.4\nlam = 1.1\n\n"
            "ydot0 = 0.5\nt_end = 10\nsteps = 20\n",
            encoding="utf-8",
        )
        flags = run(capsys, JSON_GOLDEN["phillips"] + ["--format", "json"])
        assert flags[0] == 0
        assert run(capsys, ["--scenario", str(scenario), "--format", "json"]) == flags

    def test_missing_command_is_two_with_key(self, capsys, tmp_path):
        scenario = tmp_path / "run.scenario"
        scenario.write_text("mu = 0.3\nnu = 2.5\n", encoding="utf-8")
        rc, out, err = run(capsys, ["--scenario", str(scenario)])
        assert (rc, out) == (2, "")
        assert err.rstrip().endswith("(key: command)")


class TestDefaultStepsEnv:
    ARGV = ["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "20"]

    def rows(self, capsys, argv):
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        return len(out.splitlines()) - 1

    def test_used_when_steps_absent(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_DEFAULT_STEPS, "7")
        assert self.rows(capsys, self.ARGV) == 8

    def test_explicit_steps_win(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_DEFAULT_STEPS, "7")
        assert self.rows(capsys, self.ARGV + ["--steps", "3"]) == 4

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_bad_value_is_two_with_key(self, capsys, monkeypatch, value):
        monkeypatch.setenv(cli.ENV_DEFAULT_STEPS, value)
        rc, out, err = run(capsys, self.ARGV)
        assert (rc, out) == (2, "")
        assert err.rstrip().endswith("(key: ECODYN_DEFAULT_STEPS)")


# Run in a fresh interpreter: the test session itself may have loaded scipy.
LAZY_SCIPY_SCRIPT = """
import sys
import numpy as np
import ecodyn, ecodyn.cli
assert "scipy" not in sys.modules, "importing ecodyn loaded scipy"
A = np.array([[0.2, 0.1], [0.3, 0.4]])
c = np.array([1.0, 2.0])
X, log = ecodyn.static_solve(A, c, method="direct")
assert log is None and np.allclose(X - A @ X, c, rtol=0, atol=1e-14)
try:
    ecodyn.static_solve(np.full((2, 2), 0.5), c, method="direct")
except ecodyn.SingularMatrixError as exc:
    print(exc)
"""


def test_scipy_is_imported_only_by_the_direct_solve():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", LAZY_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "E - A is numerically singular (pivot 0.000e+00 below 1.000e-12)\n"
