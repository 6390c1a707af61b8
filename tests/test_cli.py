import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecodyn import cli, harrod, leontief
from ecodyn.allen import SCALE_CHECK_MODELS, AllenScaling, PhillipsParams, phillips_solve
from ecodyn.errors import NumericalError, ValidationError
from ecodyn.longwave import LongWaveParams, lw_matrix
from ecodyn.odelin import TimeGrid, sup_rel_diff
from conftest import flow, ode_flow

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

    @pytest.mark.parametrize("mask", [0o022, 0o077], ids=oct)
    def test_new_file_mode_is_that_of_a_shell_redirect(self, capsys, tmp_path, mask):
        target = tmp_path / "out.csv"
        before = os.umask(mask)
        try:
            assert run(capsys, GOLDEN_ARGS + ["--out", str(target)])[0] == 0
            assert os.umask(mask) == mask  # the run put the umask back
        finally:
            os.umask(before)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~mask

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o666], ids=oct)
    def test_existing_file_keeps_its_mode(self, capsys, tmp_path, mode):
        target = tmp_path / "out.csv"
        target.write_text("earlier run\n", encoding="utf-8")
        target.chmod(mode)
        before = os.umask(0o022)
        try:
            assert run(capsys, GOLDEN_ARGS + ["--out", str(target)])[0] == 0
        finally:
            os.umask(before)
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert target.read_text(encoding="utf-8") == run(capsys, GOLDEN_ARGS)[1]

    @pytest.mark.parametrize("live", [True, False], ids=["live", "dangling"])
    def test_symlinked_target_gets_the_bytes_through_the_link(self, capsys, tmp_path, live):
        # as with `> link.csv`: the link stays a link, and the file it names,
        # here in another directory, is written with that file's mode
        (tmp_path / "links").mkdir()
        (tmp_path / "files").mkdir()
        real = tmp_path / "files" / "real.csv"
        link = tmp_path / "links" / "link.csv"
        link.symlink_to(os.path.join("..", "files", "real.csv"))
        if live:
            real.write_text("earlier run\n", encoding="utf-8")
            real.chmod(0o640)
        before = os.umask(0o022)
        try:
            assert run(capsys, GOLDEN_ARGS + ["--out", str(link)])[0] == 0
        finally:
            os.umask(before)
        assert link.is_symlink() and os.readlink(link) == os.path.join("..", "files", "real.csv")
        assert real.read_text(encoding="utf-8") == run(capsys, GOLDEN_ARGS)[1]
        assert stat.S_IMODE(real.stat().st_mode) == (0o640 if live else 0o644)
        assert [p.name for p in (tmp_path / "files").iterdir()] == ["real.csv"]
        assert [p.name for p in (tmp_path / "links").iterdir()] == ["link.csv"]

    @pytest.mark.parametrize("target, reason", [
        ("loop.csv", "Too many levels of symbolic links"),
        ("missing/out.csv", "No such file or directory"),
        ("sub", "Is a directory"),
    ])
    def test_unwritable_target_is_a_rejected_input(self, capsys, tmp_path, target, reason):
        (tmp_path / "loop.csv").symlink_to("back.csv")
        (tmp_path / "back.csv").symlink_to("loop.csv")
        (tmp_path / "sub").mkdir()
        before = sorted(p.name for p in tmp_path.rglob("*"))
        code, out, err = run(capsys, GOLDEN_ARGS + ["--out", str(tmp_path / target)])
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {str(tmp_path / target)!r}: {reason} (key: out)\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("error, rc", [(NumericalError("render failed"), 3),
                                           (MemoryError("render failed"), 3)])
    def test_failure_mid_stream_leaves_the_target_as_it_was(self, capsys, tmp_path,
                                                            monkeypatch, error, rc):
        target = tmp_path / "out.csv"
        target.write_text("earlier run\n", encoding="utf-8")

        def failing(output):
            yield "x" * (2 * cli._FLUSH_CHARS)  # a full write, to the temporary file
            [tmp] = tmp_path.glob(".ecodyn-*.tmp")
            assert tmp.stat().st_size >= 2 * cli._FLUSH_CHARS
            raise error

        monkeypatch.setattr(cli, "_csv_chunks", failing)
        code, out, err = run(capsys, GOLDEN_ARGS + ["--out", str(target)])
        assert code == rc
        assert out == ""
        assert "render failed" in err
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text(encoding="utf-8") == "earlier run\n"

    @pytest.mark.parametrize("argv", [
        ["fredholm-spectrum", "--kernel", "t-plus-eta", "--nodes", "7"],
        ["dim-check", "--relation", "Y = C + K", "--dims", "Y:$/s,C:$/s,K:$"],
        ["scale-check", "--model", "multiplier", "--t0-a", "1", "--t0-b", "2", "--mu", "0.4",
         "--lam", "1.1", "--y0", "1", "--t-end", "1", "--steps", "4"],
    ])
    def test_csv_of_a_json_only_command_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                       argv):
        target = tmp_path / "out.csv"
        # the parser rejects the format before the command runs
        code, out, err = run(capsys, argv + ["--format", "csv"])
        assert (code, out) == (2, "")
        assert "argument --format: invalid choice: 'csv'" in err
        # past the parser, the renderer rejects it before its first piece
        cmd = cli.COMMANDS[argv[0]]
        monkeypatch.setitem(cli.COMMANDS, argv[0], dataclasses.replace(cmd, formats=("csv", "json")))
        code, out, err = run(capsys, argv + ["--format", "csv"])
        assert (code, out) == (2, "")
        assert err.rstrip().endswith("(key: format)")
        code, out, err = run(capsys, argv + ["--format", "csv", "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.rstrip().endswith("(key: format)")
        assert list(tmp_path.iterdir()) == []


LEONTIEF_ARGS = ["leontief-dynamic", "--matrix", str(GOLDEN / "leontief_matrix.txt"),
                 "--order", "2", "--x0", "1,1,1", "--xdot0", "0,0.1,0", "--steps", "40"]
# CSV of the closed-form paths (multiplier: made by the commit before lazy
# module loading) and of bergstrom, remade by the exact flow of its
# companion matrix with each column within 1e-13 of its sup of mpmath's
# expm, matched byte for byte, and of the other paths stepped by the exact
# flow (longwave, leontief), each column checked within 1e-13 of its sup
# against mpmath's expm before it was written, matched to 1e-12 of each
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
    "bergstrom": ["bergstrom", "--mu", "0.4", "--nu", "0.8", "--gamma", "0.5", "--lam", "1.1",
                  "--kdot0", "0.2", "--t-end", "10", "--steps", "20"],
    "multiplier": ["multiplier", "--mu", "0.4", "--lam", "1.1", "--y0", "2", "--t-end", "10",
                   "--steps", "20"],
    "leontief_dynamic_o2": LEONTIEF_ARGS + ["--demand", "0.5,0.3,0.2"],
    "leontief_dynamic_o2_file": LEONTIEF_ARGS + [
        "--demand-file", str(GOLDEN / "leontief_demand.csv")],
}
# stepped by the exact flow, each column checked within 1e-13 of its sup
# against mpmath's expm before it was written, asserted byte for byte
LEONTIEF_O1_ARGS = ["leontief-dynamic", "--matrix", str(GOLDEN / "leontief_matrix.txt"),
                    "--order", "1", "--x0", "1,1,1", "--steps", "40"]
LEONTIEF_O1_GOLDEN = {
    "leontief_dynamic_o1": LEONTIEF_O1_ARGS + ["--demand", "0.5,0.3,0.2"],
    "leontief_dynamic_o1_file": LEONTIEF_O1_ARGS + [
        "--demand-file", str(GOLDEN / "leontief_demand.csv")],
}


def read_csv(text: str) -> tuple[str, np.ndarray]:
    header, _, body = text.partition("\n")
    return header, np.array([[float(v) for v in ln.split(",")] for ln in body.splitlines()])


class TestTrajectoryGolden:
    @pytest.mark.parametrize("name", ["harrod", "harrod_corrected", "harrod_domar", "bergstrom",
                                      "multiplier"])
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

    @pytest.mark.parametrize("name", sorted(LEONTIEF_O1_GOLDEN))
    def test_leontief_order_one_bytes(self, capsys, name):
        rc, out, _ = run(capsys, LEONTIEF_O1_GOLDEN[name])
        assert rc == 0
        assert out == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


class TestExactFlowEdges:
    """Regime edges of the models stepped by ``odelin.linear_flow``."""

    def test_critically_damped_bergstrom_answers(self, capsys):
        # damping 2, stiffness 1: K'' + 2 K' + K = 0, K = (1 + t) e^(-t)
        argv = ["bergstrom", "--mu", "0.5", "--nu", "0", "--gamma", "1", "--lam", "2",
                "--t-end", "10", "--steps", "20"]
        rc, out, err = run(capsys, argv)
        assert (rc, err) == (0, "")
        header, table = read_csv(out)
        assert header == "t,K,Kdot" and table.shape == (21, 3)
        t = table[:, 0]
        assert np.max(np.abs(table[:, 1] - (1.0 + t) * np.exp(-t))) <= 1e-13
        rc, out, _ = run(capsys, argv + ["--format", "json"])
        assert rc == 0
        assert json.loads(out)["data"]["report"]["roots"] == [{"re": -1.0, "im": 0.0}] * 2

    def test_critically_damped_phillips_has_no_period(self, capsys):
        # a1 = 1 + 0.5 * 4 - 1 = 2 and b1 = 0.25 * 4 = 1: the double root -1
        rc, out, err = run(capsys, ["phillips", "--kappa", "1", "--nu", "0.25", "--mu", "0.5",
                                    "--lam", "4", "--t-end", "10", "--steps", "20",
                                    "--format", "json"])
        assert (rc, err) == (0, "")
        report = json.loads(out)["data"]["report"]
        assert report["period_t_hat"] is None
        assert report["roots"] == [{"re": -1.0, "im": 0.0}] * 2

    def test_discriminant_beyond_the_float_range_answers(self, capsys):
        # a1 rounds to 1e200 and b1 = 1e40: a1^2/4 overflows, the roots -a1 and
        # -b1/a1 do not
        rc, out, err = run(capsys, ["phillips", "--kappa", "1e200", "--nu", "1e-160",
                                    "--mu", "0.4", "--lam", "1", "--t-end", "1", "--steps", "2",
                                    "--format", "json"])
        assert (rc, err) == (0, "")
        report = json.loads(out)["data"]["report"]
        assert report["roots"] == [{"re": -1e200, "im": 0.0}, {"re": -1e-160, "im": 0.0}]

    def test_subnormal_longwave_matches_mpmath(self, capsys):
        # x0 = 3e-320 grows through the subnormal range to about 1e-294
        rc, out, err = run(capsys, ["longwave", "--p", "0.11", "--r", "0.5", "--x0", "3e-320",
                                    "--y0", "0", "--t-end", "300", "--steps", "300"])
        assert (rc, err) == (0, "")
        header, table = read_csv(out)
        assert header == "t,x,y,z"
        M = lw_matrix(LongWaveParams(p=0.11, r=0.5))
        xy = flow(M, [3e-320, 0.0], table[:, 0], digits=30)
        exact = np.column_stack([xy, xy[:, 0] - xy[:, 1]])
        sup = np.max(np.abs(exact), axis=0)
        assert np.all(np.max(np.abs(table[:, 1:] - exact), axis=0) <= 1e-12 * sup)


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

    def test_model_choices_are_the_allen_table(self):
        choices = next(p.choices for p in cli.COMMANDS["scale-check"].params if p.name == "model")
        assert choices == tuple(m.replace("_", "-") for m in SCALE_CHECK_MODELS)


# JSON made with the commit before the columnar output path, asserted byte for
# byte; run from inside GOLDEN so that file flags (and their echo in "meta")
# are relative paths
JSON_GOLDEN = {
    "harrod_domar": TRAJECTORY_GOLDEN["harrod_domar"],
    # phillips and scale_check: remade by the exact flow of the companion
    # matrix, each column and the deviation within 1e-13 of mpmath's expm
    "phillips": ["phillips", "--kappa", "1.3", "--nu", "0.8", "--mu", "0.4", "--lam", "1.1",
                 "--ydot0", "0.5", "--t-end", "10", "--steps", "20"],
    # remade by the exact flow, within 6e-15 of mpmath's expm
    "longwave": ["longwave", "--p", "0.11", "--r", "0.11", "--t-end", "120", "--steps", "24"],
    # remade by the compensated recursion: K is the exact sum, rounded once
    "harrod_discrete": ["harrod-discrete", "--mu", "0.3", "--nu", "2.5", "--years", "12"],
    "fredholm_spectrum": ["fredholm-spectrum", "--kernel", "t-plus-eta", "--nodes", "7"],
    "fredholm_sweep": ["fredholm-sweep", "--k0", "zero", "--k1", "exp-diff", "--mu-min", "0",
                       "--mu-max", "1.5", "--mu-count", "7", "--nodes", "21"],
    "leontief_static": ["leontief-static", "--matrix", "leontief_matrix.txt",
                        "--demand", "0.5,0.3,0.2", "--method", "iterate"],
    "fredholm_solve_t_plus_eta": GOLDEN_ARGS,
    # libm's exp at the nodes, end to end: numpy's exp moves these bytes
    "fredholm_solve_exp_diff": ["fredholm-solve", "--kernel", "exp-diff", "--lam", "0.3",
                                "--nodes", "201"],
    "fredholm_spectrum_exp_diff": ["fredholm-spectrum", "--kernel", "exp-diff", "--nodes", "201"],
    "dim_check": ["dim-check", "--relation", "Y = C + K", "--dims", "Y:$/s,C:$/s,K:$"],
    "scale_check": ["scale-check", "--model", "phillips", "--t0-a", "1", "--t0-b", "2.5",
                    "--kappa", "1.3", "--nu", "0.8", "--mu", "0.4", "--lam", "1.1",
                    "--t-end", "4", "--steps", "40"],
    # the expm of the balance augmented by 1, at 40 digits, rounded once
    "leontief_volterra": ["leontief-volterra", "--matrix", "leontief_matrix.txt",
                          "--demand", "0.5,0.3,0.2", "--x0", "1,1,1", "--xdot0", "0,0.1,0",
                          "--steps", "10"],
    # sigma = 0: no pole, so blowup_time and forecast_horizon render as null
    "harrod_corrected_mu0": ["harrod-corrected", "--mu", "0", "--nu-star", "2.5",
                             "--t-end", "5", "--steps", "10"],
    # the reports of the model records, made before the CLI rendered the
    # records' fields: sigma > 0, so the pole and the horizon are numbers
    "harrod_corrected_pole": ["harrod-corrected", "--mu", "0.2", "--nu-star", "3",
                              "--t-end", "2", "--steps", "3"],
    "bergstrom_report": ["bergstrom", "--mu", "0.5", "--nu", "0.8", "--gamma", "1", "--lam", "2",
                         "--t-end", "3", "--steps", "5"],
    "fredholm_spectrum_degenerate": ["fredholm-spectrum", "--kernel", "degenerate", "--mu", "0.7",
                                     "--nodes", "11"],
    # the corrected model has no t0 parameter: invariant by construction
    "scale_check_trivial": ["scale-check", "--model", "corrected-harrod", "--t0-a", "1",
                            "--t0-b", "2.5", "--mu", "0.2", "--nu-star", "3", "--t-end", "2",
                            "--steps", "4"],
    # the multiplier and harrod-domar branches, made before the multiplier
    # formed its rate lam/t0 itself
    "scale_check_multiplier": ["scale-check", "--model", "multiplier", "--t0-a", "1", "--t0-b", "2",
                               "--mu", "0.4", "--lam", "1.1", "--t-end", "3", "--steps", "20"],
    "scale_check_harrod_domar": ["scale-check", "--model", "harrod-domar", "--t0-a", "1",
                                 "--t0-b", "2", "--mu", "0.4", "--nu", "2.5", "--t-end", "3",
                                 "--steps", "20"],
    # Id - (rho*rho + mu*sigma*rho)W is singular at every mu: the exceptional case
    "fredholm_sweep_exceptional": ["fredholm-sweep", "--k0", "rho-rho", "--k1", "sigma-rho",
                                   "--mu-min", "0", "--mu-max", "2", "--mu-count", "5",
                                   "--nodes", "21"],
}
# also checked as CSV: commands with int columns, and the Nystrom solve
CSV_GOLDEN = ("harrod_discrete", "fredholm_sweep", "fredholm_solve_t_plus_eta",
              "fredholm_solve_exp_diff")
# Goldens of the n x n Fredholm route and the reference of the Volterra
# balance, with the relative tolerance they now hold to: each float against
# the sup norm of its list (a column, an eigenfunction, a {re, im} pair),
# other values exactly.  The finite-rank route and the moment flow round
# differently; their own bytes are pinned by the goldens named here.
SUPERSEDED = {
    "fredholm_spectrum": (1e-13, "fredholm_spectrum_finite_rank"),
    "fredholm_sweep": (1e-13, "fredholm_sweep_finite_rank"),
    "fredholm_solve_t_plus_eta": (1e-13, "fredholm_solve_t_plus_eta_rank"),
    "leontief_volterra": (1e-12, "leontief_volterra_affine"),
}


def assert_close(got, want, rel, scale=None):
    """``got`` equals ``want`` with floats within rel * scale, where scale is
    the largest magnitude among the numbers of the enclosing list or dict."""
    if isinstance(want, (dict, list)):
        items = list(want.values()) if isinstance(want, dict) else want
        floats = [abs(v) for v in items if isinstance(v, float)]
        inner = max(floats) if floats else None
        if isinstance(want, dict):
            assert sorted(got) == sorted(want)
            for key in want:
                assert_close(got[key], want[key], rel, inner)
        else:
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_close(g, w, rel, inner)
    elif isinstance(want, float):
        assert isinstance(got, float)
        assert abs(got - want) <= rel * (abs(want) if scale is None else scale), (got, want)
    else:
        assert got == want


def csv_table(text: str) -> dict:
    header, _, body = text.partition("\n")
    rows = [[json.loads(v) for v in ln.split(",")] for ln in body.splitlines()]
    return {name: [row[j] for row in rows] for j, name in enumerate(header.split(","))}


class TestHarrodDiscreteImpulse:
    """The CSV impulse column is K's first difference, and the JSON impulses
    are its (year, K_i - K_(i-1)) pairs.  The golden holds years 0 to 12;
    past them the column is checked against the model's K."""

    @pytest.mark.parametrize("years", [0, 1, 50])
    def test_column_matches_the_impulse_pairs(self, capsys, years):
        argv = ["harrod-discrete", "--mu", "0.3", "--nu", "2.5", "--years", str(years)]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        lines = out.splitlines(keepends=True)
        golden = (GOLDEN / "harrod_discrete.csv").read_text(encoding="utf-8")
        golden_lines = golden.splitlines(keepends=True)
        assert len(lines) == years + 2
        shared = min(len(lines), len(golden_lines))
        assert lines[:shared] == golden_lines[:shared]
        path = harrod.discrete_path(harrod.HarrodParams(mu=0.3, nu_star=2.5), 2.5, years)
        expected = [repr(jump) for jump in [0.0, *np.diff(path.K).tolist()]]
        assert [ln.rstrip("\n").rpartition(",")[2] for ln in lines[1:]] == expected
        table = csv_table(out)
        rc, out, _ = run(capsys, argv + ["--format", "json"])
        assert rc == 0
        pairs = json.loads(out)["data"]["impulses"]
        assert pairs == [list(pair) for pair in zip(table["year"][1:], table["impulse"][1:])]


class TestOutputGolden:
    @pytest.mark.parametrize("name", sorted(JSON_GOLDEN))
    def test_json_bytes(self, capsys, monkeypatch, name):
        monkeypatch.chdir(GOLDEN)
        rc, out, _ = run(capsys, JSON_GOLDEN[name] + ["--format", "json"])
        assert rc == 0
        expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        if name in SUPERSEDED:
            rel, current = SUPERSEDED[name]
            assert_close(json.loads(out), json.loads(expected), rel)
            expected = (GOLDEN / f"{current}.json").read_text(encoding="utf-8")
        assert out == expected

    @pytest.mark.parametrize("name", CSV_GOLDEN)
    def test_csv_bytes(self, capsys, name):
        rc, out, _ = run(capsys, JSON_GOLDEN[name] + ["--format", "csv"])
        assert rc == 0
        expected = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
        if name in SUPERSEDED:
            rel, current = SUPERSEDED[name]
            assert out.partition("\n")[0] == expected.partition("\n")[0]
            assert_close(csv_table(out), csv_table(expected), rel)
            expected = (GOLDEN / f"{current}.csv").read_text(encoding="utf-8")
        assert out == expected

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

    def test_equals_spelling_reads_the_file(self, capsys, tmp_path):
        scenario = tmp_path / "run.scenario"
        scenario.write_text("command = harrod\nmu = 0.3\nnu = 2.5\nt_end = 2\nsteps = 4\n",
                            encoding="utf-8")
        assert run(capsys, [f"--scenario={scenario}"]) == run(capsys, ["--scenario", str(scenario)])
        assert run(capsys, [f"--scenario={scenario}"])[0] == 0

    @pytest.mark.parametrize("spelling", [["--scenario", "{}"], ["--scenario={}"],
                                          ["--scen", "{}"], ["--sc={}"]],
                             ids=lambda s: s[0].split("=")[0] + ("=" if "=" in s[0] else ""))
    def test_missing_file_is_never_ignored(self, capsys, tmp_path, spelling):
        missing = str(tmp_path / "nonexistent")
        argv = [part.format(missing) for part in spelling]
        rc, out, err = run(capsys, argv + ["harrod", "--mu", "0.3", "--nu", "2.5",
                                           "--t-end", "1", "--steps", "2"])
        assert (rc, out) == (2, "")
        if spelling[0].startswith("--scenario"):
            assert err == (f"error: cannot read scenario {missing!r}: [Errno 2] No such file "
                           f"or directory: {missing!r} (key: scenario)\n")
        else:
            assert "error:" in err  # an abbreviation is an unknown option

    def test_missing_command_is_two_with_key(self, capsys, tmp_path):
        scenario = tmp_path / "run.scenario"
        scenario.write_text("mu = 0.3\nnu = 2.5\n", encoding="utf-8")
        rc, out, err = run(capsys, ["--scenario", str(scenario)])
        assert (rc, out) == (2, "")
        assert err.rstrip().endswith("(key: command)")


# negative values that argparse alone takes for options: in exponent, inf
# and vector form
SIGNED_ARGV = [
    ["longwave", "--p", "0.3", "--r", "0.3", "--y0", "-1e-3", "--t-end", "1", "--steps", "2"],
    ["fredholm-sweep", "--k0", "exp-diff", "--k1", "t-plus-eta", "--mu-min", "-1e-1",
     "--mu-max", "1", "--mu-count", "3"],
    ["leontief-dynamic", "--matrix", str(GOLDEN / "leontief_matrix.txt"), "--demand", "1,1,1",
     "--x0", "-1,2,0.5", "--steps", "2"],
]


def joined(argv):
    """``argv`` with each flag and its value as one --flag=value token."""
    out = [argv[0]]
    for flag, value in zip(argv[1::2], argv[2::2]):
        out.append(f"{flag}={value}")
    return out


class TestSignedValues:
    @pytest.mark.parametrize("argv", SIGNED_ARGV, ids=lambda argv: argv[0])
    def test_command_line_reads_the_value(self, capsys, argv):
        rc, out, err = run(capsys, argv)
        assert (rc, err) == (0, "")
        assert (rc, out, err) == run(capsys, joined(argv))

    @pytest.mark.parametrize("argv", SIGNED_ARGV, ids=lambda argv: argv[0])
    def test_scenario_file_reads_the_value(self, capsys, tmp_path, argv):
        scenario = tmp_path / "signed.scenario"
        lines = [f"command = {argv[0]}"]
        lines += [f"{flag[2:]} = {value}" for flag, value in zip(argv[1::2], argv[2::2])]
        scenario.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.load_scenario(str(scenario)) == joined(argv)
        rc, out, err = run(capsys, ["--scenario", str(scenario)])
        assert (rc, err) == (0, "")
        assert (rc, out, err) == run(capsys, argv)

    def test_negative_infinity_is_read_and_rejected_by_its_key(self, capsys):
        rc, out, err = run(capsys, ["fredholm-solve", "--kernel", "exp-diff", "--lam", "-inf",
                                    "--nodes", "5"])
        assert (rc, out) == (2, "")
        assert err == "error: lambda must be finite, got -inf (key: lam)\n"

    def test_a_flag_is_not_taken_for_a_value(self, capsys):
        rc, out, err = run(capsys, ["fredholm-solve", "--kernel", "exp-diff", "--lam",
                                    "--nodes", "5"])
        assert (rc, out) == (2, "")
        assert err.endswith("error: argument --lam: expected one argument\n")


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


# Run in a fresh interpreter in which scipy cannot be imported: the runtime
# needs numpy alone.
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from ecodyn import cli
sys.argv[0] = "ecodyn"
sys.exit(cli.run(sys.argv[1:]))
"""


def test_direct_solve_runs_without_scipy(tmp_path):
    # the golden was written by the scipy LU route of the commit before
    argv = ["leontief-static", "--matrix", "leontief_matrix.txt", "--demand", "0.5,0.3,0.2",
            "--method", "direct"]
    proc = subprocess_run(["-c", NO_SCIPY_SCRIPT, *argv], text=True, cwd=GOLDEN)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "leontief_static_direct.json").read_text(encoding="utf-8")
    singular = tmp_path / "half.txt"
    singular.write_text("2\n0.5,0.5\n0.5,0.5\n", encoding="utf-8")
    argv = ["leontief-static", "--matrix", str(singular), "--demand", "1,2"]
    proc = subprocess_run(["-c", NO_SCIPY_SCRIPT, *argv], text=True)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: E - A is numerically singular (pivot 0.000e+00 below 1.000e-12)\n"


# flags of the commands that run on a TimeGrid, without --t-end
GRID_COMMANDS = {
    "harrod": ["--mu", "0.3", "--nu", "2.5"],
    "harrod-corrected": ["--mu", "0.3", "--nu-star", "2.5"],
    "harrod-domar": ["--mu", "0.3", "--nu", "2.5", "--t0", "2"],
    "phillips": ["--kappa", "1.3", "--nu", "0.8", "--mu", "0.4", "--lam", "1.1"],
    "bergstrom": ["--mu", "0.4", "--nu", "0.8", "--gamma", "0.5", "--lam", "1.1"],
    "multiplier": ["--mu", "0.4", "--lam", "1.1"],
    "longwave": ["--p", "0.11", "--r", "0.11"],
    "scale-check": ["--model", "multiplier", "--t0-a", "1", "--t0-b", "2", "--mu", "0.4",
                    "--lam", "1.1"],
}


class TestNonFiniteGrid:
    @pytest.mark.parametrize("t_end", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
    def test_is_two_with_key(self, capsys, command, t_end):
        rc, out, err = run(capsys, [command, *GRID_COMMANDS[command], f"--t-end={t_end}",
                                    "--steps", "10"])
        assert (rc, out) == (2, "")
        assert err == (f"error: grid ends and step must be finite, got t_start=0.0, "
                       f"t_end={float(t_end)!r}, step={float(t_end)!r} (key: t-end)\n")

    def test_blow_up_message_prints_plain_floats(self, capsys):
        rc, out, err = run(capsys, ["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "1e308"])
        assert (rc, out) == (3, "")
        assert err.endswith("error: integration blew up between t=0.0 and t=1e+305\n")


# every case the per-command parser must answer as the full parser does
PARSER_CASES = [
    ["--help"],
    *([name, "--help"] for name in cli.COMMANDS),
    ["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "1", "--bogus", "1"],
    ["harrod", "--nu", "2.5", "--t-end", "1"],
    ["fredholm-spectrum", "--kernel", "zero", "--format", "csv"],
    ["harrod", "--mu", "abc", "--nu", "2.5", "--t-end", "1"],
    ["no-such-command", "--mu", "1"],
    ["--mu=1", "harrod", "--nu", "2.5", "--t-end", "1"],
    ["--scen", "harrod", "multiplier", "--mu", "0.4", "--lam", "1.1", "--t-end", "1"],
    ["--", "multiplier", "--mu", "0.4", "--lam", "1.1", "--t-end", "1"],
    [],
    GOLDEN_ARGS,
    *JSON_GOLDEN.values(),
]


def parse(capsys, parser, argv):
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_per_command_parser_answers_as_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "100")
    assert parse(capsys, cli.build_parser(argv), argv) == parse(capsys, cli.build_parser(), argv)


def test_per_command_parser_adds_only_its_own_flags():
    parser = cli.build_parser(["multiplier", "--mu", "1"])
    flags = {name: {opt for action in sub._actions for opt in action.option_strings}
             for name, sub in parser._subparsers._group_actions[0].choices.items()}
    assert flags.pop("multiplier") == {"-h", "--help", "--mu", "--lam", "--y0", "--t-end",
                                       "--steps", "--out", "--format"}
    assert all(opts == set() for opts in flags.values())


def subprocess_run(args, **kwargs):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(cli.ENV_DEFAULT_STEPS, None)
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, as a user's interpreter has
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60,
                          **kwargs)


# what the installed `ecodyn` console script runs: ecodyn.cli imported as a
# module, not as __main__
CONSOLE_SCRIPT = "import sys; from ecodyn.cli import entry; sys.argv[0] = 'ecodyn'; sys.exit(entry())"


@pytest.mark.parametrize("argv", [
    ["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "2", "--steps", "4"],
    ["harrod", "--nu", "2.5", "--t-end", "2"],
    ["fredholm-solve", "--kernel", "exp-diff", "--lam", "1", "--nodes", "21"],
    ["--help"],
    pytest.param(["harrod", "--mu", "0.3", "--nu", "nan", "--t-end", "1"], id="exit-2"),
    pytest.param(["harrod-corrected", "--mu", "0.3", "--nu-star", "2.5", "--t-end", "10",
                  "--steps", "1000"], id="exit-3-pole"),
    pytest.param(["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "20", "--steps", "1000",
                  "--format", "json", "--out", "{out}"], id="out"),
], ids=lambda argv: argv[0])
def test_entry_gives_the_bytes_of_dash_m(capsys, monkeypatch, tmp_path, argv):
    # both give the bytes of an in-process run, so nothing is lost at exit
    monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of process
    monkeypatch.delenv(cli.ENV_DEFAULT_STEPS, raising=False)
    runs, files = [], []
    for prefix in (None, ["-c", CONSOLE_SCRIPT], ["-m", "ecodyn.cli"]):
        out = tmp_path / f"{len(runs)}.out"
        args = [arg.format(out=out) for arg in argv]
        if prefix is None:
            rc, stdout, stderr = run(capsys, args)
            runs.append((rc, stdout.encode(), stderr.encode()))
        else:
            proc = subprocess_run([*prefix, *args])
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        files.append(out.read_bytes() if out.exists() else None)
    assert runs[0] == runs[1] == runs[2] and files[0] == files[1] == files[2]
    assert runs[0][1] or runs[0][2] or files[0]
    assert (files[0] is not None) == ("--out" in argv)


def test_help_leaves_out_the_process_rules(capsys):
    rc, out, err = run(capsys, ["--help"])
    assert (rc, err) == (0, "")
    assert "Exit codes: 0 success" in out and "_exit" not in out and "Process rules" not in out


def test_profiled_run_exits_normally_and_writes_its_profile(tmp_path):
    # cProfile writes its data after the module returns, which os._exit would skip
    profile = tmp_path / "h.prof"
    proc = subprocess_run(["-m", "cProfile", "-o", str(profile), "-m", "ecodyn.cli", "harrod",
                           "--mu", "0.3", "--nu", "2.5", "--t-end", "2", "--steps", "4"])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"t,Y,C,S,I\n")
    assert profile.stat().st_size > 0


# runs ecodyn.cli as `python -m` does, counting the collections that start
# once numpy's import has begun, with os._exit patched to report them and the
# collector's state on the way out
DASH_M_REPORTING_GC = """\
import gc, os, runpy, sys
late = []
gc.callbacks.append(lambda phase, info: phase == "start" and "numpy" in sys.modules
                    and late.append(info))
exit_now = os._exit
def report(status):
    sys.stderr.write(f"collector enabled: {gc.isenabled()}, runs since numpy: {len(late)}\\n")
    sys.stderr.flush()
    exit_now(status)
os._exit = report
sys.argv[0] = "ecodyn"
runpy.run_module("ecodyn.cli", run_name="__main__", alter_sys=True)
"""
IN_PROCESS_RUN = """\
import gc
from ecodyn import cli
assert cli.run(["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "2", "--steps", "4"]) == 0
print("collector enabled:", gc.isenabled())
"""


def test_collector_is_off_in_a_command_line_run_only():
    argv = ["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "2", "--steps", "4"]
    module = subprocess_run(["-c", DASH_M_REPORTING_GC, *argv])
    assert (module.returncode, module.stderr) == (
        0, b"collector enabled: False, runs since numpy: 0\n")
    assert module.stdout == subprocess_run(["-m", "ecodyn.cli", *argv]).stdout
    in_process = subprocess_run(["-c", IN_PROCESS_RUN])
    assert in_process.returncode == 0, in_process.stderr
    assert in_process.stdout.endswith(b"collector enabled: True\n")


def test_entry_exits_one_in_silence_when_the_reader_closes_the_pipe():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["harrod", "--mu", "0.2", "--nu", "3", "--t-end", "10", "--steps", "100000"]
    # far more than a pipe buffer: the writer meets the closed pipe
    with subprocess.Popen([sys.executable, "-c", CONSOLE_SCRIPT, *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"t,Y,C,S,I\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1


# matrix and demand files of the failure tables, written once per test run
FAIL_MATRICES = {
    "identity": "2\n1,0\n0,1\n",  # E - A = 0
    "half": "2\n0.5,0.5\n0.5,0.5\n",  # row sums 1: singular
    "wide": "2\n0.9,0.5\n0.5,0.9\n",  # row sums 1.4: no Metzler condition
    "huge": "2\n1e300,0\n0,1e300\n",  # overflows the propagators
    "thirty": "2\n30,0\n0,30\n",  # X grows as e^6.68t
    "a22": "2\n0.2,0.3\n0.1,0.4\n",
    "zigzag_demand": "0,0\n1,1\n0,0\n1,1\n0,0\n",  # aliases on 4 steps
    "nan": "2\nnan,0\n0,1\n",
    "nan_demand": "1,1,1\nnan,1,1\n1,1,1\n",  # a demand table on 2 steps
    "negative_demand": "1,1,1\n-1,1,1\n1,1,1\n",  # negative at the node t = 0.5
    "deep_negative_demand": "1,1,1\n-3,1,1\n1,1,1\n",  # and at the midpoint 0.25 too
    # np.interp's slope overflows, but the interpolant is finite up to the node 0.5
    "overflow_negative_demand": "1.7e308,1,1\n-1e307,1,1\n1.7e308,1,1\n",
    "negative_singular": "2\n1,-1\n0,0\n",  # E - A = [[0, 1], [0, 1]]
    "zero_dim": "0\n",
    "negative_dim": "-2\n",
    "extra_row": "2\n0.1,0\n0,0.1\n0.5,0.5\n",  # a third row under n = 2
    "word_demand": "1,1,1\nabc,1,1\n1,1,1\n",
    "ragged_demand": "1,1,1\n1,1\n1,1,1\n",
    "empty_demand": "",
}
M3 = str(GOLDEN / "leontief_matrix.txt")
HUGE = "1" + "0" * 400  # an int flag beyond the float range
# (exit code, argv): every command's rejected inputs (2) and numerical failures (3)
FAILURES = [
    (2, ["harrod", "--mu", "1.5", "--nu", "2.5", "--t-end", "1"]),
    (3, ["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "1e308"]),
    (3, ["harrod", "--mu", "0.3", "--nu", "1e-300", "--t-end", "10"]),
    (2, ["harrod-corrected", "--mu", "0.3", "--nu-star", "-2.5", "--t-end", "1"]),
    (3, ["harrod-corrected", "--mu", "0.3", "--nu-star", "2.5", "--t-end", "10"]),
    (3, ["harrod-corrected", "--mu", "0.3", "--nu-star", "2.5", "--t-end", "8.3333",
         "--steps", "3"]),
    (2, ["harrod-discrete", "--mu", "0.9", "--nu", "0.01", "--years", "3"]),
    # Y_tilde = K/nu overflows in year 0 and K from year 1
    (3, ["harrod-discrete", "--mu", "0.39", "--nu", "0.4", "--k0", "1e308", "--years", "5"]),
    (2, ["harrod-domar", "--mu", "0.3", "--nu", "2.5", "--t0", "0", "--t-end", "1"]),
    (3, ["harrod-domar", "--mu", "0.3", "--nu", "2.5", "--t0", "1", "--t-end", "1e308"]),
    (2, ["phillips", "--kappa", "1", "--nu", "1", "--mu", "1", "--lam", "1", "--t-end", "1"]),
    (3, ["phillips", "--kappa", "1.3", "--nu", "3", "--mu", "0.4", "--lam", "1.1",
         "--t-end", "1e308"]),
    (2, ["bergstrom", "--mu", "0.4", "--nu", "0.8", "--gamma", "-1", "--lam", "1.1",
         "--t-end", "1"]),
    (3, ["bergstrom", "--mu", "0.4", "--nu", "3", "--gamma", "0.5", "--lam", "1.1",
         "--t-end", "1e308"]),
    (2, ["multiplier", "--mu", "0.4", "--lam", "-1", "--t-end", "1"]),
    (2, ["longwave", "--p", "-0.11", "--r", "0.11", "--t-end", "1"]),
    # trace r - p > 0: a growing cycle, which leaves the float range
    (3, ["longwave", "--p", "0.11", "--r", "0.2", "--t-end", "1e308"]),
    (2, ["leontief-static", "--matrix", M3, "--demand", "1,2"]),
    (2, ["leontief-static", "--matrix", M3, "--demand", "nan,1,1"]),
    (2, ["leontief-static", "--matrix", "{wide}", "--demand", "1,1", "--method", "iterate"]),
    (3, ["leontief-static", "--matrix", "{identity}", "--demand", "1,1"]),
    (3, ["leontief-static", "--matrix", "{half}", "--demand", "1,1"]),
    (3, ["leontief-static", "--matrix", M3, "--demand", "1,1,1", "--method", "iterate",
         "--max-iter", "2"]),
    (2, ["leontief-dynamic", "--matrix", M3, "--demand", "1,1,1", "--x0", "1,1",
         "--steps", "4"]),
    (3, ["leontief-dynamic", "--matrix", "{huge}", "--demand", "1,1", "--x0", "1,1",
         "--steps", "2", "--order", "2", "--xdot0", "0,0"]),
    (2, ["leontief-volterra", "--matrix", M3, "--demand", "1,1,1", "--x0", "1,1,1",
         "--xdot0", "0,0,0", "--steps", "3"]),
    (3, ["leontief-volterra", "--matrix", "{huge}", "--demand", "1,1", "--x0", "1,1",
         "--xdot0", "1,0", "--steps", "4"]),
    (2, EVEN_NODES_ARGS),
    (3, CHAR_NUMBER_ARGS),
    (2, ["fredholm-spectrum", "--kernel", "t-plus-eta", "--nodes", "4"]),
    (2, ["fredholm-sweep", "--k0", "zero", "--k1", "exp-diff", "--mu-min", "0",
         "--mu-max", "1", "--mu-count", "0"]),
    (2, ["dim-check", "--relation", "K = = Y", "--dims", "K:$,Y:$/s"]),
    (2, ["scale-check", "--model", "multiplier", "--t0-a", "1", "--t0-b", "2", "--mu", "0.4",
         "--t-end", "1"]),
    (3, ["scale-check", "--model", "corrected-harrod", "--t0-a", "1", "--t0-b", "2",
         "--mu", "0.4", "--nu-star", "2.5", "--t-end", "10"]),
    (3, ["scale-check", "--model", "phillips", "--t0-a", "1", "--t0-b", "2", "--kappa", "1.3",
         "--nu", "3", "--mu", "0.4", "--lam", "1.1", "--t-end", "1e308"]),
    # rho**2 underflows to 0
    (2, ["scale-check", "--model", "phillips", "--t0-a", "1e-200", "--t0-b", "2", "--kappa",
         "1.3", "--nu", "0.8", "--mu", "0.4", "--lam", "1.1", "--t-end", "1", "--steps", "4"]),
    (3, ["scale-check", "--model", "harrod-domar", "--t0-a", "1e-300", "--t0-b", "2",
         "--mu", "0.4", "--nu", "2.5", "--t-end", "1e5"]),
    # the 4-step grid jumps over the pole at t = 2.5
    (3, ["scale-check", "--model", "corrected-harrod", "--t0-a", "1", "--t0-b", "2",
         "--mu", "0.4", "--nu-star", "1", "--t-end", "3", "--steps", "4"]),
    # z = exp(1000 t) overflows
    (3, ["fredholm-solve", "--kernel", "ode-reduced", "--ode-coeffs", "1,-1000",
         "--ode-init", "1", "--steps", "1000"]),
    # a demand zigzag on 4 steps drifts from its rerun on 2 by 33%
    (3, ["leontief-volterra", "--matrix", "{a22}", "--demand-file", "{zigzag_demand}",
         "--x0", "0,0", "--xdot0", "0,0", "--steps", "4"]),
    # counts up to sys.maxsize whose nodes no array can hold: out of memory
    (3, ["harrod", "--mu", "0.2", "--nu", "3", "--t-end", "10", "--steps", str(2**62)]),
    (3, ["harrod", "--mu", "0.2", "--nu", "3", "--t-end", "10", "--steps", str(sys.maxsize)]),
    *((3, argv + [str(count)]) for count in (2**62, sys.maxsize) for argv in (
        ["harrod-discrete", "--mu", "0.3", "--nu", "0.5", "--years"],
        ["fredholm-sweep", "--k0", "exp-diff", "--k1", "t-plus-eta", "--mu-min", "-1",
         "--mu-max", "1", "--mu-count"])),
    # Simpson's count is odd
    *((3, ["fredholm-solve", "--kernel", "exp-diff", "--lam", "0.3", "--nodes", str(count)])
      for count in (2**62 - 1, sys.maxsize)),
    # negative and singular: A is checked before E - A is factored
    (2, ["leontief-static", "--matrix", "{negative_singular}", "--demand", "1,1"]),
    # |lambda| >= 1e8 puts 1/lambda within 1e-8 of KW's eigenvalue 0: refused
    # naming inf
    (3, ["fredholm-solve", "--kernel", "degenerate", "--lam", "1e200", "--nodes", "5",
         "--mu", "1e200"]),
    # a finite rate whose step rate*h overflows: the substep count is capped, Y blows up
    (3, ["harrod", "--mu", "0.3", "--nu", "1e-200", "--t-end", "1e200", "--steps", "2"]),
    (3, ["harrod-domar", "--mu", "0.3", "--nu", "2.5", "--t0", "1e-200", "--t-end", "1e200",
         "--steps", "2"]),
    # the closed form overflows while the capped-substep RK4 stays finite
    (3, ["harrod", "--mu", "0.9", "--nu", "0.001", "--t-end", "1", "--steps", "1"]),
    (3, ["harrod-domar", "--mu", "0.9", "--nu", "0.001", "--t0", "1", "--t-end", "1",
         "--steps", "1"]),
    (3, ["harrod-corrected", "--mu", "0.5", "--nu-star", "1", "--y0", "1e300",
         "--t-end", "1.9999", "--steps", "4"]),
]
# (coefficient, argv): finite flags whose derived coefficient is not finite
DERIVED_OVERFLOWS = [
    ("rate", ["harrod", "--mu", "0.3", "--nu", "1e-320", "--t-end", "1", "--steps", "2"]),
    ("rate", ["harrod-domar", "--mu", "0.3", "--nu", "1e-300", "--t0", "1e-10", "--t-end", "1",
              "--steps", "2"]),
    # nu*t0 underflows to 0
    ("rate", ["harrod-domar", "--mu", "0.3", "--nu", "1e-300", "--t0", "1e-300", "--t-end", "1",
              "--steps", "2"]),
    ("rate", ["scale-check", "--model", "harrod-domar", "--t0-a", "1e-300", "--t0-b", "1",
              "--mu", "0.3", "--nu", "1e-10", "--t-end", "1", "--steps", "2"]),
    # the multiplier's rate lam/t0, which it forms itself: lam = 1 was refused as inf
    ("rate", ["scale-check", "--model", "multiplier", "--mu", "0.5", "--lam", "1",
              "--t0-a", "1e-320", "--t0-b", "1", "--t-end", "1", "--steps", "2"]),
    ("damping", ["bergstrom", "--mu", "0.4", "--nu", "0.8", "--gamma", "1e200", "--lam", "1e200",
                 "--t-end", "1"]),
    ("lw_matrix", ["longwave", "--p", "1e200", "--r", "1e200", "--q", "1e200", "--t-end", "1"]),
    ("a1", ["phillips", "--kappa", "1e200", "--nu", "0.8", "--mu", "0.4", "--lam", "1e200",
            "--t-end", "1"]),
    ("normalized_coeffs", ["fredholm-solve", "--kernel", "ode-reduced", "--ode-coeffs",
                           "1e-300,1e300,1", "--ode-init", "1,0", "--steps", "4"]),
    # mu-max - mu-min overflows in the grid: it ended in a traceback (exit 1)
    ("mu_grid", ["fredholm-sweep", "--k0", "exp-diff", "--k1", "t-plus-eta", "--mu-min",
                 "-1e308", "--mu-max", "1e308", "--mu-count", "3"]),
    # a finite grid whose I - (P0 + mu P1) overflows ahead of the SVD
    ("compressed_matrix", ["fredholm-sweep", "--k0", "exp-diff", "--k1", "t-plus-eta",
                           "--mu-min", "1e308", "--mu-max", "1.7e308", "--mu-count", "2",
                           "--nodes", "21"]),
]
FAILURES += [(3, argv) for _, argv in DERIVED_OVERFLOWS]
# (key, argv): rejected inputs whose error line must name this key
KEYED_FAILURES = [
    ("nu", ["harrod", "--mu", "0.3", "--nu", "0", "--t-end", "1"]),
    ("nu", ["harrod-discrete", "--mu", "0.3", "--nu", "0", "--years", "3"]),
    ("lam", ["fredholm-solve", "--kernel", "exp-diff", "--lam", "nan", "--nodes", "5"]),
    ("lam", ["fredholm-solve", "--kernel", "exp-diff", "--lam", "inf", "--nodes", "5"]),
    ("lam", ["fredholm-solve", "--kernel", "exp-diff", "--lam=-inf", "--nodes", "5"]),
    ("y0", ["scale-check", "--model", "harrod-domar", "--t0-a", "1", "--t0-b", "2",
            "--mu", "0.4", "--nu", "2.5", "--y0", "0", "--t-end", "1"]),
    ("y0", ["scale-check", "--model", "multiplier", "--t0-a", "1", "--t0-b", "2",
            "--mu", "0.4", "--lam", "1.1", "--y0", "-1", "--t-end", "1"]),
    ("y0", ["harrod-domar", "--mu", "0.3", "--nu", "2.5", "--t0", "1", "--y0", "0",
            "--t-end", "1"]),
    # the reduced coefficient b = b1/rho**2 at an underflowing rho**2
    ("t0", ["phillips", "--kappa", "1.3", "--nu", "0.8", "--mu", "0.4", "--lam", "1.1",
            "--t0", "1e-200", "--t-end", "1", "--steps", "2"]),
    # a negative threshold would keep the zero eigenvalues, whose 1/mu is not finite
    ("discard-threshold", ["fredholm-spectrum", "--kernel", "degenerate", "--nodes", "5",
                           "--discard-threshold=-1"]),
    # deeper than the parser's and the audit's recursion reach
    ("relation", ["dim-check", "--relation", "(" * 400 + "Y" + ")" * 400 + " = Y",
                  "--dims", "Y:$/s"]),
    ("relation", ["dim-check", "--relation", " + ".join(["Y"] * 2000) + " = Y",
                  "--dims", "Y:$/s"]),
    # an empty dimension, which is not read as dimensionless
    ("dims", ["dim-check", "--relation", "K = nu*Y", "--dims", "K:$,nu:,Y:$/s"]),
    # and one with an empty factor, which is not read without it
    ("dims", ["dim-check", "--relation", "Y = Y", "--dims", "Y:$**s"]),
    # and one whose divisor is a product, which / does not take
    ("dims", ["dim-check", "--relation", "Y = Y", "--dims", "Y:$/s*s"]),
    # and a name given twice, which is not read as its last entry
    ("dims", ["dim-check", "--relation", "K = nu*Y", "--dims", "K:$,nu:s,Y:$/s,K:s"]),
    # and an empty name, which is not dropped
    ("dims", ["dim-check", "--relation", "Y = Y", "--dims", ":$,Y:$/s"]),
    # a vector flag or file that is not finite, rejected where it is parsed
    ("x0", ["leontief-dynamic", "--matrix", M3, "--demand", "1,1,1", "--x0", "nan,1,1",
            "--steps", "4"]),
    ("xdot0", ["leontief-volterra", "--matrix", M3, "--demand", "1,1,1", "--x0", "1,1,1",
               "--xdot0", "inf,0,0", "--steps", "4"]),
    ("matrix", ["leontief-dynamic", "--matrix", "{nan}", "--demand", "1,1", "--x0", "1,1",
                "--steps", "4"]),
    ("demand-file", ["leontief-dynamic", "--matrix", M3, "--demand-file", "{nan_demand}",
                     "--x0", "1,1,1", "--steps", "2"]),
    # a negative demand, refused by the model when it is sampled
    ("demand", ["leontief-dynamic", "--matrix", "{a22}", "--demand", "1,-1", "--x0", "1,1",
                "--steps", "2"]),
    ("ode-init", ["fredholm-solve", "--kernel", "ode-reduced", "--ode-coeffs", "1,0,1",
                  "--ode-init", "nan,0"]),
    ("ode-coeffs", ["fredholm-solve", "--kernel", "ode-reduced", "--ode-coeffs", "1,nan,1",
                    "--ode-init", "1,0"]),
    # the ODE and its data
    ("ode-coeffs", ["fredholm-solve", "--kernel", "ode-reduced", "--ode-coeffs", "0,1",
                    "--ode-init", "1"]),
    ("ode-coeffs", ["fredholm-solve", "--kernel", "ode-reduced", "--ode-coeffs", "1",
                    "--ode-init", "1"]),
    ("ode-init", ["fredholm-solve", "--kernel", "ode-reduced", "--ode-coeffs", "1,0,1",
                  "--ode-init", "1"]),
    # counts below their range, each under its own flag
    ("max-iter", ["leontief-static", "--matrix", M3, "--demand", "1,1,1", "--method", "iterate",
                  "--max-iter", "0"]),
    ("max-iter", ["leontief-static", "--matrix", M3, "--demand", "1,1,1", "--method", "iterate",
                  "--max-iter", "-5"]),
    ("tol", ["leontief-static", "--matrix", M3, "--demand", "1,1,1", "--tol", "-1"]),
    ("years", ["harrod-discrete", "--mu", "0.3", "--nu", "0.5", "--years", "-1"]),
    ("steps", ["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "1", "--steps", "0"]),
    ("steps", ["fredholm-solve", "--kernel", "ode-reduced", "--ode-coeffs", "1,0,1",
               "--ode-init", "1,0", "--steps", "-1"]),
    # counts beyond sys.maxsize, which index no array, some beyond the float range too
    ("steps", ["harrod-domar", "--mu", "0.3", "--nu", "2.5", "--t0", "1", "--t-end", "1",
               "--steps", HUGE]),
    ("steps", ["phillips", "--kappa", "1.3", "--nu", "0.8", "--mu", "0.4", "--lam", "1.1",
               "--t-end", "1", "--steps", str(10**20)]),
    ("years", ["harrod-discrete", "--mu", "0.3", "--nu", "0.5", "--years", str(10**20)]),
    ("max-iter", ["leontief-static", "--matrix", M3, "--demand", "1,1,1", "--method", "iterate",
                  "--max-iter", HUGE]),
    ("mu-count", ["fredholm-sweep", "--k0", "exp-diff", "--k1", "t-plus-eta", "--mu-min", "-1",
                  "--mu-max", "1", "--mu-count", HUGE]),
    ("nodes", ["fredholm-solve", "--kernel", "exp-diff", "--lam", "0.3", "--nodes", HUGE + "1"]),
]
FAILURES += [(2, argv) for _, argv in KEYED_FAILURES]
# (key, file, argv): input files that do not hold what their flag asks for.
# A matrix file declares a dimension below 1 or rows beyond the n it
# declares; a demand file holds no number table, nothing at all, or a
# negative entry.
BAD_FILES = [
    *(("matrix", name, [command, "--matrix", f"{{{name}}}", "--demand", "1,1", *flags])
      for command, flags in (("leontief-static", []),
                             ("leontief-dynamic", ["--x0", "1,1", "--steps", "4"]))
      for name in ("zero_dim", "negative_dim", "extra_row")),
    *(("demand-file", name, ["leontief-dynamic", "--matrix", M3, "--x0", "1,1,1", "--steps",
                             "2", "--demand-file", f"{{{name}}}"])
      for name in ("word_demand", "ragged_demand", "empty_demand", "negative_demand")),
]
FAILURES += [(2, argv) for _, _, argv in BAD_FILES]


@pytest.fixture(scope="module")
def fail_matrices(tmp_path_factory):
    root = tmp_path_factory.mktemp("fail")
    for name, text in FAIL_MATRICES.items():
        (root / f"{name}.txt").write_text(text, encoding="utf-8")
    return {name: str(root / f"{name}.txt") for name in FAIL_MATRICES}


# matrix-file text: a dimension line, then rows of numbers near the shape it
# declares, or any text at all
MATRIX_NUMBERS = st.sampled_from(["0", "0.1", "0.5", "-1", "1e300", "nan", "inf", "x", ""])
MATRIX_TEXT = st.one_of(
    st.text(),
    st.builds(
        lambda n, rows: "\n".join([n, *(",".join(row) for row in rows)]) + "\n",
        st.sampled_from(["-2", "0", "1", "2", "3", "2.5", "#", ""]),
        st.lists(st.lists(MATRIX_NUMBERS, min_size=1, max_size=3), max_size=4),
    ),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=MATRIX_TEXT, demand=st.sampled_from(["1", "1,1", "1,1,1"]))
def test_any_matrix_file_gives_an_answer_or_one_error_line(capsys, tmp_path, text, demand):
    path = tmp_path / "matrix.txt"
    path.write_text(text, encoding="utf-8")
    rc, _, err = run(capsys, ["leontief-static", "--matrix", str(path), "--demand", demand])
    if rc == 0:
        assert err == ""
    else:
        assert rc in (2, 3) and err.startswith("error: ") and err.count("\n") == 1, (rc, err)


def test_every_command_has_its_failures():
    assert {argv[0] for _, argv in FAILURES} == set(cli.COMMANDS)


@pytest.mark.filterwarnings("error")  # a numpy warning fails the run
@pytest.mark.parametrize("code, argv", FAILURES, ids=lambda x: x[0] if isinstance(x, list) else x)
def test_failure_prints_one_error_line(capsys, fail_matrices, code, argv):
    rc, out, err = run(capsys, [arg.format(**fail_matrices) for arg in argv])
    assert (rc, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


# ODEs with simple characteristic roots, as coefficients (1, a_1, ..., a_n):
# one real root, two real roots, or a complex pair, real parts in [-40, 40]
REAL_ROOT = st.floats(-40.0, 40.0)
SIMPLE_ROOT_ODES = st.one_of(
    REAL_ROOT.map(lambda r: (1.0, -r)),
    st.tuples(REAL_ROOT, REAL_ROOT).filter(lambda p: abs(p[0] - p[1]) > 1e-2).map(
        lambda p: (1.0, -(p[0] + p[1]), p[0] * p[1])),
    st.tuples(REAL_ROOT, st.floats(1e-2, 1200.0)).map(
        lambda p: (1.0, -2.0 * p[0], p[0] ** 2 + p[1] ** 2)),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is read per run
@given(coeffs=SIMPLE_ROOT_ODES, data=st.data())
def test_ode_reduced_answers_within_ten_percent_or_exits_three(capsys, coeffs, data):
    # the Volterra route's contract: the drift guard refuses what it cannot
    # resolve, and what it accepts is within 10% of the closed form
    init = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(coeffs) - 1,
                              max_size=len(coeffs) - 1), label="init")
    rc, out, err = run(capsys, ["fredholm-solve", "--kernel", "ode-reduced",
                                "--ode-coeffs=" + ",".join(map(repr, coeffs)),
                                "--ode-init=" + ",".join(map(repr, init)), "--steps", "200"])
    if rc == 3:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert (rc, err) == (0, "")
    header, table = read_csv(out)
    assert header == "t,z,phi"
    exact = ode_flow(coeffs, init, TimeGrid(0.0, 1.0, 200).nodes)[:, 0]
    # relative to sup |z|, the drift check's own scale (a subnormal march is refused)
    assert np.max(np.abs(table[:, 1] - exact)) <= 0.1 * np.max(np.abs(exact))


@pytest.mark.parametrize("coeffs, init, bound", [
    # roots -30 +- 582i, 2.2 nodes a period; then 12.6 and 1.3 nodes a period
    ((1.0, 60.0, 339624.0), (1.0, 0.0), 1e-12),
    ((1.0, 0.0, 1e4), (1.0, 0.0), 1e-12),
    ((1.0, 0.0, 1e6), (1.0, 0.0), 1e-12),
    # z = e^-20t: rounding grows with the mode e^20t, 4.9e8 at t = 1
    ((1.0, 0.0, -400.0), (1.0, -20.0), 2.0 * math.exp(20.0) * 2.0**-52),
], ids=["damped-582", "omega-100", "omega-1000", "growing-mode"])
def test_ode_reduced_fast_and_growing_modes_answer_to_rounding(capsys, coeffs, init, bound):
    rc, out, err = run(capsys, ["fredholm-solve", "--kernel", "ode-reduced",
                                "--ode-coeffs=" + ",".join(map(repr, coeffs)),
                                "--ode-init=" + ",".join(map(repr, init)), "--steps", "200"])
    assert (rc, err) == (0, "")
    _, table = read_csv(out)
    exact = ode_flow(coeffs, init, TimeGrid(0.0, 1.0, 200).nodes, digits=40)[:, 0]
    assert np.max(np.abs(table[:, 1] - exact)) <= bound * np.max(np.abs(exact))


def test_stiff_balance_on_four_volterra_steps_answers(capsys, fail_matrices):
    # X'' + 2 X' - 58 X = 2 from X = 1, X' = 0 in each sector, growing
    # 5-fold a step: X = -1/29 + a e^(r1 t) + b e^(r2 t)
    rc, out, err = run(capsys, ["leontief-volterra", "--matrix", fail_matrices["thirty"],
                                "--demand", "1,1", "--x0", "1,1", "--xdot0", "0,0",
                                "--steps", "4"])
    assert (rc, err) == (0, "")
    _, table = read_csv(out)
    r1, r2 = -1.0 + math.sqrt(59.0), -1.0 - math.sqrt(59.0)
    a = -r2 * (1.0 + 1.0 / 29.0) / (r1 - r2)
    b = 1.0 + 1.0 / 29.0 - a
    t = table[:, 0]
    exact = -1.0 / 29.0 + a * np.exp(r1 * t) + b * np.exp(r2 * t)
    for col in table[:, 1:].T:
        assert np.max(np.abs(col - exact)) <= 1e-14 * np.max(np.abs(exact))


# numpy's refusal of the 2 x 100001 profile samples, as a machine without
# their 1.53 MiB would raise it
NUMPY_REFUSAL = ("Unable to allocate 1.53 MiB for an array with shape (2, 100001) "
                 "and data type float64")


@pytest.mark.parametrize("exc, line", [
    (MemoryError(NUMPY_REFUSAL), f"error: out of memory: {NUMPY_REFUSAL}\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_three_with_one_error_line(capsys, monkeypatch, tmp_path, exc, line):
    from ecodyn import fredholm

    def refuse(profiles, x):
        raise exc

    # the n x r samples of G and H, the one array of --nodes length a
    # separable solve allocates before its solve
    monkeypatch.setattr(fredholm, "_profile_samples", refuse)
    target = tmp_path / "out.csv"
    argv = ["fredholm-solve", "--kernel", "t-plus-eta", "--lam", "0.5", "--nodes", "100001",
            "--out", str(target)]
    assert run(capsys, argv) == (3, "", line)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, argv", [
    *KEYED_FAILURES,
    *(pytest.param(key, argv, id=f"{key}-{argv[0]}-{name}") for key, name, argv in BAD_FILES),
], ids=lambda x: x[0] if isinstance(x, list) else x)
def test_failure_names_its_key(capsys, fail_matrices, key, argv):
    rc, _, err = run(capsys, [arg.format(**fail_matrices) for arg in argv])
    assert rc == 2
    assert err.endswith(f" (key: {key})\n"), err


@pytest.mark.parametrize("name, argv", DERIVED_OVERFLOWS,
                         ids=lambda x: x[0] if isinstance(x, list) else x)
def test_derived_overflow_names_its_coefficient(capsys, name, argv):
    rc, _, err = run(capsys, argv)
    assert rc == 3
    assert err.startswith(f"error: derived coefficient {name} is not finite, got "), err


def test_multiplier_scale_check_answers_at_an_underflowing_rate(capsys):
    # lam/t0 underflows to 0: both paths are Y0, as harrod-domar's at
    # --nu 1e300 --t0-a 1e300; lam = 1e-300 was refused as not positive
    rc, out, err = run(capsys, ["scale-check", "--model", "multiplier", "--mu", "0.5",
                                "--lam", "1e-300", "--t0-a", "1e300", "--t0-b", "1",
                                "--t-end", "1", "--steps", "2"])
    assert (rc, err) == (0, "")
    data = json.loads(out)["data"]
    assert (data["max_rel_deviation"], data["verdict"]) == (0.0, "scale_invariant")


@pytest.mark.parametrize("message, argv", [
    ("integration blew up between t=0.0 and t=100.0",
     ["--model", "harrod-domar", "--t0-a", "1e-300", "--mu", "0.4", "--nu", "2.5",
      "--t-end", "1e5"]),
    ("integration blew up between t=0.0 and t=1e+305",
     ["--model", "phillips", "--t0-a", "1", "--kappa", "1.3", "--nu", "3", "--mu", "0.4",
      "--lam", "1.1", "--t-end", "1e308"]),
    ("closed form blew up between t=1.499925 and t=1.9999",
     ["--model", "corrected-harrod", "--t0-a", "1", "--mu", "0.5", "--nu-star", "1",
      "--y0", "1e300", "--t-end", "1.9999", "--steps", "4"]),
], ids=["harrod-domar", "phillips", "corrected-harrod"])
def test_scale_check_path_is_refused_by_its_model(capsys, message, argv):
    # the model's own line: scale-check re-checks no path ("income path blew up")
    rc, out, err = run(capsys, ["scale-check", "--t0-b", "2", *argv])
    assert (rc, out) == (3, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flag, argv", [
    ("q", ["fredholm-solve", "--kernel", "t-plus-eta", "--q", "cos"]),
    ("kernel", ["fredholm-solve", "--kernel", "zero"]),
    ("kernel", ["fredholm-spectrum", "--kernel", "ode-reduced"]),
    ("k0", ["fredholm-sweep", "--k0", "degenerate", "--k1", "zero", "--mu-min", "0",
            "--mu-max", "1"]),
])
@pytest.mark.parametrize("source", ["flags", "scenario"])
def test_name_outside_the_catalogue_is_an_invalid_choice(capsys, tmp_path, flag, argv, source):
    if source == "scenario":
        scenario = tmp_path / "run.scenario"
        pairs = zip(argv[1::2], argv[2::2])
        scenario.write_text(f"command = {argv[0]}\n"
                            + "".join(f"{k[2:].replace('-', '_')} = {v}\n" for k, v in pairs),
                            encoding="utf-8")
        argv = ["--scenario", str(scenario)]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert f"argument --{flag}: invalid choice: " in err


@pytest.mark.parametrize("mu", ["1e20", "1e300"])
def test_huge_mu_degenerate_prints_its_exact_solution(capsys, mu):
    # phi = 2 + mu (t - 1/2), whose integral is 2, from the 2 x 2 rank solve;
    # LU of the n x n system meets an exact zero pivot here
    rc, out, err = run(capsys, ["fredholm-solve", "--kernel", "degenerate", "--lam", "0.5",
                                "--nodes", "5", "--mu", mu])
    assert (rc, err) == (0, "")
    _, table = read_csv(out)
    assert np.array_equal(table[:, 1], 2.0 + float(mu) * (table[:, 0] - 0.5))


# rho(t)rho(eta) + mu sigma(t)rho(eta) has the characteristic number 1 at every
# mu.  The rounded Simpson nodes leave a discrete int sigma rho of about 1e-17,
# which mu carries into the spectrum: from mu = 1e9 the discrete number sits
# more than the guard's fixed 1e-8 from 1, and lambda = 1 is solved.
@pytest.mark.parametrize("mu", [
    "1e8",
    *(pytest.param(mu, marks=pytest.mark.xfail(
        strict=True, reason="the 1e-8 guard is below the rounding of the spectrum"))
      for mu in ("1e9", "1e10")),
])
def test_degenerate_kernel_at_its_characteristic_number_exits_three(capsys, mu):
    rc, out, err = run(capsys, ["fredholm-solve", "--kernel", "degenerate", "--lam", "1",
                                "--nodes", "201", "--mu", mu])
    assert (rc, out) == (3, "")
    assert err.startswith("error: lambda = 1.0 sits within 1e-08 of the characteristic number")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is read per run
@given(kernel=st.sampled_from(["t-plus-eta", "exp-diff", "degenerate"]),
       half=st.integers(25, 800), mu=st.floats(-2.0, 2.0), data=st.data())
def test_rejection_names_the_number_the_spectrum_prints(capsys, kernel, half, mu, data):
    flags = ["--kernel", kernel, "--nodes", str(2 * half + 1), "--mu", repr(mu)]
    rc, out, _ = run(capsys, ["fredholm-spectrum", *flags])
    assert rc == 0
    printed = [complex(z["re"], z["im"])
               for z in json.loads(out)["data"]["characteristic_numbers"]]
    nearest = data.draw(st.sampled_from(printed), label="printed")
    lam = nearest.real
    rc, out, err = run(capsys, ["fredholm-solve", *flags, "--lam", repr(lam)])
    assert (rc, out) == (3, "")
    assert err == (f"error: lambda = {lam!r} sits within 1e-08 of the characteristic number "
                   f"{nearest!r}\n")
    for factor in (1.0 - 1e-6, 1.0 + 1e-6):
        rc, _, err = run(capsys, ["fredholm-solve", *flags, "--lam", repr(lam * factor)])
        assert (rc, err) == (0, "")


# (message, argv): rules the model or the solver owns, reached through the CLI
OWNED_RULES = [
    ("order 2 needs Xdot0 (key: xdot0)",
     ["leontief-dynamic", "--matrix", M3, "--demand", "1,1,1", "--x0", "1,1,1", "--order", "2",
      "--steps", "4"]),
    ("constant demand must have 3 components (key: demand)",
     ["leontief-dynamic", "--matrix", M3, "--demand", "1,1", "--x0", "1,1,1", "--steps", "4"]),
    ("A[0,1] = -1.0 is negative (key: matrix)",
     ["leontief-static", "--matrix", "{negative_singular}", "--demand", "1,1"]),
]


@pytest.mark.parametrize("message, argv", OWNED_RULES, ids=["xdot0", "demand", "matrix"])
def test_owned_rule_message(capsys, fail_matrices, message, argv):
    rc, out, err = run(capsys, [arg.format(**fail_matrices) for arg in argv])
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("name, message", [
    ("negative_demand", "demand has a negative component at t_bar = 0.5"),
    ("deep_negative_demand", "demand has a negative component at t_bar = 0.25"),
    ("overflow_negative_demand", "demand has a negative component at t_bar = 0.5"),
], ids=["node", "midpoint", "overflow"])
@pytest.mark.parametrize("order", ["1", "2"])
def test_negative_demand_file_is_refused_as_the_model_refuses_it(capsys, fail_matrices,
                                                                 order, name, message):
    # the model refuses the file's samples at the first bad node or
    # midpoint, and the CLI reports its message under the file's key.  The
    # table's linear interpolant is np.interp's of the table over 16, times
    # 16: on the table near the float range np.interp's slope overflows
    table = np.loadtxt(fail_matrices[name], delimiter=",", ndmin=2)
    nodes = np.linspace(0.0, 1.0, 3)
    model = leontief.LeontiefModel(
        A=np.loadtxt(M3, delimiter=",", skiprows=1), X0=[1.0, 1.0, 1.0], Xdot0=[0.0, 0.0, 0.0],
        demand=lambda ts: np.column_stack([16.0 * np.interp(ts, nodes, col / 16.0)
                                           for col in table.T]),
        order=2)
    with pytest.raises(ValidationError) as exc_info:
        leontief.dynamic_solve(model, steps=2)
    argv = ["leontief-dynamic", "--order", order, "--matrix", M3, "--demand-file",
            fail_matrices[name], "--x0", "1,1,1", "--xdot0", "0,0,0", "--steps", "2"]
    assert str(exc_info.value) == message
    assert run(capsys, argv) == (2, "", f"error: {message} (key: demand-file)\n")


def test_demand_file_near_the_float_range_is_sampled_finite(capsys, tmp_path, fail_matrices):
    # rows alternate 2e307 and 0: np.interp's slope -2e308 overflows, while
    # the linear interpolant, 1e307 at the midpoint 0.05, does not
    path = tmp_path / "alternating.csv"
    path.write_text("".join("2e307,1\n" if i % 2 == 0 else "0,1\n" for i in range(11)))
    rc, out, err = run(capsys, ["leontief-dynamic", "--matrix", fail_matrices["a22"],
                                "--demand-file", str(path), "--x0", "1,1", "--steps", "10"])
    assert (rc, err) == (0, "")
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == 11 and all(math.isfinite(x) for row in rows for x in row)
    assert rows[-1][1] > 1e306  # x1 driven by a demand of order 1e307


def test_negative_demand_file_is_refused_after_the_steps(capsys, fail_matrices):
    # the file's samples are checked by the solve, after its step count
    argv = ["leontief-volterra", "--matrix", M3, "--demand-file", fail_matrices["negative_demand"],
            "--x0", "1,1,1", "--xdot0", "0,0,0", "--steps", "2"]
    assert run(capsys, argv) == (2, "", "error: need at least 4 steps (key: steps)\n")


def test_underflowing_multiplier_is_exact_zero_without_a_warning(capsys):
    # -lam*mu*t overflows to -inf at t = 1e10, and exp(-inf) is exactly 0
    rc, out, err = run(capsys, ["multiplier", "--mu", "0.4", "--lam", "1e308", "--t-end", "1e10",
                                "--steps", "2", "--format", "json"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["data"]["columns"]["Y"][1:] == [0.0, 0.0]


@pytest.mark.parametrize("argv", [
    ["multiplier", "--mu", "0.5", "--lam", "1e-3"],
    ["longwave", "--p", "0.11", "--r", "0.11"],
    ["bergstrom", "--mu", "0.4", "--nu", "0.8", "--gamma", "1", "--lam", "1"],
    ["scale-check", "--model", "multiplier", "--t0-a", "1", "--t0-b", "2", "--mu", "0.4",
     "--lam", "1.1"],
], ids=lambda argv: argv[0])
def test_grid_ending_at_the_largest_float_answers_without_a_warning(capsys, argv):
    # the grid's last node overflowed in linspace before it was set to t_end
    rc, out, err = run(capsys, argv + ["--t-end", repr(sys.float_info.max), "--steps", "3"])
    assert (rc, err) == (0, "")
    if argv[0] != "scale-check":
        assert out.splitlines()[-1].startswith(repr(sys.float_info.max) + ",")


def test_no_error_line_shows_a_numpy_repr(capsys, fail_matrices):
    for _, argv in FAILURES:
        _, _, err = run(capsys, [arg.format(**fail_matrices) for arg in argv])
        assert "np." not in err, err


# a run of each command that has a float flag; a flag given twice takes its
# last value, so each case appends --<flag>=<value> to its command's run
NAN_BASES = {
    **{command: [*flags, "--t-end", "1", "--steps", "2"]
       for command, flags in GRID_COMMANDS.items()},
    "harrod-discrete": ["--mu", "0.3", "--nu", "2.5", "--years", "3"],
    "leontief-static": ["--matrix", M3, "--demand", "0.5,0.3,0.2", "--method", "iterate"],
    "fredholm-solve": ["--kernel", "degenerate", "--lam", "0.5", "--nodes", "5"],
    "fredholm-spectrum": ["--kernel", "degenerate", "--nodes", "5"],
    "fredholm-sweep": ["--k0", "zero", "--k1", "exp-diff", "--mu-min", "0", "--mu-max", "1",
                       "--mu-count", "3", "--nodes", "5"],
    # phillips reads every scale-check flag but --nu-star
    "scale-check": ["--model", "phillips", "--t0-a", "1", "--t0-b", "2", "--kappa", "1.3",
                    "--nu", "0.8", "--mu", "0.4", "--lam", "1.1", "--t-end", "1",
                    "--steps", "4"],
}
# the flags their command's run above does not read
NAN_FLAG_BASES = {
    ("scale-check", "nu-star"): ["--model", "corrected-harrod", "--t0-a", "1", "--t0-b", "2",
                                 "--mu", "0.4", "--nu-star", "2.5", "--t-end", "1",
                                 "--steps", "4"],
}
NAN_CASES = [(name, param.name) for name, cmd in cli.COMMANDS.items()
             for param in cmd.params if param.kind == "float"]


# each case at nan (id <command>-<flag>), inf and -inf (ids <command>-<flag>=<value>)
NONFINITE_CASES = [
    pytest.param(command, flag, value,
                 id=f"{command}-{flag}" + ("" if value == "nan" else f"={value}"))
    for command, flag in NAN_CASES for value in ("nan", "inf", "-inf")
]


@pytest.mark.filterwarnings("error")  # a numpy warning fails the run
@pytest.mark.parametrize("command, flag, value", NONFINITE_CASES)
def test_nan_flag_is_two_with_its_key(capsys, command, flag, value):
    base = [command, *NAN_FLAG_BASES.get((command, flag), NAN_BASES[command])]
    assert run(capsys, base)[0] == 0
    rc, out, err = run(capsys, [*base, f"--{flag}={value}"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.count("error:") == 1, err
    assert err.endswith(f" (key: {flag})\n"), err
