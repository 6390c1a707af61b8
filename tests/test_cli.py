import json
import math
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
