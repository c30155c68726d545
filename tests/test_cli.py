import json

import numpy as np
import pytest

from blowup.cli import _csv, _float_csv, main
from blowup.model import Params, Profile, ForwardShot, integral_identity_residual
from blowup.shooting import shoot_backward, shoot_forward


def run(argv):
    return main(argv)


class TestProfileCommand:
    def test_forward_sigma0(self, tmp_path, capsys):
        # the sigma=0 interface amplitude must be given to full precision:
        # a truncated 4/3 lies strictly below it and oscillates forever
        out = tmp_path / "prof.csv"
        code = run(["profile", "--m", "2", "--sigma", "0",
                    "--a", repr(4.0 / 3.0), "--xi-max", "20",
                    "--out", str(out)])
        assert code == 0
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["schema"] == "v1"
        assert meta["outcome"]["kind"] == "interface"
        assert meta["outcome"]["xi0"] == pytest.approx(2.0 * np.pi, abs=1e-3)
        assert meta["interface"] == pytest.approx(2.0 * np.pi, abs=1e-3)

    def test_backward_slope_sign(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run(["profile", "--m", "2", "--sigma", "0.5", "--xi0", "2",
                    "--out", str(out)])
        assert code == 0
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["outcome"]["kind"] == "reached_origin"
        assert meta["slope_at_origin"] < 0.0

    def test_csv_roundtrip_residual(self, tmp_path):
        out = tmp_path / "p.csv"
        run(["profile", "--m", "2", "--sigma", "0.5", "--xi0", "3",
             "--out", str(out)])
        meta = json.loads(out.with_suffix(".json").read_text())
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "xi,f,fprime,g,dg"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        prof = Profile(params=Params(2.0, 0.5), xi=data[:, 0],
                       g=np.maximum(data[:, 3], 0.0), dg=data[:, 4],
                       provenance=ForwardShot(a=1.0))
        resid = integral_identity_residual(prof, float(prof.xi[-1]))
        assert resid == pytest.approx(meta["integral_identity_residual"],
                                      abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["profile", "--m", "2", "--sigma", "0.1", "--xi0", "5"]
        run(argv + ["--out", str(a)])
        run(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".json").read_bytes().replace(b"a.json", b"") == \
            b.with_suffix(".json").read_bytes().replace(b"b.json", b"")

    def test_csv_values_at_17_digits(self, tmp_path):
        # float rows and mixed rows write each float as format(v, ".17g")
        out = tmp_path / "t.csv"
        special = (-0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
                   np.float64(0.1), 1.0 / 3.0)
        _csv(out, list("abcdefg"), [special, (2.5, 3, "x;y", -0.0, 1e300,
                                              np.float64(-7.25), True)])
        rows = out.read_text().split("\n")
        assert rows[0] == "a,b,c,d,e,f,g"
        assert rows[1] == ",".join(format(float(v), ".17g") for v in special)
        assert rows[1].startswith("-0,inf,-inf,nan,4.9406564584124654e-324,")
        assert rows[2] == "2.5,3,x;y,-0,1.0000000000000001e+300,-7.25,True"
        assert rows[3:] == [""]

        # the float-table path: the same specials, one per column, in rows
        # taken forward and reversed
        table = np.array([special, special[::-1]])
        _float_csv(out, list("abcdefg"), table)
        rows = out.read_text().split("\n")
        assert rows[0] == "a,b,c,d,e,f,g"
        assert rows[1] == ",".join(format(float(v), ".17g") for v in special)
        assert rows[2] == ",".join(format(float(v), ".17g")
                                   for v in special[::-1])
        assert rows[1].startswith("-0,inf,-inf,nan,4.9406564584124654e-324,")
        assert rows[3:] == [""]

    @pytest.mark.parametrize("argv, shot", [
        (["--sigma", "0.1", "--xi0", "5.1"],
         lambda: shoot_backward(Params(2.0, 0.1), 5.1)),
        (["--sigma", "0.5", "--a", "3", "--xi-max", "50"],
         lambda: shoot_forward(Params(2.0, 0.5), 3.0, xi_max=50.0)),
    ])
    def test_profile_csv_cells(self, tmp_path, argv, shot):
        # every cell is format(v, ".17g") of the arrays of the same shot
        out = tmp_path / "p.csv"
        assert run(["profile", "--m", "2", *argv, "--out", str(out)]) == 0
        prof, _ = shot()
        columns = (prof.xi, prof.f, prof.fprime, prof.g, prof.dg)
        rows = out.read_text().split("\n")
        assert rows[0] == "xi,f,fprime,g,dg"
        assert rows[-1] == ""
        assert len(rows) == len(prof.xi) + 2
        want = [",".join(format(float(v), ".17g") for v in row)
                for row in zip(*columns)]
        assert rows[1:-1] == want

    def test_json_format(self, tmp_path):
        out = tmp_path / "p.json"
        code = run(["profile", "--m", "2", "--sigma", "0", "--a", "1.0",
                    "--xi-max", "5", "--format", "json", "--out", str(out)])
        assert code == 0
        meta = json.loads(out.read_text())
        assert meta["outcome"]["kind"] == "exhausted"
        assert len(meta["samples"]["xi"]) == len(meta["samples"]["g"])

    def test_exclusive_a_xi0(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["profile", "--m", "2", "--sigma", "0", "--a", "1",
                 "--xi0", "2"])
        assert err.value.code == 2


class TestBoundsCommand:
    def test_values(self, tmp_path):
        out = tmp_path / "b.json"
        code = run(["bounds", "--m", "2", "--sigma", "4", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["gap"] is True
        assert data["xi_plus"] == pytest.approx(1.45784675, abs=1e-6)
        assert data["xi_minus"] == pytest.approx(1.51308575, abs=1e-6)
        assert data["sigma_threshold"] == pytest.approx(3.57770876, abs=1e-6)

    def test_stdout(self, capsys):
        assert run(["bounds", "--m", "2", "--sigma", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["gap"] is False


class TestPointsCommand:
    def test_p3_eigenvalues(self, capsys):
        assert run(["points", "--m", "2", "--sigma", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        by_label = {p["label"]: p for p in data["points"]}
        assert len(data["points"]) == 9
        p3 = by_label["P3"]
        eigs = sorted(list(v) for v in p3["eigenvalues"])
        assert eigs == [[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]]
        assert by_label["Q4"]["at_infinity"] is True
        assert by_label["P2"]["eigenvectors"] is not None


class TestPhaseCommand:
    def test_orbit_csv(self, tmp_path):
        out = tmp_path / "orbit.csv"
        code = run(["phase", "--m", "2", "--sigma", "1",
                    "--start", "0.05,0.01,1.01", "--eta-max", "30",
                    "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "eta,X,Y,Z,cylinder_value"
        assert len(rows) > 10

    def test_bad_start(self, capsys):
        code = run(["phase", "--m", "2", "--sigma", "1", "--start", "oops"])
        assert code == 2
        assert "X,Y,Z" in capsys.readouterr().err


class TestScanCommand:
    def test_small_window(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(["scan", "--m", "2", "--sigma", "0", "--xi0-max", "7",
                    "--grid", "0.5", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "sigma,count,xi0_list,n_max_list"
        sigma, count, xi0s, nmaxs = rows[1].split(",")
        assert int(count) == 1
        assert float(xi0s) == pytest.approx(2.0 * np.pi, abs=1e-3)
        assert nmaxs == "1"


class TestVerifyCommand:
    def test_fast_checks_pass(self, capsys):
        code = run(["verify", "--check", "6", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] check  6" in out
        assert "[PASS] check  7" in out


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_invalid_params_exit_code(self):
        # m <= 1 is rejected by the library with a usage exit code
        assert run(["bounds", "--m", "1.0", "--sigma", "1"]) == 2

    def test_seed_underflow_is_numerical(self, tmp_path, capsys):
        # valid parameters at which the seed distance rounds to 0
        out = tmp_path / "b.csv"
        assert run(["profile", "--m", "2", "--sigma", "16", "--xi0", "100",
                    "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["scan", "--m", "2", "--sigma", "0.1", "--xi0-max", "16",
         "--abs-tol", "1e-3"],
        ["points", "--m", "2", "--sigma", "1", "--rel-tol", "1e-8"],
        ["points", "--m", "2", "--sigma", "1", "--format", "json"],
        ["bounds", "--m", "2", "--sigma", "4", "--abs-tol", "1e-3"],
        ["bounds", "--m", "2", "--sigma", "4", "--format", "csv"],
    ])
    def test_flags_that_change_nothing(self, argv, capsys):
        # backward shots set their own absolute tolerances, and points and
        # bounds integrate nothing and always write JSON
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_backward_profile_abs_tol(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run(["profile", "--m", "2", "--sigma", "0.1", "--xi0", "12",
                    "--abs-tol", "1e-3", "--out", str(out)]) == 2
        assert "--abs-tol" in capsys.readouterr().err
        assert not out.exists()


class TestSigmaZeroAmplitudeSensitivity:
    def test_truncated_amplitude_oscillates(self, tmp_path):
        # a = 1.3333333 < 4/3: by energy conservation the sigma=0 solution
        # bottoms out near g ~ 1.5e-5 and never vanishes
        out = tmp_path / "t.json"
        code = run(["profile", "--m", "2", "--sigma", "0", "--a", "1.3333333",
                    "--xi-max", "30", "--format", "json", "--out", str(out)])
        assert code == 0
        meta = json.loads(out.read_text())
        assert meta["outcome"]["kind"] == "exhausted"
        g = np.array(meta["samples"]["g"])
        assert g.min() > 0.0
