import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import cli
from blowup.cli import (_FLOAT, _csv, _float_csv, _g17_tables, _outcome_dict,
                        build_parser, main)
from blowup.integrate import _BLOCK_ROWS
from blowup.model import (Params, Profile, ForwardShot, explicit_profile_F0,
                          integral_identity_residual)
from blowup.shooting import shoot_backward, shoot_forward
from tracemem import peak_bytes


def run(argv):
    return main(argv)


class TestFloatCsvBlocks:
    """The float-table writer formats its rows block by block; its bytes are
    those of one % operation over the whole table."""

    @staticmethod
    def _table(n):
        # magnitudes from 1e-300 to 1e300, with -0.0, subnormals, +-inf and
        # nan on the first, last and block-edge rows
        rng = np.random.default_rng(n)
        table = (rng.standard_normal((n, 5))
                 * 10.0 ** rng.integers(-300, 300, (n, 5)))
        special = np.array([-0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan])
        for i in {0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS, n - 1}:
            if 0 <= i < n:
                table[i] = np.roll(special, i)[:5]
        return table

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                   _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
    def test_bytes_of_one_format_operation(self, tmp_path, n):
        table = self._table(n)
        row = ",".join(["%.17g"] * 5) + "\n"
        want = "a,b,c,d,e\n" + (row * n) % tuple(table.ravel().tolist())
        out = tmp_path / "t.csv"
        _float_csv(out, list("abcde"), table.T)
        assert out.read_bytes() == want.encode()

    def test_stdout_and_file_bytes(self, tmp_path, capsys):
        # the writer's one stream path: stdout without a file
        table = self._table(_BLOCK_ROWS + 1)
        out = tmp_path / "t.csv"
        _float_csv(out, list("abcde"), table.T)
        _float_csv(None, list("abcde"), table.T)
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_long_profile_memory(self, tmp_path):
        # the shot's own arrays and temporaries, not the boxed values and
        # text of the whole table: the peak is about 2 times the table's
        # 8-byte values here, 9.6 times with the text built whole
        out = tmp_path / "p.csv"
        argv = ["profile", "--m", "2", "--sigma", "0.1", "--xi0", "78.624",
                "--out", str(out)]
        peak = peak_bytes(lambda: run(argv))
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["outcome"]["kind"] == "reached_origin"
        assert meta["n_samples"] > 78_000
        assert peak <= 5 * meta["n_samples"] * 5 * 8


def _percent(table):
    # the text of one % operation over the table's values
    n, w = table.shape
    row = ",".join([_FLOAT] * w) + "\n"
    return (row * n) % tuple(table.ravel().tolist())


def _written(table):
    # the text _float_csv writes for the table's rows, header aside
    header = [f"c{j}" for j in range(table.shape[1])]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        _float_csv(None, header, list(table.T))
    head, _, body = text.getvalue().partition("\n")
    assert head == ",".join(header)
    return body


def _curated():
    # +-0, the exact decimal tie 2**-25, powers of ten and their neighbours
    # at every exponent (the notation boundaries 1e-5/1e-4 and 1e16/1e17
    # and the fast path's edges 1e-280/1e280 among them), integers in
    # [1e16, 1e17), 18-digit decimal midpoints and their neighbours
    rng = np.random.default_rng(23)
    vals = [0.0, 2.0 ** -25, 99999999999999984.0, 1e16 + 2.0]
    for k in range(-323, 309):
        p = float(f"1e{k}")
        vals += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    vals += rng.integers(10 ** 16, 10 ** 17, 2000).astype(float).tolist()
    for d, k in zip(rng.integers(10 ** 16, 10 ** 17, 2000),
                    rng.integers(-300, 300, 2000)):
        mid = float(f"{d}5e{k}")
        vals += [mid, np.nextafter(mid, 0.0), np.nextafter(mid, np.inf)]
    vals = np.array(vals + [-v for v in vals])
    return np.resize(vals, (len(vals) + 4) // 5 * 5).reshape(-1, 5)


class TestFloatCsvText:
    """The numpy %.17g of the float-table writer against _FLOAT % v, value
    by value: the same text for every float64."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.lists(
        st.one_of(st.integers(0, 2 ** 64 - 1).map(
            lambda b: float(np.array(b, np.uint64).view(np.float64))),
            st.floats(allow_nan=True, allow_infinity=True,
                      allow_subnormal=True)),
        min_size=1, max_size=80))
    def test_bit_patterns(self, width, values):
        rows = max(len(values) // width, 1)
        table = np.resize(np.array(values), rows * width).reshape(rows, width)
        assert _written(table) == _percent(table)

    def test_curated_values(self):
        table = _curated()
        assert _written(table) == _percent(table)

    def test_exact_tie_rounds_to_even(self):
        # 2**-25 = 2.98023223876953125e-08 has 18 digits ending in 5
        table = np.array([[2.0 ** -25, -2.0 ** -25, 0.0, -0.0]])
        assert _written(table) == \
            "2.9802322387695312e-08,-2.9802322387695312e-08,0,-0\n"

    @pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                      _BLOCK_ROWS + 1])
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_table_shapes(self, rows, width):
        bits = np.random.default_rng(rows).integers(
            0, 2 ** 64, rows * width, dtype=np.uint64)
        table = bits.view(np.float64).reshape(rows, width)
        assert _written(table) == _percent(table)

    def test_pow10_table(self):
        # hi + lo is 10^k to within 2^-104 of it, for every tabled k
        tables = _g17_tables()
        for i, (h, l) in enumerate(zip(tables.hi.tolist(),
                                       tables.lo.tolist())):
            k = i + cli._POW10_MIN
            exact = Fraction(10) ** k
            assert abs(Fraction(h) + Fraction(l) - exact) <= exact * 2 ** -104


class TestFloatCsvBlockPass:
    """_float_csv formats a block in one pass over all its columns, row by
    row, so the values of one pass fall in different layout classes: fixed
    and scientific notation, and the values written by _FLOAT % v."""

    @staticmethod
    def _table(n):
        rng = np.random.default_rng(n)
        return np.stack([
            # the dense-sample grid k dx of a forward shot from 0
            0.02 * np.arange(n),
            # scientific, from 1e-300 to 1e-6
            rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-300, -5, n),
            np.resize([np.nan, np.inf, -np.inf, 0.0, -0.0], n),
            # negative, fixed notation
            -rng.uniform(1e-3, 1e3, n),
            # 1e17 and up: scientific, past the 17 integer digits of 1e16
            rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(17, 300, n),
        ], axis=1)

    @pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS,
                                   _BLOCK_ROWS + 1])
    def test_mixed_classes(self, n):
        table = self._table(n)
        assert _written(table) == _percent(table)

    def test_exponent_next_to_a_power_of_ten(self):
        # the exponent is decided before the digits are rounded: 1e-280 is
        # 9.99999999999999960e-281, and its 17 digits at the exponent -280
        # round up to 10^16, the digits of 1e-280
        table = np.array([[1e23, 1e-280, 1e16, 1e-5]])
        assert _written(table) == ("9.9999999999999992e+22,"
                                   "9.9999999999999996e-281,"
                                   "10000000000000000,"
                                   "1.0000000000000001e-05\n")


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
        _float_csv(out, list("abcdefg"), table.T)
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

    def test_csv_out_ending_in_json(self, tmp_path):
        # the CSV keeps the name it was given; its sidecar becomes .meta.json
        out = tmp_path / "p.json"
        code = run(["profile", "--m", "2", "--sigma", "0.5", "--xi0", "2",
                    "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("xi,f,fprime,g,dg\n")
        meta = json.loads((tmp_path / "p.meta.json").read_text())
        assert meta["command"] == "profile"
        assert meta["n_samples"] == len(out.read_text().splitlines()) - 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "p.json", "p.meta.json"]

    def test_tolerance_flags(self, tmp_path):
        # --rel-tol and --abs-tol reach the shot: the sigma = 0 interface
        # moves with them (2 pi + 1.4e-8 at the defaults, + 7.9e-11 here)
        a = explicit_profile_F0(2.0, 0.0)
        out = tmp_path / "p.json"
        assert run(["profile", "--m", "2", "--sigma", "0", "--a", repr(a),
                    "--xi-max", "16", "--format", "json", "--rel-tol",
                    "1e-12", "--abs-tol", "1e-14", "--out", str(out)]) == 0
        _, outcome = shoot_forward(
            Params(2.0, 0.0), a, xi_max=16.0, rel_tol=1e-12, abs_tol=1e-14)
        _, default = shoot_forward(Params(2.0, 0.0), a, xi_max=16.0)
        got = json.loads(out.read_text())["outcome"]
        assert got == _outcome_dict(outcome)
        assert got != _outcome_dict(default)

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

    def test_json_format(self, tmp_path):
        # one JSON document holding the CSV's metadata and its rows
        argv = ["phase", "--m", "2", "--sigma", "1", "--start",
                "0.05,0.01,1.01", "--eta-max", "30"]
        csv, doc = tmp_path / "orbit.csv", tmp_path / "doc.json"
        assert run(argv + ["--out", str(csv)]) == 0
        assert run(argv + ["--format", "json", "--out", str(doc)]) == 0
        data = json.loads(doc.read_text())
        rows = [[float(v) for v in line.split(",")]
                for line in csv.read_text().splitlines()[1:]]
        assert data["samples"] == rows
        assert data["n_samples"] == len(rows)
        del data["samples"]
        assert data == json.loads(csv.with_suffix(".json").read_text())

    def test_stdout_and_out_bytes(self, tmp_path, capsys):
        # without --out, phase writes its JSON document to stdout, the same
        # bytes as to the file; its CSV needs --out
        argv = ["phase", "--m", "2", "--sigma", "1", "--start",
                "0.05,0.01,1.01", "--eta-max", "30", "--format", "json"]
        out = tmp_path / "doc.json"
        assert run(argv + ["--out", str(out)]) == 0
        assert run(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        assert run(argv[:-2]) == 2
        assert "--out is required" in capsys.readouterr().err

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

    def test_json_format(self, tmp_path):
        # the sidecar of the CSV run, as one document
        argv = ["scan", "--m", "2", "--sigma", "0", "--xi0-max", "7",
                "--grid", "0.5"]
        csv, doc = tmp_path / "scan.csv", tmp_path / "doc.json"
        assert run(argv + ["--out", str(csv)]) == 0
        assert run(argv + ["--format", "json", "--out", str(doc)]) == 0
        data = json.loads(doc.read_text())
        assert data == json.loads(csv.with_suffix(".json").read_text())
        [row] = data["rows"]
        assert row["count"] == 1 and row["n_max"] == [1]
        assert row["xi0"][0] == pytest.approx(2.0 * np.pi, abs=1e-3)
        assert row["error"] is None


class TestVerifyCommand:
    def test_fast_checks_pass(self, capsys):
        code = run(["verify", "--check", "6", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] check  6" in out
        assert "[PASS] check  7" in out


class TestParser:
    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        calls = []

        def counted():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(["bounds", "--m", "2", "--sigma", "4"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1
        outputs = capsys.readouterr().out.split("}\n")
        assert outputs[0] == outputs[1] == outputs[2]

    def test_build_parser_stays_public(self):
        args = build_parser().parse_args(["verify", "--check", "5"])
        assert args.check == [5] and args.seed == 0
        assert build_parser() is not build_parser()


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

    def test_series_overflow_is_numerical(self, tmp_path, capsys):
        # valid parameters at which the interface series overflows a float
        out = tmp_path / "b.csv"
        assert run(["profile", "--m", "2", "--sigma", "200", "--xi0", "100",
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

    @pytest.mark.parametrize("argv", [
        ["scan", "--m", "2", "--sigma", "0.1", "--xi0-max", "12",
         "--rel-tol", "nan"],
        ["profile", "--m", "2", "--sigma", "0", "--a", "1.3333333333",
         "--rel-tol", "nan"],
        ["profile", "--m", "2", "--sigma", "0.1", "--xi0", "12",
         "--rel-tol", "inf"],
        ["phase", "--m", "2", "--sigma", "1", "--start", "0.05,0.01,1.01",
         "--abs-tol", "nan"],
    ])
    def test_non_finite_tolerance(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert "finite and positive" in capsys.readouterr().err
        assert not out.exists()

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
