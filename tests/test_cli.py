import csv
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dualframes import (
    Frame,
    GaborLattice,
    GridSpec,
    SampledWindow,
    approx_dual_from_mixed,
    canonical_dual,
    frame_bounds,
    frame_operator,
    identity,
    janssen_residual,
    operator_norm,
    sample_bspline,
)
from dualframes import cli, gabor, io, oplin
from dualframes.gabor import ck_dual1_unchecked
from dualframes.cli import main

from conftest import random_frame


@pytest.fixture
def phi0_file(tmp_path):
    path = tmp_path / "phi0.json"
    io.save_frame(Frame.from_vectors([(1, 0), (0, 1), (1, 1)]), path)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, dualframes.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    run = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.strip() == "[]"


class TestFrameInfo:
    def test_reports_bounds_and_riesz(self, phi0_file, capsys):
        assert main(["frame-info", phi0_file]) == 0
        out = capsys.readouterr().out
        assert "lower_bound: 1" in out
        assert "upper_bound: 3" in out
        assert "is_riesz: False" in out

    def test_bessel_only_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "bessel.json"
        io.save_frame(Frame.from_vectors([(1, 0), (2, 0)]), path)
        assert main(["frame-info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lower_bound: 0" in out
        assert "is_frame: False" in out

    def test_overflowing_frame_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        io.save_frame(Frame([[1e200, 0, 1e200], [0, 1e200, 1]]), path)
        assert main(["frame-info", str(path)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_frame_whose_bounds_do_not_fit_exit_3(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        io.save_frame(Frame(np.array([[1, 0, 1], [0, 1, 1]]) * 1e-170), path)
        assert main(["frame-info", str(path)]) == 3
        assert "not a normal float" in capsys.readouterr().err

    def test_frame_whose_dual_does_not_fit_prints_only_the_error(self, tmp_path):
        # 1/s overflows at s = 1e-310: exit 3 with one error line, no numpy warning
        path = tmp_path / "tiny.json"
        io.save_frame(Frame(np.array([[1, 0, 1], [0, 1, 1]]) * 1e-310), path)
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = "import sys; from dualframes.cli import main; sys.exit(main(sys.argv[1:]))"
        run = subprocess.run(
            [sys.executable, "-c", probe, "dual", str(path)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
            capture_output=True,
            text=True,
        )
        assert run.returncode == 3
        assert run.stderr == "error: matrix has non-finite entries\n"

    def test_malformed_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["frame-info", str(path)]) == 3
        assert "line" in capsys.readouterr().err


class TestDual:
    def test_canonical(self, phi0_file, tmp_path, capsys):
        out = tmp_path / "dual.json"
        assert main(["dual", phi0_file, "--mode", "canonical", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "approximation_rate: " in text
        loaded = io.load_frame(out)
        phi0 = io.load_frame(phi0_file)
        assert np.allclose(loaded.synthesis, canonical_dual(phi0).synthesis)

    def test_approx_with_operator_file(self, phi0_file, tmp_path, capsys):
        op = tmp_path / "a09.json"
        io.save_operator(0.9 * identity(2), op)
        assert main(["dual", phi0_file, "--mode", "approx", "--op-file", str(op)]) == 0
        out = capsys.readouterr().out
        rate = [l for l in out.splitlines() if l.startswith("approximation_rate")][0]
        assert float(rate.split(": ")[1]) == pytest.approx(0.1, abs=1e-10)

    def test_random_theta_is_deterministic(self, phi0_file, tmp_path):
        out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
        op = tmp_path / "a.json"
        io.save_operator(0.9 * identity(2), op)
        base = ["dual", phi0_file, "--mode", "approx", "--op-file", str(op), "--theta", "random:42:0.5"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_contract_violation_exit_2(self, phi0_file, tmp_path, capsys):
        op = tmp_path / "far.json"
        io.save_operator(3.0 * identity(2), op)
        assert main(["dual", phi0_file, "--mode", "approx", "--op-file", str(op)]) == 2
        assert "measured" in capsys.readouterr().err

    def test_missing_op_file_exit_3(self, phi0_file):
        assert main(["dual", phi0_file, "--mode", "gdual"]) == 3

    def test_gdual_mode(self, phi0_file, tmp_path, capsys):
        op = tmp_path / "s.json"
        io.save_operator(2.0 * identity(2), op)
        assert main(["dual", phi0_file, "--mode", "gdual", "--op-file", str(op)]) == 0
        out = capsys.readouterr().out
        resid = [l for l in out.splitlines() if l.startswith("mixed_operator_residual")][0]
        assert float(resid.split(": ")[1]) <= 1e-10


class TestVerify:
    def test_dual_pair(self, phi0_file, tmp_path, capsys):
        dual_path = tmp_path / "dual.json"
        phi0 = io.load_frame(phi0_file)
        io.save_frame(canonical_dual(phi0), dual_path)
        assert main(["verify", phi0_file, str(dual_path)]) == 0
        out = capsys.readouterr().out
        assert "kind: dual" in out
        assert "bessel_bound_ok: True" in out

    def test_self_pair_gdual(self, tmp_path, capsys):
        path = tmp_path / "phi1.json"
        io.save_frame(Frame.from_vectors([(1, 0), (1, 0), (0, 1)]), path)
        assert main(["verify", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "kind: gdual" in out
        assert "rate: 1" in out

    def test_shape_mismatch_exit_3(self, phi0_file, tmp_path):
        other = tmp_path / "o.json"
        io.save_frame(Frame.from_vectors([(1, 0), (0, 1)]), other)
        assert main(["verify", phi0_file, str(other)]) == 3


class TestPerturb:
    def test_identity_transfer(self, tmp_path, capsys):
        phi = random_frame(4, 6, seed=90)
        phi_path = tmp_path / "phi.json"
        ad_path = tmp_path / "ad.json"
        out_path = tmp_path / "out.json"
        io.save_frame(phi, phi_path)
        io.save_frame(canonical_dual(phi), ad_path)
        code = main(
            ["perturb", str(phi_path), str(phi_path), str(ad_path), "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mixed_match_residual" in out
        transferred = io.load_frame(out_path)
        assert np.allclose(
            transferred.synthesis, canonical_dual(phi).synthesis, atol=1e-12
        )

    def test_report_json(self, tmp_path):
        phi = random_frame(4, 6, seed=91)
        phi_path = tmp_path / "phi.json"
        ad_path = tmp_path / "ad.json"
        report_path = tmp_path / "report.json"
        io.save_frame(phi, phi_path)
        io.save_frame(canonical_dual(phi), ad_path)
        code = main(
            [
                "perturb",
                str(phi_path),
                str(phi_path),
                str(ad_path),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["command"] == "perturb"
        assert (
            report["verdicts"]["measured_diff_bound"]
            <= report["verdicts"]["predicted_diff_bound"] + 1e-9
        )


class TestUsage:
    def test_missing_required_flag_exit_3(self, capsys):
        assert main(["gabor", "weight", "--window", "bspline:2", "--grid", "4:4"]) == 3
        assert "--a" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["random:x:1", "random:1:-0.5", "random:1:nan"])
    def test_malformed_theta_exit_3(self, phi0_file, theta, capsys):
        assert main(["dual", phi0_file, "--mode", "approx", "--theta", theta]) == 3
        assert "--theta random:SEED:SCALE" in capsys.readouterr().err

    def test_report_without_path_exit_3(self, phi0_file):
        assert main(["frame-info", phi0_file, "--report"]) == 3

    def test_dual_seed_option_is_gone(self, phi0_file, capsys):
        # the seed is given once, inside --theta random:SEED:SCALE
        assert main(["dual", phi0_file, "--theta", "random:1:0.5", "--seed", "3"]) == 3
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gabor", "window", "--window", "bspline:2", "--grid", "4x4"], "grid must look like"),
            (["gabor", "window", "--window", "bspline:2", "--grid", "0:4"], "must be positive"),
            (["gabor", "weight", "--window", "char:1", "--grid", "4:2", "--a", "1/0"],
             "not a rational number"),
            (["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "b"],
             "not a rational number"),
            (["gabor", "sweep", "--char", "--grid", "4:3", "--step", "x"], "not a rational number"),
            # --grid does not apply to --bspline sweeps, but its parse error comes first
            (["gabor", "sweep", "--bspline", "2", "--grid", "4x4"], "grid must look like"),
            (["gabor", "sweep", "--bspline", "2", "--denominators", "2-5"],
             "--denominators must look like LO:HI"),
            (["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "1/10",
              "--method", "ck2", "--coeffs", "0,x,0.2"], "--coeffs must look like a,b,c,..."),
            # a step outside (0, 1] would loop forever or sweep no cell at all
            (["gabor", "sweep", "--char", "--grid", "4:3", "--step", "0"], "--step must lie in (0, 1]"),
            (["gabor", "sweep", "--char", "--grid", "4:3", "--step=-1/4"], "--step must lie in (0, 1]"),
            (["gabor", "sweep", "--char", "--grid", "4:3", "--step", "3/2"], "--step must lie in (0, 1]"),
            (["gabor", "window", "--window", "bspline:x", "--grid", "4:4"],
             "bspline:N (integer N), char:WIDTH or a window JSON path"),
            (["gabor", "window", "--window", "bspline:2.5", "--grid", "4:4"],
             "bspline:N (integer N), char:WIDTH or a window JSON path"),
            # a support below 1 is malformed input (exit 3), not a failed contract (exit 2)
            (["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "1/10", "--support", "0"],
             "support must be a positive integer"),
            (["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "1/10", "--support", "-1"],
             "support must be a positive integer"),
            (["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "1/10", "--method", "ck2"],
             "--method ck2 requires --coeffs"),
            (["gabor", "sweep", "--char"], "--char sweeps need --grid"),
            (["gabor", "window", "--window", "bspline:2"], "generated windows need --grid"),
            (["gabor", "window", "--window", "char:1"], "generated windows need --grid"),
            # a flag that the chosen mode ignores (--method ck1, the default, takes no --coeffs)
            (["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "1/10", "--coeffs", "0,0.1,0.2"],
             "--coeffs does not apply to --method ck1"),
            (["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "1/10", "--method", "ck1",
              "--coeffs", "0,0.1,0.2"], "--coeffs does not apply to --method ck1"),
            (["gabor", "sweep", "--bspline", "3", "--grid", "4:3", "--denominators", "2:4"],
             "--grid does not apply to --bspline sweeps"),
            (["gabor", "sweep", "--bspline", "3", "--step", "1/2", "--denominators", "2:4"],
             "--step does not apply to --bspline sweeps"),
            (["gabor", "sweep", "--char", "--grid", "4:3", "--samples", "7"], "--samples does not apply to --char sweeps"),
            (["gabor", "sweep", "--char", "--grid", "4:3", "--denominators", "2:3"],
             "--denominators does not apply to --char sweeps"),
            # a flag given at its default value is still given
            (["gabor", "sweep", "--bspline", "3", "--step", "1/4"], "--step does not apply to --bspline sweeps"),
            (["gabor", "sweep", "--char", "--grid", "4:3", "--samples", "10"],
             "--samples does not apply to --char sweeps"),
            (["gabor", "sweep", "--char", "--grid", "4:3", "--denominators", "2:10"],
             "--denominators does not apply to --char sweeps"),
        ],
    )
    def test_malformed_gabor_flag_exit_3(self, argv, message, capsys):
        assert main(argv) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, defaults",
        [(["--char", "--grid", "4:3"], ["--step", "1/4"]),
         (["--bspline", "3"], ["--samples", "10", "--denominators", "2:10"])],
    )
    def test_sweep_defaults(self, mode, defaults, tmp_path, capsys):
        tables = []
        for i, flags in enumerate(([], defaults)):
            out = tmp_path / f"sweep{i}.csv"
            assert main(["gabor", "sweep", *mode, *flags, "--out", str(out)]) == 0
            tables.append(read_csv(out))
        capsys.readouterr()
        assert tables[0] == tables[1]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gabor", "dual", "--window", "{window}", "--b", "1/10"], "--support is required"),
            (["gabor", "verify", "--window", "{window}", "--dual", "{window}", "--a", "1", "--b", "1/10",
              "--grid", "4:4"], "disagrees with --grid"),
            (["dual", "{phi}", "--mode", "canonical", "--theta", "random:1:0.5"],
             "--theta does not apply to --mode canonical"),
            (["frame-info", "{array}"], "expected a JSON object"),
            (["gabor", "verify", "--window", "{array}", "--dual", "{window}", "--a", "1", "--b", "1/10"],
             "expected a JSON object"),
            (["dual", "{phi}", "--mode", "approx", "--op-file", "{array}"], "expected a JSON object"),
            # numbers beyond int or float range
            (["frame-info", "{inf_dim}"], "frame JSON must carry 'dim' and 'vectors'"),
            (["frame-info", "{huge_pair}"], "malformed complex pairs in frame vector"),
            (["gabor", "weight", "--window", "{inf_grid}", "--a", "1"], "window JSON must carry grid fields"),
            (["dual", "{phi}", "--mode", "approx", "--op-file", "{inf_rows}"],
             "operator JSON must carry 'rows' and 'cols'"),
            # sizes that are not JSON integers
            (["frame-info", "{float_dim}"], "'dim' must be an integer"),
            (["frame-info", "{string_dim}"], "'dim' must be an integer"),
            (["frame-info", "{bool_dim}"], "'dim' must be an integer"),
            (["gabor", "weight", "--window", "{float_samples}", "--a", "1"],
             "'samples_per_unit' must be an integer"),
            (["gabor", "weight", "--window", "{bool_period}", "--a", "1"], "'period' must be an integer"),
            (["dual", "{phi}", "--mode", "approx", "--op-file", "{float_rows}"], "'rows' must be an integer"),
            # negative sizes
            (["dual", "{phi}", "--mode", "approx", "--op-file", "{negative_rows}"], "'rows' must be an integer"),
            (["frame-info", "{negative_dim}"], "'dim' must be an integer"),
            (["gabor", "weight", "--window", "{negative_samples}", "--a", "1"],
             "'samples_per_unit' must be an integer"),
            # an operator of another size once escaped as numpy's matmul error
            (["dual", "{phi}", "--mode", "gdual", "--op-file", "{op3}"], "corresponding must be 2x2, got (3, 3)"),
            # an operator file does not apply to the canonical dual, whether or not it exists
            (["dual", "{phi}", "--mode", "canonical", "--op-file", "{phi}"],
             "--op-file does not apply to --mode canonical"),
            (["dual", "{phi}", "--mode", "canonical", "--op-file", "nope.json"],
             "--op-file does not apply to --mode canonical"),
        ],
    )
    def test_unusable_input_file_exit_3(self, argv, message, phi0_file, tmp_path, capsys):
        window = tmp_path / "b2.json"
        io.save_window(sample_bspline(2, GridSpec(10, 20)), window)
        texts = {
            "array": "[1, 2]",
            "inf_dim": '{"dim": Infinity, "vectors": [[[1, 0]]]}',
            "huge_pair": '{"dim": 1, "vectors": [[[1' + "0" * 400 + ', 0]]]}',
            "inf_grid": '{"samples_per_unit": Infinity, "period": 1, "values": [[1, 0]]}',
            "inf_rows": '{"rows": 1e999, "cols": 2, "entries": []}',
            "float_dim": '{"dim": 2.9, "vectors": [[[1, 0], [0, 1]]]}',
            "string_dim": '{"dim": "2", "vectors": [[[1, 0], [0, 1]]]}',
            "bool_dim": '{"dim": true, "vectors": [[[1, 0]]]}',
            "float_samples": '{"samples_per_unit": 1.7, "period": 1, "values": [[1, 0]]}',
            "bool_period": '{"samples_per_unit": 1, "period": true, "values": [[1, 0]]}',
            "float_rows": '{"rows": 1.5, "cols": 1, "entries": [[1, 0]]}',
            "negative_rows": '{"rows": -1, "cols": -1, "entries": [[1, 0]]}',
            "negative_dim": '{"dim": -2, "vectors": [[[1, 0], [0, 1]]]}',
            "negative_samples": '{"samples_per_unit": -1, "period": 1, "values": [[1, 0]]}',
            "op3": '{"rows": 3, "cols": 3, "entries": [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [1, 0]]}',
        }
        files = {"phi": phi0_file, "window": str(window)}
        for name, text in texts.items():
            files[name] = str(tmp_path / f"{name}.json")
            Path(files[name]).write_text(text)
        assert main([arg.format(**files) for arg in argv]) == 3
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1 and "Traceback" not in err

    def test_report_after_gabor_subcommand(self, tmp_path):
        report_path = tmp_path / "report.json"
        argv = ["gabor", "weight", "--window", "char:1", "--grid", "4:2", "--a", "1/2"]
        assert main(argv + ["--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        keys = ["command", "inputs", "verdicts", "artifacts_written", "wall_time_ms"]
        assert list(report) == keys
        assert report["command"] == "gabor weight"
        assert report["verdicts"] == {"min": 2.0, "max": 2.0}


class TestGaborCommands:
    def test_window_generation(self, tmp_path):
        out = tmp_path / "b2.json"
        csv_out = tmp_path / "b2.csv"
        code = main(
            [
                "gabor", "window",
                "--window", "bspline:2",
                "--grid", "10:20",
                "--out", str(out),
                "--csv", str(csv_out),
            ]
        )
        assert code == 0
        w = io.load_window(out)
        assert np.allclose(w.values, sample_bspline(2, GridSpec(10, 20)).values)
        rows = read_csv(csv_out)
        assert rows[0] == ["x", "re", "im"]
        assert len(rows) == 201

    def test_dual_ck1_bspline(self, tmp_path, capsys):
        out = tmp_path / "g1d.json"
        code = main(
            [
                "gabor", "dual",
                "--window", "bspline:2",
                "--grid", "10:20",
                "--b", "1/10",
                "--method", "ck1",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        resid = [l for l in text.splitlines() if "janssen_residual" in l][0]
        assert float(resid.split(": ")[1]) <= 1e-10
        dual = io.load_window(out)
        b2 = sample_bspline(2, GridSpec(10, 20))
        expected = 0.1 * b2.values + 0.2 * np.roll(b2.values, -10)
        assert np.array_equal(dual.values, expected)

    def test_dual_ck2_coefficients(self, tmp_path, capsys):
        out = tmp_path / "ck2.json"
        argv = ["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "1/10",
                "--method", "ck2", "--coeffs", "0,0.1,0.2", "--out", str(out)]
        assert main(argv) == 0
        assert "method: ck2" in capsys.readouterr().out
        b2 = sample_bspline(2, GridSpec(10, 20))
        expected = gabor.ck_dual2(b2, 2, Fraction(1, 10), [0.0, 0.1, 0.2])
        assert np.array_equal(io.load_window(out).values, expected.values)

    @pytest.mark.parametrize("command", ["dual", "verify"])
    def test_residual_table_csv(self, command, tmp_path, capsys):
        dual_path, table, report = (str(tmp_path / name) for name in ("d.json", "r.csv", "run.json"))
        grid = ["--grid", "10:20", "--b", "1/10"]
        assert main(["gabor", "dual", "--window", "bspline:2", *grid, "--out", dual_path]) == 0
        capsys.readouterr()
        if command == "dual":
            argv = ["gabor", "dual", "--window", "bspline:2", *grid]
        else:
            argv = ["gabor", "verify", "--window", "bspline:2", "--dual", dual_path, "--a", "1", *grid]
        assert main(argv + ["--csv", table, "--report", report]) == 0
        rows = read_csv(table)
        assert rows[0] == ["n", "residual"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]  # b * P = 2 adjoint shifts
        residual = json.loads(Path(report).read_text())["verdicts"]["janssen_residual"]
        assert max(float(r[1]) for r in rows[1:]) == residual
        assert f"janssen_residual: {residual:.12g}" in capsys.readouterr().out

    def test_dual_hypothesis_violation_exit_2(self, tmp_path):
        code = main(
            [
                "gabor", "dual",
                "--window", "bspline:2",
                "--grid", "10:20",
                "--b", "1/2",
            ]
        )
        assert code == 2

    def test_verify_pair(self, tmp_path, capsys):
        b2_path = tmp_path / "b2.json"
        dual_path = tmp_path / "d.json"
        main(["gabor", "window", "--window", "bspline:2", "--grid", "10:20", "--out", str(b2_path)])
        main(
            [
                "gabor", "dual",
                "--window", str(b2_path),
                "--b", "1/10",
                "--support", "2",
                "--out", str(dual_path),
            ]
        )
        capsys.readouterr()
        argv = [
            "gabor", "verify",
            "--window", str(b2_path),
            "--dual", str(dual_path),
            "--a", "1",
            "--b", "1/10",
        ]
        code = main(argv)
        assert code == 0
        out = capsys.readouterr().out
        assert "dual: True" in out
        rate = [l for l in out.splitlines() if "approximation_rate" in l][0]
        assert float(rate.split(": ")[1]) <= 1e-10
        # the rate is always reported; the old flag that asked for it is gone
        assert main(argv + ["--materialize"]) == 3

    def test_weight_overflow_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        grid = GridSpec(4, 4)
        io.save_window(SampledWindow(grid, sample_bspline(2, grid).values * 1e200), path)
        assert main(["gabor", "weight", "--window", str(path), "--a", "1"]) == 3
        assert "shift-energy weight" in capsys.readouterr().err

    def test_weight_csv(self, tmp_path):
        csv_out = tmp_path / "w.csv"
        code = main(
            [
                "gabor", "weight",
                "--window", "char:1",
                "--grid", "4:2",
                "--a", "1/2",
                "--csv", str(csv_out),
            ]
        )
        assert code == 0
        rows = read_csv(csv_out)
        assert rows[0] == ["x", "weight"]
        assert all(float(r[1]) == pytest.approx(2.0) for r in rows[1:])

    def test_sweep_matches_criterion(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["gabor", "sweep", "--char", "--grid", "4:3", "--step", "1/4", "--out", str(out)]
        )
        assert code == 0
        assert "criterion_agreement: True" in capsys.readouterr().out
        rows = read_csv(out)
        assert len(rows) == 1 + 64  # header + 4^3 cells
        assert all(r[6] == "1" for r in rows[1:])

    def test_sweep_bspline_frequency_step(self, tmp_path, capsys):
        out = tmp_path / "bsweep.csv"
        code = main(
            [
                "gabor", "sweep",
                "--bspline", "2",
                "--samples", "10",
                "--denominators", "2:6",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "criterion_agreement: True" in capsys.readouterr().out
        rows = read_csv(out)
        assert rows[0] == ["b", "hypothesis", "residual", "dual", "agree"]
        # dual exactly when b <= 1/3 for the order-2 window
        verdicts = {r[0]: r[3] for r in rows[1:]}
        assert verdicts["1/2"] == "0" and verdicts["1/3"] == "1"

    def test_sweep_bspline_rows_are_the_core_formula(self, tmp_path):
        out = tmp_path / "bsweep.csv"
        argv = ["gabor", "sweep", "--bspline", "3", "--samples", "16", "--denominators", "2:12"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = read_csv(out)[1:]
        assert len(rows) == 11
        for den, row in zip(range(2, 13), rows):
            b = Fraction(1, den)
            window = sample_bspline(3, GridSpec(16, 3 * den))
            candidate = ck_dual1_unchecked(window, 3, b)
            assert row[0] == str(b)
            assert float(row[2]) == janssen_residual(window, candidate, GaborLattice(1, b))

    @pytest.mark.parametrize("a", ["-1", "0"])
    def test_weight_nonpositive_step_exit_2(self, a):
        argv = ["gabor", "weight", "--window", "bspline:2", "--grid", "4:4", "--a", a]
        assert main(argv) == 2

    def test_sweep_requires_one_mode(self):
        assert main(["gabor", "sweep", "--out", "x.csv"]) == 3

    def test_approx_dual_window(self, tmp_path, capsys):
        code = main(
            [
                "gabor", "approx-dual",
                "--window", "bspline:2",
                "--dual", str(self._make_dual(tmp_path)),
                "--scale-window", "bspline:3",
                "--a", "1",
                "--b", "1/3",
                "--grid", "6:6",
                "--out", str(tmp_path / "gad.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        rate = [l for l in out.splitlines() if l.startswith("approximation_rate")][0]
        gap = [l for l in out.splitlines() if l.startswith("identity_gap")][0]
        assert float(rate.split(": ")[1]) == pytest.approx(
            float(gap.split(": ")[1]), abs=1e-9
        )

    def test_approx_dual_builds_no_synthesis_matrix(self, tmp_path, monkeypatch, capsys):
        # the README example: every verdict and the spectrum come from residue-class blocks,
        # without a synthesis matrix or an L x L SVD
        built, svds = [], []
        materialize = oplin.ClassFactor.synthesis
        monkeypatch.setattr(
            oplin.ClassFactor, "synthesis", lambda system: built.append(system) or materialize(system)
        )
        svd, norm = np.linalg.svd, np.linalg.norm

        def counted_svd(a, *args, **kwargs):
            if np.ndim(a) == 2:
                svds.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def counted_norm(x, ord=None, *args, **kwargs):
            if np.ndim(x) == 2 and ord in (2, -2):  # a 2-norm of a matrix is an SVD
                svds.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        blocks, class_blocks = [], oplin.ClassFactor.blocks

        def counted_blocks(system, other):
            blocks.append(other)
            return class_blocks(system, other)

        monkeypatch.setattr(oplin.ClassFactor, "blocks", counted_blocks)
        b2, g1d, gad, spectrum, report = (
            str(tmp_path / name) for name in ("b2.json", "g1d.json", "gad.json", "spec.csv", "run.json")
        )
        assert main(["gabor", "window", "--window", "bspline:2", "--grid", "10:20", "--out", b2]) == 0
        argv = ["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "1/10",
                "--method", "ck1", "--out", g1d]
        assert main(argv) == 0
        capsys.readouterr()
        argv = ["gabor", "approx-dual", "--window", b2, "--dual", g1d, "--scale-window", "bspline:3",
                "--a", "1", "--b", "1/10", "--out", gad, "--spectrum-csv", spectrum, "--report", report]
        assert main(argv) == 0
        assert built == [] and svds == []
        # the scaling window's frame blocks, g's frame blocks (S of the kernel term
        # S T_d - T) and the mixed blocks, which the construction read for its rate
        assert len(blocks) == 3
        monkeypatch.undo()
        eigs = [float(row[1]) for row in read_csv(spectrum)[1:]]
        assert len(eigs) == 200 and eigs == sorted(eigs)
        gap = [l for l in capsys.readouterr().out.splitlines() if l.startswith("identity_gap")][0]
        assert float(gap.split(": ")[1]) == pytest.approx(1.0 - eigs[0] / eigs[-1], abs=1e-9)
        # the three verdicts against their dense formulas on the materialized systems
        lat = GaborLattice(1, Fraction(1, 10))
        window, result = io.load_window(b2), io.load_window(gad)
        syn = [np.array(gabor.gabor_frame(w, lat).synthesis) for w in (window, result)]
        scale = Frame(np.array(gabor.gabor_frame(sample_bspline(3, window.grid), lat).synthesis))
        a_op = frame_operator(scale) / frame_bounds(scale).upper
        mixed = syn[0] @ syn[1].conj().T
        verdicts = json.loads(Path(report).read_text())["verdicts"]
        rate = operator_norm(identity(window.grid.total) - mixed)
        gap = operator_norm(identity(window.grid.total) - a_op)
        assert verdicts["approximation_rate"] == pytest.approx(rate, rel=1e-12, abs=0)
        assert verdicts["identity_gap_of_operator"] == pytest.approx(gap, rel=1e-12, abs=0)
        assert abs(verdicts["mixed_operator_residual"] - operator_norm(mixed - a_op)) <= 1e-12

    @staticmethod
    def _make_dual(tmp_path):
        from dualframes import ck_dual1

        dual = ck_dual1(sample_bspline(2, GridSpec(6, 6)), 2, Fraction(1, 3))
        path = tmp_path / "dual_in.json"
        io.save_window(dual, path)
        return path


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every command of README's "## Command line" block, in order, over inputs written here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(lines) == 12 and all(line[0] == "dualframes" for line in lines)
    monkeypatch.chdir(tmp_path)
    phi = random_frame(4, 6, seed=12)
    rng = np.random.default_rng(12)
    target = 0.9 * identity(4)
    io.save_frame(phi, "phi.json")
    io.save_frame(Frame(phi.synthesis + 1e-3 * rng.standard_normal((4, 6))), "psi.json")
    io.save_operator(target, "a.json")
    io.save_frame(approx_dual_from_mixed(phi, target), "phi_ad.json")
    for argv in lines:
        assert main(argv[1:]) == 0, argv
        written = [path for flag, path in zip(argv, argv[1:]) if flag in ("--out", "--csv", "--spectrum-csv")]
        assert all(Path(path).exists() for path in written), argv
        out = capsys.readouterr().out
        if argv[1:3] == ["gabor", "verify"]:
            assert "approximation_rate: " in out


class TestSizeBudget:
    """Sizes given on the command line are held to cli.SIZE_BUDGET before anything is
    allocated; only requests the budget rejects are run here."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gabor", "window", "--window", "bspline:2", "--grid", "1000000000:1000000000"],
            ["gabor", "window", "--window", "bspline:2", "--grid", f"{cli.SIZE_BUDGET + 1}:1"],
            ["gabor", "weight", "--window", "char:1", "--grid", f"1:{cli.SIZE_BUDGET + 1}", "--a", "1"],
            ["gabor", "sweep", "--char", "--grid", "4:3", "--step", "1/1000000"],
            ["gabor", "sweep", "--char", "--grid", f"{cli.SIZE_BUDGET // 2}:1", "--step", "1/3"],
            ["gabor", "sweep", "--bspline", "3", "--denominators", f"2:{cli.SIZE_BUDGET + 2}"],
            ["gabor", "sweep", "--bspline", "3", "--samples", str(cli.SIZE_BUDGET), "--denominators", "2:2"],
            # within the cell and sample budgets, but a cell's lattice-sum table holds
            # L b P = 2000 * 1000 (bspline) and 2048 * 1024 (char) entries
            ["gabor", "sweep", "--bspline", "1000", "--samples", "1", "--denominators", "2:2"],
            ["gabor", "sweep", "--char", "--grid", "2:1024", "--step", "1"],
            # every cell's table within the budget, but together s max(2, N)^2 sum(den) = 9 * 500,499
            # and 9 * 8,001,999 entries: the sweep's total work is budgeted, not its last cell
            ["gabor", "sweep", "--bspline", "3", "--samples", "1", "--denominators", "2:1000"],
            ["gabor", "sweep", "--bspline", "3", "--samples", "1", "--denominators", "2:4000"],
            # within the grid budget, but the class factor holds L P/a = 2^22 entries
            ["gabor", "approx-dual", "--window", "bspline:2", "--dual", "bspline:2", "--scale-window",
             "bspline:3", "--grid", "4:512", "--a", "1/4", "--b", "1/4"],
            # the lattice-sum table holds L b P = 4096 * 1366 entries
            ["gabor", "dual", "--window", "bspline:2", "--grid", "1:4096", "--b", "1/3"],
            ["gabor", "verify", "--window", "bspline:2", "--dual", "bspline:2", "--grid", "10:20",
             "--a", "1", "--b", "1e400"],
            # within the grid budget, but the N - 1 convolutions pass over (N - 1) L samples:
            # 299 * 4800 and 1999 * 4000 (both would also overflow s^(N - 1))
            ["gabor", "window", "--window", "bspline:300", "--grid", "16:300"],
            ["gabor", "window", "--window", "bspline:2000", "--grid", "2:2000"],
        ],
        ids=["grid 1e18", "grid one over", "grid period one over", "char step 1e-6", "char windows",
             "bspline cells", "bspline grid", "bspline table", "char table", "bspline sweep 2:1000",
             "bspline sweep 2:4000", "class factor", "lattice-sum table", "b 1e400",
             "bspline:300 convolutions", "bspline:2000 convolutions"],
    )
    def test_over_budget_exits_3_before_allocating(self, argv, capsys):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and f"over the budget of {cli.SIZE_BUDGET}" in err
        assert peak < 1 << 20  # the smallest rejected grid alone would be 16 MB of samples

    def test_grid_read_from_a_file_is_budgeted(self, tmp_path, capsys):
        # a window file's grid is held to the same budget as --grid: L P/a = 2^22 entries
        path = str(tmp_path / "window.json")
        io.save_window(sample_bspline(2, GridSpec(1, 2048)), path)
        assert main(["gabor", "verify", "--window", path, "--dual", path, "--a", "1", "--b", "1"]) == 3
        assert "class-factor entries come to 4194304, over the budget" in capsys.readouterr().err


def test_perturb_at_an_extreme_scale_prints_finite_bounds(tmp_path):
    """``dualframes perturb`` on frames scaled by 1e80 prints finite bounds, with
    measured <= predicted, and nothing on stderr (no RuntimeWarning)."""
    from test_perturbation import scaled_transfer_inputs

    paths = [str(tmp_path / f"{name}.json") for name in ("phi", "psi", "ad")]
    for frame, path in zip(scaled_transfer_inputs(1e80), paths):
        io.save_frame(frame, path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-m", "dualframes.cli", "perturb", *paths],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0 and run.stderr == ""
    values = dict(line.split(": ", 1) for line in run.stdout.splitlines() if ": " in line)
    predicted, measured = float(values["predicted_diff_bound"]), float(values["measured_diff_bound"])
    assert np.isfinite(predicted) and measured <= predicted


@pytest.mark.parametrize("c", [1e-80, 1e80])
@pytest.mark.parametrize(
    "command",
    [
        ["frame-info", "phi"],
        ["dual", "phi", "--mode", "canonical"],
        ["dual", "phi", "--mode", "approx", "--op-file", "target"],
        ["dual", "phi", "--mode", "gdual", "--op-file", "corresponding"],
        ["verify", "phi", "ad"],
        ["perturb", "phi", "psi", "ad"],
    ],
    ids=["frame-info", "dual canonical", "dual approx", "dual gdual", "verify", "perturb"],
)
def test_frame_commands_at_extreme_scales_print_finite_numbers(command, c, tmp_path, capsys):
    """Each frame command on inputs scaled by ``c`` prints only finite numbers, on stdout and
    in its run report, or else exits 2 or 3."""
    from test_perturbation import scaled_transfer_inputs

    paths = {name: str(tmp_path / f"{name}.json") for name in ("phi", "psi", "ad", "target", "corresponding")}
    for frame, name in zip(scaled_transfer_inputs(c), ("phi", "psi", "ad")):
        io.save_frame(frame, paths[name])
    io.save_operator(0.9 * identity(3), paths["target"])
    io.save_operator(2.0 * identity(3), paths["corresponding"])
    report = tmp_path / "run.json"
    code = main([paths.get(arg, arg) for arg in command] + ["--report", str(report)])
    out = capsys.readouterr().out
    assert code in (0, 2, 3)
    if code == 0:
        assert not re.search(r"\b(?:nan|inf(?:inity)?)\b", out, re.IGNORECASE), out

        def refuse(constant):
            raise AssertionError(f"{constant} in the run report")

        json.loads(report.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("c", [1e-80, 1e80])
@pytest.mark.parametrize(
    "command, codes",
    [
        (["window", "--window", "g"], (0, 2)),
        (["weight", "--window", "g", "--a", "1"], (0, 2)),
        (["verify", "--window", "g", "--dual", "g_dual", "--a", "1", "--b", "1/10"], (0, 2)),
        (["approx-dual", "--window", "g", "--dual", "g_dual", "--scale-window", "g", "--a", "1", "--b", "1/10"],
         (0, 2)),
        (["dual", "--window", "g", "--b", "1/10", "--support", "2"], (2,)),  # no partition of unity
    ],
    ids=["window", "weight", "verify", "approx-dual", "dual"],
)
def test_gabor_commands_at_extreme_scales_print_finite_numbers(command, codes, c, tmp_path, capsys):
    """Each Gabor command on the 10:20 B-spline window scaled by ``c`` (and its dual by
    ``1/c``) prints only finite numbers, on stdout and in its run report, or else exits 2."""
    g = sample_bspline(2, GridSpec(10, 20))
    paths = {"g": str(tmp_path / "g.json"), "g_dual": str(tmp_path / "g_dual.json")}
    io.save_window(SampledWindow(g.grid, g.values * c), paths["g"])
    io.save_window(SampledWindow(g.grid, gabor.ck_dual1(g, 2, Fraction(1, 10)).values / c), paths["g_dual"])
    report = tmp_path / "run.json"
    code = main(["gabor", *(paths.get(arg, arg) for arg in command), "--report", str(report)])
    out = capsys.readouterr().out
    assert code in codes
    assert not re.search(r"\b(?:nan|inf(?:inity)?)\b", out, re.IGNORECASE), out
    if report.exists():

        def refuse(constant):
            raise AssertionError(f"{constant} in the run report")

        json.loads(report.read_text(), parse_constant=refuse)
