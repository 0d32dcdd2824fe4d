import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dualframes import (
    Frame,
    GaborLattice,
    GridSpec,
    SampledWindow,
    canonical_dual,
    identity,
    janssen_residual,
    sample_bspline,
)
from dualframes import gabor, io
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

    @pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
    def test_overflowing_frame_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        io.save_frame(Frame([[1e200, 0, 1e200], [0, 1e200, 1]]), path)
        assert main(["frame-info", str(path)]) == 3
        assert "non-finite" in capsys.readouterr().err

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
            # --bspline sweeps ignore --grid, but the flag is still parsed
            (["gabor", "sweep", "--bspline", "2", "--grid", "4x4"], "grid must look like"),
            (["gabor", "sweep", "--bspline", "2", "--denominators", "2-5"],
             "--denominators must look like LO:HI"),
            (["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "1/10",
              "--method", "ck2", "--coeffs", "0,x,0.2"], "--coeffs must look like a,b,c,..."),
        ],
    )
    def test_malformed_gabor_flag_exit_3(self, argv, message, capsys):
        assert main(argv) == 3
        assert message in capsys.readouterr().err

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
        code = main(
            [
                "gabor", "verify",
                "--window", str(b2_path),
                "--dual", str(dual_path),
                "--a", "1",
                "--b", "1/10",
                "--materialize",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dual: True" in out
        rate = [l for l in out.splitlines() if "materialized_rate" in l][0]
        assert float(rate.split(": ")[1]) <= 1e-10

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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
        # the README example: every verdict and the spectrum come from residue-class blocks
        built = []
        materialize = gabor._GaborSystem.synthesis
        monkeypatch.setattr(
            gabor._GaborSystem, "synthesis", lambda system: built.append(system) or materialize(system)
        )
        b2, g1d, spectrum = (str(tmp_path / name) for name in ("b2.json", "g1d.json", "spec.csv"))
        assert main(["gabor", "window", "--window", "bspline:2", "--grid", "10:20", "--out", b2]) == 0
        argv = ["gabor", "dual", "--window", "bspline:2", "--grid", "10:20", "--b", "1/10",
                "--method", "ck1", "--out", g1d]
        assert main(argv) == 0
        capsys.readouterr()
        argv = ["gabor", "approx-dual", "--window", b2, "--dual", g1d, "--scale-window", "bspline:3",
                "--a", "1", "--b", "1/10", "--spectrum-csv", spectrum]
        assert main(argv) == 0
        assert built == []
        eigs = [float(row[1]) for row in read_csv(spectrum)[1:]]
        assert len(eigs) == 200 and eigs == sorted(eigs)
        gap = [l for l in capsys.readouterr().out.splitlines() if l.startswith("identity_gap")][0]
        assert float(gap.split(": ")[1]) == pytest.approx(1.0 - eigs[0] / eigs[-1], abs=1e-9)

    @staticmethod
    def _make_dual(tmp_path):
        from dualframes import ck_dual1

        dual = ck_dual1(sample_bspline(2, GridSpec(6, 6)), 2, Fraction(1, 3))
        path = tmp_path / "dual_in.json"
        io.save_window(dual, path)
        return path
