"""End-to-end tests for the batch CLI: exit codes, flag plumbing, outputs."""

import re

import numpy as np
import pytest

from embml.cli import main
from embml.curves import read_curve
from embml.cube import DataCube, synthesize_cube, write_cube
from embml.scenario import ScenarioConfig

FAST = ["--n", "4", "--k", "8", "--pfa", "0.05", "--trials", "2000",
        "--detectors", "glrt", "amf"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero_and_writes_output(self, tmp_path, capsys):
        out = tmp_path / "thresholds.csv"
        code, stdout, _ = run_cli(
            ["calibrate", *FAST, "--seed", "11", "--out", str(out)], capsys)
        assert code == 0
        assert str(out) in stdout
        text = out.read_text()
        assert text.splitlines()[0] == "detector,pfa,threshold"
        assert "glrt,0.05," in text
        assert "amf,0.05," in text

    def test_invalid_pfa_is_two(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["calibrate", "--pfa", "0.7", "--out", str(tmp_path / "x.csv")],
            capsys)
        assert code == 2
        assert "pfa" in stderr

    def test_unknown_config_key_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nphase = 3\n")
        code, _, stderr = run_cli(
            ["calibrate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "phase" in stderr

    def test_unknown_detector_is_two(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["calibrate", "--detectors", "matched-filter",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "matched-filter" in stderr

    def test_missing_config_file_is_three(self, capsys):
        code, _, stderr = run_cli(
            ["calibrate", "--config", "/no/such/file.ini"], capsys)
        assert code == 3
        assert "file.ini" in stderr

    def test_unwritable_output_is_three(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.csv"
        code, _, _ = run_cli(
            ["calibrate", *FAST, "--out", str(out)], capsys)
        assert code == 3

    def test_missing_cube_file_is_three(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["ingest-run", "--cube", str(tmp_path / "absent.bin"),
             "--n", "4", "--k", "8", "--cut-bin", "4", "--eval-bin", "5",
             "--overlap", "0", "--pfa", "0.2",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 3

    @pytest.mark.parametrize("scnr", [[], ["--scnr", "10"]])
    def test_zero_region_ingest_is_three_and_names_place(
        self, tmp_path, capsys, scnr
    ):
        cfg = ScenarioConfig(n=4, k=8, master_seed=78)
        data = synthesize_cube(cfg, pulses=4 * 300, range_bins=18).data.copy()
        data[:, 9:] = 0.0  # the evaluation region of bin 13
        cube_path = tmp_path / "zero.bin"
        write_cube(DataCube(data), cube_path, "interleaved-binary")
        code, _, stderr = run_cli(
            ["ingest-run", "--cube", str(cube_path), "--n", "4", "--k", "8",
             "--cut-bin", "4", "--eval-bin", "13", "--overlap", "0",
             "--pfa", "0.2", *scnr, "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 3
        assert "zero.bin" in stderr
        assert re.search(r"\bbin 13\b", stderr)
        assert re.search(r"\bwindow 0\b", stderr)


class TestFlagPlumbing:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[run]\npfa = 0.01\ntrials = 10000\nout = ignored.csv\n"
            "detectors = glrt\n[scenario]\nn = 4\nk = 8\n"
        )
        out = tmp_path / "actual.csv"
        code, _, _ = run_cli(
            ["calibrate", "--config", str(cfg), "--pfa", "0.05",
             "--trials", "2000", "--out", str(out)], capsys)
        assert code == 0
        assert out.exists()
        assert not (tmp_path / "ignored.csv").exists()
        assert "glrt,0.05," in out.read_text()

    def test_seed_changes_results_reproducibly(self, tmp_path, capsys):
        outs = [tmp_path / f"t{i}.csv" for i in range(3)]
        for out, seed in zip(outs, ("21", "21", "22")):
            code, _, _ = run_cli(
                ["calibrate", *FAST, "--seed", seed, "--out", str(out)],
                capsys)
            assert code == 0
        assert outs[0].read_text() == outs[1].read_text()
        assert outs[0].read_text() != outs[2].read_text()

    def test_detector_rows_in_canonical_order(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(
            ["calibrate", "--n", "4", "--k", "8", "--pfa", "0.05",
             "--trials", "2000", "--detectors", "em-bml-d3", "glrt",
             "--seed", "12", "--out", str(out)], capsys)
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert rows[0].startswith("glrt,")
        assert rows[1].startswith("em-bml-d3,")


class TestSubcommands:
    def test_pd_curve_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "pd.csv"
        code, stdout, _ = run_cli(
            ["pd-curve", *FAST, "--seed", "31", "--scnr-grid", "14.0",
             "--out", str(out)], capsys)
        assert code == 0
        assert "1 SCNR points" in stdout
        curve = read_curve(out)
        assert curve.axis_names == ("scnr_db",)
        assert curve.rows == 1
        assert curve.detectors == ("glrt", "amf")
        rates, cis = curve.column("glrt")
        assert 0.0 < rates[0] < 1.0
        assert cis[0] > 0.0

    def test_convergence_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code, stdout, _ = run_cli(
            ["convergence", "--n", "4", "--k", "8", "--trials", "1000",
             "--seed", "32", "--l-max", "3", "--scnr-grid", "10.0",
             "--out", str(out)], capsys)
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("iteration,h0_mean_delta,h0_ci")
        assert "scnr10_mean_delta" in header

    def test_ingest_run_end_to_end(self, tmp_path, capsys):
        cfg = ScenarioConfig(n=4, k=8, cnr_db=10.0, master_seed=77)
        cube = synthesize_cube(cfg, pulses=4 * 500, range_bins=10)
        cube_path = tmp_path / "cube.bin"
        write_cube(cube, cube_path, "interleaved-binary")
        out = tmp_path / "rates.csv"
        code, stdout, _ = run_cli(
            ["ingest-run", "--cube", str(cube_path), "--n", "4", "--k", "8",
             "--cnr", "10.0", "--cut-bin", "4", "--eval-bin", "5",
             "--overlap", "0", "--pfa", "0.2", "--detectors", "glrt", "amf",
             "--out", str(out)], capsys)
        assert code == 0
        assert "500 windows" in stdout
        curve = read_curve(out)
        assert curve.axis_names == ("scnr_db",)
        rates, _ = curve.column("glrt")
        # rate - pfa carries binomial noise from both the 500-window
        # threshold estimate and the 500-window evaluation
        sigma = np.sqrt(2 * 0.2 * 0.8 / 500)
        assert abs(rates[0] - 0.2) <= 3 * sigma


class TestWorkerCountReproducibility:
    # more trials than one 4096-trial chunk, so two workers really share them
    GRID = ["--n", "4", "--k", "8", "--pfa", "0.05", "--trials", "4200",
            "--calibration-trials", "2000", "--detectors", "benchmark", "glrt",
            "em-bml-d2", "--seed", "41", "--scnr-grid", "6.0"]

    @pytest.mark.parametrize("command,extra", [
        ("pd-curve", ["--cos-sq-phi", "0.7"]),
        ("mismatch-contour", ["--cos-sq-phi-grid", "0.5", "1.0"]),
    ])
    def test_grid_csv_identical_for_one_and_two_workers(
        self, tmp_path, capsys, command, extra
    ):
        texts = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            code, _, _ = run_cli(
                [command, *self.GRID, *extra, "--workers", workers,
                 "--out", str(out)], capsys)
            assert code == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
