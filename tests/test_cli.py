"""End-to-end tests for the batch CLI: exit codes, flag plumbing, outputs."""

import argparse
import hashlib
import re
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import embml
from embml import cli, engine, harness
from embml.cli import _spec_from_args, build_parser, main
from embml.cube import DataCube, synthesize_cube, write_cube
from embml.scenario import ScenarioConfig, derive_stream_seed

FAST = ["--n", "4", "--k", "8", "--pfa", "0.05", "--trials", "2000",
        "--detectors", "glrt", "amf"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def drawn(monkeypatch):
    """The arguments of every harness._simulate_chunks call, each of which
    fails the test."""
    calls = []

    def draw(*args, **kwargs):
        calls.append(args)
        raise AssertionError("trials were drawn")

    monkeypatch.setattr(harness, "_simulate_chunks", draw)
    return calls


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

    @pytest.mark.parametrize("command, label, via_ini", [
        ("calibrate", "GLRT", False),
        ("pd-curve", "Amf", True),
        ("pfa-sweep", "Amf", True),
        ("mismatch-contour", "Amf", True),
        ("ingest-run", "Amf", True),
    ])
    def test_other_label_spelling_is_two_before_any_draw(
        self, tmp_path, capsys, monkeypatch, drawn, command, label, via_ini
    ):
        opened = []
        monkeypatch.setattr(cli, "ingest_cube", lambda *a: opened.append(a))
        if via_ini:
            ini = write_ini(tmp_path / "run.ini", {
                "run": {"detectors": label},
                "cube": {"path": str(tmp_path / "cube.bin")}})
            args = ["--config", ini]
        else:
            args = ["--detectors", label]
        code, _, stderr = run_cli(
            [command, *args, "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert re.fullmatch(rf"error: .*'{label}'.*\n", stderr)
        assert drawn == []
        assert opened == []

    def test_tiny_pfa_is_two_and_names_pfa(self, tmp_path, capsys):
        # 100/pfa trials overflow the float range below about 5.6e-307
        code, _, stderr = run_cli(
            ["calibrate", "--pfa", "1e-310", "--out", str(tmp_path / "x.csv")],
            capsys)
        assert code == 2
        assert re.fullmatch(r"error: pfa=1e-310 .*\n", stderr)

    # 2^70 + 1, one trial past the block-key space
    PAST_KEYS = str(2**70 + 1)

    @pytest.mark.parametrize("argv, key", [
        # without --calibration-trials, 100/pfa = 1e302 calibration trials
        (["pd-curve", "--pfa", "1e-300", "--scnr-grid", "10", "--trials",
          "1000"], "pfa"),
        (["mismatch-contour", "--pfa", "1e-300", "--scnr-grid", "10",
          "--trials", "1000"], "pfa"),
        (["pd-curve", "--scnr-grid", "10", "--trials", PAST_KEYS], "trials"),
        (["calibrate", "--trials", PAST_KEYS], "trials"),
        (["pd-curve", "--scnr-grid", "10", "--calibration-trials", PAST_KEYS],
         "calibration_trials"),
    ], ids=["pd-curve-pfa", "contour-pfa", "pd-curve-trials",
            "calibrate-trials", "calibration-trials"])
    def test_trials_past_the_block_keys_are_two_before_any_draw(
        self, tmp_path, capsys, drawn, argv, key
    ):
        code, _, stderr = run_cli(
            [*argv, "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert re.fullmatch(rf"error: {key}[ =].*2\^70.*\n", stderr)
        assert drawn == []

    @pytest.mark.parametrize("args, key", [
        (["--scnr", "3100", "--detectors", "benchmark", "amf"], "scnr_db"),
        (["--cnr", "3100"], "cnr_db"),
    ])
    def test_scenario_db_past_the_float_range_is_two_before_any_draw(
        self, tmp_path, capsys, drawn, args, key
    ):
        # 10^(dB/10) overflows a float above about 3082.5 dB
        code, _, stderr = run_cli(
            ["calibrate", *args, "--pfa", "0.05", "--trials", "2000",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert re.fullmatch(rf"error: scenario: {key} .*3100.*\n", stderr)
        assert drawn == []

    @pytest.mark.parametrize("command, cnr_db, grid, key", [
        ("calibrate", "100", [], "scenario"),
        ("pfa-sweep", "100", [], "scenario"),
        # the nominal scenario is in range, but the grid's 100 dB point is
        # not, and the sweep would draw its calibration before that row
        ("pfa-sweep", "20", ["--cnr-grid", "20", "100"], "cnr_grid_db"),
    ], ids=["calibrate", "pfa-sweep", "pfa-sweep-grid"])
    def test_overflowing_clutter_power_is_two_before_any_draw(
        self, tmp_path, capsys, drawn, command, cnr_db, grid, key
    ):
        # each dB value is in range, but M's diagonal 1e300 (1 + 1e10) is not
        ini = write_ini(tmp_path / "loud.ini", {
            "scenario": {"noise_power": "1e300", "cnr_db": cnr_db}})
        code, _, stderr = run_cli(
            [command, "--config", ini, *grid, "--pfa", "0.05", "--trials",
             "2000", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert re.fullmatch(r"error: .*noise_power.*\n", stderr)
        assert "cnr_db" in stderr
        assert key in stderr
        assert drawn == []

    def test_duplicate_convergence_name_is_two_before_any_draw(
        self, tmp_path, capsys, drawn
    ):
        # both print as scnr10 under {:g}, and each configuration draws its
        # own substream, so two columns of one name would differ
        out = tmp_path / "x.csv"
        code, _, stderr = run_cli(
            ["convergence", "--scnr-grid", "10", "10.0000001", "--trials",
             "1000", "--l-max", "2", "--out", str(out)], capsys)
        assert code == 2
        assert re.fullmatch(r"error: .*scnr10\n", stderr)
        assert drawn == []
        assert not out.exists()

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
        # 500 windows calibrate pfa 0.2, so the zero region is the only fault
        cfg = ScenarioConfig(n=4, k=8, master_seed=78)
        data = synthesize_cube(cfg, pulses=4 * 500, range_bins=18).data.copy()
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

    @pytest.mark.parametrize("fault", ["non-ascii", "binary"])
    def test_unreadable_csv_cube_is_three_and_names_place(
        self, tmp_path, capsys, fault
    ):
        cube = synthesize_cube(ScenarioConfig(n=4, k=8, master_seed=80), 40, 10)
        cube_path = tmp_path / "cube.csv"
        if fault == "binary":
            write_cube(cube, cube_path, "interleaved-binary")
        else:
            write_cube(cube, cube_path, "csv")
            lines = cube_path.read_bytes().splitlines(keepends=True)
            lines[2] = lines[2].replace(b",", b"\xc3\xa9,", 1)
            cube_path.write_bytes(b"".join(lines))
        code, _, stderr = run_cli(
            ["ingest-run", "--cube", str(cube_path), "--cube-format", "csv",
             "--n", "4", "--k", "8", "--cut-bin", "4", "--eval-bin", "5",
             "--overlap", "0", "--pfa", "0.2",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 3
        assert re.search(r"cube\.csv:\d+: ", stderr)
        if fault == "non-ascii":
            assert "cube.csv:3: " in stderr

    @pytest.mark.parametrize("format", ["interleaved-binary", "csv"])
    def test_non_finite_cube_is_three_and_names_sample(
        self, tmp_path, capsys, non_finite_cube, format
    ):
        cube_path = non_finite_cube(tmp_path / "cube.dat", format)
        code, _, stderr = run_cli(
            ["ingest-run", "--cube", str(cube_path), "--cube-format", format,
             "--n", "2", "--k", "2", "--cut-bin", "1", "--eval-bin", "2",
             "--overlap", "0", "--pfa", "0.2",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 3
        assert "cube.dat: " in stderr
        assert "pulse 3, range bin 2" in stderr

    def test_too_few_windows_is_two_and_names_cube_and_bin(
        self, tmp_path, capsys
    ):
        cfg = ScenarioConfig(n=8, k=16, master_seed=79)
        cube_path = tmp_path / "short.bin"
        write_cube(synthesize_cube(cfg, pulses=3200, range_bins=18), cube_path,
                   "interleaved-binary")
        code, _, stderr = run_cli(
            ["ingest-run", "--cube", str(cube_path), "--n", "8", "--k", "16",
             "--cut-bin", "8", "--eval-bin", "9", "--overlap", "0",
             "--pfa", "0.05", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "short.bin" in stderr
        assert re.search(r"\bbin 8\b", stderr)
        assert re.search(r"\b400 windows\b", stderr)
        assert re.search(r"\b2000\b", stderr)
        assert "trials" not in stderr


    def test_short_calibration_bin_is_two_before_any_solve(
        self, tmp_path, capsys
    ):
        # the evaluation region is all zeros, so its solve would exit 3;
        # the calibration bin's window count is checked before any solve
        cfg = ScenarioConfig(n=4, k=8, master_seed=78)
        data = synthesize_cube(cfg, pulses=4 * 100, range_bins=18).data.copy()
        data[:, 9:] = 0.0  # the evaluation region of bin 13
        cube_path = tmp_path / "short-zero.bin"
        write_cube(DataCube(data), cube_path, "interleaved-binary")
        code, _, stderr = run_cli(
            ["ingest-run", "--cube", str(cube_path), "--n", "4", "--k", "8",
             "--cut-bin", "4", "--eval-bin", "13", "--overlap", "0",
             "--pfa", "0.05", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "short-zero.bin" in stderr
        assert re.search(r"\bbin 4\b", stderr)
        assert re.search(r"\b100 windows\b", stderr)

    @pytest.mark.parametrize("cut_bin, eval_bin, option", [
        ("8", "17", "eval_bin"), ("17", "8", "cut_bin")])
    def test_out_of_range_bin_is_two_and_names_option_and_cube(
        self, tmp_path, capsys, cut_bin, eval_bin, option
    ):
        cfg = ScenarioConfig(n=8, k=16, master_seed=81)
        cube_path = tmp_path / "narrow.bin"
        write_cube(synthesize_cube(cfg, pulses=8 * 500, range_bins=18),
                   cube_path, "interleaved-binary")
        code, _, stderr = run_cli(
            ["ingest-run", "--cube", str(cube_path), "--n", "8", "--k", "16",
             "--cut-bin", cut_bin, "--eval-bin", eval_bin, "--overlap", "0",
             "--pfa", "0.2", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "narrow.bin" in stderr
        assert re.search(rf"\bbin 17 \({option}\)", stderr)
        assert "18-bin cube" in stderr

    @pytest.mark.parametrize("scnr, rank", [
        ([], 0), (["--scnr", "10"], 0), ([], 3), (["--scnr", "10"], 3)],
        ids=["scnr0", "scnr1", "rank3-scnr0", "rank3-scnr1"])
    def test_singular_window_is_named_by_its_index_in_the_bin(
        self, tmp_path, capsys, scnr, rank
    ):
        # windows are evaluated in blocks of 256; window 300 lies in the
        # second block, at offset 44
        cfg = ScenarioConfig(n=4, k=8, master_seed=82)
        data = synthesize_cube(cfg, pulses=4 * 1000, range_bins=18).data.copy()
        late = data[4 * 300:]  # the pulses of window 300 on
        if rank == 0:
            late[:, 9:] = 0.0  # the evaluation region of bin 13
        else:
            # the eight secondary bins are nonzero multiples of bins 9, 10
            # and 11, so they span 3 < n = 4 dimensions
            late[:, [12, 14, 15, 16, 17]] = (
                late[:, [9, 10, 11, 9, 10]] * [2.0, -3.0, 1j, 0.5, -2j])
        cube_path = tmp_path / "late-zero.bin"
        write_cube(DataCube(data), cube_path, "interleaved-binary")
        code, _, stderr = run_cli(
            ["ingest-run", "--cube", str(cube_path), "--n", "4", "--k", "8",
             "--cut-bin", "4", "--eval-bin", "13", "--overlap", "0",
             "--pfa", "0.2", *scnr, "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 3
        assert "late-zero.bin" in stderr
        assert re.search(r"\bbin 13\b", stderr)
        assert re.search(r"\bwindow 300\b", stderr)

    @pytest.mark.parametrize("command, grid, key", [
        ("pd-curve", ["--scnr-grid", "0", "nan"], "scnr_grid_db"),
        ("convergence", ["--scnr-grid", "nan"], "scnr_grid_db"),
        # pfa-sweep calibrates on its own trials
        ("pfa-sweep", ["--cnr-grid", "30", "inf", "--trials", "100000000"],
         "cnr_grid_db"),
        # 10^(dB/10) overflows a float above about 3082.5 dB
        ("pd-curve", ["--scnr-grid", "0", "3100"], "scnr_grid_db"),
        ("pfa-sweep", ["--cnr-grid", "30", "3100", "--trials", "100000000"],
         "cnr_grid_db"),
    ])
    def test_non_finite_grid_value_is_two_before_any_draw(
        self, tmp_path, capsys, drawn, command, grid, key
    ):
        # at --pfa 1e-6 a calibration drawn before the check would be 10^8
        # trials
        code, _, stderr = run_cli(
            [command, *grid, "--pfa", "1e-6",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert key in stderr
        assert drawn == []

    def test_non_finite_convergence_trace_is_two_with_one_error_line(
        self, tmp_path
    ):
        # at 3000 dB every value of the EM trace is finite, but its first
        # iteration's mean is about 1e283, so the squared deviations behind
        # its CI pass the float range. Run in a fresh interpreter, so that a
        # numpy warning would reach stderr.
        out = tmp_path / "x.csv"
        src = str(Path(embml.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "embml.cli", "convergence",
             "--scnr-grid", "3000", "--trials", "1000", "--l-max", "3",
             "--out", str(out)],
            cwd=src, capture_output=True, text=True,
        )
        assert run.returncode == 2
        assert run.stderr == (
            f"error: scnr3000: {engine.TRACE}: the mean or CI is not finite, "
            "first at iteration 1\n")
        assert not out.exists()

    def test_nominal_point_at_an_overflowing_power_forms_no_scatter(
        self, tmp_path, capsys
    ):
        # S = Z Z^H would sum k products of about 1.01e308 at noise_power
        # 1e306 and 20 dB, but the calibration draws the maximal invariant
        # and forms no S, so a sweep of the nominal point alone writes the
        # rates of its null ensemble at calibrate's thresholds (called
        # here through the API: the CLI's calibrate refuses this INI, whose
        # default CNR grid overflows)
        ini = tmp_path / "huge.ini"
        ini.write_text("[scenario]\nnoise_power = 1e306\ncnr_db = 20\n")
        out = tmp_path / "x.csv"
        argv = ["pfa-sweep", "--config", str(ini), "--n", "4", "--k", "8",
                "--pfa", "0.05", "--trials", "2000", "--cnr-grid", "20",
                "--rho-grid", "0.9", "--out", str(out)]
        code, _, stderr = run_cli(argv, capsys)
        assert code == 0, stderr
        spec = spec_of(argv)
        thresholds = harness.calibrate(spec.scenario, spec.detectors,
                                       spec.pfa, spec.trials)
        null = list(harness._simulate_chunks(
            (harness._null_config(spec.scenario),), spec.detectors,
            spec.trials, invariant=True, stream_seed=derive_stream_seed(
                spec.scenario.master_seed, harness._PHASE_CALIBRATION)))
        expected = [20.0, 0.9]
        for lab in spec.detectors:
            stats = np.concatenate([part[0, lab] for part in null])
            expected += harness.estimate_rate(stats, thresholds[lab])
        np.testing.assert_array_equal(
            np.loadtxt(out, delimiter=",", skiprows=1), expected)

    @pytest.mark.parametrize("power, cnr_grid, point", [
        # an off-nominal row at the nominal rho
        ("1e300", ["20", "80"], "cnr_db=80.0, rho=0.9")],
        ids=["row"])
    def test_overflowing_scatter_names_its_clutter_point(
        self, tmp_path, capsys, power, cnr_grid, point
    ):
        # S = Z Z^H sums k products of about the clutter power, 1.01e308 at
        # noise_power 1e306 and 20 dB, or 1e308 at 1e300 and 80 dB, past the
        # float range
        ini = tmp_path / "huge.ini"
        ini.write_text(f"[scenario]\nnoise_power = {power}\ncnr_db = 20\n")
        code, _, stderr = run_cli(
            ["pfa-sweep", "--config", str(ini), "--n", "4", "--k", "8",
             "--pfa", "0.05", "--trials", "2000", "--cnr-grid", *cnr_grid,
             "--rho-grid", "0.9", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert re.fullmatch(
            rf"error: {re.escape(point)}: glrt: .* not finite, first at "
            r"trial \d+\n", stderr)

    def test_unrequested_statistic_warns_of_nothing(self, tmp_path, capsys):
        # 200 dB is far past where Pd saturates, and the run must still
        # print nothing: pytest turns a RuntimeWarning into an error, so a
        # statistic that warned, asked for or not, would fail
        code, _, stderr = run_cli(
            ["pd-curve", "--detectors", "amf", "em-bml-d5",
             "--scnr-grid", "200", "--pfa", "0.05", "--trials", "2000",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 0
        assert stderr == ""

    @pytest.mark.parametrize("command, grid, row", [
        ("pd-curve", ["--scnr-grid", "3080"], "scnr_db=3080.0"),
        # the 10 dB row is finite, so the error names the other row
        ("pd-curve", ["--scnr-grid", "10", "3080"], "scnr_db=3080.0"),
        ("mismatch-contour", ["--scnr-grid", "3080", "--cos-sq-phi-grid",
                              "0.5"], "cos_sq_phi=0.5, scnr_db=3080.0"),
    ], ids=["pd-curve", "pd-curve-two-rows", "mismatch-contour"])
    def test_overflowing_statistic_is_two_with_one_error_line(
        self, tmp_path, capsys, command, grid, row
    ):
        # at 3080 dB the EM recursion's (k+1) t passes the float range for
        # some trials; pytest turns the RuntimeWarning numpy would print
        # into an error
        code, _, stderr = run_cli(
            [command, *grid, "--detectors", "amf", "glrt", "em-bml-d5",
             "--pfa", "0.05", "--trials", "2000",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert re.fullmatch(
            rf"error: {re.escape(row)}: em-bml-d5: .* not finite, .*\n", stderr)

    def test_non_finite_window_statistic_is_three_with_one_error_line(
        self, tmp_path
    ):
        # pulses 2400-2407 of the evaluation bin are its window 300, in the
        # second block of 256; their all-zero CUT makes the ACE 0/0. Run in
        # a fresh interpreter, so that a numpy warning would reach stderr.
        data = synthesize_cube(ScenarioConfig(n=8, k=16, master_seed=3),
                               8000, 18).data.copy()
        data[2400:2408, 9] = 0.0
        cube_path = tmp_path / "zero-cut.bin"
        write_cube(DataCube(data), cube_path, "interleaved-binary")
        src = str(Path(embml.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "embml.cli", "ingest-run",
             "--cube", str(cube_path), "--cut-bin", "8", "--eval-bin", "9",
             "--overlap", "0", "--pfa", "0.1", "--n", "8", "--k", "16",
             "--out", str(tmp_path / "x.csv")],
            cwd=src, capture_output=True, text=True,
        )
        assert run.returncode == 3
        assert run.stderr == (
            f"error: {cube_path}: range bin 9, window 300: ace statistic is "
            "not finite\n")


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
        header, *rows = out.read_text().splitlines()
        assert header == "scnr_db,glrt_rate,glrt_ci,amf_rate,amf_ci"
        assert len(rows) == 1
        _, rate, ci = map(float, rows[0].split(",")[:3])
        assert 0.0 < rate < 1.0
        assert ci > 0.0

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
        header, row = out.read_text().splitlines()
        assert header.split(",")[:2] == ["scnr_db", "glrt_rate"]
        rate = float(row.split(",")[1])
        # rate - pfa carries binomial noise from both the 500-window
        # threshold estimate and the 500-window evaluation
        sigma = np.sqrt(2 * 0.2 * 0.8 / 500)
        assert abs(rate - 0.2) <= 3 * sigma


class TestBenchmarkOnlyGrid:
    GRID = ["pd-curve", "--n", "4", "--k", "8", "--pfa", "0.05", "--trials",
            "1000", "--seed", "43", "--scnr-grid", "3.0", "9.0"]

    def test_benchmark_only_skips_the_null_calibration(
        self, tmp_path, capsys, monkeypatch
    ):
        import embml.harness

        calls = []
        chunks = embml.harness._simulate_chunks

        def counting(*args, **kwargs):
            calls.append(args)
            return chunks(*args, **kwargs)

        monkeypatch.setattr(embml.harness, "_simulate_chunks", counting)
        texts = []
        for cal_trials in ("2000", "40000"):
            out = tmp_path / f"bench{cal_trials}.csv"
            calls.clear()
            code, _, _ = run_cli(
                [*self.GRID, "--detectors", "benchmark",
                 "--calibration-trials", cal_trials, "--out", str(out)], capsys)
            assert code == 0
            assert len(calls) == 1  # one for the grid's rows, none to calibrate
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

        # the benchmark column does not depend on whether a calibration ran
        both = tmp_path / "both.csv"
        code, _, _ = run_cli(
            [*self.GRID, "--detectors", "benchmark", "glrt",
             "--calibration-trials", "2000", "--out", str(both)], capsys)
        assert code == 0
        alone = np.loadtxt(tmp_path / "bench2000.csv", delimiter=",",
                           skiprows=1)
        assert both.read_text().split("\n")[0] == (
            "scnr_db,glrt_rate,glrt_ci,benchmark_rate,benchmark_ci")
        np.testing.assert_array_equal(
            np.loadtxt(both, delimiter=",", skiprows=1)[:, 3:], alone[:, 1:])


# The sha256 of each subcommand's CSV at n8/k16 and master seed 77. They
# pin every byte a change to the harness must leave as it is.
PINNED = ["--n", "8", "--k", "16", "--seed", "77"]
CLUTTER_GRIDS = ["--cnr-grid", "30", "70", "--rho-grid", "0.5", "0.9"]
CURVE = ["--pfa", "0.01", "--trials", "5000", "--calibration-trials", "10000"]
CUBE_RUN = ["--pfa", "0.05", "--cut-bin", "8", "--eval-bin", "9",
            "--overlap", "0"]
CSV_DIGESTS = {
    "calibrate": (
        ["calibrate", "--pfa", "0.01", "--trials", "10000"],
        "1c2c0cbdde1805ca75d6bd53f714d27a6bc46df30a3be167c3a85ba3b31090ab"),
    "calibrate benchmark": (
        ["calibrate", "--pfa", "0.01", "--trials", "10000", "--detectors",
         "glrt", "amf", "benchmark", "--scnr", "10"],
        "323f362d3f6324ba06c406239252b20c28ae830498a041c0f2048b238237118c"),
    "pfa-sweep": (
        ["pfa-sweep", "--pfa", "0.01", "--trials", "10000", *CLUTTER_GRIDS],
        "d0281a8c187cf94086694f8f2bf778a2a12032feec10ee81b4e5cf7bfd47fc1c"),
    "pfa-sweep benchmark": (
        ["pfa-sweep", "--pfa", "0.01", "--trials", "10000", *CLUTTER_GRIDS,
         "--detectors", "glrt", "amf", "em-bml-d2", "benchmark",
         "--scnr", "6", "--workers", "2"],
        "f707e75b1e51efb238efbe737cce8ffca054d4ea06eddb37a37ccc8047e21533"),
    "pd-curve": (
        ["pd-curve", *CURVE, "--scnr-grid", "0", "5", "10", "15",
         "--detectors", "benchmark", "glrt", "amf", "em-bml-d5"],
        "98f1b64fd71b750b231c6fd6d6dd12519c4d1903dc9e48cfe662c33ab392fffa"),
    "pd-curve benchmark": (
        ["pd-curve", *CURVE, "--scnr-grid", "0", "5", "10", "15",
         "--detectors", "benchmark"],
        "2d7ca66b8e42f44daa9e5c81decfd3355717230f4a35d1afdd122424761da816"),
    "mismatch-contour": (
        ["mismatch-contour", "--pfa", "0.01", "--trials", "2000",
         "--calibration-trials", "10000", "--scnr-grid", "12",
         "--cos-sq-phi-grid", "0.25", "0.5", "1", "--detectors", "amf",
         "em-bml-d5", "benchmark"],
        "6fa5e771f5ffd6f185d930814dc514c5735357a8738df4cb4cf4b36c263674cb"),
    "convergence": (
        ["convergence", "--trials", "5000", "--l-max", "6",
         "--scnr-grid", "10", "15"],
        "0bdfb6eafc6a19a9462b0b8704294011b47d3b6d00a9f004d769dc78fa95fe9a"),
    "ingest-run binary": (
        ["ingest-run", *CUBE_RUN, "--cube", "{cube}.bin"],
        "2f5c4f8ccce7494a46d1bc1a358898e668f421c4cc598dae67fa30cd0c03ded8"),
    "ingest-run csv": (
        ["ingest-run", *CUBE_RUN, "--cube", "{cube}.csv", "--cube-format",
         "csv", "--scnr", "8"],
        "efb496ccae16aefc537d8944ecaa78945709c877da07be2390038c848df6a522"),
}


@pytest.fixture(scope="module")
def pinned_cube(tmp_path_factory):
    """The seed-77 16 000 x 18 cube in both encodings; the path stem."""
    stem = tmp_path_factory.mktemp("cube") / "cube"
    cube = synthesize_cube(ScenarioConfig(n=8, k=16, master_seed=77),
                           pulses=16_000, range_bins=18)
    write_cube(cube, f"{stem}.bin", "interleaved-binary")
    write_cube(cube, f"{stem}.csv", "csv")
    return stem


class TestCsvDigests:
    @pytest.mark.parametrize("name", CSV_DIGESTS)
    def test_csv_bytes_are_pinned(self, tmp_path, capsys, pinned_cube, name):
        argv, expected = CSV_DIGESTS[name]
        out = tmp_path / "out.csv"
        code, _, stderr = run_cli(
            [*(a.format(cube=pinned_cube) for a in argv), *PINNED,
             "--out", str(out)], capsys)
        assert code == 0, stderr
        seen = hashlib.sha256(out.read_bytes()).hexdigest()
        assert seen == expected, f"{name}: sha256 {seen}"


# pfa-sweep is the only subcommand that takes --workers; 8192 trials make
# two 4096-trial chunks, so two workers really share them
SWEEP = ["pfa-sweep", "--n", "4", "--k", "8", "--pfa", "0.05",
         "--trials", "8192", "--cnr-grid", "30", "--rho-grid", "0.5"]


class TestWorkerCountReproducibility:
    def test_pfa_sweep_csv_identical_for_one_and_two_workers(
        self, tmp_path, capsys, counted_pools
    ):
        texts, pools = [], []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            code, _, _ = run_cli(
                [*SWEEP, "--detectors", "benchmark", "glrt", "em-bml-d2",
                 "--scnr", "6.0", "--seed", "41", "--workers", workers,
                 "--out", str(out)], capsys)
            assert code == 0
            texts.append(out.read_bytes())
            pools.append(len(counted_pools))
        assert texts[0] == texts[1]
        assert pools[0] == 0 < pools[1]

    # the grid commands take no --workers flag; a workers key in the INI
    # must leave their output as it is
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
            cfg = write_ini(tmp_path / f"w{workers}.ini",
                            {"run": {"workers": workers}})
            out = tmp_path / f"w{workers}.csv"
            code, _, _ = run_cli(
                [command, "--config", cfg, *self.GRID, *extra,
                 "--out", str(out)], capsys)
            assert code == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestWorkersOnlyOnPfaSweep:
    @pytest.mark.parametrize("command", ["pd-curve", "ingest-run"])
    def test_workers_flag_outside_pfa_sweep_is_two(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command,grid", [
        ("calibrate", []), ("pd-curve", ["--scnr-grid", "6"]),
        ("mismatch-contour", ["--scnr-grid", "6"]),
        ("convergence", ["--scnr-grid", "6", "--l-max", "2"])])
    def test_workers_key_outside_pfa_sweep_builds_no_pool(
        self, tmp_path, capsys, counted_pools, command, grid
    ):
        cfg = write_ini(tmp_path / "w.ini", {"run": {"workers": "2"}})
        code, _, stderr = run_cli(
            [command, "--config", cfg, "--n", "4", "--k", "8", "--pfa", "0.05",
             "--trials", "8192", "--detectors", "glrt", *grid,
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 0, stderr
        assert counted_pools == []


class TestCalibrationTrialsOnlyWhereRead:
    @pytest.mark.parametrize("command", ["pfa-sweep", "convergence", "ingest-run"])
    def test_flag_is_two_and_ini_key_parses(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--calibration-trials", "4000"])
        assert exc.value.code == 2
        assert "--calibration-trials" in capsys.readouterr().err
        keyed = {**BASE_INI, "run": {**BASE_INI["run"],
                                     "calibration_trials": "4000"}}
        spec = spec_of([command, "--config", write_ini(tmp_path / "c.ini", keyed)])
        assert spec.calibration_trials == 4000


class TestWorkerThreads:
    def test_non_finite_statistic_on_a_thread_is_two_with_one_error_line(
        self, tmp_path, capsys, nan_in_second_chunk
    ):
        code, _, stderr = run_cli(
            [*SWEEP, "--detectors", "glrt", "amf", "--workers", "2",
             "--out", str(tmp_path / "x.csv")], capsys)
        # the off-nominal row, the one whose chunks run on the threads
        assert code == 2
        assert re.fullmatch(
            rf"error: cnr_db=30.0, rho=0.5: amf: .* first at trial "
            rf"{nan_in_second_chunk}\n", stderr)


# one run of each subcommand that simulates trials
SIMULATING_RUNS = {
    "calibrate": ["calibrate", *FAST],
    "pfa-sweep": ["pfa-sweep", *FAST, "--cnr-grid", "30", "70",
                  "--rho-grid", "0.5"],
    "pfa-sweep nominal": ["pfa-sweep", *FAST, "--cnr-grid", "30",
                          "--rho-grid", "0.9"],
    "pd-curve": ["pd-curve", *FAST, "--scnr-grid", "0", "6"],
    "mismatch-contour": ["mismatch-contour", *FAST, "--scnr-grid", "6",
                         "--cos-sq-phi-grid", "0.5", "1"],
    "convergence": ["convergence", "--n", "4", "--k", "8", "--trials",
                    "1000", "--l-max", "3", "--scnr-grid", "10"],
}


class TestEveryRunIsAGrid:
    @pytest.mark.parametrize("name", SIMULATING_RUNS)
    def test_engine_gets_rows_and_yields_row_keyed_parts(
        self, tmp_path, capsys, monkeypatch, name
    ):
        calls = []
        simulate = harness._simulate_chunks

        def recorded(rows, labels, n_trials, *, stream_seed, invariant=False,
                     **kwargs):
            calls.append((rows, stream_seed, invariant))
            with closing(simulate(rows, labels, n_trials,
                                  stream_seed=stream_seed,
                                  invariant=invariant, **kwargs)) as parts:
                for part in parts:
                    assert all(isinstance(key, tuple) and len(key) == 2
                               and isinstance(key[0], int)
                               and isinstance(key[1], str) for key in part)
                    yield part

        monkeypatch.setattr(harness, "_simulate_chunks", recorded)
        argv = SIMULATING_RUNS[name]
        code, _, stderr = run_cli(
            [*argv, "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 0, stderr
        assert calls
        for rows, _, _ in calls:
            assert isinstance(rows, tuple) and rows
            assert all(isinstance(row, ScenarioConfig) for row in rows)
            assert len({(row.n, row.k) for row in rows}) == 1
        # every calibration draws the maximal invariant; only the sweep's
        # off-nominal grid draws data, and a nominal-only sweep draws none
        seed = spec_of(argv).scenario.master_seed
        calibration = derive_stream_seed(seed, harness._PHASE_CALIBRATION)
        streams = [(stream, invariant) for _, stream, invariant in calls]
        assert ((calibration, True) in streams) == (name != "convergence")
        assert (calibration, False) not in streams
        data = [stream for stream, invariant in streams if not invariant]
        assert data == ([derive_stream_seed(seed, harness._PHASE_SWEEP, 0)]
                        if name == "pfa-sweep" else [])


# Every value flag of every subcommand: its config key and a value that
# differs from both the defaults and BASE_INI.
COMMON_FLAGS = {
    "--seed": ("scenario", "master_seed", ["17"]),
    "--out": ("run", "out", ["flag.csv"]),
    "--pfa": ("run", "pfa", ["0.1"]),
    "--trials": ("run", "trials", ["3000"]),
    "--detectors": ("run", "detectors", ["glrt", "em-bml-d3"]),
    "--l-max": ("run", "l_max", ["3", "9"]),
    "--n": ("scenario", "n", ["6"]),
    "--k": ("scenario", "k", ["12"]),
    "--rho": ("scenario", "rho", ["0.5"]),
    "--cnr": ("scenario", "cnr_db", ["40.5"]),
    "--doppler": ("scenario", "doppler", ["0.25"]),
    "--scnr": ("scenario", "scnr_db", ["12.5"]),
    "--cos-sq-phi": ("scenario", "cos_sq_phi", ["0.7"]),
}
SCNR_GRID = {"--scnr-grid": ("grids", "scnr_db", ["0", "7.5"])}
CAL_TRIALS = {"--calibration-trials": ("run", "calibration_trials", ["4000"])}
COMMAND_FLAGS = {
    "calibrate": CAL_TRIALS,
    "pfa-sweep": {"--cnr-grid": ("grids", "cnr_db", ["30", "50.5"]),
                  "--rho-grid": ("grids", "rho", ["0.5", "0.75"]),
                  "--workers": ("run", "workers", ["2"])},
    "pd-curve": {**SCNR_GRID, **CAL_TRIALS},
    "mismatch-contour": {
        **SCNR_GRID, **CAL_TRIALS,
        "--cos-sq-phi-grid": ("grids", "cos_sq_phi", ["0.5", "1"])},
    "convergence": SCNR_GRID,
    "ingest-run": {"--cube": ("cube", "path", ["other.bin"]),
                   "--cube-format": ("cube", "format", ["csv"]),
                   "--cut-bin": ("cube", "cut_bin", ["3"]),
                   "--eval-bin": ("cube", "eval_bin", ["5"]),
                   "--overlap": ("cube", "overlap", ["2"])},
}
FLAG_CASES = [
    pytest.param(command, flag, *where, id=f"{command} {flag}")
    for command, extra in COMMAND_FLAGS.items()
    for flag, where in {**COMMON_FLAGS, **extra}.items()
]
# flag text that only the INI key's own parser accepts
KEY_SYNTAX_CASES = [
    pytest.param("pd-curve", "--scnr", "scenario", "scnr_db", ["none"],
                 id="pd-curve --scnr none"),
    pytest.param("convergence", "--l-max", "run", "l_max", ["3,9"],
                 id="convergence --l-max 3,9"),
]
# valid for every subcommand; scnr_db is set so that "--scnr none" moves it
BASE_INI = {"run": {"pfa": "0.05", "trials": "2000", "out": "base.csv"},
            "scenario": {"n": "4", "k": "8", "scnr_db": "3"},
            "cube": {"path": "cube.bin", "overlap": "0"}}


def spec_of(argv):
    return _spec_from_args(build_parser().parse_args(argv))


def write_ini(path, sections):
    path.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for section, items in sections.items()))
    return str(path)


def parser_value_flags():
    """(subcommand, option string) for every flag but --help and --config."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        (command, action.option_strings[-1])
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


class TestFlagIniEquivalence:
    def test_case_list_is_the_parsers_flag_list(self):
        cases = {tuple(case.values[:2]) for case in FLAG_CASES}
        assert cases == parser_value_flags()

    @pytest.mark.parametrize("command,flag,section,key,value",
                             FLAG_CASES + KEY_SYNTAX_CASES)
    def test_flag_equals_ini_key(self, tmp_path, command, flag, section, key,
                                 value):
        base = write_ini(tmp_path / "base.ini", BASE_INI)
        keyed = {**BASE_INI, section: {**BASE_INI.get(section, {}),
                                       key: " ".join(value)}}
        with_key = write_ini(tmp_path / "keyed.ini", keyed)
        from_flag = spec_of([command, "--config", base, flag, *value])
        assert from_flag == spec_of([command, "--config", with_key])
        assert from_flag != spec_of([command, "--config", base])


class TestFlagsOnTopOfConfig:
    def test_file_is_validated_as_the_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\ntrials = 1000\n")
        code, _, stderr = run_cli(
            ["convergence", "--config", str(cfg), "--n", "4", "--k", "8",
             "--l-max", "2", "--scnr-grid", "10",
             "--out", str(tmp_path / "conv.csv")], capsys)
        assert code == 0, stderr

    def test_flags_apply_before_validation(self, tmp_path, capsys):
        cfg = tmp_path / "p.ini"
        cfg.write_text("[run]\ntrials = 2000\n")
        out = tmp_path / "t.csv"
        code, _, stderr = run_cli(
            ["calibrate", "--config", str(cfg), "--pfa", "0.05", "--n", "4",
             "--k", "8", "--seed", "14", "--out", str(out)], capsys)
        assert code == 0, stderr
        assert "glrt,0.05," in out.read_text()

    def test_l_max_flag_sets_default_em_detectors(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(
            ["calibrate", "--n", "4", "--k", "8", "--pfa", "0.05",
             "--trials", "2000", "--l-max", "3", "9", "--seed", "15",
             "--out", str(out)], capsys)
        assert code == 0
        labels = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
        assert labels == ["glrt", "amf", "rao", "ace", "em-bml-d3", "em-bml-d9"]


class TestParserBuiltOnce:
    def test_main_reuses_one_parser(self, tmp_path, monkeypatch, capsys):
        from embml import cli

        built = []
        monkeypatch.setattr(
            cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        for pfa in ("0.7", "0.8"):
            code, _, _ = run_cli(
                ["calibrate", "--pfa", pfa, "--out", str(tmp_path / "x.csv")],
                capsys)
            assert code == 2
        assert built == [1]
        cli._parser.cache_clear()
