"""Tests for cube file formats, synthesis, and sliding-window evaluation."""

import hashlib
import io
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import embml
import embml.cube as cube_module

from embml.config import ExperimentSpec
from embml.cube import (
    DataCube,
    FormatError,
    InsufficientData,
    ingest_cube,
    read_cube_binary,
    read_cube_csv,
    sliding_window_run,
    synthesize_cube,
    window_count,
    write_cube,
    write_cube_binary,
    write_cube_csv,
)
from embml.engine import statistics_from_stacks
from embml.harness import (
    TrialEnsemble,
    calibrate_threshold,
    estimate_rate,
    order_labels,
)
from embml.linalg import HermitianMatrix
from embml.scenario import (
    ScenarioConfig,
    _standard_complex,
    build_covariance,
    derive_stream_seed,
    steering_vector,
    trial_rng,
)


# (text, whether the C tokenizer reads it): the line parser alone must
# give the same bytes or the same FormatError
CSV_CASES = [
    pytest.param(b"1.0,2.0\n\n3.0,4.0\n", True, id="blank-line"),
    pytest.param(b"1.0,2.0\n   \n3.0,4.0\n", False, id="whitespace-line"),
    pytest.param(b" 1.0 , 2.0 \n3.0,\t4.0\n", True, id="spaced-cells"),
    pytest.param(b"1.0,2.0\r\n3.0,4.0\r\n", True, id="crlf"),
    pytest.param(b"1_0,2.0\n", False, id="underscore"),
    pytest.param(b"Infinity,2.0\n", True, id="infinity"),
    pytest.param(b"+1.5,.5\n5.,-0.0\n", True, id="signs-and-dots"),
    pytest.param(b"1e400,1.0\n", True, id="overflow"),
    pytest.param(b"1.0#,2.0\n", False, id="hash"),
    pytest.param(b'"1.0",2.0\n', False, id="quoted"),
    pytest.param(b"1.0,,2.0,3.0\n", False, id="empty-field"),
    pytest.param(b"1.0,2.0,\n", False, id="trailing-comma"),
    pytest.param(b"1.0,2.0\n1.0,2.0,3.0,4.0\n", False, id="ragged"),
    pytest.param(b"1.0,2.0,3.0\n", False, id="odd-cells"),
    pytest.param(b"", False, id="empty-file"),
    pytest.param(b"1.0,2.0\n", True, id="one-pair"),
    pytest.param(b"1.0,2.0\n3.0,4\xc3\xa9\n", False, id="non-ascii"),
    pytest.param(b"1.0\x1c,2.0\n", False, id="separator-byte"),
    pytest.param(b"1.0,2.0\r3.0,4.0\n", False, id="lone-cr"),
]


class TestBinaryFormat:
    def test_zero_cube_round_trip(self, tmp_path):
        path = tmp_path / "zeros.bin"
        write_cube_binary(DataCube(np.zeros((2, 2))), path)
        back = read_cube_binary(path)
        assert back.data.shape == (2, 2)
        np.testing.assert_array_equal(back.data, np.zeros((2, 2)))

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        data = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        data[0, 0] = complex(-0.0, 5e-324)
        data[3, 2] = complex(1.0, -0.0)
        path = tmp_path / "cube.bin"
        write_cube_binary(DataCube(data), path)
        back = read_cube_binary(path).data
        assert back.view(np.uint8).tobytes() == data.view(np.uint8).tobytes()

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(FormatError):
            read_cube_binary(path)

    def test_payload_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        write_cube_binary(DataCube(np.zeros((2, 2))), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            read_cube_binary(path)


class TestCsvFormat:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(62)
        data = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        data[0, 0] = complex(-0.0, 5e-324)
        data[2, 1] = complex(1.0, -0.0)
        path = tmp_path / "cube.csv"
        write_cube_csv(DataCube(data), path)
        back = read_cube_csv(path).data
        assert back.view(np.uint8).tobytes() == data.view(np.uint8).tobytes()

    def test_odd_cell_count_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(FormatError):
            read_cube_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n1.0,2.0,3.0,4.0\n")
        with pytest.raises(FormatError):
            read_cube_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_cube_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1.0,spam\n")
        with pytest.raises(FormatError):
            read_cube_csv(path)

    @pytest.mark.parametrize("text,tokenized", CSV_CASES)
    def test_tokenizer_and_line_parser_agree(self, tmp_path, monkeypatch,
                                             text, tokenized):
        path = tmp_path / "cube.csv"
        path.write_bytes(text)

        def read():
            try:
                return read_cube_csv(path).data.view(np.uint8).tobytes()
            except FormatError as err:
                return f"FormatError: {err}"

        assert (cube_module._tokenized_csv(text) is not None) == tokenized
        got = read()
        monkeypatch.setattr(cube_module, "_tokenized_csv", lambda text: None)
        assert got == read()

    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("text,tokenized", CSV_CASES + [
        pytest.param(b"1.0,2.0\n3.0,4.0\x1f\n", False, id="late-separator"),
        pytest.param(b"1.0,2.0\n" * 4 + b"3.0,4\xc3\xa9\n", False,
                     id="late-non-ascii"),
    ])
    def test_block_size_changes_nothing(self, tmp_path, monkeypatch, text,
                                        tokenized, block):
        # small blocks cut the text into runs of a line or a few; a refused
        # run after runs already tokenized goes to the line parser where it
        # stands
        path = tmp_path / "cube.csv"
        path.write_bytes(text)

        def read():
            try:
                return read_cube_csv(path).data.view(np.uint8).tobytes()
            except FormatError as err:
                return f"FormatError: {err}"

        whole = read()
        monkeypatch.setattr(cube_module, "_READ_BLOCK", block)
        assert (cube_module._tokenized_csv(text) is not None) == tokenized
        assert read() == whole

    def test_fault_after_tokenized_runs_is_named_by_its_line(
        self, tmp_path, monkeypatch
    ):
        # small blocks cut the text into runs of a few lines; those before
        # line 40, blank and CRLF lines among them, count toward its number
        head = (b"1.0,2.0\n" + b"\n" + b"3.0,4.0\r\n") * 13
        path = tmp_path / "cube.csv"
        path.write_bytes(head + b"5.0,spam\n" + b"1.0,2.0\n" * 5)
        tokenizer = cube_module._tokenized_csv
        accepted = []

        def recording(text):
            cells = tokenizer(text)
            accepted.append(cells is not None)
            return cells

        monkeypatch.setattr(cube_module, "_READ_BLOCK", 20)
        monkeypatch.setattr(cube_module, "_tokenized_csv", recording)
        with pytest.raises(FormatError, match=(
                rf"^{re.escape(str(path))}:40: could not convert string "
                r"to float: 'spam'$")):
            read_cube_csv(path)
        assert sum(accepted) >= 5

    def test_well_formed_file_never_reaches_the_line_parser(
        self, tmp_path, monkeypatch
    ):
        data = synthesize_cube(ScenarioConfig(master_seed=69), 40, 6).data.copy()
        data[0, 0] = complex(-0.0, 5e-324)
        path = tmp_path / "cube.csv"
        write_cube_csv(DataCube(data), path)

        def refuse(*args):
            raise AssertionError("line parser reached")

        monkeypatch.setattr(cube_module, "_parse_csv_lines", refuse)
        back = read_cube_csv(path).data
        assert back.view(np.uint8).tobytes() == data.view(np.uint8).tobytes()

    def test_peak_memory_is_near_the_cube(self, tmp_path, monkeypatch):
        # the text is read in blocks and the cells go straight into the
        # cube's buffer, on the tokenizer path and on the line-parser path
        cube = synthesize_cube(ScenarioConfig(master_seed=87), 20_000, 18)
        path = tmp_path / "cube.csv"
        write_cube_csv(cube, path)
        parsed = []

        def recording(*args):
            parsed.append(args)
            return line_parser(*args)

        line_parser = cube_module._parse_csv_lines
        monkeypatch.setattr(cube_module, "_parse_csv_lines", recording)
        peaks = {}
        for route, tail in (("tokenizer", ""), ("line parser", "   \n")):
            with open(path, "a") as fh:
                fh.write(tail)
            tracemalloc.start()
            try:
                back = read_cube_csv(path).data
                peaks[route] = tracemalloc.get_traced_memory()[1] / cube.data.nbytes
            finally:
                tracemalloc.stop()
            assert back.tobytes() == cube.data.tobytes()
            assert len(parsed) == (route == "line parser")
        assert max(peaks.values()) <= 1.5, peaks

    def test_writer_matches_cell_by_cell_reference(self, tmp_path):
        rng = np.random.default_rng(67)
        data = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        data[0, 0] = complex(-0.0, 5e-324)
        data[1, 2] = complex(1e300, -0.0)
        data[4, 1] = complex(-1e300, 2.2250738585072014e-308)
        path = tmp_path / "cube.csv"
        write_cube_csv(DataCube(data), path)
        lines = []
        for i in range(data.shape[0]):
            cells = []
            for j in range(data.shape[1]):
                cells.append(repr(float(data[i, j].real)))
                cells.append(repr(float(data[i, j].imag)))
            lines.append(",".join(cells) + "\n")
        assert path.read_text() == "".join(lines)


def through_fifo(tmp_path, payload, read, timeout=30.0):
    """read(fifo) of a FIFO that a writer thread feeds payload into."""
    fifo = tmp_path / "cube.fifo"
    os.mkfifo(fifo)
    outcome = []

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(payload)

    def consume():
        try:
            outcome.append(read(fifo))
        except Exception as err:
            outcome.append(err)

    threads = [threading.Thread(target=f, daemon=True) for f in (feed, consume)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads), "FIFO read hung"
    if isinstance(outcome[0], Exception):
        raise outcome[0]
    return outcome[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestFifo:
    """A well-formed cube is read in one pass and never seeked."""

    @pytest.mark.parametrize("format", ["interleaved-binary", "csv"])
    def test_fifo_reads_as_the_file(self, tmp_path, format):
        # larger than a pipe's buffer and than one CSV block
        cube = synthesize_cube(ScenarioConfig(master_seed=88), 400, 12)
        path = tmp_path / "cube.dat"
        write_cube(cube, path, format)
        from_file = ingest_cube(path, format).data
        from_fifo = through_fifo(tmp_path, path.read_bytes(),
                                 lambda fifo: ingest_cube(fifo, format)).data
        assert from_fifo.tobytes() == from_file.tobytes()
        assert from_file.tobytes() == cube.data.tobytes()

    def test_binary_fifo_holds_the_cube_once(self, tmp_path):
        # a pipe reports size 0, and reading it whole before copying it
        # into the cube's buffer peaked at 2.00x the cube's bytes
        cube = synthesize_cube(ScenarioConfig(master_seed=87), 20_000, 18)
        path = tmp_path / "cube.bin"
        write_cube_binary(cube, path)

        def traced(fifo):
            tracemalloc.start()
            try:
                data = read_cube_binary(fifo).data
                return data, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        data, peak = through_fifo(tmp_path, path.read_bytes(), traced)
        assert data.tobytes() == cube.data.tobytes()
        assert peak <= 1.2 * cube.data.nbytes, peak / cube.data.nbytes

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda raw: raw[:3], id="truncated-header"),
        pytest.param(lambda raw: raw[:-8], id="truncated"),
        pytest.param(lambda raw: raw + bytes(8), id="over-long"),
    ])
    def test_bad_binary_fifo_fails_as_the_file(self, tmp_path, edit):
        path = tmp_path / "cube.bin"
        write_cube_binary(DataCube(np.ones((6, 4))), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(FormatError) as from_file:
            read_cube_binary(path)
        with pytest.raises(FormatError) as from_fifo:
            through_fifo(tmp_path, path.read_bytes(), read_cube_binary)
        assert str(from_fifo.value) == str(from_file.value).replace(
            str(path), str(tmp_path / "cube.fifo"))

    @pytest.mark.parametrize("tail,fails", [
        pytest.param(b"   \n", False, id="whitespace-line"),
        pytest.param(b"1_0," + b"0.5," * 22 + b"0.5\n", False, id="underscore"),
        pytest.param(b"1.0,2.0\n", True, id="ragged"),
        pytest.param(b"1.0,2.0,3.0\n", True, id="odd-cells"),
        pytest.param(b"1.0,2\xc3\xa9\n", True, id="non-ascii"),
    ])
    def test_refused_csv_fifo_reads_as_the_file(self, tmp_path, tail, fails):
        # the refused run is the last of several; the runs before it are
        # tokenized, and nothing is read twice
        cube = synthesize_cube(ScenarioConfig(master_seed=89), 400, 12)
        path = tmp_path / "cube.csv"
        write_cube_csv(cube, path)
        path.write_bytes(path.read_bytes() + tail)

        def read(source):
            try:
                return read_cube_csv(source).data.tobytes()
            except FormatError as err:
                return f"FormatError: {err}".replace(str(source), "<cube>")

        from_file = read(path)
        assert isinstance(from_file, str) == fails
        assert through_fifo(tmp_path, path.read_bytes(), read) == from_file


def window_run(**fields):
    """sliding_window_run at n = 4, k = 8 with the given spec fields."""
    spec = ExperimentSpec(**{
        "command": "ingest-run", "cube_path": "unused",
        "scenario": ScenarioConfig(n=4, k=8, master_seed=66),
        "detectors": ("glrt",), "pfa": 0.05, "trials": 1,
        "cube_cut_bin": 4, "cube_eval_bin": 5, "cube_overlap": 0, **fields})
    return sliding_window_run(synthesize_cube(spec.scenario, 64, 10), spec)


# (id, call, error, message): argument checks that must fail loudly
ARGUMENT_CHECKS = (
    ("one-dimensional-cube", lambda: DataCube(np.ones(4)), FormatError,
     "must be 2-D"),
    ("write-unknown-format",
     lambda: write_cube(DataCube(np.ones((2, 2))), "unused", "tarball"),
     ValueError, "unknown cube format 'tarball'"),
    ("benchmark-only-window-run",
     lambda: window_run(detectors=("benchmark",)), ValueError,
     "no adaptive detectors"),
    ("window-run-without-cut-bin", lambda: window_run(cube_cut_bin=None),
     InsufficientData, "needs cut_bin and eval_bin"),
)


@pytest.mark.parametrize("call, error, message",
                         [c[1:] for c in ARGUMENT_CHECKS],
                         ids=[c[0] for c in ARGUMENT_CHECKS])
def test_argument_check_fails_loudly(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestCrossFormat:
    def test_binary_and_csv_ingest_identically(self, tmp_path):
        cube = synthesize_cube(ScenarioConfig(master_seed=63), 16, 4)
        bin_path = tmp_path / "c.bin"
        csv_path = tmp_path / "c.csv"
        write_cube(cube, bin_path, "interleaved-binary")
        write_cube(cube, csv_path, "csv")
        a = ingest_cube(bin_path, "interleaved-binary")
        b = ingest_cube(csv_path, "csv")
        np.testing.assert_array_equal(a.data, b.data)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ingest_cube(tmp_path / "x", "tarball")


class TestNonFiniteSamples:
    @pytest.mark.parametrize("format", ["interleaved-binary", "csv"])
    def test_first_bad_sample_is_named(self, tmp_path, non_finite_cube,
                                       format):
        path = non_finite_cube(tmp_path / "cube.dat", format)
        with pytest.raises(FormatError, match=(
                r"cube\.dat: cube contains non-finite samples, "
                r"first at pulse 3, range bin 2$")):
            ingest_cube(path, format)

    def test_bad_sample_past_the_first_checked_slice_is_named(self):
        # the check runs over slices of rows; the first bad sample sits in
        # the third slice, one row above a bad sample at a lower bin
        rows = cube_module._BLOCK
        data = np.ones((3 * rows, 4), dtype=complex)
        data[2 * rows + 5, 3] = complex(0.0, np.inf)
        data[2 * rows + 6, 0] = np.nan
        with pytest.raises(FormatError, match=(
                rf"^cube contains non-finite samples, first at pulse "
                rf"{2 * rows + 5}, range bin 3$")):
            DataCube(data)


class TestWindowCount:
    def test_no_reuse_is_floor_pulses_over_n(self):
        assert window_count(80, 8, 0) == 10
        assert window_count(87, 8, 0) == 10
        assert window_count(7, 8, 0) == 0

    def test_overlap_shortens_stride(self):
        # stride N - overlap = 3: windows at 0, 3, 6, ...
        assert window_count(14, 8, 5) == 3

    def test_overlap_domain(self):
        with pytest.raises(ValueError):
            window_count(80, 8, 8)
        with pytest.raises(ValueError):
            window_count(80, 8, -1)


class TestSynthesis:
    def test_window_covariance_matches_scenario(self):
        cfg = ScenarioConfig(n=4, k=8, rho=0.7, cnr_db=10.0, master_seed=64)
        m = build_covariance(cfg)
        cube = synthesize_cube(cfg, pulses=10_000, range_bins=8)
        acc = np.zeros((4, 4), dtype=complex)
        count = 0
        for j in range(8):
            series = cube.data[:, j]
            windows = series[: 2500 * 4].reshape(2500, 4)
            acc += windows.T @ windows.conj()
            count += 2500
        est = acc / count
        np.testing.assert_allclose(est, m.mat, rtol=0.08, atol=0.08)

    def test_bins_are_reproducible_and_independent_streams(self):
        cfg = ScenarioConfig(master_seed=65)
        a = synthesize_cube(cfg, 32, 3)
        b = synthesize_cube(cfg, 32, 3)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data[:, 0], a.data[:, 1])

    # sha256 of a 300-pulse, 10-bin cube's bytes, taken with numpy 2.4 on
    # x86-64: nothing else holds synthesis to its bits
    @pytest.mark.parametrize("cfg,digest", [
        pytest.param(ScenarioConfig(),
                     "aa8f06443fef4757d3d2f9aed1949616017fd7134a30f7085cc1c609ab4d6bcd",
                     id="defaults"),
        pytest.param(ScenarioConfig(rho=0.3, noise_power=3.0),
                     "4418df83266f344b903ec7f94c26e73a1b31da8a6e1dac24224278bb543567d7",
                     id="rho0.3-noise3"),
    ])
    def test_cube_is_pinned(self, cfg, digest):
        data = synthesize_cube(cfg, 300, 10).data
        assert hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest() == digest

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError):
            synthesize_cube(ScenarioConfig(), 0, 4)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("cnr_db", [30.0, 110.0])
    @pytest.mark.parametrize("pulses,bins", [(1, 3), (64, 4), (800, 6)])
    def test_ar1_recursion_matches_lfilter(self, rho, cnr_db, pulses, bins):
        from scipy.signal import lfilter

        cfg = ScenarioConfig(rho=rho, cnr_db=cnr_db, master_seed=68)
        sigma_c = math.sqrt(cfg.noise_power * 10.0 ** (cfg.cnr_db / 10.0))
        seed = derive_stream_seed(cfg.master_seed, 5)
        expected = np.empty((pulses, bins), dtype=np.complex128)
        for j in range(bins):
            draws = _standard_complex(trial_rng(seed, j), pulses, 2)
            drive = draws[:, 0].copy()
            drive[1:] *= math.sqrt(1.0 - rho**2)
            x = lfilter([1.0], [1.0, -rho], drive)
            expected[:, j] = sigma_c * x + math.sqrt(cfg.noise_power) * draws[:, 1]
        got = synthesize_cube(cfg, pulses, bins).data
        np.testing.assert_array_equal(got, expected)

    @staticmethod
    def imported_by_embml(prefix):
        """Modules named prefix or prefix.* loaded by a fresh import of
        embml.cli, which imports every module of the package."""
        src = str(Path(embml.__file__).resolve().parents[1])
        code = (
            "import sys, embml.cli; print(' '.join(sorted(m for m in sys.modules "
            f"if m == {prefix!r} or m.startswith({prefix + '.'!r}))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True,
            text=True, check=True,
        )
        return out.stdout.split()

    def test_import_leaves_out_scipy(self):
        # numpy is the only runtime dependency; scipy is for the tests
        assert self.imported_by_embml("scipy") == []

    def test_import_leaves_out_scipy_signal(self):
        assert self.imported_by_embml("scipy.signal") == []

    def test_import_leaves_out_scipy_stats(self):
        # the tests compare against scipy.stats; the package must not need it
        assert self.imported_by_embml("scipy.stats") == []


class TestSlidingWindowRun:
    def make_spec(self, scnr_db=None, pfa=0.05, overlap=0):
        scenario = ScenarioConfig(n=4, k=8, cnr_db=10.0, master_seed=66,
                                  scnr_db=scnr_db)
        return ExperimentSpec(
            command="ingest-run",
            scenario=scenario,
            detectors=("glrt", "amf", "em-bml-d3"),
            pfa=pfa,
            trials=1,
            cube_path="unused",
            cube_cut_bin=4,
            cube_eval_bin=5,
            cube_overlap=overlap,
        )

    def test_null_rate_near_pfa(self):
        spec = self.make_spec()
        cube = synthesize_cube(spec.scenario, pulses=4 * 2500, range_bins=10)
        result = sliding_window_run(cube, spec)
        assert result.window_count == 2500
        # calibration and evaluation each contribute one ensemble's noise
        sigma = np.sqrt(2 * spec.pfa * (1 - spec.pfa) / result.window_count)
        for lab in ("glrt", "amf", "em-bml-d3"):
            rates, _ = result.curve.column(lab)
            assert abs(rates[0] - spec.pfa) <= 3 * sigma

    def test_injection_lifts_rates(self):
        spec = self.make_spec(scnr_db=18.0)
        cube = synthesize_cube(spec.scenario, pulses=4 * 2000, range_bins=10)
        result = sliding_window_run(cube, spec)
        rates, _ = result.curve.column("glrt")
        assert rates[0] > 0.5
        assert result.curve.axis_values[0, 0] == 18.0

    def test_same_bin_for_both_roles_rejected(self):
        spec = self.make_spec()
        object.__setattr__(spec, "cube_eval_bin", spec.cube_cut_bin)
        cube = synthesize_cube(spec.scenario, 64, 10)
        with pytest.raises(InsufficientData):
            sliding_window_run(cube, spec)

    def test_edge_bin_rejected(self):
        spec = self.make_spec()
        object.__setattr__(spec, "cube_cut_bin", 1)
        cube = synthesize_cube(spec.scenario, 64, 10)
        with pytest.raises(InsufficientData):
            sliding_window_run(cube, spec)

    def test_odd_k_rejected(self):
        spec = self.make_spec()
        object.__setattr__(spec, "scenario",
                           ScenarioConfig(n=4, k=7, master_seed=66))
        cube = synthesize_cube(spec.scenario, 64, 10)
        with pytest.raises(InsufficientData):
            sliding_window_run(cube, spec)

    def test_benchmark_silently_excluded(self):
        spec = self.make_spec(pfa=0.2)
        object.__setattr__(spec, "detectors", ("glrt", "benchmark"))
        cube = synthesize_cube(spec.scenario, 4 * 500, 10)
        result = sliding_window_run(cube, spec)
        assert result.curve.detectors == ("glrt",)


class TestBlockwiseWindows:
    """Each bin's windows are gathered and evaluated 256 at a time."""

    DETECTORS = ("glrt", "amf", "rao", "ace", "em-bml-d5", "em-bml-d7")

    def make_spec(self, cfg, pfa, overlap):
        return ExperimentSpec(
            command="ingest-run", scenario=cfg, detectors=self.DETECTORS,
            pfa=pfa, trials=1, cube_path="unused", cube_cut_bin=cfg.k // 2,
            cube_eval_bin=cfg.k // 2 + 1, cube_overlap=overlap,
        )

    @staticmethod
    def whole_stack_reference(cube, spec):
        """Each bin's statistics from one stack of all its windows, and the
        (rates, cis) they give."""
        cfg = spec.scenario
        n, k, overlap = cfg.n, cfg.k, spec.cube_overlap
        count = window_count(cube.data.shape[0], n, overlap)
        rows = np.arange(count)[:, None] * (n - overlap) + np.arange(n)
        v = steering_vector(n, cfg.doppler)
        labels = order_labels(spec.detectors)

        def stacks(b):
            secondary = np.r_[b - k // 2 : b, b + 1 : b + k // 2 + 1]
            return cube.data[rows, b], cube.data[rows[..., None], secondary]

        z_cal, zs_cal = stacks(spec.cube_cut_bin)
        z_ev, zs_ev = stacks(spec.cube_eval_bin)
        if cfg.scnr_db is not None:
            flat = zs_ev.transpose(0, 2, 1).reshape(-1, n)
            m_hat = HermitianMatrix(flat.T @ flat.conj() / flat.shape[0])
            z_ev = z_ev + math.sqrt(10.0 ** (cfg.scnr_db / 10.0)
                                    / m_hat.quad_form(v)) * v
        cal = statistics_from_stacks(z_cal, zs_cal, v, labels)
        ev = statistics_from_stacks(z_ev, zs_ev, v, labels)
        rates_cis = np.array([
            estimate_rate(ev[lab], calibrate_threshold(
                TrialEnsemble(lab, cal[lab], cfg), spec.pfa))
            for lab in labels
        ]).T
        return cal, ev, rates_cis

    @pytest.mark.parametrize("windows", [255, 256, 257, 1000])
    @pytest.mark.parametrize("overlap", [0, 3])
    @pytest.mark.parametrize("scnr_db", [None, 10.0])
    def test_results_keep_their_bits(self, monkeypatch, windows, overlap,
                                     scnr_db):
        cfg = ScenarioConfig(n=4, k=8, master_seed=84, scnr_db=scnr_db)
        cube = synthesize_cube(cfg, (windows - 1) * (4 - overlap) + 4, 10)
        spec = self.make_spec(cfg, 0.4, overlap)
        blocks = []

        def recording(*args):
            blocks.append(statistics_from_stacks(*args))
            return blocks[-1]

        monkeypatch.setattr(cube_module, "statistics_from_stacks", recording)
        result = sliding_window_run(cube, spec)
        cal, ev, (rates, cis) = self.whole_stack_reference(cube, spec)

        assert result.window_count == windows
        per_bin = math.ceil(windows / 256)
        assert len(blocks) == 2 * per_bin
        assert all(len(b["glrt"]) <= 256 for b in blocks)
        for lab in result.curve.detectors:
            for whole, parts in ((cal, blocks[:per_bin]), (ev, blocks[per_bin:])):
                np.testing.assert_array_equal(
                    np.concatenate([p[lab] for p in parts]),
                    whole[lab])
        np.testing.assert_array_equal(result.curve.rates[0], rates)
        np.testing.assert_array_equal(result.curve.cis[0], cis)

    @pytest.mark.parametrize("role", ["cube_cut_bin", "cube_eval_bin"])
    def test_non_finite_statistic_is_named_by_bin_and_window(self, role):
        # window 300 lies in the second block of 256, at offset 44; its
        # all-zero CUT makes the ACE 0/0
        cfg = ScenarioConfig(n=4, k=8, master_seed=87)
        spec = self.make_spec(cfg, 0.2, 0)
        range_bin = getattr(spec, role)
        data = synthesize_cube(cfg, 4 * 1000, 10).data.copy()
        data[4 * 300:4 * 301, range_bin] = 0.0
        cube = DataCube(data, source="zero-cut.bin")
        with pytest.raises(FormatError, match=(
                rf"^zero-cut\.bin: range bin {range_bin}, window 300: ace "
                "statistic is not finite$")):
            sliding_window_run(cube, spec)

    @pytest.mark.parametrize("overlap", [0, 3])
    def test_region_covariance_keeps_its_bits(self, monkeypatch, overlap):
        # the (windows, n, k) stack flattened through a transposed copy, as
        # the region covariance was first computed
        cfg = ScenarioConfig(n=8, k=16, master_seed=86, scnr_db=10.0)
        windows = 1000
        cube = synthesize_cube(cfg, (windows - 1) * (8 - overlap) + 8, 18)
        zs = cube_module._windows(cube, 8, 16, 9, overlap, 0, windows)[1]
        flat = zs.transpose(0, 2, 1).reshape(-1, 8)
        expected = flat.T @ flat.conj() / flat.shape[0]
        seen = []

        def recording(mat, **kwargs):
            seen.append(np.array(mat))
            return HermitianMatrix(mat, **kwargs)

        monkeypatch.setattr(cube_module, "HermitianMatrix", recording)
        v = steering_vector(8, cfg.doppler)
        target = cube_module._region_target(cube, 8, 16, 9, overlap, windows,
                                            v, 10.0)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], expected)
        np.testing.assert_array_equal(
            target,
            math.sqrt(10.0 / HermitianMatrix(expected).quad_form(v)) * v)

    def test_peak_memory_is_flat_in_the_window_count(self):
        peaks = {}
        for windows in (1000, 8000):
            cfg = ScenarioConfig(n=8, k=16, master_seed=85)
            # made before tracing starts, so the peak is net of the cube
            cube = synthesize_cube(cfg, 8 * windows, 18)
            spec = self.make_spec(cfg, 0.1, 0)
            tracemalloc.start()
            try:
                sliding_window_run(cube, spec)
                peaks[windows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8000] <= 1.5 * peaks[1000], peaks
