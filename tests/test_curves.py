"""Tests for the CSV encodings of curve and convergence results."""

import numpy as np
import pytest

from embml.curves import (
    ConvergenceResult,
    CurveResult,
    IoError,
    format_convergence,
    format_curve,
    write_curve,
)


def single_point():
    return CurveResult(
        axis_names=("scnr_db",),
        axis_values=np.array([[15.0]]),
        detectors=("glrt",),
        rates=np.array([[0.625]]),
        cis=np.array([[0.03]]),
    )


class TestCurveCsv:
    def test_single_point_is_two_lines(self):
        text = format_curve(single_point())
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "scnr_db,glrt_rate,glrt_ci"
        assert lines[1] == "15.0,0.625,0.03"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        result = CurveResult(
            axis_names=("cos_sq_phi", "scnr_db"),
            axis_values=np.array([[0.3, 10.0], [0.3, 20.0], [1.0, 10.0]]),
            detectors=("glrt", "amf", "em-bml-d5"),
            rates=rng.uniform(size=(3, 3)),
            cis=rng.uniform(size=(3, 3)) * 0.05,
        )
        path = tmp_path / "contour.csv"
        write_curve(result, path)
        assert path.read_text().split("\n")[0] == (
            "cos_sq_phi,scnr_db,glrt_rate,glrt_ci,amf_rate,amf_ci,"
            "em-bml-d5_rate,em-bml-d5_ci")
        # full precision: a plain float parser reads back every bit
        cells = np.loadtxt(path, delimiter=",", skiprows=1)
        expected = np.column_stack([
            result.axis_values,
            np.stack([result.rates, result.cis], axis=2).reshape(3, 6),
        ])
        assert cells.tobytes() == expected.tobytes()

    def test_write_failure_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            write_curve(single_point(), tmp_path / "missing" / "out.csv")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CurveResult(
                axis_names=("scnr_db",),
                axis_values=np.array([[1.0], [2.0]]),
                detectors=("glrt",),
                rates=np.array([[0.5]]),
                cis=np.array([[0.01]]),
            )


class TestConvergenceCsv:
    def test_layout(self):
        result = ConvergenceResult(
            iterations=(1, 2),
            configurations=("h0", "scnr15"),
            means=np.array([[0.3, 0.2], [0.01, 0.001]]),
            cis=np.array([[0.001, 0.001], [0.0001, 0.0001]]),
        )
        lines = format_convergence(result).strip().split("\n")
        assert lines[0] == \
            "iteration,h0_mean_delta,h0_ci,scnr15_mean_delta,scnr15_ci"
        assert lines[1].startswith("1,0.3,")
        assert lines[2].startswith("2,0.01,")
