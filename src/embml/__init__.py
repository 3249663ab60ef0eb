"""Adaptive radar detection with an EM-estimated mixture detector.

The package implements a joint Bayesian/ML detector for a partially
homogeneous Gaussian interference scene — an EM iteration over the latent
target-presence class with closed-form covariance/amplitude updates — next
to the classical adaptive detectors (GLRT, AMF, Rao, ACE) and a
clairvoyant benchmark, plus the Monte Carlo machinery to characterize
them: threshold calibration, CFAR sweeps, Pd curves, mismatched-target
contours, and convergence traces.
"""

from .config import ExperimentSpec, ParseError, ValidationError, parse_config, serialize_spec
from .cube import (
    DataCube,
    FormatError,
    InsufficientData,
    ingest_cube,
    sliding_window_run,
    synthesize_cube,
    window_count,
    write_cube,
)
from .curves import (
    ConvergenceResult,
    CurveResult,
    IoError,
    read_curve,
    write_convergence,
    write_curve,
)
from .detectors import (
    DetectorId,
    InsufficientSecondaryData,
    ace_statistic,
    amf_statistic,
    benchmark_statistic,
    detector_label,
    glrt_statistic,
    parse_detector_label,
    rao_statistic,
    sample_covariance,
)
from .em import EmState, EmTrace, em_bml_statistic, run_em
from .engine import SimulatedStatistics, simulate_statistics
from .harness import (
    CalibrationResult,
    InsufficientTrials,
    TrialEnsemble,
    calibrate,
    calibrate_threshold,
    cfar_sweep,
    convergence_study,
    estimate_rate,
    mismatch_contour,
    pd_curve,
)
from .linalg import HermitianMatrix, NotPositiveDefinite
from .scenario import (
    DataBatch,
    DegenerateDirection,
    ScenarioConfig,
    build_covariance,
    inject_target,
    injection_amplitude,
    mismatched_steering,
    sample_batch,
    steering_vector,
)

__version__ = "1.0.0"

__all__ = [
    "ExperimentSpec", "ParseError", "ValidationError", "parse_config",
    "serialize_spec",
    "DataCube", "FormatError", "InsufficientData", "ingest_cube",
    "sliding_window_run", "synthesize_cube", "window_count", "write_cube",
    "ConvergenceResult", "CurveResult", "IoError", "read_curve",
    "write_convergence", "write_curve",
    "DetectorId", "InsufficientSecondaryData", "ace_statistic",
    "amf_statistic", "benchmark_statistic", "detector_label",
    "glrt_statistic", "parse_detector_label", "rao_statistic",
    "sample_covariance",
    "EmState", "EmTrace", "em_bml_statistic", "run_em",
    "SimulatedStatistics", "simulate_statistics",
    "CalibrationResult", "InsufficientTrials", "TrialEnsemble", "calibrate", "calibrate_threshold", "cfar_sweep",
    "convergence_study", "estimate_rate", "mismatch_contour", "pd_curve",
    "HermitianMatrix", "NotPositiveDefinite",
    "DataBatch", "DegenerateDirection", "ScenarioConfig",
    "build_covariance", "inject_target", "injection_amplitude",
    "mismatched_steering", "sample_batch", "steering_vector",
    "__version__",
]
