"""Classical adaptive detectors and the clairvoyant benchmark.

Each statistic maps one DataBatch and a nominal steering vector to a real
scalar oriented so that larger values favor target presence (the decision
rule is always "statistic > threshold"). The sample covariance is kept
unnormalized (the plain sum of secondary outer products) and is factored
once per trial; all statistics reuse that factor.

Formula sources (standard literature forms):
  GLRT  Kelly, IEEE Trans. AES-22(1), 1986
  AMF   Robey et al., IEEE Trans. AES-28(1), 1992
  Rao   De Maio, IEEE Trans. SP-55(7), 2007
  ACE   Kraut and Scharf, IEEE Trans. SP-47(9), 1999
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import HermitianMatrix
from .scenario import DataBatch

__all__ = [
    "DetectorId",
    "InsufficientSecondaryData",
    "SampleCovariance",
    "sample_covariance",
    "amf_statistic",
    "glrt_statistic",
    "ace_statistic",
    "rao_statistic",
    "benchmark_statistic",
    "detector_label",
    "parse_detector_label",
]


class DetectorId(Enum):
    """Detector families, in canonical (output column) order."""

    GLRT = "glrt"
    AMF = "amf"
    RAO = "rao"
    ACE = "ace"
    BENCHMARK = "benchmark"
    EM_BML_D = "em-bml-d"


class InsufficientSecondaryData(ValueError):
    """Fewer secondary vectors than channels; S cannot be invertible."""


@dataclass(frozen=True)
class SampleCovariance:
    """Unnormalized secondary-data covariance S = sum_k z_k z_k^H."""

    s: HermitianMatrix
    k: int


def sample_covariance(batch: DataBatch) -> SampleCovariance:
    """Form S from the batch's secondary columns; requires k >= n."""
    if batch.k < batch.n:
        raise InsufficientSecondaryData(
            f"need at least n={batch.n} secondary vectors, got {batch.k}"
        )
    zs = batch.secondary
    s = zs @ zs.conj().T
    return SampleCovariance(s=HermitianMatrix(s), k=batch.k)


def _whitened_forms(batch: DataBatch, v: np.ndarray, sc: SampleCovariance):
    """The three S-whitened scalars every classical statistic is built from."""
    wv = sc.s.whiten(v)
    wz = sc.s.whiten(batch.cut)
    a = float(np.vdot(wv, wv).real)  # v^H S^-1 v
    b = complex(np.vdot(wv, wz))     # v^H S^-1 z
    c = float(np.vdot(wz, wz).real)  # z^H S^-1 z
    return a, b, c


def amf_statistic(batch: DataBatch, v: np.ndarray, sc: SampleCovariance) -> float:
    """|v^H S^-1 z|^2 / (v^H S^-1 v)."""
    a, b, _ = _whitened_forms(batch, v, sc)
    return float(abs(b) ** 2 / a)


def glrt_statistic(batch: DataBatch, v: np.ndarray, sc: SampleCovariance) -> float:
    """Kelly's statistic |v^H S^-1 z|^2 / ((v^H S^-1 v)(1 + z^H S^-1 z))."""
    a, b, c = _whitened_forms(batch, v, sc)
    return float(abs(b) ** 2 / (a * (1.0 + c)))


def ace_statistic(batch: DataBatch, v: np.ndarray, sc: SampleCovariance) -> float:
    """|v^H S^-1 z|^2 / ((v^H S^-1 v)(z^H S^-1 z))."""
    a, b, c = _whitened_forms(batch, v, sc)
    return float(abs(b) ** 2 / (a * c))


def rao_statistic(batch: DataBatch, v: np.ndarray, sc: SampleCovariance) -> float:
    """|v^H (S + z z^H)^-1 z|^2 / (v^H (S + z z^H)^-1 v).

    Computed directly on the rank-one-updated matrix; the Monte Carlo
    engine uses the equivalent Sherman-Morrison form and the two paths are
    cross-checked in the tests.
    """
    t = sc.s.rank_one_update(1.0, batch.cut)
    num = t.quad_form(v, batch.cut)
    den = t.quad_form(v)
    return float(abs(num) ** 2 / den)


def benchmark_statistic(
    batch: DataBatch,
    v: np.ndarray,
    true_m: HermitianMatrix,
    true_alpha: complex,
) -> float:
    """Clairvoyant log likelihood ratio with known covariance and amplitude.

    g = z^H M^-1 z - (z - alpha v)^H M^-1 (z - alpha v), equal priors.
    Only the cell under test enters: with M known the secondary data carry
    no information about the hypothesis.
    """
    d = batch.cut - true_alpha * np.asarray(v, dtype=np.complex128)
    return float(true_m.quad_form(batch.cut) - true_m.quad_form(d))


def detector_label(detector: DetectorId, lmax: int | None = None) -> str:
    """Column/CLI label; EM variants carry their iteration cap, e.g. em-bml-d5."""
    if detector is DetectorId.EM_BML_D:
        if lmax is None:
            raise ValueError("em-bml-d label requires an iteration cap")
        return f"{detector.value}{lmax}"
    return detector.value


def parse_detector_label(label: str) -> tuple[DetectorId, int | None]:
    """Inverse of detector_label on exactly the strings it writes: lowercase,
    an EM cap in ASCII decimal without leading zeros. Raises ValueError on
    any other string, so each detector has one label."""
    prefix = DetectorId.EM_BML_D.value
    if label == prefix:
        raise ValueError(f"detector {label!r} needs an iteration cap, e.g. {prefix}5")
    cap = label.removeprefix(prefix)
    if cap != label and cap.isascii() and cap.isdigit() and (
            cap == "0" or cap[0] != "0"):
        return DetectorId.EM_BML_D, int(cap)
    for det in DetectorId:
        if label == det.value and det is not DetectorId.EM_BML_D:
            return det, None
    raise ValueError(f"unknown detector label {label!r}")
