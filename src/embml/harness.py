"""Monte Carlo experiment engine: calibration, sweeps, curves, contours.

Thresholds are empirical order statistics of null ensembles with a
strict-exceedance decision rule. Every experiment phase (calibration, each
grid point) works in its own derived substream namespace, so trials are
independent across phases and every result is bit-reproducible for a fixed
master seed regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import ConvergenceResult, CurveResult
from .detectors import DetectorId, parse_detector_label
from .engine import benchmark_statistic_from_aux, simulate_statistics
from .scenario import (
    ScenarioConfig,
    build_covariance,
    derive_stream_seed,
    injection_amplitude,
    steering_vector,
)

__all__ = [
    "InsufficientTrials",
    "TrialEnsemble",
    "ThresholdTable",
    "CalibrationResult",
    "order_labels",
    "calibrate_threshold",
    "estimate_rate",
    "calibrate",
    "cfar_sweep",
    "pd_curve",
    "mismatch_contour",
    "convergence_study",
    "DEFAULT_DETECTORS",
]

# substream namespaces per experiment phase
_PHASE_CALIBRATION = 0
_PHASE_SWEEP = 1
_PHASE_CURVE = 2
_PHASE_CONTOUR = 3
_PHASE_CONVERGENCE = 4

DEFAULT_DETECTORS = (
    "glrt",
    "amf",
    "rao",
    "ace",
    "em-bml-d5",
    "em-bml-d7",
)


class InsufficientTrials(ValueError):
    """Too few null trials for the requested false alarm probability."""


def _require_finite(stats: np.ndarray, detector: str | None) -> None:
    """Reject NaN and infinite statistics, which would sort and count silently."""
    bad = ~np.isfinite(stats)
    if bad.any():
        msg = (
            f"{np.count_nonzero(bad)} of {stats.size} statistics are not "
            f"finite, first at trial {int(np.argmax(bad))}"
        )
        raise ValueError(msg if detector is None else f"{detector}: {msg}")


@dataclass(frozen=True)
class TrialEnsemble:
    """Sorted statistics of one detector over a block of trials."""

    detector: str
    statistics: np.ndarray
    scenario: ScenarioConfig

    def __post_init__(self):
        stats = np.asarray(self.statistics, dtype=float)
        _require_finite(stats, self.detector)
        object.__setattr__(self, "statistics", np.sort(stats))

    @property
    def trial_count(self) -> int:
        return self.statistics.shape[0]


@dataclass(frozen=True)
class ThresholdTable:
    """Per-detector thresholds keyed by nominal Pfa, plus the calibration scene."""

    scenario: ScenarioConfig
    thresholds: dict[str, dict[float, float]]

    def threshold(self, detector: str, pfa: float) -> float:
        return self.thresholds[detector][pfa]


@dataclass(frozen=True)
class CalibrationResult:
    table: ThresholdTable
    ensembles: dict[str, TrialEnsemble]
    benchmark_u: np.ndarray | None = None
    benchmark_c: float | None = None


def order_labels(labels) -> tuple[str, ...]:
    """Dedupe and order labels canonically (enum order, then iteration cap)."""
    members = list(DetectorId)

    def key(lab: str):
        det, lmax = parse_detector_label(lab)
        return (members.index(det), -1 if lmax is None else lmax)

    return tuple(sorted({lab for lab in labels}, key=key))


def _required_trials(pfa: float) -> int:
    return math.ceil(100.0 / pfa - 1e-9)


def calibrate_threshold(ensemble: TrialEnsemble, pfa: float) -> float:
    """Order-statistic threshold at rank ceil(n (1 - pfa)) of the null stats.

    The decision rule everywhere is "statistic > threshold means H1", so
    the empirical exceedance rate of the calibration ensemble itself is
    within one trial quantum of pfa.
    """
    if not 0.0 < pfa < 0.5:
        raise ValueError(f"pfa must lie in (0, 0.5), got {pfa}")
    n = ensemble.trial_count
    if n < _required_trials(pfa):
        raise InsufficientTrials(
            f"{n} trials < required {_required_trials(pfa)} for pfa={pfa}"
        )
    # nudge absorbs float rounding when n (1 - pfa) is mathematically integer
    rank = math.ceil(n * (1.0 - pfa) - 1e-9)
    rank = min(max(rank, 1), n)
    return float(ensemble.statistics[rank - 1])


def estimate_rate(
    statistics: np.ndarray, threshold: float, *, detector: str | None = None
) -> tuple[float, float]:
    """Exceedance fraction and its binomial 95% confidence half-width.

    detector names the statistics in the error raised when one is not
    finite.
    """
    stats = np.asarray(statistics, dtype=float)
    if stats.size == 0:
        raise ValueError("empty statistics")
    _require_finite(stats, detector)
    rate = float(np.mean(stats > threshold))
    ci = 1.96 * math.sqrt(rate * (1.0 - rate) / stats.size)
    return rate, ci


def _null_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """The calibration scene: matched steering, scnr kept for the benchmark."""
    return replace(cfg, cos_sq_phi=1.0)


def calibrate(
    cfg: ScenarioConfig,
    detectors,
    pfas,
    trials: int,
    *,
    workers: int = 1,
    capture_benchmark_aux: bool = False,
) -> CalibrationResult:
    """Simulate the null ensemble once and read thresholds off it.

    The benchmark detector can only be calibrated here when the scenario
    pins an SCNR (its statistic depends on the hypothesized amplitude);
    pd_curve instead derives per-point benchmark thresholds from the cached
    aux statistics.
    """
    labels = order_labels(detectors)
    pfas = sorted(set(float(p) for p in pfas), reverse=True)
    for pfa in pfas:
        if not 0.0 < pfa < 0.5:
            raise ValueError(f"pfa must lie in (0, 0.5), got {pfa}")
        if trials < _required_trials(pfa):
            raise InsufficientTrials(
                f"{trials} trials < required {_required_trials(pfa)} for pfa={pfa}"
            )
    if "benchmark" in labels and cfg.scnr_db is None and not capture_benchmark_aux:
        raise ValueError("benchmark calibration requires scnr_db on the scenario")

    null_cfg = _null_config(cfg)
    sim = simulate_statistics(
        null_cfg,
        labels,
        trials,
        stream_seed=derive_stream_seed(cfg.master_seed, _PHASE_CALIBRATION),
        inject=False,
        capture_benchmark_aux=capture_benchmark_aux,
        workers=workers,
    )
    ensembles = {
        lab: TrialEnsemble(detector=lab, statistics=arr, scenario=null_cfg)
        for lab, arr in sim.statistics.items()
    }
    thresholds = {
        lab: {pfa: calibrate_threshold(ens, pfa) for pfa in pfas}
        for lab, ens in ensembles.items()
    }
    return CalibrationResult(
        table=ThresholdTable(scenario=null_cfg, thresholds=thresholds),
        ensembles=ensembles,
        benchmark_u=sim.benchmark_u,
        benchmark_c=sim.benchmark_c,
    )


def cfar_sweep(
    cfg: ScenarioConfig,
    pfa: float,
    cnr_grid,
    rho_grid,
    trials: int,
    *,
    detectors=DEFAULT_DETECTORS,
    workers: int = 1,
) -> CurveResult:
    """Empirical Pfa under off-nominal clutter, at nominally calibrated thresholds.

    The sweep covers two one-parameter families: CNR varies at the nominal
    rho, and rho varies at the nominal CNR. Rows are the deduplicated union
    in lexicographic (cnr_db, rho) order. The nominal point reuses the
    calibration ensemble, so its rate reproduces the target Pfa by
    construction (up to the order-statistic rank convention).
    """
    labels = order_labels(detectors)
    cal = calibrate(cfg, labels, [pfa], trials, workers=workers)

    points = {(float(c), cfg.rho) for c in cnr_grid}
    points.update((cfg.cnr_db, float(r)) for r in rho_grid)
    rows = sorted(points)

    rates = np.empty((len(rows), len(labels)))
    cis = np.empty_like(rates)
    for i, (cnr_db, rho) in enumerate(rows):
        if (cnr_db, rho) == (cfg.cnr_db, cfg.rho):
            stats = {lab: cal.ensembles[lab].statistics for lab in labels}
        else:
            point_cfg = replace(_null_config(cfg), cnr_db=cnr_db, rho=rho)
            sim = simulate_statistics(
                point_cfg,
                labels,
                trials,
                stream_seed=derive_stream_seed(cfg.master_seed, _PHASE_SWEEP, i),
                inject=False,
                workers=workers,
            )
            stats = sim.statistics
        for j, lab in enumerate(labels):
            rates[i, j], cis[i, j] = estimate_rate(
                stats[lab], cal.table.threshold(lab, pfa), detector=lab
            )

    return CurveResult(
        axis_names=("cnr_db", "rho"),
        axis_values=np.array(rows, dtype=float),
        detectors=labels,
        rates=rates,
        cis=cis,
        trial_counts=np.full(len(rows), trials),
    )


def _benchmark_threshold(
    cal: CalibrationResult, alpha: complex, pfa: float, scenario: ScenarioConfig
) -> float:
    """Benchmark threshold at one SCNR from the cached null aux ensemble."""
    stats = benchmark_statistic_from_aux(cal.benchmark_u, cal.benchmark_c, alpha)
    ens = TrialEnsemble(detector="benchmark", statistics=stats, scenario=scenario)
    return calibrate_threshold(ens, pfa)


def _injected_grid(
    cfg: ScenarioConfig,
    pfa: float,
    axis_names: tuple[str, ...],
    rows: list[tuple[float, ...]],
    detectors,
    trials: int,
    phase: int,
    calibration_trials: int | None,
    workers: int,
) -> CurveResult:
    """Pd at each row of scenario overrides, named by axis_names.

    Thresholds come from one matched null calibration (mismatch does not
    affect the null hypothesis). The benchmark's threshold is recalibrated
    at every point's SCNR (its statistic depends on the hypothesized
    amplitude) from aux statistics captured during that calibration run.
    """
    labels = order_labels(detectors)
    want_benchmark = "benchmark" in labels
    cal = calibrate(
        cfg,
        [lab for lab in labels if lab != "benchmark"],
        [pfa],
        calibration_trials or _required_trials(pfa),
        workers=workers,
        capture_benchmark_aux=want_benchmark,
    )
    m = build_covariance(cfg)
    v = steering_vector(cfg.n, cfg.doppler)

    rates = np.empty((len(rows), len(labels)))
    cis = np.empty_like(rates)
    for i, row in enumerate(rows):
        point_cfg = replace(cfg, **dict(zip(axis_names, row)))
        sim = simulate_statistics(
            point_cfg,
            labels,
            trials,
            stream_seed=derive_stream_seed(cfg.master_seed, phase, i),
            inject=True,
            workers=workers,
        )
        for j, lab in enumerate(labels):
            if lab == "benchmark":
                alpha = injection_amplitude(v, m, point_cfg.scnr_db)
                thr = _benchmark_threshold(cal, alpha, pfa, cal.table.scenario)
            else:
                thr = cal.table.threshold(lab, pfa)
            rates[i, j], cis[i, j] = estimate_rate(
                sim.statistics[lab], thr, detector=lab
            )

    axis_values = np.array(rows, dtype=float).reshape(len(rows), len(axis_names))
    return CurveResult(
        axis_names=axis_names,
        axis_values=axis_values,
        detectors=labels,
        rates=rates,
        cis=cis,
        trial_counts=np.full(len(rows), trials),
    )


def pd_curve(
    cfg: ScenarioConfig,
    pfa: float,
    scnr_grid_db,
    detectors,
    trials: int,
    *,
    calibration_trials: int | None = None,
    workers: int = 1,
) -> CurveResult:
    """Detection probability versus SCNR at a fixed false alarm probability."""
    rows = [(float(s),) for s in scnr_grid_db]
    return _injected_grid(
        cfg, pfa, ("scnr_db",), rows, detectors, trials, _PHASE_CURVE,
        calibration_trials, workers,
    )


def mismatch_contour(
    cfg: ScenarioConfig,
    pfa: float,
    scnr_grid_db,
    cos_sq_phi_grid,
    detectors,
    trials: int,
    *,
    calibration_trials: int | None = None,
    workers: int = 1,
) -> CurveResult:
    """Pd over the (cos^2 phi, SCNR) grid with mismatched target injection.

    Rows are lexicographic in (cos^2 phi, SCNR).
    """
    rows = sorted(
        (float(c), float(s)) for c in cos_sq_phi_grid for s in scnr_grid_db
    )
    return _injected_grid(
        cfg, pfa, ("cos_sq_phi", "scnr_db"), rows, detectors, trials,
        _PHASE_CONTOUR, calibration_trials, workers,
    )


def convergence_study(
    cfg: ScenarioConfig,
    scnr_list,
    trials: int,
    l_max: int,
    *,
    workers: int = 1,
) -> ConvergenceResult:
    """Mean |relative objective change| per EM iteration, per configuration.

    scnr_list entries are SCNRs in dB, or None for the null hypothesis.
    """
    if trials < 1000:
        raise InsufficientTrials(
            f"convergence averaging needs at least 1000 trials, got {trials}"
        )
    if l_max < 1:
        raise ValueError("l_max must be positive")
    names = []
    means = np.empty((l_max, len(scnr_list)))
    cis = np.empty_like(means)
    for j, scnr in enumerate(scnr_list):
        if scnr is None:
            names.append("h0")
            point_cfg = replace(cfg, scnr_db=None)
            inject = False
        else:
            names.append(f"scnr{scnr:g}")
            point_cfg = replace(cfg, scnr_db=float(scnr))
            inject = True
        sim = simulate_statistics(
            point_cfg,
            (),
            trials,
            stream_seed=derive_stream_seed(cfg.master_seed, _PHASE_CONVERGENCE, j),
            inject=inject,
            record_em_trace=True,
            trace_l_max=l_max,
            workers=workers,
        )
        means[:, j] = sim.em_delta_l.mean(axis=0)
        cis[:, j] = 1.96 * sim.em_delta_l.std(axis=0) / math.sqrt(trials)

    return ConvergenceResult(
        iterations=tuple(range(1, l_max + 1)),
        configurations=tuple(names),
        means=means,
        cis=cis,
        trial_count=trials,
    )
