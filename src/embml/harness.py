"""Monte Carlo experiment engine: calibration, sweeps, curves, contours.

The adaptive detectors' thresholds are empirical order statistics of null
ensembles with a strict-exceedance decision rule. The clairvoyant
benchmark's threshold is exact: under H0 its statistic is N(-s, 2s) with
s the SCNR in linear units. Every phase, the calibration and each grid
point, is reduced chunk by chunk as the engine returns its chunks, so
memory does not grow with the trial count: a calibrated detector keeps
only the top trials - rank + 1 statistics that its threshold needs, and a
grid point one exceedance count per detector. Thresholds and rates are
exactly those of sorting and averaging the whole ensemble. The CFAR sweep
and the Pd grids share one point loop. Every experiment phase works in
its own derived substream namespace, so trials are independent across
phases and every result is bit-reproducible for a fixed master seed.
Calibration, curves, contours and convergence studies draw each trial's
maximal invariant on one thread, at about 1 us/trial; only the CFAR sweep
draws data, because CNR and rho drop out of the invariant by
construction, and only it takes a worker count, whose results do not
depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .curves import ConvergenceResult, CurveResult
from .detectors import DetectorId, parse_detector_label
from .engine import _simulate_chunks, simulate_statistics
from .scenario import ScenarioConfig, derive_stream_seed

__all__ = [
    "InsufficientTrials",
    "TrialEnsemble",
    "order_labels",
    "required_trials",
    "calibrate_threshold",
    "estimate_rate",
    "calibrate",
    "cfar_sweep",
    "pd_curve",
    "mismatch_contour",
    "convergence_study",
]

# substream namespaces per experiment phase, cube synthesis included
_PHASE_CALIBRATION = 0
_PHASE_SWEEP = 1
_PHASE_CURVE = 2
_PHASE_CONTOUR = 3
_PHASE_CONVERGENCE = 4
_PHASE_CUBE = 5


class InsufficientTrials(ValueError):
    """Too few null trials for the requested false alarm probability."""


def _require_finite(stats: np.ndarray, detector: str | None,
                    start: int = 0) -> None:
    """Reject NaN and infinite statistics, which would sort and count silently.

    stats are those of trials start, start + 1, ...; the message names the
    first bad one by its trial index.
    """
    bad = ~np.isfinite(stats)
    if bad.any():
        msg = (
            f"{np.count_nonzero(bad)} of {stats.size} statistics in trials "
            f"[{start}, {start + stats.size}) are not finite, first at trial "
            f"{start + int(np.argmax(bad))}"
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


def order_labels(labels) -> tuple[str, ...]:
    """Dedupe and order labels canonically (enum order, then iteration cap)."""
    members = list(DetectorId)

    def key(lab: str):
        det, lmax = parse_detector_label(lab)
        return (members.index(det), -1 if lmax is None else lmax)

    return tuple(sorted({lab for lab in labels}, key=key))


def required_trials(pfa: float) -> int:
    """Smallest null ensemble that thresholds pfa: ceil(100 / pfa) trials."""
    return math.ceil(100.0 / pfa - 1e-9)


def _threshold_rank(n: int, pfa: float) -> int:
    """1-based rank ceil(n (1 - pfa)) of the threshold among n null stats."""
    if not 0.0 < pfa < 0.5:
        raise ValueError(f"pfa must lie in (0, 0.5), got {pfa}")
    if n < required_trials(pfa):
        raise InsufficientTrials(
            f"{n} trials < required {required_trials(pfa)} for pfa={pfa}"
        )
    # nudge absorbs float rounding when n (1 - pfa) is mathematically integer
    rank = math.ceil(n * (1.0 - pfa) - 1e-9)
    return min(max(rank, 1), n)


def calibrate_threshold(ensemble: TrialEnsemble, pfa: float) -> float:
    """Order-statistic threshold at rank ceil(n (1 - pfa)) of the null stats.

    The decision rule everywhere is "statistic > threshold means H1", so
    the empirical exceedance rate of the calibration ensemble itself is
    within one trial quantum of pfa.
    """
    rank = _threshold_rank(ensemble.trial_count, pfa)
    return float(ensemble.statistics[rank - 1])


def _rate_ci(count: int, trials: int) -> tuple[float, float]:
    """Exceedance fraction of count in trials and its binomial 95% CI."""
    rate = count / trials
    return rate, 1.96 * math.sqrt(rate * (1.0 - rate) / trials)


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
    return _rate_ci(int(np.count_nonzero(stats > threshold)), stats.size)


class _TopTail:
    """A null ensemble's order-statistic threshold, from chunks as they come.

    Only the m = trials - rank + 1 largest statistics can be the threshold
    or exceed it, so each label keeps those (np.partition) and drops the
    rest. The smallest kept is the rank-th smallest of the whole ensemble,
    ties and all, and the kept values above it are all its exceedances.
    """

    def __init__(self, trials: int, pfa: float):
        self._m = trials - _threshold_rank(trials, pfa) + 1
        self._kept: list[np.ndarray] = []
        self._size = 0

    def add(self, values: np.ndarray) -> None:
        self._kept.append(values)
        self._size += values.size
        if self._size >= 2 * self._m:
            # partitioning only past 2m keeps the cost linear in the trials
            self._reduce()

    def _reduce(self) -> np.ndarray:
        values = np.concatenate(self._kept)
        cut = max(values.size - self._m, 0)
        self._kept = [np.partition(values, cut)[cut:]]
        self._size = self._kept[0].size
        return self._kept[0]

    @property
    def threshold(self) -> float:
        return float(self._reduce().min())

    @property
    def count(self) -> int:
        kept = self._reduce()
        return int(np.count_nonzero(kept > kept.min()))


class _Exceedances:
    """Statistics above a threshold fixed in advance, counted as they come."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.count = 0

    def add(self, values: np.ndarray) -> None:
        self.count += int(np.count_nonzero(values > self.threshold))


def _null_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """The calibration scene: matched steering, scnr kept for the benchmark."""
    return replace(cfg, cos_sq_phi=1.0)


def _benchmark_threshold(scnr_db: float, pfa: float) -> float:
    """The clairvoyant benchmark's exact threshold at one SCNR.

    The benchmark hypothesizes alpha along the nominal steering with
    |alpha|^2 v^H M^-1 v = s, so under H0 its statistic
    g = 2 Re(conj(alpha) v^H M^-1 z) - s is N(-s, 2s), whatever M is.
    """
    s = 10.0 ** (scnr_db / 10.0)
    # Q^-1(pfa) as -Phi^-1(pfa), which does not round 1 - pfa
    return -s - math.sqrt(2.0 * s) * NormalDist().inv_cdf(pfa)


def _check_calibration(cfg, labels, pfa: float, trials: int) -> None:
    """Reject a calibration that cannot threshold pfa, before any draw."""
    _threshold_rank(trials, pfa)
    if "benchmark" in labels and cfg.scnr_db is None:
        raise ValueError("benchmark calibration requires scnr_db on the scenario")


def _reduce(cfg, labels, pfa: float, trials: int, seed: int, adaptive,
            **simulate) -> dict:
    """Each label's reducer, fed its statistics over trials chunk by chunk.

    The benchmark counts its exceedances of its exact threshold at
    cfg.scnr_db; every other label gets the reducer adaptive(label). Each
    chunk is reduced as the engine returns it, after a finite check that
    names a bad statistic by its trial index in the ensemble. Nothing is
    drawn for no labels.
    """
    reducers = {
        lab: _Exceedances(_benchmark_threshold(cfg.scnr_db, pfa))
        if lab == "benchmark"
        else adaptive(lab)
        for lab in labels
    }
    if not labels:
        return reducers
    start = 0
    for part in _simulate_chunks(cfg, labels, trials, stream_seed=seed,
                                 **simulate):
        for lab, reducer in reducers.items():
            stats = part.statistics[lab]
            _require_finite(stats, lab, start)
            reducer.add(stats)
        start += stats.size
    return reducers


def _null_phase(cfg, labels, pfa: float, trials: int, **simulate) -> dict:
    """Each label's reducer over the calibration phase's null ensemble.

    Every label but the benchmark keeps the top of its statistics for its
    order-statistic threshold.
    """
    seed = derive_stream_seed(cfg.master_seed, _PHASE_CALIBRATION)
    return _reduce(_null_config(cfg), labels, pfa, trials, seed,
                   lambda lab: _TopTail(trials, pfa), **simulate)


def _rate_curve(cfg, phase, axis_names, rows, labels, trials, pfa, thresholds,
                *, nominal=None, **simulate) -> CurveResult:
    """Rates at each row of scenario overrides, named by axis_names.

    Each row counts the exceedances of trials drawn in its own substream
    of phase, except the row equal to cfg, which reads the counts of the
    nominal null phase's reducers when given.
    """
    rates = np.empty((len(rows), len(labels)))
    cis = np.empty_like(rates)
    for i, row in enumerate(rows):
        point_cfg = replace(cfg, **dict(zip(axis_names, row)))
        if nominal is not None and point_cfg == cfg:
            reducers = nominal
        else:
            seed = derive_stream_seed(cfg.master_seed, phase, i)
            reducers = _reduce(point_cfg, labels, pfa, trials, seed,
                               lambda lab: _Exceedances(thresholds[lab]),
                               **simulate)
        for j, lab in enumerate(labels):
            rates[i, j], cis[i, j] = _rate_ci(reducers[lab].count, trials)

    axis_values = np.array(rows, dtype=float).reshape(len(rows), len(axis_names))
    return CurveResult(
        axis_names=axis_names,
        axis_values=axis_values,
        detectors=labels,
        rates=rates,
        cis=cis,
    )


def calibrate(
    cfg: ScenarioConfig,
    detectors,
    pfa: float,
    trials: int,
) -> dict[str, float]:
    """Each label's threshold at pfa, read off one simulated null ensemble.

    The ensemble is drawn through the maximal invariant. The benchmark's
    threshold is exact at the scenario's SCNR, so the benchmark can only
    be calibrated when the scenario pins one, and it draws no trials.
    """
    labels = order_labels(detectors)
    _check_calibration(cfg, labels, pfa, trials)
    adaptive = tuple(lab for lab in labels if lab != "benchmark")
    reducers = _null_phase(cfg, adaptive, pfa, trials, invariant=True)
    return {
        lab: reducers[lab].threshold
        if lab in reducers
        else _benchmark_threshold(cfg.scnr_db, pfa)
        for lab in labels
    }


def cfar_sweep(
    cfg: ScenarioConfig,
    pfa: float,
    cnr_grid,
    rho_grid,
    trials: int,
    *,
    detectors,
    workers: int = 1,
) -> CurveResult:
    """Empirical Pfa under off-nominal clutter, at nominally calibrated thresholds.

    The sweep covers two one-parameter families: CNR varies at the nominal
    rho, and rho varies at the nominal CNR. Rows are the deduplicated union
    in lexicographic (cnr_db, rho) order. The nominal point reuses the
    calibration ensemble, so its rate reproduces the target Pfa by
    construction (up to the order-statistic rank convention). Unlike every
    other experiment, the sweep draws data, not the maximal invariant: the
    CFAR property it checks would hold on the invariant by construction.
    """
    labels = order_labels(detectors)
    _check_calibration(cfg, labels, pfa, trials)
    nominal = _null_phase(cfg, labels, pfa, trials, workers=workers)
    points = {(float(c), cfg.rho) for c in cnr_grid}
    points.update((cfg.cnr_db, float(r)) for r in rho_grid)
    return _rate_curve(
        _null_config(cfg), _PHASE_SWEEP, ("cnr_db", "rho"), sorted(points),
        labels, trials, pfa, {lab: r.threshold for lab, r in nominal.items()},
        nominal=nominal, workers=workers,
    )


def _injected_grid(
    cfg: ScenarioConfig,
    pfa: float,
    axis_names: tuple[str, ...],
    rows: list[tuple[float, ...]],
    detectors,
    trials: int,
    phase: int,
    calibration_trials: int | None,
) -> CurveResult:
    """Pd at each row of scenario overrides, named by axis_names.

    The adaptive thresholds come from one matched null calibration
    (mismatch does not affect the null hypothesis), which draws nothing
    when the benchmark is the only detector.
    """
    labels = order_labels(detectors)
    adaptive = [lab for lab in labels if lab != "benchmark"]
    thresholds = calibrate(
        cfg, adaptive, pfa, calibration_trials or required_trials(pfa)
    )
    return _rate_curve(
        cfg, phase, axis_names, rows, labels, trials, pfa, thresholds,
        inject=True, invariant=True,
    )


def pd_curve(
    cfg: ScenarioConfig,
    pfa: float,
    scnr_grid_db,
    detectors,
    trials: int,
    *,
    calibration_trials: int | None = None,
) -> CurveResult:
    """Detection probability versus SCNR at a fixed false alarm probability."""
    rows = [(float(s),) for s in scnr_grid_db]
    return _injected_grid(
        cfg, pfa, ("scnr_db",), rows, detectors, trials, _PHASE_CURVE,
        calibration_trials,
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
) -> CurveResult:
    """Pd over the (cos^2 phi, SCNR) grid with mismatched target injection.

    Rows are lexicographic in (cos^2 phi, SCNR).
    """
    rows = sorted(
        (float(c), float(s)) for c in cos_sq_phi_grid for s in scnr_grid_db
    )
    return _injected_grid(
        cfg, pfa, ("cos_sq_phi", "scnr_db"), rows, detectors, trials,
        _PHASE_CONTOUR, calibration_trials,
    )


def convergence_study(
    cfg: ScenarioConfig,
    scnr_list,
    trials: int,
    l_max: int,
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
            invariant=True,
        )
        means[:, j] = sim.em_delta_l.mean(axis=0)
        cis[:, j] = 1.96 * sim.em_delta_l.std(axis=0) / math.sqrt(trials)

    return ConvergenceResult(
        iterations=tuple(range(1, l_max + 1)),
        configurations=tuple(names),
        means=means,
        cis=cis,
    )
