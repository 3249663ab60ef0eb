"""Monte Carlo experiment engine: calibration, sweeps, curves, contours.

The adaptive detectors' thresholds are empirical order statistics of null
ensembles with a strict-exceedance decision rule. The clairvoyant
benchmark's threshold is exact: under H0 its statistic is N(-s, 2s) with
s the SCNR in linear units. Every phase, the calibration and each grid
point, is reduced chunk by chunk as the engine returns its chunks, so
memory does not grow with the trial count: a calibrated detector keeps
only the top trials - rank + 1 statistics that its threshold needs, and a
grid point one exceedance count per detector. Thresholds and rates are
exactly those of sorting and averaging the whole ensemble, which
TrialEnsemble, calibrate_threshold and estimate_rate still do as the
reference. One loop, _reduce, feeds the reducers, for these phases, for
the convergence study's EM traces (running sums, in two passes, so
their means and CIs keep their bits) and for the cube's window blocks.
Each chunk is a dict of per-trial arrays, and _reduce refuses a NaN or
infinite value in any of them, naming its trial. Every experiment phase
works in its own derived substream namespace, so trials are independent
across phases and every result is bit-reproducible for a fixed master
seed. Within a phase the rows of a grid evaluate one set of draws, made
once in row 0's substream (common random numbers), and each keeps its
own reducers (_grid_counts): the off-nominal rows of the CFAR sweep, the
rows of a Pd grid (curve or contour) and the configurations of a
convergence study. The sweep's rows each colour, scatter and whiten the
shared white normals by their own clutter, so each row's law is exact
and its values are correlated with the other rows'; its nominal row
reuses the calibration ensemble, drawn in its own phase. Pd rows with no
target off the nominal steering read one trial from each draw;
mismatched rows share a coupling of their draws, each row's law exact.
Calibration, curves, contours and convergence studies draw each trial's
maximal invariant on one thread, at about 0.3 us/trial for six detectors
(the EM trace doubles that and more); only the CFAR sweep
draws data, because CNR and rho drop out of the invariant by
construction, and only it takes a worker count, whose results do not
depend on it.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from contextlib import closing, contextmanager
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .curves import ConvergenceResult, CurveResult
from .detectors import DetectorId, parse_detector_label
from .engine import _CHUNK, TRACE, _simulate_chunks
from .scenario import ScenarioConfig, derive_stream_seed

__all__ = [
    "InsufficientTrials",
    "NonFiniteStatistic",
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


class NonFiniteStatistic(ValueError):
    """A NaN or infinite statistic, with its detector, its trial index (None
    for a mean or CI over trials) and its grid row's index (None outside a
    grid)."""

    def __init__(self, message: str, detector: str | None, index: int | None,
                 row: int | None = None):
        super().__init__(message)
        self.detector = detector
        self.index = index
        self.row = row

    def named(self, name: str) -> NonFiniteStatistic:
        """This error with name, where its statistics were drawn, in front."""
        return NonFiniteStatistic(f"{name}: {self}", self.detector,
                                  self.index, self.row)


@contextmanager
def _named(name: str):
    """Put name in front of a NonFiniteStatistic raised inside."""
    try:
        yield
    except NonFiniteStatistic as err:
        raise err.named(name) from err


def _require_finite(stats: np.ndarray, detector: str | None,
                    start: int = 0, row: int | None = None) -> None:
    """Reject NaN and infinite statistics, which would sort and count silently.

    stats has one row per trial, of trials start, start + 1, ... (a (trials,)
    array, or a (trials, l_max) EM trace); the NonFiniteStatistic raised
    names the first trial with a bad value by its index, and carries the
    grid row given.
    """
    bad = ~np.isfinite(stats)
    if bad.any():
        bad = bad.reshape(len(stats), -1).any(axis=1)
        index = start + int(np.argmax(bad))
        msg = (
            f"{np.count_nonzero(bad)} of {len(stats)} statistics in trials "
            f"[{start}, {start + len(stats)}) are not finite, first at trial "
            f"{index}"
        )
        raise NonFiniteStatistic(
            msg if detector is None else f"{detector}: {msg}", detector, index,
            row)


@dataclass(frozen=True)
class TrialEnsemble:
    """Sorted statistics of one detector over a block of trials.

    With calibrate_threshold and estimate_rate, the sort-based reference
    that the streamed reducers are checked against; no subcommand calls
    it.
    """

    detector: str
    statistics: np.ndarray
    scenario: ScenarioConfig

    def __post_init__(self):
        stats = np.asarray(self.statistics, dtype=float)
        _require_finite(stats, self.detector)
        object.__setattr__(self, "statistics", np.sort(stats))


def order_labels(labels) -> tuple[str, ...]:
    """Dedupe and order labels canonically (enum order, then iteration cap)."""
    members = list(DetectorId)

    def key(lab: str):
        det, lmax = parse_detector_label(lab)
        return (members.index(det), -1 if lmax is None else lmax)

    return tuple(sorted({lab for lab in labels}, key=key))


def required_trials(pfa: float) -> int:
    """Smallest null ensemble that thresholds pfa: ceil(100 / pfa) trials.

    Raises ValueError when 100 / pfa overflows the float range.
    """
    trials = 100.0 / pfa
    if not math.isfinite(trials):
        raise ValueError(f"pfa={pfa} is too small: 100/pfa trials overflow "
                         "the float range")
    return math.ceil(trials - 1e-9)


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
    within one trial quantum of pfa. A reference: runs threshold through
    _TopTail, which gives the same value without sorting.
    """
    rank = _threshold_rank(len(ensemble.statistics), pfa)
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
    finite. A reference: runs count through _Exceedances and _rate_ci,
    which give the same pair chunk by chunk.
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


class _RowSums:
    """Per-column sums of (trials, width) rows as they come, or, given
    center, of their squared deviations from it; the last rows added are
    kept.

    Each part is stacked under the running sum and reduced along trials,
    which repeats numpy's own order for an axis-0 sum of the whole
    C-ordered array, so the sums keep its bits. (For width 1 numpy sums a
    whole column pairwise, and the bits may differ.) A sum or square past
    the float range is a quiet inf, for the caller to refuse.
    """

    def __init__(self, width: int, center: np.ndarray | None = None):
        self.sum = np.zeros(width)
        self.center = center
        self.last = None

    @np.errstate(over="ignore")
    def add(self, values: np.ndarray) -> None:
        self.last = values
        if self.center is not None:
            values = np.square(values - self.center)
        self.sum = np.add.reduce(np.vstack([self.sum[None], values]), axis=0)


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


def _reduce(reducers: dict, chunks: Generator) -> dict:
    """Feed each key's reducer its per-trial rows, part by part.

    chunks is a generator of parts, each mapping some of reducers' keys to
    arrays with one row per trial: engine chunks, an injected grid's row
    dicts keyed (row index, label), or a cube bin's window blocks. Each
    key's parts are consecutive runs of its trials in order, so each key
    keeps its own trial offset. Each part is reduced as it arrives, after a
    finite check that names a bad statistic by its label and its trial
    index in the whole run; the error carries a grid row's index as its
    row. chunks is closed as soon as a check raises, so a thread pool
    behind it has shut down by the time the error is seen. A key that no
    reducer has, or a reducer's key that never arrives, raises KeyError.
    """
    offsets = dict.fromkeys(reducers)
    with closing(chunks):
        for part in chunks:
            for key, stats in part.items():
                start = offsets[key] or 0
                # a grid row's key is (row, label)
                row, label = (None, key) if isinstance(key, str) else key
                _require_finite(stats, label, start, row)
                reducers[key].add(stats)
                offsets[key] = start + len(stats)
    missing = [key for key, stop in offsets.items() if stop is None]
    if missing:
        raise KeyError(f"no statistics arrived for {missing}")
    return reducers


def _simulated(cfg, labels, pfa: float, trials: int, seed: int, adaptive,
               **simulate) -> dict:
    """Each label's reducer, fed its statistics over trials as simulated.

    The benchmark counts its exceedances of its exact threshold at
    cfg.scnr_db; every other label gets the reducer adaptive(label).
    Nothing is drawn for no labels.
    """
    reducers = {
        lab: _Exceedances(_benchmark_threshold(cfg.scnr_db, pfa))
        if lab == "benchmark"
        else adaptive(lab)
        for lab in labels
    }
    if not labels:
        return reducers
    return _reduce(reducers, _simulate_chunks(cfg, labels, trials,
                                              stream_seed=seed, **simulate))


def _null_phase(cfg, labels, pfa: float, trials: int, **simulate) -> dict:
    """Each label's reducer over the calibration phase's null ensemble.

    Every label but the benchmark keeps the top of its statistics for its
    order-statistic threshold.
    """
    seed = derive_stream_seed(cfg.master_seed, _PHASE_CALIBRATION)
    return _simulated(_null_config(cfg), labels, pfa, trials, seed,
                      lambda lab: _TopTail(trials, pfa), **simulate)


def _curve(axis_names, rows, labels, counts, trials) -> CurveResult:
    """The rates and CIs of counts, each row's exceedances per label."""
    rates = np.empty((len(rows), len(labels)))
    cis = np.empty_like(rates)
    for i, row_counts in enumerate(counts):
        for j, count in enumerate(row_counts):
            rates[i, j], cis[i, j] = _rate_ci(count, trials)
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


def _grid_counts(cfg, labels, rows, thresholds, trials: int, phase: int,
                 **simulate) -> list[list[int]]:
    """Each row's exceedances per label, over one grid of rows drawn once
    in phase's substream 0 (common random numbers).

    thresholds[i] maps each label to row i's threshold. Nothing is drawn
    for no rows or no labels.
    """
    reducers = {(i, lab): _Exceedances(row_thresholds[lab])
                for i, row_thresholds in enumerate(thresholds)
                for lab in labels}
    if reducers:
        seed = derive_stream_seed(cfg.master_seed, phase, 0)
        _reduce(reducers, _simulate_chunks(cfg, labels, trials,
                                           stream_seed=seed, rows=rows,
                                           **simulate))
    return [[reducers[i, lab].count for lab in labels]
            for i in range(len(rows))]


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
    The off-nominal points are the rows of one data grid: every block of
    white normals is drawn once, in the sweep phase's substream 0, and each
    point colours, scatters and whitens it by its own clutter (common
    random numbers). Each point's law is exact and its rates are correlated
    with the other points'; the calibration draws apart, so its threshold
    is independent of every off-nominal row. A non-finite statistic raises
    NonFiniteStatistic naming the clutter point, cnr_db and rho, where it
    was drawn, the calibration's included.
    """
    labels = order_labels(detectors)
    _check_calibration(cfg, labels, pfa, trials)
    with _named(f"cnr_db={cfg.cnr_db}, rho={cfg.rho}"):
        nominal = _null_phase(cfg, labels, pfa, trials, workers=workers)
    thresholds = {lab: r.threshold for lab, r in nominal.items()}
    points = {(float(c), cfg.rho) for c in cnr_grid}
    points.update((cfg.cnr_db, float(r)) for r in rho_grid)
    points = sorted(points)
    null_cfg = _null_config(cfg)
    point_cfgs = [replace(null_cfg, cnr_db=c, rho=r) for c, r in points]
    off = [i for i, point in enumerate(point_cfgs) if point != null_cfg]
    try:
        off_counts = dict(zip(off, _grid_counts(
            null_cfg, labels, tuple(point_cfgs[i] for i in off),
            [thresholds] * len(off), trials, _PHASE_SWEEP, workers=workers)))
    except NonFiniteStatistic as err:
        cnr_db, rho = points[off[err.row]]
        raise err.named(f"cnr_db={cnr_db}, rho={rho}") from err
    nominal_counts = [nominal[lab].count for lab in labels]
    counts = [off_counts.get(i, nominal_counts) for i in range(len(points))]
    return _curve(("cnr_db", "rho"), points, labels, counts, trials)


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
    when the benchmark is the only detector. Then every row evaluates the
    same draws, made once in row 0's substream of phase: on the maximal
    invariant a row's target is only an offset of the CUT, so each chunk's
    draws serve every row in turn, and each row keeps its own exceedance
    counts. A row's rate is thus the one a single-row grid at its value
    gives, and rows differ only by their targets (common random numbers).
    """
    labels = order_labels(detectors)
    adaptive = [lab for lab in labels if lab != "benchmark"]
    thresholds = calibrate(
        cfg, adaptive, pfa, calibration_trials or required_trials(pfa)
    )
    row_cfgs = tuple(replace(cfg, **dict(zip(axis_names, row))) for row in rows)
    counts = _grid_counts(
        cfg, labels, row_cfgs,
        [{lab: _benchmark_threshold(row_cfg.scnr_db, pfa)
          if lab == "benchmark" else thresholds[lab] for lab in labels}
         for row_cfg in row_cfgs],
        trials, phase, inject=True, invariant=True)
    return _curve(axis_names, rows, labels, counts, trials)


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
    The configurations are the rows of one invariant grid: every chunk is
    drawn once, in row 0's substream, for all of them, and a
    row without an SCNR is target-free. Each row's trace is reduced in two
    passes of running row-order sums (_RowSums): its sum, then its squared
    deviations from the exact mean. The second pass redraws only the
    chunks before the last, whose traces the first still holds, so memory
    does not grow with the trial count, and the means and CIs are bit for
    bit those of mean(axis=0) and 1.96 std(axis=0) / sqrt(trials) over the
    whole (trials, l_max) trace (l_max > 1). Configurations are named h0
    and scnr{:g}, and two with one name raise ValueError before any draw.
    A non-finite objective change raises NonFiniteStatistic naming the
    configuration and the first trial with one, and so does a finite trace
    whose sum or squared deviations pass the float range, naming the
    configuration and the first iteration whose mean or CI is not finite.
    """
    if trials < 1000:
        raise InsufficientTrials(
            f"convergence averaging needs at least 1000 trials, got {trials}"
        )
    if l_max < 1:
        raise ValueError("l_max must be positive")
    names = ["h0" if scnr is None else f"scnr{scnr:g}" for scnr in scnr_list]
    for j, name in enumerate(names):
        if name in names[:j]:
            raise ValueError(f"two convergence configurations are named {name}")
    rows = tuple(replace(cfg, scnr_db=None if scnr is None else float(scnr))
                 for scnr in scnr_list)
    seed = derive_stream_seed(cfg.master_seed, _PHASE_CONVERGENCE, 0)

    def traced(reducers: dict, n_trials: int) -> dict:
        try:
            return _reduce(reducers, _simulate_chunks(
                cfg, (), n_trials, stream_seed=seed, inject=True,
                trace_l_max=l_max, invariant=True, rows=rows))
        except NonFiniteStatistic as err:
            raise err.named(names[err.row]) from err

    keys = [(j, TRACE) for j in range(len(rows))]
    sums = traced({key: _RowSums(l_max) for key in keys}, trials)
    squares = {key: _RowSums(l_max, sums[key].sum / trials) for key in keys}
    before_last = (trials - 1) // _CHUNK * _CHUNK
    if before_last:
        traced(squares, before_last)
    means, cis = np.empty((2, l_max, len(rows)))
    for j, key in enumerate(keys):
        squares[key].add(sums[key].last)
        means[:, j] = squares[key].center
        std = np.sqrt(squares[key].sum / trials)
        cis[:, j] = 1.96 * std / math.sqrt(trials)
        # an infinite mean has an infinite CI
        finite = np.isfinite(cis[:, j])
        if not finite.all():
            raise NonFiniteStatistic(
                f"{names[j]}: {TRACE}: the mean or CI is not finite, first "
                f"at iteration {np.argmin(finite) + 1}", TRACE, None, j)

    return ConvergenceResult(
        iterations=tuple(range(1, l_max + 1)),
        configurations=tuple(names),
        means=means,
        cis=cis,
    )
