"""Tests for threshold calibration and the Monte Carlo experiment drivers."""

import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from embml import engine, harness
from embml.curves import format_curve
from embml.engine import TRACE, simulate_statistics
from embml.harness import (
    _benchmark_threshold,
    InsufficientTrials,
    TrialEnsemble,
    calibrate,
    calibrate_threshold,
    cfar_sweep,
    convergence_study,
    estimate_rate,
    mismatch_contour,
    order_labels,
    pd_curve,
    required_trials,
)
from embml.scenario import ScenarioConfig, derive_stream_seed

SMALL = ScenarioConfig(n=4, k=8, master_seed=301)


def ensemble_of(values, detector="glrt"):
    return TrialEnsemble(detector=detector, statistics=np.asarray(values,
                                                                  dtype=float),
                         scenario=SMALL)


class TestCalibrateThreshold:
    def test_rank_arithmetic(self):
        # 10000 null trials at pfa = 0.01: the 9900th smallest statistic
        rng = np.random.default_rng(41)
        values = rng.standard_normal(10_000)
        eta = calibrate_threshold(ensemble_of(values), 0.01)
        assert eta == np.sort(values)[9899]

    def test_interior_quantile_rank(self):
        rng = np.random.default_rng(42)
        values = rng.standard_normal(10_001)
        eta = calibrate_threshold(ensemble_of(values), 0.4)
        # rank = ceil(10001 * 0.6) = 6001, so eta is the 6001st smallest
        assert eta == np.sort(values)[6000]
        assert np.count_nonzero(values > eta) == 4000

    def test_insufficient_trials(self):
        with pytest.raises(InsufficientTrials):
            calibrate_threshold(ensemble_of(np.arange(199)), 0.49)
        with pytest.raises(InsufficientTrials):
            calibrate_threshold(ensemble_of(np.arange(9999)), 0.01)

    def test_pfa_domain(self):
        values = np.arange(10_000)
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                calibrate_threshold(ensemble_of(values), bad)

    def test_self_consistency_on_fresh_ensemble(self):
        rng = np.random.default_rng(43)
        pfa = 0.02
        eta = calibrate_threshold(ensemble_of(rng.standard_normal(20_000)),
                                  pfa)
        fresh = rng.standard_normal(20_000)
        rate, _ = estimate_rate(fresh, eta)
        sigma = np.sqrt(pfa * (1 - pfa) / fresh.size)
        assert abs(rate - pfa) <= 3 * sigma


class TestEstimateRate:
    def test_all_above(self):
        assert estimate_rate(np.array([1.0, 2.0, 3.0]), 0.0) == (1.0, 0.0)

    def test_none_above(self):
        assert estimate_rate(np.array([1.0, 2.0, 3.0]), 5.0) == (0.0, 0.0)

    def test_ci_formula(self):
        stats = np.array([0.0, 1.0, 2.0, 3.0])
        rate, ci = estimate_rate(stats, 1.5)
        assert rate == 0.5
        assert ci == pytest.approx(1.96 * np.sqrt(0.25 / 4))

    def test_exceedance_is_strict(self):
        rate, _ = estimate_rate(np.array([1.0, 1.0, 2.0]), 1.0)
        assert rate == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_statistic_raises_naming_detector(self, bad):
        # a NaN sorts last and never exceeds, so it would count as a miss
        with pytest.raises(ValueError, match="em-bml-d5"):
            estimate_rate(np.array([bad, 5.0]), 1.0, detector="em-bml-d5")
        with pytest.raises(ValueError, match="not finite"):
            estimate_rate(np.array([bad, 5.0]), 1.0)
        with pytest.raises(ValueError, match="ace: 1 of 3 .* trial 1"):
            ensemble_of([0.5, bad, 2.0], detector="ace")


class TestOrderLabels:
    def test_canonical_order_and_dedup(self):
        got = order_labels(["em-bml-d7", "ace", "glrt", "em-bml-d5", "amf",
                            "glrt", "benchmark", "rao"])
        assert got == ("glrt", "amf", "rao", "ace", "benchmark", "em-bml-d5",
                       "em-bml-d7")

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            order_labels(["glrt", "mystery"])


class TestCalibrate:
    def test_thresholds_decrease_with_pfa(self):
        low = calibrate(SMALL, ("glrt", "em-bml-d3"), 0.05, 2000)
        high = calibrate(SMALL, ("glrt", "em-bml-d3"), 0.2, 2000)
        for lab in ("glrt", "em-bml-d3"):
            assert low[lab] > high[lab]

    def test_benchmark_needs_scnr(self):
        with pytest.raises(ValueError):
            calibrate(SMALL, ("benchmark",), 0.2, 1000)

    def test_calibration_is_reproducible(self):
        a = calibrate(SMALL, ("amf",), 0.1, 1500)
        b = calibrate(SMALL, ("amf",), 0.1, 1500)
        assert a["amf"] == b["amf"]

    def test_benchmark_leaves_adaptive_thresholds_as_they_are(self):
        # the benchmark draws nothing, and the stream does not depend on
        # which labels are drawn
        cfg = replace(SMALL, scnr_db=6.0)
        alone = calibrate(cfg, ("glrt", "em-bml-d3"), 0.05, 2000)
        both = calibrate(cfg, ("glrt", "benchmark", "em-bml-d3"), 0.05, 2000)
        assert both == {
            **alone,
            "benchmark": _benchmark_threshold(6.0, 0.05),
        }

class TestBenchmarkThreshold:
    @pytest.mark.parametrize("clutter", [{}, {"cnr_db": 60.0, "rho": 0.5}])
    def test_exact_threshold_holds_pfa_on_simulated_null(self, clutter):
        # the exact threshold has no calibration noise, so the exceedance
        # rate carries only the binomial noise of the null trials
        pfa, trials = 0.05, 20_000
        cfg = replace(SMALL, scnr_db=8.0, master_seed=307, **clutter)
        stats = simulate_statistics(cfg, ("benchmark",), trials)
        rate, _ = estimate_rate(stats["benchmark"],
                                _benchmark_threshold(cfg.scnr_db, pfa))
        assert abs(rate - pfa) <= 4 * np.sqrt(pfa * (1 - pfa) / trials)


class TestCfarSweep:
    def test_nominal_point_reproduces_pfa_by_construction(self):
        pfa, trials = 0.05, 2000
        curve = cfar_sweep(SMALL, pfa, cnr_grid=[SMALL.cnr_db],
                           rho_grid=[SMALL.rho, 0.5], trials=trials,
                           detectors=("glrt", "amf"))
        i = [tuple(row) for row in curve.axis_values].index(
            (SMALL.cnr_db, SMALL.rho))
        rank = int(np.ceil(trials * (1 - pfa) - 1e-9))
        expected = (trials - rank) / trials
        for lab in ("glrt", "amf"):
            rates, _ = curve.column(lab)
            assert rates[i] == pytest.approx(expected, abs=1e-12)

    def test_rows_are_lexicographic_union(self):
        curve = cfar_sweep(SMALL, 0.05, cnr_grid=[50.0, 30.0],
                           rho_grid=[0.5], trials=2000, detectors=("glrt",))
        rows = [tuple(r) for r in curve.axis_values]
        assert rows == sorted(rows)
        assert (SMALL.cnr_db, SMALL.rho) in rows
        assert (50.0, SMALL.rho) in rows
        assert (SMALL.cnr_db, 0.5) in rows

    def test_off_nominal_row_is_its_single_point_sweep(self):
        # the rows share one draw, so a point's rate does not depend on
        # which other points are swept with it
        labels, trials = ("glrt", "amf", "em-bml-d3"), 5000
        multi = cfar_sweep(SMALL, 0.05, [30.0, 50.0, 70.0], [0.5, 0.7],
                           trials, detectors=labels)
        for (cnr_db, rho), rates in zip(multi.axis_values, multi.rates):
            if (cnr_db, rho) == (SMALL.cnr_db, SMALL.rho):
                continue
            grids = ([cnr_db], []) if rho == SMALL.rho else ([], [rho])
            single = cfar_sweep(SMALL, 0.05, *grids, trials, detectors=labels)
            assert single.axis_values.tolist() == [[cnr_db, rho]]
            np.testing.assert_array_equal(single.rates[0], rates)

    def test_white_normals_are_drawn_once_per_block(self, monkeypatch):
        fills = []
        block_rngs = engine.block_rngs

        class CountedFills:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *args, **kwargs):
                fills.append(1)
                return self.rng.standard_normal(*args, **kwargs)

        def counted(stream_seed, **kwargs):
            rekeyed = block_rngs(stream_seed, **kwargs)
            return lambda block: CountedFills(rekeyed(block))

        monkeypatch.setattr(engine, "block_rngs", counted)
        counts = []
        for cnr_grid in ([30.0], [30.0, 40.0, 50.0, 60.0, 70.0, 80.0]):
            fills.clear()
            cfar_sweep(SMALL, 0.05, cnr_grid, [0.5], 5000,
                       detectors=("glrt", "amf"))
            counts.append(len(fills))
        # the calibration's 20 blocks of 256 trials and the grid's 20, for
        # one off-nominal row or six
        assert counts == [40, 40]

    def test_glrt_holds_pfa_off_nominal(self):
        # the GLRT is exactly CFAR, so off-nominal rates stay within 3 sigma
        pfa, trials = 0.05, 4000
        curve = cfar_sweep(SMALL, pfa, cnr_grid=[60.0], rho_grid=[0.3],
                           trials=trials, detectors=("glrt",))
        sigma = np.sqrt(pfa * (1 - pfa) / trials)
        rates, _ = curve.column("glrt")
        assert np.all(np.abs(rates - pfa) <= 3 * sigma)


class TestPdCurve:
    def test_noise_only_limit_recovers_pfa(self):
        pfa, trials = 0.1, 2000
        curve = pd_curve(SMALL, pfa, [-60.0], ("glrt", "amf"), trials,
                         calibration_trials=2000)
        sigma = np.sqrt(pfa * (1 - pfa) / trials)
        for lab in ("glrt", "amf"):
            rates, _ = curve.column(lab)
            assert abs(rates[0] - pfa) <= 3 * sigma

    def test_benchmark_dominates_and_pd_monotone(self):
        grid = [-5.0, 0.0, 5.0, 10.0, 15.0]
        curve = pd_curve(SMALL, 0.05, grid, ("glrt", "benchmark"), 1500,
                         calibration_trials=2000)
        bench, bench_ci = curve.column("benchmark")
        glrt, glrt_ci = curve.column("glrt")
        assert np.all(bench >= glrt - bench_ci - glrt_ci)
        # benchmark Pd nondecreasing in SCNR within CI overlap
        for i in range(len(grid) - 1):
            assert bench[i + 1] >= bench[i] - bench_ci[i] - bench_ci[i + 1]

    def test_reproducible_per_master_seed(self):
        a = pd_curve(SMALL, 0.1, [0.0, 6.0], ("amf",), 800,
                     calibration_trials=1000)
        b = pd_curve(SMALL, 0.1, [0.0, 6.0], ("amf",), 800,
                     calibration_trials=1000)
        assert format_curve(a) == format_curve(b)

    def test_axis_is_scnr(self):
        curve = pd_curve(SMALL, 0.1, [3.0], ("amf",), 500,
                         calibration_trials=1000)
        assert curve.axis_names == ("scnr_db",)
        assert curve.axis_values[0, 0] == 3.0


class TestMismatchContour:
    def test_matched_column_reproduces_pd_curve(self):
        pfa, trials = 0.1, 1500
        grid = [5.0, 12.0]
        contour = mismatch_contour(SMALL, pfa, grid, [0.4, 1.0], ("glrt",),
                                   trials, calibration_trials=1000)
        curve = pd_curve(SMALL, pfa, grid, ("glrt",), trials,
                         calibration_trials=1000)
        c_rates, c_cis = contour.column("glrt")
        p_rates, p_cis = curve.column("glrt")
        for i, scnr in enumerate(grid):
            j = [tuple(r) for r in contour.axis_values].index((1.0, scnr))
            assert abs(c_rates[j] - p_rates[i]) <= \
                c_cis[j] + p_cis[i] + 1e-12

    def test_rows_lexicographic_in_cos_then_scnr(self):
        contour = mismatch_contour(SMALL, 0.1, [4.0, 8.0], [0.2, 0.8],
                                   ("amf",), 600, calibration_trials=1000)
        rows = [tuple(r) for r in contour.axis_values]
        assert contour.axis_names == ("cos_sq_phi", "scnr_db")
        assert rows == sorted(rows)
        assert len(rows) == 4

    def test_mismatch_degrades_detection(self):
        contour = mismatch_contour(SMALL, 0.05, [14.0], [0.2, 1.0],
                                   ("glrt",), 1500, calibration_trials=2000)
        rates, _ = contour.column("glrt")
        rows = [tuple(r) for r in contour.axis_values]
        lo = rates[rows.index((0.2, 14.0))]
        hi = rates[rows.index((1.0, 14.0))]
        assert lo < hi - 0.1


class TestGridRows:
    """Every row of an injected grid evaluates the same trials, drawn and
    whitened once in row 0's substream, so a row is the single-row run at
    its value."""

    LABELS = ("glrt", "amf", "benchmark", "em-bml-d3")
    # 5000 trials are two chunks, the second a partial one
    TRIALS = 5000

    @staticmethod
    def rows_of(curve):
        return [(tuple(axis), tuple(curve.rates[i]), tuple(curve.cis[i]))
                for i, axis in enumerate(curve.axis_values)]

    def test_pd_curve_row_is_its_single_row_run(self):
        grid = [-3.0, 4.0, 9.0]
        multi = pd_curve(SMALL, 0.1, grid, self.LABELS, self.TRIALS,
                         calibration_trials=1000)
        singles = [row for scnr in grid for row in self.rows_of(
            pd_curve(SMALL, 0.1, [scnr], self.LABELS, self.TRIALS,
                     calibration_trials=1000))]
        assert self.rows_of(multi) == singles

    def test_mismatch_contour_row_is_its_single_row_run(self):
        multi = mismatch_contour(SMALL, 0.1, [5.0, 10.0], [0.3, 1.0],
                                 self.LABELS, self.TRIALS,
                                 calibration_trials=1000)
        singles = [row for cos_sq, scnr in multi.axis_values
                   for row in self.rows_of(mismatch_contour(
                       SMALL, 0.1, [scnr], [cos_sq], self.LABELS, self.TRIALS,
                       calibration_trials=1000))]
        assert self.rows_of(multi) == singles

    def test_rows_share_one_draw_per_chunk(self, monkeypatch):
        calls = []
        draw = engine._invariant_draws

        def counted(*args):
            calls.append(1)
            return draw(*args)

        monkeypatch.setattr(engine, "_invariant_draws", counted)
        counts = []
        for grid in ([-3.0, 0.0, 3.0, 6.0, 9.0, 12.0], [6.0]):
            calls.clear()
            pd_curve(SMALL, 0.1, grid, self.LABELS, self.TRIALS,
                     calibration_trials=1000)
            counts.append(len(calls))
        # the one calibration chunk and the grid's two chunks
        assert counts == [3, 3]

    def test_labels_are_parsed_once_per_run(self, monkeypatch):
        calls = []
        parse = engine.parse_detector_label

        def counted(label):
            calls.append(label)
            return parse(label)

        monkeypatch.setattr(engine, "parse_detector_label", counted)
        counts = []
        for grid, trials in (([-3.0, 0.0, 3.0, 6.0, 9.0, 12.0], self.TRIALS),
                             ([6.0], 1000)):
            calls.clear()
            pd_curve(SMALL, 0.1, grid, self.LABELS, trials,
                     calibration_trials=1000)
            counts.append(len(calls))
        # the calibration's three adaptive labels and the grid's four, once
        # each, however many rows and chunks the grid has
        assert counts == [7, 7]

    def test_nan_in_a_later_row_and_chunk_is_named_by_its_trial(
        self, monkeypatch
    ):
        # row 2 of 4 holds a NaN AMF statistic 17 trials into the second
        # chunk; each row counts its own trials, so that is trial 4113
        compute, bad = engine._compute_chunk, engine._CHUNK + 17

        def plant(part):
            if (2, "amf") in part:
                part[2, "amf"][bad - engine._CHUNK] = np.nan
            return part

        def spoiled(start, **run):
            chunk = compute(start, **run)
            if run["rows"] is None or start != engine._CHUNK:
                return chunk
            return (plant(part) for part in chunk)

        monkeypatch.setattr(engine, "_compute_chunk", spoiled)
        with pytest.raises(harness.NonFiniteStatistic,
                           match=rf"^amf: .* first at trial {bad}$") as raised:
            pd_curve(SMALL, 0.1, [-3.0, 0.0, 3.0, 6.0], self.LABELS,
                     self.TRIALS, calibration_trials=1000)
        assert (raised.value.detector, raised.value.index) == ("amf", bad)

    def test_repeated_value_gives_identical_rows(self):
        curve = pd_curve(SMALL, 0.1, [6.0, 6.0], self.LABELS, self.TRIALS,
                         calibration_trials=1000)
        np.testing.assert_array_equal(curve.rates[0], curve.rates[1])
        np.testing.assert_array_equal(curve.cis[0], curve.cis[1])


class TestConvergenceStudy:
    def test_requires_thousand_trials(self):
        with pytest.raises(InsufficientTrials):
            convergence_study(SMALL, [None], 999, 4)

    def test_shapes_and_labels(self):
        res = convergence_study(SMALL, [None, 10.0], 1000, 4)
        assert res.iterations == (1, 2, 3, 4)
        assert res.configurations == ("h0", "scnr10")
        assert res.means.shape == (4, 2)
        assert res.cis.shape == (4, 2)

    def test_h0_deltas_decrease(self):
        res = convergence_study(SMALL, [None], 1000, 5)
        means = res.means[:, 0]
        assert np.all(np.diff(means) < 0)

    SCNRS = [None, 6.0, 13.0, 20.0]

    @pytest.mark.parametrize("scnrs, trials, draws", [
        (SCNRS, 1000, 1), (SCNRS, 9000, 5), ([], 9000, 0)])
    def test_configurations_share_their_draws(self, monkeypatch, scnrs,
                                              trials, draws):
        # one draw per chunk serves all four configurations: 9000 trials are
        # three chunks, and the second pass redraws the two before the last;
        # no configurations draw nothing
        calls = []
        draw = engine._invariant_draws

        def counted(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(engine, "_invariant_draws", counted)
        convergence_study(SMALL, scnrs, trials, 4)
        assert len(calls) == draws

    @pytest.mark.parametrize("trials", [1000, 9000])
    def test_means_and_cis_equal_the_whole_traces(self, trials):
        l_max = 5
        res = convergence_study(SMALL, self.SCNRS, trials, l_max)
        rows = tuple(replace(SMALL, scnr_db=s) for s in self.SCNRS)
        seed = derive_stream_seed(SMALL.master_seed,
                                  harness._PHASE_CONVERGENCE, 0)
        parts = list(engine._simulate_chunks(
            SMALL, (), trials, stream_seed=seed, inject=True,
            trace_l_max=l_max, invariant=True, rows=rows))
        for j in range(len(rows)):
            trace = np.concatenate([p[j, TRACE] for p in parts
                                    if (j, TRACE) in p])
            assert trace.shape == (trials, l_max)
            np.testing.assert_array_equal(res.means[:, j], trace.mean(axis=0))
            np.testing.assert_array_equal(
                res.cis[:, j], 1.96 * trace.std(axis=0) / np.sqrt(trials))


# (id, call, error, message): argument checks that must fail loudly
ARGUMENT_CHECKS = (
    ("convergence-no-iterations",
     lambda: convergence_study(SMALL, [None], 1000, 0), ValueError,
     "l_max must be positive"),
)


@pytest.mark.parametrize("call, error, message",
                         [c[1:] for c in ARGUMENT_CHECKS],
                         ids=[c[0] for c in ARGUMENT_CHECKS])
def test_argument_check_fails_loudly(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestProcessPools:
    """Only the CFAR sweep's data path fans out to a pool of threads.

    8192 trials make two 4096-trial chunks, enough for a pool to be used.
    """

    TRIALS = 8192
    INVARIANT_RUNS = {
        "calibrate": lambda n: calibrate(SMALL, ("glrt",), 0.05, n),
        "pd_curve": lambda n: pd_curve(SMALL, 0.05, [6.0], ("glrt",), n,
                                       calibration_trials=n),
        "mismatch_contour": lambda n: mismatch_contour(
            SMALL, 0.05, [6.0], [0.5], ("glrt",), n, calibration_trials=n),
        "convergence_study": lambda n: convergence_study(SMALL, [6.0], n, 3),
    }

    @pytest.mark.parametrize("name", INVARIANT_RUNS)
    def test_invariant_experiments_build_no_pool(self, counted_pools, name):
        self.INVARIANT_RUNS[name](self.TRIALS)
        assert counted_pools == []

    def test_cfar_sweep_fans_out_its_data(self, counted_pools):
        cfar_sweep(SMALL, 0.05, cnr_grid=[30.0], rho_grid=[0.5],
                   trials=self.TRIALS, detectors=("glrt",), workers=2)
        assert len(counted_pools) >= 1

    def test_non_finite_statistic_on_a_thread_is_named_as_on_one(
        self, nan_in_second_chunk
    ):
        messages = []
        for workers in (1, 2):
            threads = threading.active_count()
            with pytest.raises(ValueError, match=(
                    rf"^cnr_db={SMALL.cnr_db}, rho={SMALL.rho}: amf: .* first "
                    rf"at trial {nan_in_second_chunk}$")) as raised:
                cfar_sweep(SMALL, 0.05, [SMALL.cnr_db], [SMALL.rho],
                           2 * self.TRIALS, detectors=("glrt", "amf"),
                           workers=workers)
            messages.append(str(raised.value))
            assert threading.active_count() == threads
        assert messages[0] == messages[1]


CHUNK = 4096  # the engine's default chunk


def planted_nulls(labels, trials, layout, seed):
    """Integer-valued null statistics, so that ties sit at every rank.

    "ascending" puts the kept top of each ensemble in its last chunk,
    "descending" in its first.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for lab in labels:
        values = rng.integers(0, 40, trials).astype(float)
        if layout == "ascending":
            values.sort()
        elif layout == "descending":
            values = np.sort(values)[::-1].copy()
        out[lab] = values
    return out


def chunk_source(null, row=None):
    """A stand-in for the engine's chunk iterator that yields the given
    statistics in chunks of CHUNK trials: null in the calibration phase,
    row (null by default) at every grid row. A grid call gets each chunk
    as one part per row, keyed (row index, label)."""

    def chunks(cfg, labels, n_trials, *, stream_seed, rows=None, **simulate):
        calibration = derive_stream_seed(cfg.master_seed,
                                         harness._PHASE_CALIBRATION)
        stats = null if row is None or stream_seed == calibration else row
        assert all(stats[lab].size == n_trials for lab in labels)
        for start in range(0, n_trials, CHUNK):
            part = {lab: stats[lab][start:start + CHUNK] for lab in labels}
            if rows is None:
                yield part
            else:
                yield from ({(i, lab): values for lab, values in part.items()}
                            for i in range(len(rows)))

    return chunks


class TestStreamedReduction:
    """Null ensembles and grid rows are reduced chunk by chunk; the
    thresholds, rates and CIs must equal those of the whole-ensemble
    functions bit for bit."""

    LABELS = ("glrt", "amf", "benchmark")

    @pytest.mark.parametrize("layout", ["shuffled", "ascending", "descending"])
    @pytest.mark.parametrize("trials", [1000, 4097, 10_000])
    @pytest.mark.parametrize("pfa", [0.01, 0.05, 0.3])
    def test_thresholds_and_nominal_rates_equal_the_whole_ensembles(
        self, monkeypatch, layout, trials, pfa
    ):
        cfg = replace(SMALL, scnr_db=6.0)
        exact = _benchmark_threshold(cfg.scnr_db, pfa)
        stats = planted_nulls(self.LABELS, trials, layout, seed=311)
        row = planted_nulls(self.LABELS, trials, layout, seed=313)
        # benchmark statistics tie with its exact threshold too
        for planted in (stats, row):
            planted["benchmark"] = exact + (planted["benchmark"] - 20.0)
        monkeypatch.setattr(harness, "_simulate_chunks",
                            chunk_source(stats, row))

        def sweep():
            return cfar_sweep(cfg, pfa, [cfg.cnr_db], [cfg.rho, 0.5], trials,
                              detectors=self.LABELS)

        if trials < required_trials(pfa):
            with pytest.raises(InsufficientTrials):
                calibrate(cfg, self.LABELS, pfa, trials)
            with pytest.raises(InsufficientTrials):
                sweep()
            return

        thresholds = calibrate(cfg, self.LABELS, pfa, trials)
        curve = sweep()
        # the off-nominal row, drawn chunk by chunk, then the nominal one
        assert curve.axis_values[:, 1].tolist() == [0.5, cfg.rho]
        for lab in self.LABELS:
            expected = exact if lab == "benchmark" else calibrate_threshold(
                TrialEnsemble(lab, stats[lab], cfg), pfa)
            assert thresholds[lab] == expected
            rates, cis = curve.column(lab)
            for i, planted in enumerate((row, stats)):
                assert np.count_nonzero(planted[lab] == expected) > 1
                assert (rates[i], cis[i]) == estimate_rate(planted[lab],
                                                           expected)
                assert rates[i] == np.mean(planted[lab] > expected)

    @pytest.mark.parametrize("where", ["calibrate", "nominal row",
                                       "off-nominal row"])
    def test_non_finite_statistic_names_detector_and_trial(
        self, monkeypatch, where
    ):
        trials, j = 10_000, 17
        clean = planted_nulls(("glrt", "amf"), trials, "shuffled", seed=312)
        bad = {**clean, "amf": clean["amf"].copy()}
        bad["amf"][CHUNK + j] = np.nan
        null, row = (clean, bad) if where == "off-nominal row" else (bad, clean)
        monkeypatch.setattr(harness, "_simulate_chunks",
                            chunk_source(null, row))
        # a sweep's error names its clutter point, the calibration's too
        point = {"calibrate": "",
                 "nominal row": f"cnr_db={SMALL.cnr_db}, rho={SMALL.rho}: ",
                 "off-nominal row": f"cnr_db={SMALL.cnr_db}, rho=0.5: "}[where]

        with pytest.raises(ValueError, match=(
                rf"^{point}amf: .* first at trial {CHUNK + j}$")):
            if where == "calibrate":
                calibrate(SMALL, ("glrt", "amf"), 0.05, trials)
            else:
                cfar_sweep(SMALL, 0.05, [SMALL.cnr_db], [SMALL.rho, 0.5],
                           trials, detectors=("glrt", "amf"))

    def test_non_finite_trace_row_is_named_by_its_trial(self):
        # two chunks of 5 trials x 3 iterations; the NaN sits in row 2 of
        # the second chunk, so trial 5 + 2 is the first bad one
        chunks = [np.ones((5, 3)), np.ones((5, 3))]
        chunks[1][2, 1] = np.nan
        sums = harness._RowSums(3)
        with pytest.raises(ValueError,
                           match=rf"^{TRACE}: 1 of 5 .* first at trial 7$"):
            harness._reduce({TRACE: sums}, ({TRACE: c} for c in chunks))
        assert sums.last is chunks[0]
        np.testing.assert_array_equal(sums.sum, [5.0, 5.0, 5.0])

    def test_reducer_whose_key_never_arrives_raises(self):
        with pytest.raises(KeyError, match="amf"):
            harness._reduce({TRACE: harness._RowSums(3),
                             "amf": harness._Exceedances(0.0)},
                            ({TRACE: c} for c in [np.ones((5, 3))]))

    def test_benchmark_only_calibration_draws_no_chunk(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_simulate_chunks",
                            lambda *args, **kwargs: calls.append(args) or [])
        cal = calibrate(replace(SMALL, scnr_db=6.0), ("benchmark",), 0.05,
                        2000)
        assert calls == []
        assert cal == {"benchmark": _benchmark_threshold(6.0, 0.05)}


SIX = ("glrt", "amf", "rao", "ace", "em-bml-d5", "em-bml-d7")
FLAT = ScenarioConfig(n=4, k=8, master_seed=403)


class TestFlatMemory:
    @pytest.mark.parametrize("run, trials", [
        # whole ensembles peaked at 9.2 and 36.8 MiB; the kept tails of
        # 101 and 401 statistics per detector leave one chunk's worth
        (lambda n: calibrate(ScenarioConfig(n=8, k=16, master_seed=402), SIX,
                             1e-3, n), 100_000),
        # whole rows peaked at 4.6 and 18.4 MiB, streamed ones at 2.2
        (lambda n: pd_curve(FLAT, 0.05, [6.0], SIX, n), 50_000),
        # an off-nominal row: 1.1 and 3.7 MiB whole, 1.1 streamed
        (lambda n: cfar_sweep(FLAT, 0.01, [FLAT.cnr_db], [0.5], n,
                              detectors=SIX), 10_000),
    ], ids=["calibrate", "pd_curve", "cfar_sweep"])
    def test_peak_does_not_grow_with_trials(self, run, trials):
        run(trials)  # first-call allocations stay out of the peaks

        def peak(n):
            tracemalloc.start()
            try:
                run(n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * trials) < 1.5 * peak(trials)

    def test_peak_does_not_grow_with_rows(self):
        # rows evaluated one at a time peaked at 2.02 and 2.10 MiB for 6
        # and 60 rows; every row of a chunk held at once, at 3.9 and 24.3
        def peak(rows):
            grid = np.linspace(0.0, 15.0, rows)
            tracemalloc.start()
            try:
                pd_curve(FLAT, 0.05, grid, SIX, 10_000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pd_curve(FLAT, 0.05, [6.0], SIX, 100)  # first-call allocations
        assert peak(60) < 1.5 * peak(6)

    def test_convergence_holds_one_trace(self):
        # two configurations of 5e4 trials x 10 iterations: a whole trace per
        # configuration, the last still held while the next was drawn,
        # peaked at 3.0 traces; one buffer read chunk by chunk, and the
        # copy std makes of it, leave 2.0
        cfg = ScenarioConfig(n=8, k=16, master_seed=404)
        trials, l_max = 50_000, 10
        convergence_study(cfg, [None, 10.0], 1000, l_max)
        tracemalloc.start()
        try:
            convergence_study(cfg, [None, 10.0], trials, l_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * trials * l_max * 8

    def test_convergence_peak_does_not_grow_with_trials(self):
        # two configurations at l_max 4: one buffer of the whole trace
        # peaked at 6.3 and 24.5 MiB; running sums over two passes, which
        # hold one chunk's trace per configuration, at 2.3 and 2.3
        def peak(trials):
            tracemalloc.start()
            try:
                convergence_study(FLAT, [None, 10.0], trials, 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        convergence_study(FLAT, [None, 10.0], 1000, 4)  # first-call allocs
        assert peak(400_000) < 1.1 * peak(100_000)
