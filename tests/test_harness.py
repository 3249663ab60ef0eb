"""Tests for threshold calibration and the Monte Carlo experiment drivers."""

from dataclasses import replace

import numpy as np
import pytest

from embml.curves import format_curve
from embml.engine import simulate_statistics
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
)
from embml.scenario import ScenarioConfig

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


    def test_benchmark_only_draws_nothing(self, monkeypatch):
        import embml.harness

        calls = []
        monkeypatch.setattr(embml.harness, "simulate_statistics",
                            lambda *args, **kwargs: calls.append(args))
        cfg = replace(SMALL, scnr_db=6.0)
        cal = calibrate(cfg, ("benchmark",), 0.05, 2000)
        assert calls == []
        assert cal == {"benchmark": _benchmark_threshold(6.0, 0.05)}

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
        rate, _ = estimate_rate(stats.statistics["benchmark"],
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


class TestProcessPools:
    """Only the CFAR sweep's data path fans out to a process pool.

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
