"""Tests for the trial-vectorized engine against the per-trial references.

The per-trial functions in detectors.py and em.py are the ground truth;
the batched engine must reproduce them to near machine precision, and its
output must not depend on chunking or worker count.
"""

from dataclasses import replace

import numpy as np
import pytest

from embml.detectors import (
    ace_statistic,
    amf_statistic,
    benchmark_statistic,
    glrt_statistic,
    rao_statistic,
    sample_covariance,
)
from embml.em import POSTERIOR_FLOOR, em_bml_statistic, run_em
from embml.engine import (
    benchmark_statistic_from_aux,
    simulate_statistics,
    statistics_from_stacks,
)
from embml.scenario import (
    DataBatch,
    ScenarioConfig,
    build_covariance,
    inject_target,
    injection_amplitude,
    sample_batch,
    steering_vector,
)

ALL_LABELS = ("glrt", "amf", "rao", "ace", "benchmark", "em-bml-d5",
              "em-bml-d7")


def stacks_from_batches(batches):
    z = np.stack([b.cut for b in batches])
    zs = np.stack([b.secondary for b in batches])
    return z, zs


# (n, k, cnr_db, rho, target injected at scnr_db); the first case is
# pure H0 data
CROSS_CHECK_CASES = (
    (8, 16, 30.0, 0.9, False),
    (8, 16, 30.0, 0.9, True),
    (8, 8, 30.0, 0.9, True),
    (16, 32, 30.0, 0.9, True),
    (8, 16, 110.0, 0.99, True),
)


def check_against_reference(n, k, cnr_db, rho, inject):
    cfg = ScenarioConfig(n=n, k=k, cnr_db=cnr_db, rho=rho, scnr_db=15.0,
                         master_seed=201)
    m = build_covariance(cfg)
    v = steering_vector(cfg.n, cfg.doppler)
    alpha = injection_amplitude(v, m, cfg.scnr_db)
    batches = [sample_batch(cfg, m, t) for t in range(32)]
    if inject:
        batches = [inject_target(b, v, m, cfg.scnr_db) for b in batches]
    z, zs = stacks_from_batches(batches)

    sim = statistics_from_stacks(
        z, zs, v, ALL_LABELS, true_m=m, alpha_hyp=alpha,
        record_em_trace=True, trace_l_max=7,
    )
    stats, delta, mixture = sim.statistics, sim.em_delta_l, sim.em_mixture

    for i, batch in enumerate(batches):
        sc = sample_covariance(batch)
        ref = {
            "glrt": glrt_statistic(batch, v, sc),
            "amf": amf_statistic(batch, v, sc),
            "rao": rao_statistic(batch, v, sc),
            "ace": ace_statistic(batch, v, sc),
            "benchmark": benchmark_statistic(batch, v, m, alpha),
        }
        for lab, expected in ref.items():
            assert stats[lab][i] == pytest.approx(expected, rel=1e-9,
                                                  abs=1e-9)
        trace = run_em(batch, v, 7, sc)
        assert stats["em-bml-d5"][i] == pytest.approx(
            trace.states[5].log_post_ratio, rel=1e-9, abs=1e-9)
        assert stats["em-bml-d7"][i] == pytest.approx(
            em_bml_statistic(trace), rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(delta[i], trace.delta_l,
                                   rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(mixture[i], trace.mixture_log_lik,
                                   rtol=1e-9)


class TestCrossCheck:
    def test_batched_matches_per_trial_reference(self):
        for case in CROSS_CHECK_CASES:
            check_against_reference(*case)

    def test_benchmark_aux_reproduces_statistic(self):
        cfg = ScenarioConfig(scnr_db=10.0, master_seed=202)
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        alpha = injection_amplitude(v, m, cfg.scnr_db)
        batches = [sample_batch(cfg, m, t) for t in range(8)]
        z, zs = stacks_from_batches(batches)
        sim = statistics_from_stacks(
            z, zs, v, ("benchmark",), true_m=m, alpha_hyp=alpha,
            capture_benchmark_aux=True,
        )
        stats, u, c = sim.statistics, sim.benchmark_u, sim.benchmark_c
        np.testing.assert_allclose(
            benchmark_statistic_from_aux(u, c, alpha), stats["benchmark"],
            rtol=1e-12)

    def test_requires_covariance_for_benchmark(self):
        cfg = ScenarioConfig(master_seed=203)
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        z, zs = stacks_from_batches([sample_batch(cfg, m, 0)])
        with pytest.raises(ValueError):
            statistics_from_stacks(z, zs, v, ("benchmark",))


class TestSchedulingInvariance:
    def test_chunk_size_does_not_change_results(self):
        cfg = ScenarioConfig(master_seed=204)
        fine = simulate_statistics(cfg, ("glrt", "em-bml-d5"), 100,
                                   chunk_size=7)
        coarse = simulate_statistics(cfg, ("glrt", "em-bml-d5"), 100,
                                     chunk_size=4096)
        for lab in ("glrt", "em-bml-d5"):
            np.testing.assert_array_equal(fine.statistics[lab],
                                          coarse.statistics[lab])

    def test_worker_count_does_not_change_results(self):
        cfg = ScenarioConfig(master_seed=205)
        solo = simulate_statistics(cfg, ("amf",), 200, chunk_size=50,
                                   workers=1)
        pair = simulate_statistics(cfg, ("amf",), 200, chunk_size=50,
                                   workers=2)
        np.testing.assert_array_equal(solo.statistics["amf"],
                                      pair.statistics["amf"])

    def test_stream_seed_partitions_trials(self):
        cfg = ScenarioConfig(master_seed=206)
        a = simulate_statistics(cfg, ("amf",), 50, stream_seed=1)
        b = simulate_statistics(cfg, ("amf",), 50, stream_seed=2)
        assert not np.array_equal(a.statistics["amf"], b.statistics["amf"])


class TestInjection:
    def test_injection_raises_detection_statistics(self):
        cfg = ScenarioConfig(scnr_db=20.0, master_seed=207)
        null = simulate_statistics(cfg, ("glrt",), 400, inject=False)
        hit = simulate_statistics(cfg, ("glrt",), 400, inject=True)
        assert hit.statistics["glrt"].mean() > \
            5 * null.statistics["glrt"].mean()

    def test_injection_requires_scnr(self):
        cfg = ScenarioConfig(master_seed=208)
        with pytest.raises(ValueError):
            simulate_statistics(cfg, ("glrt",), 10, inject=True)

    def test_mismatched_injection_lowers_matched_response(self):
        cfg = ScenarioConfig(scnr_db=20.0, master_seed=209)
        matched = simulate_statistics(cfg, ("amf",), 400, inject=True)
        skewed = simulate_statistics(replace(cfg, cos_sq_phi=0.3),
                                     ("amf",), 400, inject=True)
        assert skewed.statistics["amf"].mean() < \
            0.8 * matched.statistics["amf"].mean()


class TestSaturation:
    @pytest.mark.parametrize("scnr_db", [20.0, 13.0, None])
    def test_saturated_step_adds_k_plus_one_amf(self, scnr_db):
        """Once q1 sits at its clamp, the next statistic is affine in the AMF.

        This is the mechanism behind acceptance criterion 4: the log prior
        ratio is pinned at L_sat and the increment is (k+1) AMF.
        """
        q1 = np.float64(1.0 - POSTERIOR_FLOOR)
        l_sat = np.log(q1) - np.log(1.0 - q1)
        cfg = ScenarioConfig(scnr_db=scnr_db, master_seed=210)
        sim = simulate_statistics(cfg, ("amf", "em-bml-d4", "em-bml-d5"),
                                  2000, inject=scnr_db is not None)
        stats = sim.statistics
        saturated = stats["em-bml-d4"] >= l_sat
        assert saturated.sum() > 100
        np.testing.assert_allclose(
            stats["em-bml-d5"][saturated],
            l_sat + (cfg.k + 1) * stats["amf"][saturated], rtol=1e-8)
