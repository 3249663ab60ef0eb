"""Tests for the trial-vectorized engine against the per-trial references.

The per-trial functions in detectors.py and em.py are the ground truth;
the batched engine must reproduce them to near machine precision, and its
output must not depend on chunking or worker count.
"""

import hashlib
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from embml import engine, scenario
from embml.detectors import (
    ace_statistic,
    amf_statistic,
    benchmark_statistic,
    glrt_statistic,
    rao_statistic,
    sample_covariance,
)
from embml.em import POSTERIOR_FLOOR, em_bml_statistic, run_em
from embml.engine import simulate_statistics, statistics_from_stacks
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
    stats, delta = sim.statistics, sim.em_delta_l

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


class TestCrossCheck:
    def test_batched_matches_per_trial_reference(self):
        for case in CROSS_CHECK_CASES:
            check_against_reference(*case)

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

    STRADDLE_LABELS = ("glrt", "benchmark", "em-bml-d5")

    def straddling_run(self, invariant, **kwargs):
        # 600 trials: chunks of 7 and 100 straddle the 256-trial blocks
        cfg = ScenarioConfig(n=16, k=32, scnr_db=10.0, cos_sq_phi=0.6,
                             master_seed=211)
        return simulate_statistics(
            cfg, self.STRADDLE_LABELS, 600, inject=True, record_em_trace=True,
            trace_l_max=4, invariant=invariant, **kwargs)

    def assert_identical(self, first, second):
        for lab in self.STRADDLE_LABELS:
            np.testing.assert_array_equal(first.statistics[lab],
                                          second.statistics[lab])
        np.testing.assert_array_equal(first.em_delta_l, second.em_delta_l)

    def check_chunk_sizes(self, invariant):
        reference = self.straddling_run(invariant, chunk_size=4096)
        for chunk_size in (7, 100):
            self.assert_identical(
                self.straddling_run(invariant, chunk_size=chunk_size),
                reference)

    def check_worker_counts(self, invariant):
        self.assert_identical(
            self.straddling_run(invariant, chunk_size=100, workers=1),
            self.straddling_run(invariant, chunk_size=100, workers=2))

    def test_invariant_chunk_size_does_not_change_results(self):
        self.check_chunk_sizes(invariant=True)

    def test_invariant_worker_count_does_not_change_results(self):
        self.check_worker_counts(invariant=True)

    def test_data_chunk_size_does_not_change_results(self):
        self.check_chunk_sizes(invariant=False)

    def test_data_worker_count_does_not_change_results(self):
        self.check_worker_counts(invariant=False)

    def test_invariant_trace_does_not_move_the_statistics(self):
        cfg = ScenarioConfig(scnr_db=10.0, master_seed=212)
        plain = simulate_statistics(cfg, ("glrt",), 300, inject=True,
                                    invariant=True)
        traced = simulate_statistics(cfg, ("glrt",), 300, inject=True,
                                     record_em_trace=True, trace_l_max=3,
                                     invariant=True)
        np.testing.assert_array_equal(plain.statistics["glrt"],
                                      traced.statistics["glrt"])


# Distribution gate between the two generators: (n, k, scnr_db, cos_sq_phi,
# inject). H0, matched H1, mismatched H1 at n16, k = n, and the p = 2 and
# p = 3 edges of the invariant draw.
INVARIANT_CASES = (
    (8, 16, 13.0, 1.0, False),
    (8, 16, 13.0, 1.0, True),
    (16, 32, 10.0, 0.6, True),
    (8, 8, 13.0, 1.0, True),
    (2, 4, 10.0, 0.7, True),
    (3, 6, 10.0, 1.0, True),
)
GATE_LABELS = ("glrt", "amf", "rao", "ace", "benchmark", "em-bml-d5")
GATE_TRIALS = 8000
GATE_L = 6
# every two-sample KS test in the gate shares one family-wise false-failure
# rate of 1e-3 (Bonferroni): working code fails it for about one seed in a
# thousand
GATE_ALPHA = 1e-3 / (len(INVARIANT_CASES) * (len(GATE_LABELS) + GATE_L))


class TestInvariantGenerator:
    @pytest.mark.parametrize("case", INVARIANT_CASES,
                             ids=lambda c: "n{}k{}-{}".format(
                                 c[0], c[1], "h1" if c[4] else "h0"))
    def test_matches_data_path_distribution(self, case):
        n, k, scnr_db, cos_sq_phi, inject = case
        cfg = ScenarioConfig(n=n, k=k, scnr_db=scnr_db, cos_sq_phi=cos_sq_phi,
                             master_seed=220 + n + k)
        data, drawn = (
            simulate_statistics(cfg, GATE_LABELS, GATE_TRIALS, inject=inject,
                                record_em_trace=True, trace_l_max=GATE_L,
                                invariant=invariant)
            for invariant in (False, True)
        )
        pvalues = {
            lab: sps.ks_2samp(data.statistics[lab], drawn.statistics[lab]).pvalue
            for lab in GATE_LABELS
        }
        for l in range(GATE_L):
            pvalues[f"dl{l + 1}"] = sps.ks_2samp(
                data.em_delta_l[:, l], drawn.em_delta_l[:, l]).pvalue
        failed = {key: p for key, p in pvalues.items() if p < GATE_ALPHA}
        assert not failed, f"KS p-values below {GATE_ALPHA:.1e}: {failed}"

    @pytest.mark.parametrize("n,k", [(8, 16), (2, 4), (3, 6)])
    def test_glrt_null_matches_kelly_cdf(self, n, k):
        """Under H0, P(GLRT <= eta) = 1 - (1 - eta)^(k - n + 1) (Kelly 1986)."""
        cfg = ScenarioConfig(n=n, k=k, master_seed=230 + n)
        glrt = simulate_statistics(cfg, ("glrt",), 20_000,
                                   invariant=True).statistics["glrt"]
        pvalue = sps.kstest(
            glrt, lambda eta: 1.0 - (1.0 - eta) ** (k - n + 1)).pvalue
        # three tests, family-wise false-failure rate 1e-3
        assert pvalue >= 1e-3 / 3


class TestDataGenerator:
    @pytest.mark.parametrize("invariant", [False, True],
                             ids=["data", "invariant"])
    def test_one_philox_per_chunk_and_one_key_per_block(self, monkeypatch,
                                                         invariant):
        """1000 trials in chunks of 512 build two Philox generators, one per
        chunk, and key them for blocks 0-3, once each."""
        keys, philox_built = [], []
        philox, block_key = np.random.Philox, scenario.block_key

        def count_philox(*args, **kwargs):
            philox_built.append(1)
            return philox(*args, **kwargs)

        def count_key(stream_seed, block_index, *, data=False):
            keys.append((block_index, data))
            return block_key(stream_seed, block_index, data=data)

        monkeypatch.setattr(np.random, "Philox", count_philox)
        monkeypatch.setattr(scenario, "block_key", count_key)
        sim = simulate_statistics(ScenarioConfig(master_seed=213), ("amf",),
                                  1000, chunk_size=512, invariant=invariant)
        assert sim.statistics["amf"].shape == (1000,)
        assert keys == [(b, not invariant) for b in range(4)]
        # every Philox is a chunk's, so no per-trial trial_rng was built
        assert len(philox_built) == 2

    @pytest.mark.parametrize("labels", [(), ("benchmark",)],
                             ids=["empty", "benchmark"])
    def test_labels_without_the_invariant_form_no_s(self, monkeypatch,
                                                    labels):
        # 600 trials straddle the 256-trial blocks
        cfg = ScenarioConfig(scnr_db=10.0, master_seed=214)
        full = simulate_statistics(cfg, ("amf", "benchmark"), 600, inject=True)
        stacked = []

        def no_scatter(zs):
            raise AssertionError("S was formed")

        def record_solve(a, b):
            stacked.append(np.ndim(a) > 2)
            return solve(a, b)

        solve = np.linalg.solve
        monkeypatch.setattr(engine, "_scatter", no_scatter)
        monkeypatch.setattr(np.linalg, "solve", record_solve)
        sim = simulate_statistics(cfg, labels, 600, inject=True)
        # the clairvoyant's M^-1 v takes n x n solves, never a stack's
        assert not any(stacked)
        assert sim.statistics.keys() == set(labels)
        for lab in labels:
            np.testing.assert_array_equal(sim.statistics[lab],
                                          full.statistics[lab])


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# pfa-sweep's stream is pinned (acceptance criterion 3 passes at seed 405
# on it), so the coloured data of a block and the statistics drawn from it
# must not move by a bit. Digests taken with numpy 2.4 and its bundled
# OpenBLAS 0.3.31 on x86-64; (n, k, first trial, stop, cnr_db, rho), the
# n16 range straddles the 256-trial blocks.
GOLDEN_STACKS = {
    (8, 16, 0, 600, 30.0, 0.9):
        "4e1a221ae9db5caf293b75254085f6e16538eb9eb3eb5b9131c9697f85da3c48",
    (8, 16, 0, 600, 110.0, 0.99):
        "4900bc60fe61e855faf8e6cb289045490b5df2659831fabaa7688f013f7851bd",
    (16, 32, 100, 700, 30.0, 0.9):
        "0940b9259c886cfe7633a78f4a174c67a5657dc78dd6f291a9c065c8deac606f",
    (16, 32, 100, 700, 110.0, 0.99):
        "ccab66aea99e5f3eabb1f3523b6c2a7a11f50a3732eebbaa81aefd7ee5db8fd9",
}
GOLDEN_AMF = "55b4068977115dafed4a5e13ce9ef39f762b0a4b7cc1b019353e00dda3b9e8e3"


class TestDataStream:
    @pytest.mark.parametrize("case", GOLDEN_STACKS,
                             ids=lambda c: f"n{c[0]}k{c[1]}-cnr{c[4]:g}")
    def test_coloured_stack_is_pinned(self, case):
        n, k, start, stop, cnr_db, rho = case
        cfg = ScenarioConfig(n=n, k=k, cnr_db=cnr_db, rho=rho)
        blocks = engine._coloured_blocks(cfg, build_covariance(cfg).chol, 241,
                                         start, stop)
        # (trials, n, k+1); each part is copied before the next block reuses it
        stack = np.concatenate([part.transpose(1, 0, 2).copy()
                                for _, _, part in blocks])
        assert sha256(stack) == GOLDEN_STACKS[case]

    def test_complex_factor_is_refused(self):
        cfg = ScenarioConfig()
        chol = build_covariance(cfg).chol.copy()
        chol[1, 0] += 1e-12j
        with pytest.raises(ValueError, match="real"):
            next(engine._coloured_blocks(cfg, chol, 241, 0, 10))

    def test_default_detector_amf_is_pinned(self):
        sim = simulate_statistics(
            ScenarioConfig(master_seed=242),
            ("glrt", "amf", "rao", "ace", "em-bml-d5", "em-bml-d7"), 600)
        assert sha256(sim.statistics["amf"]) == GOLDEN_AMF


class TestWorkerCrash:
    def test_dead_worker_names_seed_and_first_missing_chunk(
        self, crashing_workers
    ):
        with pytest.raises(BrokenProcessPool,
                           match=r"trials \[0, 10\) of stream seed 1234\b"):
            simulate_statistics(ScenarioConfig(), ("amf",), 20, chunk_size=10,
                                stream_seed=1234, workers=2)


class TestWorkerPool:
    def test_pool_gets_no_more_workers_than_chunks(self, monkeypatch):
        # a forking pool starts every worker at once, so 64 workers for two
        # chunks would fork 62 processes for nothing
        built = []

        class InProcessPool:
            """Records its worker count and maps in the test process."""

            def __init__(self, max_workers=None, **kwargs):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", InProcessPool)
        cfg = ScenarioConfig(master_seed=216)
        wide = simulate_statistics(cfg, ("amf",), 600, chunk_size=300,
                                   workers=64)
        assert built == [2]
        solo = simulate_statistics(cfg, ("amf",), 600, chunk_size=300)
        np.testing.assert_array_equal(wide.statistics["amf"],
                                      solo.statistics["amf"])


SIX = ("glrt", "amf", "rao", "ace", "em-bml-d5", "em-bml-d7")


class TestMemory:
    def test_data_chunk_holds_one_block_at_a_time(self):
        # a whole 4096-trial chunk of (16, 33) matrices, its S and the
        # solve's copies peak at about 81 MiB; one 256-trial block at a time
        # keeps the peak near 6 MiB
        cfg = ScenarioConfig(n=16, k=32, master_seed=217)
        simulate_statistics(cfg, SIX, 10)
        tracemalloc.start()
        try:
            sim = simulate_statistics(cfg, SIX, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sim.statistics["amf"].shape == (4096,)
        assert peak < 12 * 2**20


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
