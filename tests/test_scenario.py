"""Tests for scene construction: covariance, steering, sampling, injection."""

import numpy as np
import pytest

from embml.linalg import HermitianMatrix
from embml.scenario import (
    DataBatch,
    ScenarioConfig,
    block_rng,
    block_rngs,
    build_covariance,
    derive_stream_seed,
    inject_target,
    injection_amplitude,
    mismatched_steering,
    sample_batch,
    steering_vector,
    trial_rng,
)

# trials per engine block
BLOCK = 256


def philox_key(rng):
    return tuple(int(w) for w in rng.bit_generator.state["state"]["key"])


class TestBuildCovariance:
    def test_white_clutter_at_zero_rho(self):
        cfg = ScenarioConfig(n=3, k=3, rho=0.0, cnr_db=0.0, noise_power=1.0)
        np.testing.assert_allclose(build_covariance(cfg).mat, 2.0 * np.eye(3),
                                   atol=1e-12)

    def test_direct_substitution_n2(self):
        cfg = ScenarioConfig(n=2, k=2, rho=0.9, cnr_db=30.0, noise_power=1.0)
        expected = np.array([[1001.0, 900.0], [900.0, 1001.0]])
        np.testing.assert_allclose(build_covariance(cfg).mat, expected,
                                   rtol=1e-12)

    def test_smallest_eigenvalue_at_least_noise_power(self):
        cfg = ScenarioConfig(n=8, k=16, rho=0.9, cnr_db=30.0, noise_power=1.0)
        eigs = np.linalg.eigvalsh(build_covariance(cfg).mat)
        assert eigs[0] >= 1.0 - 1e-9

    @pytest.mark.parametrize("n", [2, 16])
    @pytest.mark.parametrize("rho", [0.0, 0.999])
    @pytest.mark.parametrize("cnr_db", [-20.0, 110.0])
    def test_cholesky_factor_is_real(self, n, rho, cnr_db):
        """The engine colours data with the factor's real part alone."""
        cfg = ScenarioConfig(n=n, k=2 * n, rho=rho, cnr_db=cnr_db)
        assert not np.any(build_covariance(cfg).chol.imag)


class TestSteeringVector:
    def test_zero_doppler_is_ones(self):
        np.testing.assert_allclose(steering_vector(4, 0.0), np.ones(4),
                                   atol=1e-15)

    def test_quarter_cycle(self):
        np.testing.assert_allclose(steering_vector(2, 0.25), [1.0, 1.0j],
                                   atol=1e-15)

    def test_unit_modulus_entries(self):
        v = steering_vector(8, 0.1)
        assert np.vdot(v, v).real == pytest.approx(8.0, abs=1e-12)


class TestSampling:
    def test_reproducible_for_fixed_trial_index(self):
        cfg = ScenarioConfig(master_seed=42)
        m = build_covariance(cfg)
        b1 = sample_batch(cfg, m, 17)
        b2 = sample_batch(cfg, m, 17)
        np.testing.assert_array_equal(b1.cut, b2.cut)
        np.testing.assert_array_equal(b1.secondary, b2.secondary)

    def test_distinct_trials_differ(self):
        cfg = ScenarioConfig(master_seed=42)
        m = build_covariance(cfg)
        b1 = sample_batch(cfg, m, 0)
        b2 = sample_batch(cfg, m, 1)
        assert not np.array_equal(b1.cut, b2.cut)

    def test_derived_stream_seeds_are_distinct_and_stable(self):
        s1 = derive_stream_seed(0, 0)
        s2 = derive_stream_seed(0, 1)
        s3 = derive_stream_seed(0, 1, 4)
        assert len({s1, s2, s3}) == 3
        assert derive_stream_seed(0, 1, 4) == s3

    def test_trial_rng_is_counter_based(self):
        a = trial_rng(123, 5).standard_normal(4)
        b = trial_rng(123, 5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_data_block_keys_differ_from_invariant_and_trial_keys(self):
        seed, block = 2503, 3
        data = philox_key(block_rng(seed, block, data=True))
        assert data != philox_key(block_rng(seed, block))
        trials = range(block * BLOCK, (block + 1) * BLOCK)
        assert data not in {philox_key(trial_rng(seed, i)) for i in trials}
        # the KS gate between the two generators needs disjoint draws
        shared = np.intersect1d(
            block_rng(seed, block, data=True).standard_normal(4096),
            block_rng(seed, block).standard_normal(4096))
        assert shared.size == 0

    @pytest.mark.parametrize("data", [False, True], ids=["invariant", "data"])
    @pytest.mark.parametrize("block", [0, 1, 2**40])
    def test_rekeyed_generator_draws_what_block_rng_draws(self, data, block):
        rngs = block_rngs(2503, data=data)
        # advance the shared Philox partway through another block: an odd
        # normal count and a 32-bit draw leave its buffer half used
        stale = rngs(block + 5)
        stale.standard_normal(7)
        stale.integers(0, 2**31, dtype=np.uint32)
        # the second round re-keys after a partial draw of the block itself
        for _ in range(2):
            rekeyed = rngs(block)
            fresh = block_rng(2503, block, data=data)
            assert philox_key(rekeyed) == philox_key(fresh)
            np.testing.assert_array_equal(rekeyed.standard_normal((3, 257)),
                                          fresh.standard_normal((3, 257)))
            np.testing.assert_array_equal(
                rekeyed.standard_gamma([5.0, 14.0, 1.5], (257, 3)),
                fresh.standard_gamma([5.0, 14.0, 1.5], (257, 3)))
            rekeyed.standard_normal(3)

    def test_unit_variance_components(self):
        # per-entry complex variance E|x_i|^2 = 1 under an identity covariance
        cfg = ScenarioConfig(n=4, k=4, rho=0.0, cnr_db=-300.0, master_seed=3)
        m = build_covariance(cfg)
        draws = np.stack(
            [sample_batch(cfg, m, t).cut for t in range(20_000)]
        )
        var = np.mean(np.abs(draws) ** 2, axis=0)
        np.testing.assert_allclose(var, np.ones(4), atol=0.02)
        mean = draws.mean(axis=0)
        # zero mean to 3 sigma of the estimator per real component
        assert np.max(np.abs(mean.real)) <= 3.0 / np.sqrt(2 * 20_000)
        assert np.max(np.abs(mean.imag)) <= 3.0 / np.sqrt(2 * 20_000)

    def test_sample_covariance_matches_model(self):
        cfg = ScenarioConfig(n=4, k=4, rho=0.9, cnr_db=10.0, master_seed=4)
        m = build_covariance(cfg)
        acc = np.zeros((4, 4), dtype=complex)
        trials = 100_000
        for t in range(trials // 20):
            b = sample_batch(cfg, m, t)
            cols = np.concatenate([b.cut[:, None], b.secondary], axis=1)
            acc += cols @ cols.conj().T
        est = acc / (trials // 20 * cols.shape[1])
        np.testing.assert_allclose(est, m.mat, rtol=0.05)


class TestInjection:
    def test_amplitude_magnitude_identity_covariance(self):
        v = steering_vector(8, 0.1)
        m = HermitianMatrix(np.eye(8))
        alpha = injection_amplitude(v, m, 15.0)
        assert abs(alpha) ** 2 == pytest.approx(10.0 ** 1.5 / 8.0, rel=1e-12)

    def test_scnr_round_trip(self):
        cfg = ScenarioConfig()
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        for scnr in (0.0, 10.0, 25.0):
            alpha = injection_amplitude(v, m, scnr)
            back = 10.0 * np.log10(abs(alpha) ** 2 * m.quad_form(v))
            assert back == pytest.approx(scnr, abs=1e-10)

    def test_injection_shifts_only_the_cut(self):
        cfg = ScenarioConfig(master_seed=9)
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        batch = sample_batch(cfg, m, 0)
        out = inject_target(batch, v, m, 20.0)
        alpha = injection_amplitude(v, m, 20.0)
        np.testing.assert_allclose(out.cut, batch.cut + alpha * v, atol=1e-12)
        np.testing.assert_array_equal(out.secondary, batch.secondary)


class TestMismatchedSteering:
    def test_matched_is_collinear_in_whitened_space(self):
        cfg = ScenarioConfig()
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        vt = mismatched_steering(v, m, 1.0, cfg.doppler)
        wv = m.whiten(v)
        wt = m.whiten(vt)
        cos = abs(np.vdot(wv, wt)) / (np.linalg.norm(wv) * np.linalg.norm(wt))
        assert cos == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_case(self):
        cfg = ScenarioConfig()
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        vt = mismatched_steering(v, m, 0.0, cfg.doppler)
        scale = np.sqrt(m.quad_form(v) * m.quad_form(vt))
        assert abs(m.quad_form(v, vt)) <= 1e-9 * scale

    def test_angle_round_trip_on_random_covariances(self):
        rng = np.random.default_rng(21)
        v = steering_vector(6, 0.07)
        for cos_sq in (0.0, 0.2, 0.6, 0.9, 1.0):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            m = HermitianMatrix(a @ a.conj().T + 6 * np.eye(6),
                                assume_hermitian=True)
            vt = mismatched_steering(v, m, cos_sq)
            got = abs(m.quad_form(v, vt)) ** 2 / (
                m.quad_form(v) * m.quad_form(vt)
            )
            assert got == pytest.approx(cos_sq, abs=1e-9)


class TestValidation:
    def test_rejects_non_positive_noise(self):
        with pytest.raises(ValueError):
            ScenarioConfig(noise_power=0.0)

    def test_rejects_rho_of_one(self):
        with pytest.raises(ValueError):
            ScenarioConfig(rho=1.0)

    def test_rejects_k_below_n(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n=8, k=4)

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            DataBatch(cut=np.zeros(3), secondary=np.zeros((4, 2)))
