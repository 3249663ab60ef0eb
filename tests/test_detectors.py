"""Tests for the classical adaptive detectors and the clairvoyant benchmark."""

import numpy as np
import pytest

from embml.detectors import (
    DetectorId,
    InsufficientSecondaryData,
    SampleCovariance,
    ace_statistic,
    amf_statistic,
    benchmark_statistic,
    detector_label,
    glrt_statistic,
    parse_detector_label,
    rao_statistic,
    sample_covariance,
)
from embml.linalg import HermitianMatrix
from embml.scenario import DataBatch, ScenarioConfig, build_covariance, \
    sample_batch, steering_vector


def identity_batch(cut, n=2, k=4):
    """A batch with the given cell under test and unit-variance secondaries
    chosen so the unnormalized sample covariance is exactly the identity."""
    cols = np.zeros((n, k), dtype=complex)
    for i in range(n):
        cols[i, i] = 1.0
    return DataBatch(cut=np.asarray(cut, dtype=complex), secondary=cols)


def identity_sc(n=2):
    return SampleCovariance(s=HermitianMatrix(np.eye(n)), k=4)


E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestSampleCovariance:
    def test_elementary_vectors(self):
        batch = DataBatch(cut=np.zeros(2),
                          secondary=np.array([[1.0, 1.0], [0.0, 0.0]]))
        sc = sample_covariance(batch)
        np.testing.assert_allclose(sc.s.mat, np.diag([2.0, 0.0]), atol=1e-14)
        assert sc.k == 2

    def test_zero_secondaries_give_zero_matrix(self):
        batch = DataBatch(cut=np.zeros(2), secondary=np.zeros((2, 3)))
        np.testing.assert_allclose(sample_covariance(batch).s.mat,
                                   np.zeros((2, 2)), atol=1e-15)

    def test_rejects_k_below_n(self):
        batch = DataBatch(cut=np.zeros(3), secondary=np.zeros((3, 2)))
        with pytest.raises(InsufficientSecondaryData):
            sample_covariance(batch)

    def test_moment_convergence(self):
        cfg = ScenarioConfig(n=4, k=100_000, rho=0.9, cnr_db=10.0,
                             master_seed=5)
        m = build_covariance(cfg)
        sc = sample_covariance(sample_batch(cfg, m, 0))
        np.testing.assert_allclose(sc.s.mat / sc.k, m.mat, rtol=0.05)


class TestPinnedValues:
    """Direct-substitution cases with S = I, v = e1, z = 2 e1."""

    def test_amf(self):
        assert amf_statistic(identity_batch(2 * E1), E1, identity_sc()) == \
            pytest.approx(4.0, rel=1e-12)

    def test_glrt(self):
        assert glrt_statistic(identity_batch(2 * E1), E1, identity_sc()) == \
            pytest.approx(0.8, rel=1e-12)

    def test_rao(self):
        # (S + z z^H)^-1 acts as 1/5 on e1, so |2/5|^2 / (1/5) = 0.8
        assert rao_statistic(identity_batch(2 * E1), E1, identity_sc()) == \
            pytest.approx(0.8, rel=1e-12)

    def test_ace_collinear(self):
        for c in (2.0, -0.5 + 1.5j):
            batch = identity_batch(c * E1)
            assert ace_statistic(batch, E1, identity_sc()) == \
                pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_cut_zeroes_all(self):
        batch = identity_batch(3.0 * E2)
        sc = identity_sc()
        for stat in (amf_statistic, glrt_statistic, ace_statistic,
                     rao_statistic):
            assert stat(batch, E1, sc) == pytest.approx(0.0, abs=1e-14)


class TestBenchmark:
    def test_zero_amplitude_is_zero(self):
        rng = np.random.default_rng(31)
        m = HermitianMatrix(np.eye(3))
        for _ in range(5):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            batch = DataBatch(cut=z, secondary=np.zeros((3, 3)))
            assert benchmark_statistic(batch, np.ones(3), m, 0.0) == \
                pytest.approx(0.0, abs=1e-12)

    def test_direct_substitution(self):
        batch = DataBatch(cut=E1.astype(complex), secondary=np.zeros((2, 2)))
        m = HermitianMatrix(np.eye(2))
        assert benchmark_statistic(batch, E1, m, 1.0) == \
            pytest.approx(1.0, rel=1e-12)

    def test_two_quadratic_form_identity(self):
        # g = 2 Re(conj(alpha) v^H M^-1 z) - |alpha|^2 v^H M^-1 v
        rng = np.random.default_rng(32)
        cfg = ScenarioConfig(master_seed=6)
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        for t in range(10):
            batch = sample_batch(cfg, m, t)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            direct = 2.0 * (np.conj(alpha) * m.quad_form(v, batch.cut)).real \
                - abs(alpha) ** 2 * m.quad_form(v)
            assert benchmark_statistic(batch, v, m, alpha) == \
                pytest.approx(direct, rel=1e-10, abs=1e-10)


class TestJointInvariance:
    """All classical statistics are invariant under z -> Bz, z_k -> Bz_k,
    v -> Bv for any nonsingular B (the transformation-group property that
    underlies their constant false alarm rate)."""

    def test_invariance_under_random_nonsingular_maps(self):
        rng = np.random.default_rng(33)
        cfg = ScenarioConfig(master_seed=7)
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        stats = (amf_statistic, glrt_statistic, ace_statistic, rao_statistic)
        for t in range(25):
            batch = sample_batch(cfg, m, t)
            sc = sample_covariance(batch)
            base = [f(batch, v, sc) for f in stats]
            b_mat = rng.standard_normal((cfg.n, cfg.n)) \
                + 1j * rng.standard_normal((cfg.n, cfg.n))
            tbatch = DataBatch(cut=b_mat @ batch.cut,
                               secondary=b_mat @ batch.secondary)
            tsc = sample_covariance(tbatch)
            moved = [f(tbatch, b_mat @ v, tsc) for f in stats]
            np.testing.assert_allclose(moved, base, rtol=1e-8)


class TestRaoDualRoute:
    def test_direct_matches_sherman_morrison(self):
        cfg = ScenarioConfig(master_seed=8)
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        for t in range(25):
            batch = sample_batch(cfg, m, t)
            sc = sample_covariance(batch)
            a = sc.s.quad_form(v)
            b = sc.s.quad_form(v, batch.cut)
            c = sc.s.quad_form(batch.cut)
            one_c = 1.0 + c
            via_scalars = (abs(b) ** 2 / one_c**2) / (a - abs(b) ** 2 / one_c)
            assert rao_statistic(batch, v, sc) == \
                pytest.approx(via_scalars, rel=1e-10)


class TestLabels:
    def test_round_trip_plain_detectors(self):
        for det in (DetectorId.GLRT, DetectorId.AMF, DetectorId.RAO,
                    DetectorId.ACE, DetectorId.BENCHMARK):
            assert parse_detector_label(detector_label(det)) == (det, None)

    def test_em_label_carries_cap(self):
        assert detector_label(DetectorId.EM_BML_D, 5) == "em-bml-d5"
        assert parse_detector_label("em-bml-d7") == (DetectorId.EM_BML_D, 7)

    def test_unknown_labels_rejected(self):
        for bad in ("kelly", "em-bml-d", "em-bml-dx", ""):
            with pytest.raises(ValueError):
                parse_detector_label(bad)

    @pytest.mark.parametrize("label", [
        "glrt", "amf", "rao", "ace", "benchmark", "em-bml-d0", "em-bml-d5",
        "em-bml-d12",
    ])
    def test_canonical_label_round_trips(self, label):
        assert detector_label(*parse_detector_label(label)) == label

    @pytest.mark.parametrize("label", [
        "GLRT", "Amf", " glrt", "em-bml-d05", "em-bml-d+5", "em-bml-d 5",
        "EM-BML-D5", "em-bml-d٥", "em-bml-d-1",
    ])
    def test_other_spellings_are_refused(self, label):
        with pytest.raises(ValueError, match="detector"):
            parse_detector_label(label)

    def test_em_label_requires_cap(self):
        with pytest.raises(ValueError):
            detector_label(DetectorId.EM_BML_D)
