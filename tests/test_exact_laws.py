"""Closed-form laws that every trial generator must honour.

Under H0 and a matched target, two independent scalars determine every
classical statistic (Kelly 1986): the AMF t and the loss factor
beta = 1 / (1 + r), r Kelly's residual, with beta ~ Beta(k-n+2, n-1). The
GLRT's null law is P(GLRT > eta) = (1 - eta)^(k-n+1). These gates check
the streams against those laws, not against another stream, so a change
of stream that keeps them is a change of sample only.
"""

import math

import numpy as np
import pytest
from scipy import optimize
from scipy import stats as sps

from embml import engine, harness
from embml.harness import cfar_sweep
from embml.scenario import ScenarioConfig, derive_stream_seed

SIZES = ((8, 16), (16, 32), (2, 4))

# the calibrated GLRT threshold at Pfa 1e-3 from 10^5 null trials, at
# five seeds per size
CALIBRATION_SEEDS = range(402, 407)
CALIBRATION_PFA = 1e-3
CALIBRATION_TRIALS = 10**5
# family-wise false-failure rate 1e-3 over every (seed, size)
CALIBRATION_ALPHA = 1e-3 / (len(CALIBRATION_SEEDS) * len(SIZES))


def kelly_glrt_pfa(eta: float, n: int, k: int) -> float:
    """The GLRT's exact null exceedance probability of threshold eta."""
    return (1.0 - eta) ** (k - n + 1)


class TestCalibratedThreshold:
    @pytest.mark.parametrize("n,k", SIZES)
    def test_exact_pfa_lies_in_the_order_statistic_spread(self, n, k):
        """The threshold is the rank-th of N null statistics, so its exact
        Pfa, 1 - F(threshold), is Beta(N - rank + 1, rank) distributed."""
        rank = harness._threshold_rank(CALIBRATION_TRIALS, CALIBRATION_PFA)
        spread = sps.beta(CALIBRATION_TRIALS - rank + 1, rank)
        pvalues = {}
        for seed in CALIBRATION_SEEDS:
            cfg = ScenarioConfig(n=n, k=k, master_seed=seed)
            eta = harness.calibrate(cfg, ("glrt",), CALIBRATION_PFA,
                                    CALIBRATION_TRIALS)["glrt"]
            pfa = kelly_glrt_pfa(eta, n, k)
            pvalues[seed] = 2.0 * min(spread.cdf(pfa), spread.sf(pfa))
        failed = {s: p for s, p in pvalues.items() if p < CALIBRATION_ALPHA}
        assert not failed, (
            f"two-sided p below {CALIBRATION_ALPHA:.1e}: {failed}")


# (n, k) of the loss-factor gate; n3/k6 is the smallest with Q drawn
LOSS_SIZES = (*SIZES, (3, 6))
# H0, and a matched target, which Kelly's residual does not see
LOSS_SCNRS = (None, 13.0)
LOSS_TRIALS = 20_000
# family-wise false-failure rate 1e-3 over both generators
LOSS_ALPHA = 1e-3 / (2 * len(LOSS_SIZES) * len(LOSS_SCNRS))


class TestLossFactor:
    @pytest.mark.parametrize("invariant", [False, True],
                             ids=["data", "invariant"])
    @pytest.mark.parametrize("scnr_db", LOSS_SCNRS,
                             ids=lambda s: "h0" if s is None else f"{s:g}dB")
    @pytest.mark.parametrize("n,k", LOSS_SIZES)
    def test_beta_follows_its_law(self, n, k, scnr_db, invariant):
        """beta = glrt / (amf (1 - glrt)) = 1 / (1 + r) ~ Beta(k-n+2, n-1)."""
        cfg = ScenarioConfig(n=n, k=k, scnr_db=scnr_db,
                             master_seed=440 + n + k)
        parts = list(engine._simulate_chunks(
            cfg, ("glrt", "amf"), LOSS_TRIALS, stream_seed=cfg.master_seed,
            inject=scnr_db is not None, invariant=invariant))
        glrt, amf = (np.concatenate([p[lab] for p in parts])
                     for lab in ("glrt", "amf"))
        beta = glrt / (amf * (1.0 - glrt))
        pvalue = sps.kstest(beta, sps.beta(k - n + 2, n - 1).cdf).pvalue
        assert pvalue >= LOSS_ALPHA


# Under H0, x = beta t = E / G with E ~ Exp(1) and G ~ Gamma(k-n+1),
# independent of beta, so P(x > x0) = (1 + x0)^-(k-n+1). At a fixed beta,
# each classical detector exceeds eta exactly when x > x*(beta): GLRT =
# x / (1 + x), AMF = x / beta, ACE = x / (1 + x - beta) and
# Rao = x beta / (1 + x), which never exceeds eta at beta <= eta.
EXCEEDED_AT = {
    "glrt": lambda eta, beta: eta / (1.0 - eta) + 0.0 * beta,
    "amf": lambda eta, beta: eta * beta,
    "rao": lambda eta, beta: eta / (beta - eta),
    "ace": lambda eta, beta: eta * (1.0 - beta) / (1.0 - eta),
}
# Gauss-Legendre nodes and weights on [-1, 1]
LEGENDRE = np.polynomial.legendre.leggauss(200)


def exact_pfa(label: str, eta: float, n: int, k: int) -> float:
    """A classical detector's exact null exceedance probability of eta:
    the integral of (1 + x*(beta))^-(k-n+1) over beta ~ Beta(k-n+2, n-1),
    one Gauss-Legendre sum over the betas where it can exceed eta."""
    lo = eta if label == "rao" else 0.0
    nodes, weights = LEGENDRE
    beta = lo + (1.0 - lo) * (nodes + 1.0) / 2.0
    tail = (1.0 + EXCEEDED_AT[label](eta, beta)) ** -(k - n + 1)
    density = sps.beta(k - n + 2, n - 1).pdf(beta)
    return (1.0 - lo) / 2.0 * float(np.sum(weights * density * tail))


def exact_threshold(label: str, pfa: float, n: int, k: int) -> float:
    """The threshold whose exact null exceedance probability is pfa."""
    # the AMF is unbounded; the others lie in (0, 1)
    top = 1e3 if label == "amf" else 0.999
    return optimize.brentq(lambda eta: exact_pfa(label, eta, n, k) - pfa,
                           1e-6, top, xtol=1e-15, rtol=1e-14)


class TestExactPfa:
    @pytest.mark.parametrize("n,k", SIZES)
    @pytest.mark.parametrize("eta", [0.05, 0.3, 0.7])
    def test_glrt_sum_is_kellys_closed_form(self, n, k, eta):
        assert exact_pfa("glrt", eta, n, k) == pytest.approx(
            kelly_glrt_pfa(eta, n, k), rel=1e-12, abs=0)

    @pytest.mark.parametrize("label", EXCEEDED_AT)
    def test_threshold_reproduces_its_pfa(self, label):
        eta = exact_threshold(label, 1e-2, 8, 16)
        assert exact_pfa(label, eta, 8, 16) == pytest.approx(1e-2, rel=1e-9)


# The CFAR gate: pfa-sweep's rates over criterion 3's clutter grid, each
# counted at the detector's exact threshold, so that each (point, detector)
# carries only its own binomial noise, not the spread of a calibrated
# threshold.
CFAR_SCENE = dict(n=8, k=16, rho=0.9, cnr_db=30.0, master_seed=405)
CFAR_CNRS = (30.0, 50.0, 70.0, 90.0, 110.0)
CFAR_RHOS = (0.5, 0.6, 0.7, 0.8, 0.9)
CFAR_LABELS = ("glrt", "amf", "rao", "ace")
CFAR_PFA = 1e-2
CFAR_TRIALS = 20_000
# family-wise false-failure rate 1e-3 over the nine points and four
# detectors (Bonferroni)
CFAR_ALPHA = 1e-3 / (9 * len(CFAR_LABELS))


def cfar_failures(monkeypatch) -> dict:
    """Each (point, detector) of the sweep whose exceedance count of its
    exact threshold has a two-sided binomial p below CFAR_ALPHA.

    The sweep runs as it stands, but its calibration counts its own null
    ensemble against the exact thresholds instead of ranking it, so the
    nominal row still reuses the calibration's draws."""
    cfg = ScenarioConfig(**CFAR_SCENE)
    thresholds = {lab: exact_threshold(lab, CFAR_PFA, cfg.n, cfg.k)
                  for lab in CFAR_LABELS}

    def exact_null_phase(cfg, labels, pfa, trials, **simulate):
        seed = derive_stream_seed(cfg.master_seed, harness._PHASE_CALIBRATION)
        return harness._simulated(
            harness._null_config(cfg), labels, pfa, trials, seed,
            lambda lab: harness._Exceedances(thresholds[lab]), **simulate)

    monkeypatch.setattr(harness, "_null_phase", exact_null_phase)
    curve = cfar_sweep(cfg, CFAR_PFA, CFAR_CNRS, CFAR_RHOS, CFAR_TRIALS,
                       detectors=CFAR_LABELS)
    assert curve.rows == 9
    failed = {}
    for lab in CFAR_LABELS:
        pfa = exact_pfa(lab, thresholds[lab], cfg.n, cfg.k)
        rates, _ = curve.column(lab)
        for (cnr, rho), rate in zip(curve.axis_values, rates):
            count = round(rate * CFAR_TRIALS)
            pvalue = sps.binomtest(count, CFAR_TRIALS, pfa).pvalue
            if pvalue < CFAR_ALPHA:
                failed[f"{lab} at CNR {cnr:g} dB, rho {rho:g}"] = count
    return failed


class TestCfarGate:
    def test_sweep_holds_the_exact_pfa_at_every_point(self, monkeypatch):
        failed = cfar_failures(monkeypatch)
        assert not failed, (
            f"exceedances of {CFAR_TRIALS} outside the binomial bound "
            f"(expected {CFAR_PFA * CFAR_TRIALS:g}): {failed}")

    def test_gate_fails_a_cut_coloured_apart_from_its_secondaries(
        self, monkeypatch
    ):
        # the CUT coloured by sqrt(2) chol(M), the secondaries by chol(M)
        coloured = engine._coloured_blocks

        def miscoloured(*args):
            for lo, hi, stack in coloured(*args):
                stack[:, :, 0] *= math.sqrt(2.0)
                yield lo, hi, stack

        monkeypatch.setattr(engine, "_coloured_blocks", miscoloured)
        assert cfar_failures(monkeypatch)
