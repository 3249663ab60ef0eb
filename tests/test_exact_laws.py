"""Closed-form laws that every trial generator must honour.

Under H0 and a matched target, two independent scalars determine every
classical statistic (Kelly 1986): the AMF t and the loss factor
beta = 1 / (1 + r), r Kelly's residual, with beta ~ Beta(k-n+2, n-1). The
GLRT's null law is P(GLRT > eta) = (1 - eta)^(k-n+1). These gates check
the streams against those laws, not against another stream, so a change
of stream that keeps them is a change of sample only.
"""

import numpy as np
import pytest
from scipy import stats as sps

from embml import engine, harness
from embml.scenario import ScenarioConfig

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
