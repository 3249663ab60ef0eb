"""Closed-form references the benchmark checks embml's outputs against.

Everything here uses the standard library only, so no check shares code
with the program it checks.

Tolerances. A check of an estimated rate against its closed form passes
when the two differ by at most z standard errors. A fixed z = 3 fails a
correct program in 0.27% of checks; a run makes up to 19 such checks and
the benchmark is run on dozens of seeds, so z = 3 would report working code
as incorrect on some seed. bonferroni_z instead picks z so that a correct
program fails any check of a run with probability FAMILY_ALPHA; for the
check counts used here that is z of about 4.3 to 4.6, which still rejects
a doubled false-alarm rate (about 10 standard errors at the run sizes used).
"""

from __future__ import annotations

import csv
import io
import math
from statistics import NormalDist

_STD = NormalDist()

# probability that a correct program fails at least one check of a run
FAMILY_ALPHA = 1e-4


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0, 1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1)."""
    return -_STD.inv_cdf(p)


def bonferroni_z(checks: int, alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided z giving family-wise false-failure rate alpha over `checks` checks."""
    if checks < 1:
        raise ValueError("need at least one check")
    return q_inverse(alpha / (2.0 * checks))


def binomial_var(p: float, n: int) -> float:
    """Variance of a rate over n trials; p is clamped to one trial quantum
    inside (0, 1) so a rate of exactly 0 or 1 keeps some slack."""
    p = min(max(p, 1.0 / n), 1.0 - 1.0 / n)
    return p * (1.0 - p) / n


def kelly_glrt_pfa(eta: float, n: int, k: int) -> float:
    """Kelly (1986) false-alarm probability of the GLRT at threshold eta.

    For t = |v^H S^-1 z|^2 / (v^H S^-1 v (1 + z^H S^-1 z)) with S the
    unnormalized secondary scatter of k vectors in n dimensions,
    P(t > eta | H0) = (1 - eta)^(k - n + 1).
    """
    return (1.0 - eta) ** (k - n + 1)


def clairvoyant_pd(pfa: float, scnr_db: float, cos_sq_phi: float = 1.0) -> float:
    """Pd of the known-covariance matched filter, Q(Q^-1(Pfa) - sqrt(2 SCNR) cos phi).

    The clairvoyant statistic 2 Re(conj(a) v^H M^-1 z) - |a|^2 v^H M^-1 v is
    Gaussian with variance 2 SCNR; a target whose whitened steering makes
    angle phi with the nominal one shifts its mean by 2 SCNR cos phi.
    """
    d = math.sqrt(2.0 * 10.0 ** (scnr_db / 10.0) * cos_sq_phi)
    return q_function(q_inverse(pfa) - d)


def check_glrt_threshold(
    eta: float, n: int, k: int, pfa: float, cal_trials: int, z: float
) -> str | None:
    """The closed-form Pfa of a calibrated GLRT threshold is within z
    binomial standard errors of the nominal Pfa."""
    got = kelly_glrt_pfa(eta, n, k)
    sigma = math.sqrt(binomial_var(pfa, cal_trials))
    if abs(got - pfa) > z * sigma:
        return (
            f"GLRT threshold {eta!r} has closed-form Pfa {got:.6g}, "
            f"nominal {pfa:g}, tolerance {z:.2f} x {sigma:.3g}"
        )
    return None


def check_null_rate(
    rate: float, pfa: float, trials: int, cal_trials: int, z: float, what: str
) -> str | None:
    """An empirical false-alarm rate is within z standard errors of the
    nominal Pfa; the error counts the rate's own binomial error and that of
    the order-statistic threshold it was measured against."""
    sigma = math.sqrt(binomial_var(pfa, trials) + binomial_var(pfa, cal_trials))
    if abs(rate - pfa) > z * sigma:
        return (
            f"{what}: rate {rate:.6g} vs nominal Pfa {pfa:g}, "
            f"tolerance {z:.2f} x {sigma:.3g}"
        )
    return None


def pd_sigma(
    pfa: float, scnr_db: float, cos_sq_phi: float, trials: int, cal_trials: int
) -> float:
    """Standard error of an estimated clairvoyant Pd.

    Binomial error of the rate plus the threshold's order-statistic error:
    a threshold whose true Pfa is off by dp moves Pd by dp * dPd/dPfa, with
    dPd/dPfa = phi(Q^-1(Pfa) - d) / phi(Q^-1(Pfa)).
    """
    pd = clairvoyant_pd(pfa, scnr_db, cos_sq_phi)
    x = q_inverse(pfa)
    d = math.sqrt(2.0 * 10.0 ** (scnr_db / 10.0) * cos_sq_phi)
    slope = _STD.pdf(x - d) / _STD.pdf(x)
    return math.sqrt(
        binomial_var(pd, trials) + slope**2 * binomial_var(pfa, cal_trials)
    )


def check_clairvoyant_pd(
    rate: float,
    pfa: float,
    scnr_db: float,
    cos_sq_phi: float,
    trials: int,
    cal_trials: int,
    z: float,
) -> str | None:
    """An empirical clairvoyant Pd is within z standard errors (plus one
    trial quantum) of the Q-function value."""
    pd = clairvoyant_pd(pfa, scnr_db, cos_sq_phi)
    sigma = pd_sigma(pfa, scnr_db, cos_sq_phi, trials, cal_trials)
    if abs(rate - pd) > z * sigma + 1.0 / trials:
        return (
            f"benchmark Pd {rate:.6g} at SCNR {scnr_db:g} dB, cos^2 phi "
            f"{cos_sq_phi:g}: closed form {pd:.6g}, tolerance {z:.2f} x {sigma:.3g}"
        )
    return None


def check_em_caps(rate_d5: float, rate_d7: float, where: str) -> str | None:
    """Five and seven EM iterations give detection rates within 0.03."""
    if abs(rate_d5 - rate_d7) > 0.03:
        return f"{where}: em-bml-d5 {rate_d5:.6g} vs em-bml-d7 {rate_d7:.6g} differ by more than 0.03"
    return None


def check_h0_convergence(mean_delta: dict[int, float]) -> str | None:
    """The H0 mean objective change is below 1e-4 by iteration 4 and below
    1e-5 by iteration 6."""
    for iteration, limit in ((4, 1e-4), (6, 1e-5)):
        got = mean_delta.get(iteration)
        if got is None or not got < limit:
            return f"H0 mean objective change at iteration {iteration} is {got!r}, limit {limit:g}"
    return None


def parse_csv(data: bytes) -> list[dict[str, str]]:
    """Rows of a CSV file with a header line, as dicts of raw strings."""
    return list(csv.DictReader(io.StringIO(data.decode("ascii"))))
