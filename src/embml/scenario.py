"""Synthetic scene construction for adaptive detection experiments.

Covers the interference covariance model (white noise plus exponentially
correlated clutter), Doppler steering vectors, reproducible complex Gaussian
sampling, target injection at a prescribed SCNR, and synthesis of steering
vectors with a controlled whitened-space mismatch angle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .linalg import HermitianMatrix

__all__ = [
    "ScenarioConfig",
    "DataBatch",
    "DegenerateDirection",
    "build_covariance",
    "steering_vector",
    "trial_rng",
    "block_key",
    "block_rng",
    "block_rngs",
    "derive_stream_seed",
    "sample_batch",
    "injection_amplitude",
    "inject_target",
    "mismatched_steering",
]

_U64 = 2**64
# set in the counter word of block keys, so they never meet a trial index;
# data blocks also set the next bit, so they never meet an invariant block
_BLOCK_KEY_BIT = 2**63
_DATA_BLOCK_KEY_BIT = 2**62


class DegenerateDirection(ValueError):
    """No usable orthogonal direction could be built for the mismatch."""


def _finite_db(db: float) -> bool:
    """Whether a dB value and its linear power 10^(db/10) are finite floats;
    the power overflows the float range above about 3082.5 dB."""
    try:
        return math.isfinite(db) and math.isfinite(10.0 ** (db / 10.0))
    except OverflowError:
        return False


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one synthetic detection scene.

    n is the channel/pulse count, k the secondary-data count. The
    interference covariance is noise_power * (I + 10^(cnr_db/10) * C) with
    C the one-lag-rho exponential Toeplitz matrix. scnr_db is the injected
    target level (None means no target, the H0 scene), cos_sq_phi the
    whitened-space match between nominal and true steering (1 = matched).

    The steering model (a temporal Doppler vector) and the injected target
    phase (0: injection_amplitude is real) are modeling choices; detection
    performance is invariant to both because the SCNR normalization and the
    statistics are phase insensitive.
    """

    n: int = 8
    k: int = 16
    rho: float = 0.9
    cnr_db: float = 30.0
    noise_power: float = 1.0
    doppler: float = 0.1
    scnr_db: float | None = None
    cos_sq_phi: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 2):
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        if not (isinstance(self.k, int) and self.k >= self.n):
            raise ValueError(f"k must be an integer >= n, got {self.k}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not _finite_db(self.cnr_db):
            raise ValueError("cnr_db must be finite, as must its linear power "
                             f"10^(cnr_db/10); got {self.cnr_db}")
        if not (self.noise_power > 0 and math.isfinite(self.noise_power)):
            raise ValueError("noise_power must be positive and finite")
        # M's diagonal, as build_covariance computes it
        if not math.isfinite(self.noise_power
                             + self.noise_power * 10.0 ** (self.cnr_db / 10.0)):
            raise ValueError(
                "noise_power * (1 + 10^(cnr_db/10)) must be a finite float; "
                f"got noise_power {self.noise_power} and cnr_db {self.cnr_db}")
        if not -0.5 <= self.doppler < 0.5:
            raise ValueError(f"doppler must lie in [-0.5, 0.5), got {self.doppler}")
        if self.scnr_db is not None and not _finite_db(self.scnr_db):
            raise ValueError("scnr_db must be finite or None, and its linear "
                             f"power 10^(scnr_db/10) finite; got {self.scnr_db}")
        if not 0.0 <= self.cos_sq_phi <= 1.0:
            raise ValueError(f"cos_sq_phi must lie in [0, 1], got {self.cos_sq_phi}")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < _U64):
            raise ValueError("master_seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class DataBatch:
    """One trial: the cell under test plus k secondary vectors (columns)."""

    cut: np.ndarray
    secondary: np.ndarray

    def __post_init__(self):
        cut = np.asarray(self.cut, dtype=np.complex128)
        sec = np.asarray(self.secondary, dtype=np.complex128)
        if cut.ndim != 1:
            raise ValueError("cut must be a vector")
        if sec.ndim != 2 or sec.shape[0] != cut.shape[0]:
            raise ValueError("secondary must be an (n, k) array of column vectors")
        object.__setattr__(self, "cut", cut)
        object.__setattr__(self, "secondary", sec)

    @property
    def n(self) -> int:
        return self.cut.shape[0]

    @property
    def k(self) -> int:
        return self.secondary.shape[1]


def build_covariance(cfg: ScenarioConfig) -> HermitianMatrix:
    """Interference covariance sigma^2 I + sigma_c^2 C, C(i,j) = rho^|i-j|."""
    lags = np.arange(cfg.n)
    c = cfg.rho ** np.abs(lags[:, None] - lags[None, :])
    sigma_c2 = cfg.noise_power * 10.0 ** (cfg.cnr_db / 10.0)
    m = cfg.noise_power * np.eye(cfg.n) + sigma_c2 * c
    return HermitianMatrix(m.astype(np.complex128), assume_hermitian=True)


def steering_vector(n: int, doppler: float) -> np.ndarray:
    """Temporal steering vector v[i] = exp(j 2 pi i doppler), i = 0..n-1."""
    return np.exp(2j * np.pi * doppler * np.arange(n))


def derive_stream_seed(master_seed: int, *tags: int) -> int:
    """Derive an independent 64-bit stream seed from a master seed and tags.

    Used to give each experiment phase (calibration, each curve point, ...)
    its own trial-index namespace so trials never overlap across phases.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(tags))
    return int(ss.generate_state(1, np.uint64)[0])


def trial_rng(stream_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based per-trial generator keyed by (stream_seed, trial_index).

    Philox takes a 128-bit key; using the pair directly makes every trial an
    independent substream. sample_batch and cube synthesis draw from it; the
    Monte Carlo engine draws whole blocks of trials from block_rngs instead.
    """
    key = np.array([stream_seed % _U64, trial_index % _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_key(
    stream_seed: int, block_index: int, *, data: bool = False
) -> np.ndarray:
    """Philox key of one block of trials: (stream_seed, block_index | tag).

    The top bit of the second word is set, so block keys and trial_rng keys
    never collide for trial indices below 2^63. data=True keys a block of
    the data path and also sets bit 62, so data and invariant blocks of one
    stream never share draws for block indices below 2^62.
    """
    tag = _BLOCK_KEY_BIT | (_DATA_BLOCK_KEY_BIT if data else 0)
    return np.array([stream_seed % _U64, (block_index | tag) % _U64], dtype=np.uint64)


def block_rng(
    stream_seed: int, block_index: int, *, data: bool = False
) -> np.random.Generator:
    """Counter-based generator for one block of trials, keyed by block_key."""
    key = block_key(stream_seed, block_index, data=data)
    return np.random.Generator(np.random.Philox(key=key))


def block_rngs(
    stream_seed: int, *, data: bool = False
) -> Callable[[int], np.random.Generator]:
    """block_rng(stream_seed, b, data=data) for any b, from one Philox.

    Each call of the returned function re-keys the same generator through
    its state setter, to a newly built Philox's zero counter and empty
    buffer, so it draws exactly what a fresh block_rng draws. A Philox
    built with a key first seeds a SeedSequence from OS entropy and throws
    it away, so a re-key costs about a quarter of a build.
    """
    rng = np.random.Generator(np.random.Philox(key=0))
    fresh = rng.bit_generator.state

    def rekeyed(block_index: int) -> np.random.Generator:
        fresh["state"]["key"] = block_key(stream_seed, block_index, data=data)
        rng.bit_generator.state = fresh
        return rng

    return rekeyed


def _standard_complex(rng: np.random.Generator, n: int, cols: int) -> np.ndarray:
    """(n, cols) matrix of i.i.d. CN(0, 1) entries, (x + j y) / sqrt(2)."""
    w = rng.standard_normal((2, n, cols))
    return (w[0] + 1j * w[1]) / np.sqrt(2.0)


def sample_batch(
    cfg: ScenarioConfig, m: HermitianMatrix, trial_index: int
) -> DataBatch:
    """Draw one H0 trial: k+1 i.i.d. CN(0, m) vectors via the factor of m.

    The same (master_seed, trial_index) always yields the identical batch.
    """
    rng = trial_rng(cfg.master_seed, trial_index)
    w = _standard_complex(rng, cfg.n, cfg.k + 1)
    z = m.chol @ w
    return DataBatch(cut=z[:, 0], secondary=z[:, 1:])


def injection_amplitude(
    v_true: np.ndarray, m: HermitianMatrix, scnr_db: float
) -> complex:
    """Real amplitude alpha with |alpha|^2 v_t^H M^-1 v_t equal to the SCNR."""
    power = 10.0 ** (scnr_db / 10.0) / m.quad_form(v_true)
    return complex(np.sqrt(power))


def inject_target(
    batch: DataBatch, v_true: np.ndarray, m: HermitianMatrix, scnr_db: float
) -> DataBatch:
    """Add alpha * v_true to the cell under test; secondary data untouched."""
    alpha = injection_amplitude(v_true, m, scnr_db)
    return DataBatch(cut=batch.cut + alpha * v_true, secondary=batch.secondary)


def mismatched_steering(
    v: np.ndarray,
    m: HermitianMatrix,
    cos_sq_phi: float,
    doppler: float | None = None,
) -> np.ndarray:
    """Steering vector at a prescribed whitened-space angle from v.

    Whitens v with the factor of m, rotates toward a deterministic
    orthogonal direction, and colors back, so that
    |v^H M^-1 v_t|^2 / ((v^H M^-1 v)(v_t^H M^-1 v_t)) = cos_sq_phi.
    The orthogonal direction is built from the steering vector shifted by
    half a resolution cell (doppler + 1/(2n)); if that direction is
    degenerate the whitened elementary directions are tried in order.
    """
    if not 0.0 <= cos_sq_phi <= 1.0:
        raise ValueError(f"cos_sq_phi must lie in [0, 1], got {cos_sq_phi}")
    v = np.asarray(v, dtype=np.complex128)
    n = v.shape[0]
    l = m.chol
    v_bar = m.whiten(v)
    u_hat = v_bar / np.linalg.norm(v_bar)

    candidates = []
    if doppler is None:
        doppler = 0.0
    shifted = steering_vector(n, _wrap_doppler(doppler + 1.0 / (2.0 * n)))
    candidates.append(m.whiten(shifted))
    candidates.extend(np.eye(n, dtype=np.complex128))

    u_perp = None
    for cand in candidates:
        resid = cand - np.vdot(u_hat, cand) * u_hat
        norm = np.linalg.norm(resid)
        if norm >= 1e-8 * np.linalg.norm(cand):
            u_perp = resid / norm
            break
    if u_perp is None:
        raise DegenerateDirection("no direction independent of v in whitened space")

    w = np.sqrt(cos_sq_phi) * u_hat + np.sqrt(1.0 - cos_sq_phi) * u_perp
    return l @ w


def _wrap_doppler(f: float) -> float:
    """Wrap a normalized Doppler into [-0.5, 0.5)."""
    return (f + 0.5) % 1.0 - 0.5
