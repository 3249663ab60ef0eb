"""Trial-vectorized evaluation of detector statistics for Monte Carlo runs.

The per-trial functions in detectors.py and em.py are the reference
implementations; this module evaluates the same statistics on whole blocks
of trials at once with stacked (trials, n, n) linear algebra, which is what
makes million-trial false-alarm sweeps take minutes instead of hours on one
core. The two paths are cross-checked to 1e-9 in the test suite.

Trial data still come from one counter-based substream per trial, so
results are bit-identical for a given (stream_seed, trial_index) no matter
the chunk size or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detectors import DetectorId, parse_detector_label
from .em import POSTERIOR_FLOOR
from .linalg import HermitianMatrix
from .scenario import (
    ScenarioConfig,
    _standard_complex,
    build_covariance,
    injection_amplitude,
    mismatched_steering,
    steering_vector,
    trial_rng,
)

__all__ = ["SimulatedStatistics", "simulate_statistics", "statistics_from_stacks"]

_DEFAULT_CHUNK = 4096


@dataclass(frozen=True)
class SimulatedStatistics:
    """Per-trial statistics for a block of Monte Carlo trials.

    statistics maps detector labels to (trials,) arrays. benchmark_u and
    benchmark_c hold the clairvoyant sufficient statistic v^H M^-1 z per
    trial and the constant v^H M^-1 v, captured on request so benchmark
    thresholds at any SCNR can be derived without re-simulation.
    em_delta_l[(t, l-1)] and em_mixture[(t, l)] hold the per-trial
    convergence trace when recorded.
    """

    labels: tuple[str, ...]
    statistics: dict[str, np.ndarray]
    trial_count: int
    benchmark_u: np.ndarray | None = None
    benchmark_c: float | None = None
    em_delta_l: np.ndarray | None = None
    em_mixture: np.ndarray | None = None


def _sigmoid_clamped(r: np.ndarray) -> np.ndarray:
    """Elementwise logistic of a log ratio, clamped inside (0, 1)."""
    out = np.empty_like(r)
    pos = r >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-r[pos]))
    e = np.exp(r[~pos])
    out[~pos] = e / (1.0 + e)
    return np.clip(out, POSTERIOR_FLOOR, 1.0 - POSTERIOR_FLOOR)


def _vdot_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x^H y for (B, n) stacks."""
    return np.einsum("bi,bi->b", x.conj(), y)


def _outer_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise x x^H for a (B, n) stack, exactly Hermitian."""
    return x[:, :, None] * x.conj()[:, None, :]


def _logdet_stack(m: np.ndarray) -> np.ndarray:
    """Log determinants of a Hermitian PD stack via batched Cholesky."""
    chol = np.linalg.cholesky(m)
    diags = np.diagonal(chol, axis1=1, axis2=2).real
    return 2.0 * np.sum(np.log(diags), axis=1)


def _trace_solve(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """tr(M^-1 G) per stack element."""
    x = np.linalg.solve(m, g)
    return np.einsum("bii->b", x).real


def _pair(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(B, n, 2) right-hand sides [p, q]; p may be one (n,) vector for all B."""
    out = np.empty(q.shape + (2,), dtype=np.complex128)
    out[:, :, 0] = p
    out[:, :, 1] = q
    return out


def _classical_batched(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> dict[str, np.ndarray]:
    """AMF/GLRT/ACE/Rao for a trial stack from three whitened scalars.

    Rao uses the Sherman-Morrison identity on S + z z^H:
    v^H T^-1 z = b / (1 + c) and v^H T^-1 v = a - |b|^2 / (1 + c)
    with a = v^H S^-1 v, b = v^H S^-1 z, c = z^H S^-1 z.
    """
    b2 = np.abs(b) ** 2
    one_c = 1.0 + c
    return {
        DetectorId.GLRT.value: b2 / (a * one_c),
        DetectorId.AMF.value: b2 / a,
        DetectorId.RAO.value: (b2 / one_c**2) / (a - b2 / one_c),
        DetectorId.ACE.value: b2 / (a * c),
    }


def _em_batched(
    z: np.ndarray,
    s_stack: np.ndarray,
    v: np.ndarray,
    a0: np.ndarray,
    b0: np.ndarray,
    l_top: int,
    snapshot_ls: tuple[int, ...],
    record_trace: bool,
    k: int,
):
    """Run the EM recursion on a trial stack, snapshotting the statistic.

    Mirrors em.run_em exactly: shared covariance, amplitude first inside
    the M-step, log-domain posterior ratio throughout. a0 = v^H S^-1 v and
    b0 = v^H S^-1 z are the start values, from the solve the classical
    statistics share.
    """
    b_sz, n = z.shape
    kp1 = k + 1
    rhs = _pair(v, z)
    alpha = b0 / a0
    log_prior = np.zeros(b_sz)
    log_post = np.abs(b0) ** 2 / a0

    snaps: dict[int, np.ndarray] = {}
    if 0 in snapshot_ls:
        snaps[0] = log_post.copy()

    m_prev = s_stack
    logdet_prev = None
    d_prev = z - alpha[:, None] * v
    deltas = mixtures = None
    if record_trace:
        logdet_prev = _logdet_stack(s_stack)
        deltas = np.empty((b_sz, l_top))
        mixtures = np.empty((b_sz, l_top + 1))
        qz0 = _vdot_rows(z, np.linalg.solve(s_stack, z[:, :, None])[:, :, 0]).real
        qd0 = _vdot_rows(
            d_prev, np.linalg.solve(s_stack, d_prev[:, :, None])[:, :, 0]
        ).real
        mixtures[:, 0] = _mixture_batched(
            log_prior, logdet_prev, _trace_solve(s_stack, s_stack), qz0, qd0, n, kp1
        )

    for l in range(1, l_top + 1):
        q1 = _sigmoid_clamped(log_post)
        q0 = 1.0 - q1
        a_stack = s_stack + q0[:, None, None] * _outer_rows(z)
        x = np.linalg.solve(a_stack, rhs)
        a = np.einsum("i,bi->b", v.conj(), x[:, :, 0]).real
        b = np.einsum("i,bi->b", v.conj(), x[:, :, 1])
        alpha = b / a
        d = z - alpha[:, None] * v
        m_new = (a_stack + q1[:, None, None] * _outer_rows(d)) / kp1

        y = np.linalg.solve(m_new, _pair(z, d))
        qz = _vdot_rows(z, y[:, :, 0]).real
        qd = _vdot_rows(d, y[:, :, 1]).real
        g = qz - qd
        log_prior = np.log(q1) - np.log(q0)
        log_post = log_prior + g
        if l in snapshot_ls:
            snaps[l] = log_post.copy()

        if record_trace:
            logdet_new = _logdet_stack(m_new)
            # surrogate improvement: both objective values under (q0, q1)
            l_new = -kp1 * (logdet_new + n)
            g_old = a_stack + q1[:, None, None] * _outer_rows(d_prev)
            l_old = -kp1 * logdet_prev - _trace_solve(m_prev, g_old)
            deltas[:, l - 1] = np.abs((l_new - l_old) / l_new)
            mixtures[:, l] = _mixture_batched(
                log_prior, logdet_new, _trace_solve(m_new, s_stack), qz, qd, n, kp1
            )
            logdet_prev = logdet_new

        m_prev = m_new
        d_prev = d

    return snaps, deltas, mixtures


def _mixture_batched(log_prior, logdet, tr_s, qz, qd, n, kp1):
    """Mixture log likelihood per trial from precomputed pieces."""
    lp0 = -np.logaddexp(0.0, log_prior)
    lp1 = -np.logaddexp(0.0, -log_prior)
    base = -kp1 * (n * math.log(math.pi) + logdet)
    lf0 = base - tr_s - qz
    lf1 = base - tr_s - qd
    return np.logaddexp(lp0 + lf0, lp1 + lf1)


def statistics_from_stacks(
    z: np.ndarray,
    zs: np.ndarray,
    v: np.ndarray,
    labels: tuple[str, ...],
    *,
    true_m: HermitianMatrix | None = None,
    alpha_hyp: complex | None = None,
    capture_benchmark_aux: bool = False,
    record_em_trace: bool = False,
    trace_l_max: int | None = None,
) -> SimulatedStatistics:
    """Evaluate detector statistics on stacked trials.

    z is (B, n), zs is (B, n, k). The benchmark aux and EM trace fields of
    the result are None unless requested. Labels may name any subset of
    detectors; EM variant labels like em-bml-d5 share a single EM recursion
    run to the largest cap.
    """
    v = np.asarray(v, dtype=np.complex128)
    k = zs.shape[2]
    if k < z.shape[1]:
        raise ValueError("stacked trials need k >= n secondary vectors")
    s_stack = zs @ zs.conj().swapaxes(1, 2)

    parsed = [parse_detector_label(lab) for lab in labels]
    need_classical = any(
        det in (DetectorId.GLRT, DetectorId.AMF, DetectorId.RAO, DetectorId.ACE)
        for det, _ in parsed
    )
    em_ls = sorted({lmax for det, lmax in parsed if det is DetectorId.EM_BML_D})
    want_em = bool(em_ls) or record_em_trace
    want_benchmark = any(det is DetectorId.BENCHMARK for det, _ in parsed)

    stats: dict[str, np.ndarray] = {}
    if need_classical or want_em:
        # one solve of S against [v, z] feeds the classical statistics and
        # the EM start
        x = np.linalg.solve(s_stack, _pair(v, z))
        a = np.einsum("i,bi->b", v.conj(), x[:, :, 0]).real
        b = np.einsum("i,bi->b", v.conj(), x[:, :, 1])
    if need_classical:
        classical = _classical_batched(a, b, _vdot_rows(z, x[:, :, 1]).real)
        for det, _ in parsed:
            if det.value in classical:
                stats[det.value] = classical[det.value]

    benchmark_u = benchmark_c = None
    if want_benchmark or capture_benchmark_aux:
        if true_m is None:
            raise ValueError("benchmark statistics require the true covariance")
        minv_v = true_m.solve(v)
        benchmark_u = np.einsum("i,bi->b", minv_v.conj(), z)
        benchmark_c = float(np.vdot(v, minv_v).real)
        if want_benchmark:
            if alpha_hyp is None:
                raise ValueError("benchmark statistics require an amplitude")
            stats[DetectorId.BENCHMARK.value] = benchmark_statistic_from_aux(
                benchmark_u, benchmark_c, alpha_hyp
            )
        if not capture_benchmark_aux:
            benchmark_u = benchmark_c = None

    em_delta = em_mixture = None
    if want_em:
        l_top = max(em_ls, default=0)
        if record_em_trace:
            l_top = max(l_top, trace_l_max or 0)
        snaps, em_delta, em_mixture = _em_batched(
            z, s_stack, v, a, b, l_top, tuple(em_ls), record_em_trace, k
        )
        for l in em_ls:
            stats[f"{DetectorId.EM_BML_D.value}{l}"] = snaps[l]

    return SimulatedStatistics(
        labels=tuple(labels),
        statistics=stats,
        trial_count=z.shape[0],
        benchmark_u=benchmark_u,
        benchmark_c=benchmark_c,
        em_delta_l=em_delta,
        em_mixture=em_mixture,
    )


def benchmark_statistic_from_aux(
    u: np.ndarray, c: float, alpha: complex
) -> np.ndarray:
    """g = 2 Re(conj(alpha) u) - |alpha|^2 c from the cached aux statistics."""
    return 2.0 * (np.conj(alpha) * u).real - abs(alpha) ** 2 * c


def _generate_stack(
    cfg: ScenarioConfig,
    chol: np.ndarray,
    stream_seed: int,
    start: int,
    stop: int,
) -> np.ndarray:
    """Stacked trial matrices Z for trials [start, stop), one substream each."""
    out = np.empty((stop - start, cfg.n, cfg.k + 1), dtype=np.complex128)
    for i in range(start, stop):
        rng = trial_rng(stream_seed, i)
        w = _standard_complex(rng, cfg.n, cfg.k + 1)
        out[i - start] = chol @ w
    return out


def _compute_chunk(args) -> SimulatedStatistics:
    (cfg, labels, stream_seed, start, stop, inject, capture_aux, record_trace,
     trace_l_max) = args
    m = build_covariance(cfg)
    v = steering_vector(cfg.n, cfg.doppler)
    v_true = (
        v
        if cfg.cos_sq_phi == 1.0
        else mismatched_steering(v, m, cfg.cos_sq_phi, cfg.doppler)
    )
    alpha_hyp = None
    if cfg.scnr_db is not None:
        # the clairvoyant hypothesizes the target along the nominal steering
        alpha_hyp = injection_amplitude(v, m, cfg.scnr_db)

    zfull = _generate_stack(cfg, m.chol, stream_seed, start, stop)
    z = zfull[:, :, 0]
    zs = zfull[:, :, 1:]
    if inject:
        if cfg.scnr_db is None:
            raise ValueError("injection requires scnr_db")
        z = z + injection_amplitude(v_true, m, cfg.scnr_db) * v_true

    return statistics_from_stacks(
        z,
        zs,
        v,
        labels,
        true_m=m,
        alpha_hyp=alpha_hyp,
        capture_benchmark_aux=capture_aux,
        record_em_trace=record_trace,
        trace_l_max=trace_l_max,
    )


def simulate_statistics(
    cfg: ScenarioConfig,
    labels: tuple[str, ...],
    n_trials: int,
    *,
    stream_seed: int | None = None,
    inject: bool = False,
    capture_benchmark_aux: bool = False,
    record_em_trace: bool = False,
    trace_l_max: int | None = None,
    workers: int = 1,
    chunk_size: int = _DEFAULT_CHUNK,
) -> SimulatedStatistics:
    """Simulate n_trials independent trials and evaluate the detectors.

    Under inject=True the cell under test receives a target along the
    scenario's true steering (mismatched when cos_sq_phi < 1) at scnr_db.
    stream_seed defaults to the scenario's master_seed; harness phases pass
    derived seeds so different experiment stages never share substreams.
    Results are bit-identical for fixed seeds regardless of workers or
    chunk_size.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    seed = cfg.master_seed if stream_seed is None else stream_seed
    chunks = [
        (start, min(start + chunk_size, n_trials))
        for start in range(0, n_trials, chunk_size)
    ]
    args = [
        (cfg, labels, seed, start, stop, inject, capture_benchmark_aux,
         record_em_trace, trace_l_max)
        for start, stop in chunks
    ]
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_compute_chunk, args))
    else:
        parts = [_compute_chunk(a) for a in args]

    def joined(field: str):
        arrays = [getattr(p, field) for p in parts]
        return None if arrays[0] is None else np.concatenate(arrays)

    return SimulatedStatistics(
        labels=tuple(labels),
        statistics={
            lab: np.concatenate([p.statistics[lab] for p in parts])
            for lab in parts[0].statistics
        },
        trial_count=n_trials,
        benchmark_u=joined("benchmark_u"),
        benchmark_c=parts[0].benchmark_c,
        em_delta_l=joined("em_delta_l"),
        em_mixture=joined("em_mixture"),
    )
