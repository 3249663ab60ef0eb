"""Trial-vectorized evaluation of detector statistics for Monte Carlo runs.

The per-trial functions in detectors.py and em.py are the reference
implementations; this module evaluates the same statistics on whole blocks
of trials at once, which is what makes million-trial false-alarm sweeps
take minutes instead of hours on one core. The only (trials, n, n) linear
algebra is one solve of each sample covariance S against [v, z] (plus its
log determinant when the EM trace is recorded): the classical statistics
and the whole EM recursion are closed forms in the three whitened scalars
v^H S^-1 v, |v^H S^-1 z|^2 and z^H S^-1 z. The two paths are cross-checked
to 1e-9 in the test suite.

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


def _classical_batched(
    a: np.ndarray, b2: np.ndarray, c: np.ndarray
) -> dict[str, np.ndarray]:
    """AMF/GLRT/ACE/Rao for a trial stack from three whitened scalars.

    Rao uses the Sherman-Morrison identity on S + z z^H:
    v^H T^-1 z = b / (1 + c) and v^H T^-1 v = a - |b|^2 / (1 + c)
    with a = v^H S^-1 v, b = v^H S^-1 z, b2 = |b|^2, c = z^H S^-1 z.
    """
    one_c = 1.0 + c
    return {
        DetectorId.GLRT.value: b2 / (a * one_c),
        DetectorId.AMF.value: b2 / a,
        DetectorId.RAO.value: (b2 / one_c**2) / (a - b2 / one_c),
        DetectorId.ACE.value: b2 / (a * c),
    }


def _em_batched(
    a: np.ndarray,
    b2: np.ndarray,
    c: np.ndarray,
    logdet_s: np.ndarray | None,
    l_top: int,
    snapshot_ls: tuple[int, ...],
    k: int,
    n: int,
):
    """Run the EM recursion on a trial stack, snapshotting the statistic.

    Mirrors em.run_em: shared covariance, amplitude first inside the
    M-step, log-domain posterior ratio throughout. Each M-step is a
    rank-one update of S, A = S + q0 z z^H and M = (A + q1 d d^H) / (k+1)
    with d = z - alpha v, so Sherman-Morrison and the matrix determinant
    lemma reduce the whole recursion to the maximal invariant
    a = v^H S^-1 v, b2 = |v^H S^-1 z|^2, c = z^H S^-1 z (Kelly 1986).
    logdet_s = log det S is given only when the convergence trace is
    recorded.
    """
    kp1 = k + 1
    log_prior = np.zeros_like(a)
    log_post = b2 / a
    snaps = {0: log_post} if 0 in snapshot_ls else {}

    deltas = mixtures = None
    if logdet_s is not None:
        deltas = np.empty((a.shape[0], l_top))
        mixtures = np.empty((a.shape[0], l_top + 1))
        # state after the previous M-step: log det M, tr(M^-1 S),
        # z^H M^-1 z and d^H M^-1 d; initially M = S, d = z - (b / a) v
        logdet_prev, trs_prev, qz_prev, qd_prev = logdet_s, n, c, c - b2 / a
        mixtures[:, 0] = _mixture_batched(
            log_prior, logdet_prev, trs_prev, qz_prev, qd_prev, n, kp1
        )

    for l in range(1, l_top + 1):
        q1 = _sigmoid_clamped(log_post)
        q0 = 1.0 - q1
        u = 1.0 + q0 * c
        a_a = a - q0 * b2 / u  # v^H A^-1 v
        # g = z^H M^-1 z - d^H M^-1 d; tends to (k+1) AMF as q0 -> 0
        g = kp1 * b2 / (u**2 * a_a)
        log_prior = np.log(q1) - np.log(q0)
        log_post = log_prior + g
        if l in snapshot_ls:
            snaps[l] = log_post

        if logdet_s is not None:
            delta = (c - b2 / (u * a_a)) / u  # d^H A^-1 d
            w = 1.0 + q1 * delta
            qd = kp1 * delta / w
            qz = qd + g
            logdet = logdet_s + np.log(u) + np.log(w) - n * math.log(kp1)
            trs = kp1 * n - q0 * qz - q1 * qd
            # surrogate improvement: both objective values under (q0, q1);
            # the old one weighs S + q0 z z^H + q1 d_prev d_prev^H
            l_new = -kp1 * (logdet + n)
            l_old = -kp1 * logdet_prev - trs_prev - q0 * qz_prev - q1 * qd_prev
            deltas[:, l - 1] = np.abs((l_new - l_old) / l_new)
            mixtures[:, l] = _mixture_batched(log_prior, logdet, trs, qz, qd, n, kp1)
            logdet_prev, trs_prev, qz_prev, qd_prev = logdet, trs, qz, qd

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
        # the EM recursion
        x = np.linalg.solve(s_stack, np.stack(np.broadcast_arrays(v, z), axis=2))
        a = np.einsum("i,bi->b", v.conj(), x[:, :, 0]).real
        b2 = np.abs(np.einsum("i,bi->b", v.conj(), x[:, :, 1])) ** 2
        c = np.einsum("bi,bi->b", z.conj(), x[:, :, 1]).real
    if need_classical:
        classical = _classical_batched(a, b2, c)
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
        logdet_s = np.linalg.slogdet(s_stack)[1] if record_em_trace else None
        snaps, em_delta, em_mixture = _em_batched(
            a, b2, c, logdet_s, l_top, tuple(em_ls), k, z.shape[1]
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
