"""Trial-vectorized evaluation of detector statistics for Monte Carlo runs.

The per-trial functions in detectors.py and em.py are the reference
implementations; this module evaluates the same statistics on whole blocks
of trials at once. The classical statistics and the whole EM recursion are
closed forms in the maximal invariant a = v^H S^-1 v, |b|^2 = |v^H S^-1 z|^2
and c = z^H S^-1 z (the EM trace also needs log det S), and one helper,
_evaluate, computes every statistic from it. Two generators feed it:

- the data path draws the (n, k+1) data matrices of a block of trials,
  colours them by chol(M) and solves S against [v, z].
  statistics_from_stacks is its entry for data from outside (cube
  windows); it is cross-checked to 1e-9 against the per-trial reference.
- the invariant path (simulate_statistics(..., invariant=True)) draws a,
  |b|^2, c, log det S and the benchmark's projection exactly from O(n)
  scalars per trial, with no data matrix and no solve. The test suite
  checks its distributions against the data path.

On both paths each block of _BLOCK trials comes from one generator keyed by
(stream_seed, block_index), with a tag per path, and _from_blocks slices
the trials asked for out of whole blocks. So results are bit-identical for
a given stream seed no matter the chunk size or worker count. Only the
data path costs enough per trial for a process pool to pay for starting:
an invariant trial costs about 1 us, so the harness runs that path in one
process.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cache

import numpy as np

from .detectors import DetectorId, detector_label, parse_detector_label
from .em import POSTERIOR_FLOOR
from .linalg import HermitianMatrix
from .scenario import (
    ScenarioConfig,
    _standard_complex,
    block_rng,
    build_covariance,
    injection_amplitude,
    mismatched_steering,
    steering_vector,
)

__all__ = ["SimulatedStatistics", "simulate_statistics", "statistics_from_stacks"]

_DEFAULT_CHUNK = 4096
# trials per block_rng key, on either path
_BLOCK = 256


@dataclass(frozen=True)
class SimulatedStatistics:
    """Per-trial statistics for a block of Monte Carlo trials.

    statistics maps detector labels to (trials,) arrays.
    em_delta_l[(t, l-1)] holds the per-trial convergence trace when
    recorded.
    """

    statistics: dict[str, np.ndarray]
    em_delta_l: np.ndarray | None = None


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
    log_post = b2 / a
    snaps = {0: log_post} if 0 in snapshot_ls else {}

    deltas = None
    if logdet_s is not None:
        deltas = np.empty((a.shape[0], l_top))
        # state after the previous M-step: log det M, tr(M^-1 S),
        # z^H M^-1 z and d^H M^-1 d; initially M = S, d = z - (b / a) v
        logdet_prev, trs_prev, qz_prev, qd_prev = logdet_s, n, c, c - b2 / a

    for l in range(1, l_top + 1):
        q1 = _sigmoid_clamped(log_post)
        q0 = 1.0 - q1
        u = 1.0 + q0 * c
        a_a = a - q0 * b2 / u  # v^H A^-1 v
        # g = z^H M^-1 z - d^H M^-1 d; tends to (k+1) AMF as q0 -> 0
        g = kp1 * b2 / (u**2 * a_a)
        log_post = np.log(q1) - np.log(q0) + g
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
            logdet_prev, trs_prev, qz_prev, qd_prev = logdet, trs, qz, qd

    return snaps, deltas


def _evaluate(
    labels: tuple[str, ...],
    n: int,
    k: int,
    scalars,
    benchmark_aux,
    logdet_s,
    record_em_trace: bool,
    trace_l_max: int | None,
) -> SimulatedStatistics:
    """Detector statistics of a trial block, whichever generator drew it.

    scalars() returns (a, |b|^2, c), benchmark_aux() the (u, c, alpha)
    arguments of benchmark_statistic_from_aux and logdet_s() log det S;
    each is called only when a requested statistic needs it. EM variant
    labels like em-bml-d5 share a single EM recursion run to the largest
    cap.
    """
    parsed = [parse_detector_label(lab) for lab in labels]
    need_classical = any(
        det in (DetectorId.GLRT, DetectorId.AMF, DetectorId.RAO, DetectorId.ACE)
        for det, _ in parsed
    )
    em_ls = sorted({lmax for det, lmax in parsed if det is DetectorId.EM_BML_D})
    want_em = bool(em_ls) or record_em_trace

    stats: dict[str, np.ndarray] = {}
    if need_classical or want_em:
        a, b2, c = scalars()
    if need_classical:
        classical = _classical_batched(a, b2, c)
        for det, _ in parsed:
            if det.value in classical:
                stats[det.value] = classical[det.value]

    if any(det is DetectorId.BENCHMARK for det, _ in parsed):
        stats[DetectorId.BENCHMARK.value] = benchmark_statistic_from_aux(
            *benchmark_aux()
        )

    em_delta = None
    if want_em:
        l_top = max(em_ls, default=0)
        if record_em_trace:
            l_top = max(l_top, trace_l_max or 0)
        snaps, em_delta = _em_batched(
            a, b2, c, logdet_s() if record_em_trace else None,
            l_top, tuple(em_ls), k, n,
        )
        for l in em_ls:
            stats[detector_label(DetectorId.EM_BML_D, l)] = snaps[l]

    return SimulatedStatistics(statistics=stats, em_delta_l=em_delta)


def statistics_from_stacks(
    z: np.ndarray,
    zs: np.ndarray,
    v: np.ndarray,
    labels: tuple[str, ...],
    *,
    true_m: HermitianMatrix | None = None,
    alpha_hyp: complex | None = None,
    record_em_trace: bool = False,
    trace_l_max: int | None = None,
) -> SimulatedStatistics:
    """Evaluate detector statistics on stacked trials.

    z is (B, n), zs is (B, n, k). The benchmark needs the true covariance
    and the hypothesized amplitude. The EM trace of the result is None
    unless requested. Labels may name any subset of detectors.
    """
    v = np.asarray(v, dtype=np.complex128)
    k = zs.shape[2]
    if k < z.shape[1]:
        raise ValueError("stacked trials need k >= n secondary vectors")

    @cache
    def s_stack():
        # formed only when a requested statistic needs S, and then once
        return zs @ zs.conj().swapaxes(1, 2)

    def scalars():
        # one solve of S against [v, z] feeds the classical statistics and
        # the EM recursion
        x = np.linalg.solve(s_stack(), np.stack(np.broadcast_arrays(v, z), axis=2))
        a = np.einsum("i,bi->b", v.conj(), x[:, :, 0]).real
        b2 = np.abs(np.einsum("i,bi->b", v.conj(), x[:, :, 1])) ** 2
        c = np.einsum("bi,bi->b", z.conj(), x[:, :, 1]).real
        return a, b2, c

    def benchmark_aux():
        if true_m is None:
            raise ValueError("benchmark statistics require the true covariance")
        if alpha_hyp is None:
            raise ValueError("benchmark statistics require an amplitude")
        minv_v = true_m.solve(v)
        return (
            np.einsum("i,bi->b", minv_v.conj(), z),
            float(np.vdot(v, minv_v).real),
            alpha_hyp,
        )

    return _evaluate(
        tuple(labels), z.shape[1], k, scalars, benchmark_aux,
        lambda: np.linalg.slogdet(s_stack())[1], record_em_trace, trace_l_max,
    )


def benchmark_statistic_from_aux(
    u: np.ndarray, c: float, alpha: complex
) -> np.ndarray:
    """g = 2 Re(conj(alpha) u) - |alpha|^2 c, u = v^H M^-1 z, c = v^H M^-1 v."""
    return 2.0 * (np.conj(alpha) * u).real - abs(alpha) ** 2 * c


def _from_blocks(draw, start: int, stop: int) -> np.ndarray:
    """Trials [start, stop) cut out of the whole _BLOCK-trial blocks covering them.

    draw(b) returns block b's draws with the trial on the first axis. Each
    trial's draws depend only on its index, never on where a chunk starts,
    and only one block is held beside the result at a time.
    """
    out = None
    for b in range(start // _BLOCK, (stop - 1) // _BLOCK + 1):
        lo, hi = max(start, b * _BLOCK), min(stop, (b + 1) * _BLOCK)
        block = draw(b)
        if out is None:
            out = np.empty((stop - start,) + block.shape[1:], dtype=block.dtype)
        out[lo - start : hi - start] = block[lo - b * _BLOCK : hi - b * _BLOCK]
    return out


def _generate_stack(
    cfg: ScenarioConfig,
    chol: np.ndarray,
    stream_seed: int,
    start: int,
    stop: int,
) -> np.ndarray:
    """Stacked trial matrices Z for trials [start, stop), coloured by chol.

    Each block of _BLOCK trials draws all of its n * _BLOCK * (k+1) complex
    entries in one call from one generator keyed by (stream_seed,
    block_index) and is coloured by one product with chol. The product
    runs on the block's (_BLOCK, n, k+1) view, which gives the same values
    as (n, n) @ (n, _BLOCK (k+1)) without handing one wide product to a
    multithreaded BLAS. A trial is regenerated through its block.
    """
    n, cols = cfg.n, cfg.k + 1

    def draw(b):
        w = _standard_complex(block_rng(stream_seed, b, data=True), n, _BLOCK * cols)
        return chol @ w.reshape(n, _BLOCK, cols).swapaxes(0, 1)

    return _from_blocks(draw, start, stop)


def _data_chunk(cfg, labels, stream_seed, start, stop, inject, record_trace,
                trace_l_max) -> SimulatedStatistics:
    """Statistics of trials [start, stop) drawn as data: Z, colour, solve."""
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
        z = z + injection_amplitude(v_true, m, cfg.scnr_db) * v_true

    return statistics_from_stacks(
        z,
        zs,
        v,
        labels,
        true_m=m,
        alpha_hyp=alpha_hyp,
        record_em_trace=record_trace,
        trace_l_max=trace_l_max,
    )


def _invariant_block(n: int, k: int, stream_seed: int, block: int,
                     record_trace: bool) -> np.ndarray:
    """Raw draws of one block of _BLOCK trials, one column per trial.

    Rows: the real then the imaginary parts of z1, z2 and the strictly
    lower entries of T (row by row), the Gamma(k-n+p-i) squares of T's
    diagonal, Gamma(n-2) for r^2 when n > 2, and with the trace the sum of
    log Gamma(k-i), i < n-p. The trace row is drawn last, so the other rows
    do not depend on it.
    """
    p = min(n, 3)
    rng = block_rng(stream_seed, block)
    rows = [rng.standard_normal((2 * (2 + p * (p - 1) // 2), _BLOCK))]
    shapes = [k - n + p - i for i in range(p)] + [n - 2] * (n > 2)
    rows.append(rng.standard_gamma(shapes, (_BLOCK, len(shapes))).T)
    if record_trace:
        rest = rng.standard_gamma(k - np.arange(n - p), (_BLOCK, n - p))
        rows.append(np.log(rest).sum(axis=1)[None])
    return np.concatenate(rows)


def _invariant_chunk(cfg, labels, stream_seed, start, stop, inject,
                     record_trace, trace_l_max) -> SimulatedStatistics:
    """Statistics of trials [start, stop) drawn through the maximal invariant.

    After whitening, a rotation puts v along e1 and the true steering in
    span(e1, e2), and one inside span(e3, ..., en) puts the rest of the CUT
    noise on e3, so the CUT is (z1 + sqrt(s) cos phi, z2 + sqrt(s) sin phi,
    r, 0, ...) with r^2 ~ Gamma(n-2). S is unitarily invariant, so
    a, b and c need only the leading p x p block of S^-1, p = min(n, 3):
    the inverse of W ~ CW(k-n+p, p, I), drawn as T T^H by Bartlett's
    decomposition, and W's complement gives the rest of log det S. v is
    taken as e1 itself: every statistic is invariant to the scale of v.
    """
    n, k, p = cfg.n, cfg.k, min(cfg.n, 3)
    draws = _from_blocks(
        lambda b: _invariant_block(n, k, stream_seed, b, record_trace).T,
        start, stop,
    ).T

    m_normal = 2 + p * (p - 1) // 2
    w = (draws[:m_normal] + 1j * draws[m_normal : 2 * m_normal]) / math.sqrt(2.0)
    gammas = draws[2 * m_normal :]
    root_s = None if cfg.scnr_db is None else 10.0 ** (cfg.scnr_db / 20.0)

    x = np.zeros((p, stop - start), dtype=np.complex128)
    x[:2] = w[:2]
    if n > 2:
        x[2] = np.sqrt(gammas[p])
    if inject:
        x[0] += root_s * math.sqrt(cfg.cos_sq_phi)
        x[1] += root_s * math.sqrt(1.0 - cfg.cos_sq_phi)

    def scalars():
        # forward substitution T [y, u] = [e1, x]; then a = |y|^2,
        # b = y^H u and c = |u|^2
        diag = np.sqrt(gammas[:p])
        off = iter(w[2:])
        sol = np.zeros((2, p, x.shape[1]), dtype=np.complex128)
        sol[0, 0] = 1.0
        sol[1] = x
        for i in range(p):
            for j in range(i):
                sol[:, i] -= next(off) * sol[:, j]
            sol[:, i] /= diag[i]
        a = np.sum(np.abs(sol[0]) ** 2, axis=0)
        b2 = np.abs(np.sum(sol[0].conj() * sol[1], axis=0)) ** 2
        c = np.sum(np.abs(sol[1]) ** 2, axis=0)
        return a, b2, c

    def benchmark_aux():
        # v^H M^-1 z = x1 and v^H M^-1 v = 1 for v = e1, so alpha = sqrt(s)
        if root_s is None:
            raise ValueError("benchmark statistics require an amplitude")
        return x[0], 1.0, root_s

    def logdet_s():
        return (
            np.log(gammas[:p]).sum(axis=0)
            + draws[-1]
            + build_covariance(cfg).log_det()
        )

    return _evaluate(
        tuple(labels), n, k, scalars, benchmark_aux, logdet_s, record_trace,
        trace_l_max,
    )


def _compute_chunk(args) -> SimulatedStatistics:
    invariant, *rest = args
    return (_invariant_chunk if invariant else _data_chunk)(*rest)


def simulate_statistics(
    cfg: ScenarioConfig,
    labels: tuple[str, ...],
    n_trials: int,
    *,
    stream_seed: int | None = None,
    inject: bool = False,
    record_em_trace: bool = False,
    trace_l_max: int | None = None,
    workers: int = 1,
    chunk_size: int = _DEFAULT_CHUNK,
    invariant: bool = False,
) -> SimulatedStatistics:
    """Simulate n_trials independent trials and evaluate the detectors.

    Under inject=True the cell under test receives a target along the
    scenario's true steering (mismatched when cos_sq_phi < 1) at scnr_db.
    stream_seed defaults to the scenario's master_seed; harness phases pass
    derived seeds so different experiment stages never share substreams.
    invariant=True draws each trial's maximal invariant instead of its
    data; the statistics have the same distribution but come from another
    random stream. With workers > 1 and more than one chunk, the chunks run
    in a process pool; results are bit-identical for fixed seeds regardless
    of workers or chunk_size. A worker process that dies raises
    BrokenProcessPool naming the stream seed and the first trial range it
    did not return.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if inject and cfg.scnr_db is None:
        raise ValueError("injection requires scnr_db")
    seed = cfg.master_seed if stream_seed is None else stream_seed
    chunks = [
        (start, min(start + chunk_size, n_trials))
        for start in range(0, n_trials, chunk_size)
    ]
    args = [
        (invariant, cfg, labels, seed, start, stop, inject, record_em_trace,
         trace_l_max)
        for start, stop in chunks
    ]
    if workers > 1 and len(args) > 1:
        parts = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                for part in pool.map(_compute_chunk, args):
                    parts.append(part)
            except BrokenProcessPool as err:
                start, stop = chunks[len(parts)]
                raise BrokenProcessPool(
                    f"a worker process died before returning trials "
                    f"[{start}, {stop}) of stream seed {seed}"
                ) from err
    else:
        parts = [_compute_chunk(a) for a in args]

    traced = parts[0].em_delta_l is not None
    return SimulatedStatistics(
        statistics={
            lab: np.concatenate([p.statistics[lab] for p in parts])
            for lab in parts[0].statistics
        },
        em_delta_l=(
            np.concatenate([p.em_delta_l for p in parts]) if traced else None
        ),
    )
