"""Trial-vectorized evaluation of detector statistics for Monte Carlo runs.

The per-trial functions in detectors.py and em.py are the reference
implementations; this module evaluates the same statistics on whole blocks
of trials at once. The classical statistics and the whole EM recursion are
closed forms in the maximal invariant a = v^H S^-1 v, |b|^2 = |v^H S^-1 z|^2
and c = z^H S^-1 z (the EM trace also needs log det S), and one helper,
_evaluate, computes every statistic from it. Two generators feed it:

- the data path draws the (n, k+1) data matrices of each block of trials,
  colours them in place by two real products with chol(M), which is real,
  and solves S against [v, z] (_stack_invariants).
  statistics_from_stacks is its entry for data from outside (cube
  windows); it is cross-checked to 1e-9 against the per-trial reference.
- the invariant path (simulate_statistics(..., invariant=True)) draws a,
  |b|^2, c, log det S and the benchmark's projection exactly from O(n)
  scalars per trial, with no data matrix and no solve. The test suite
  checks its distributions against the data path.

On both paths each block of _BLOCK trials draws from a generator keyed by
(stream_seed, block_index), with a tag per path; a chunk builds one Philox
and re-keys it for each block (scenario.block_rngs). Each trial's draws
depend only on its index, never on where a chunk starts. The data path
draws, colours and solves one block at a time into buffers allocated once
per chunk, and keeps only the block's (a, |b|^2, c), benchmark projection
and log det S, whichever the labels need, so a chunk holds one block's
matrices, never the chunk's. The invariant path, at O(n) scalars per
trial, fills the whole blocks covering a chunk into one buffer
(_covering_blocks). Either way _evaluate then runs once over the chunk,
elementwise per trial. So results are bit-identical for a given stream
seed no matter the chunk size or worker count, and the chunk size is only
the task size of a thread pool. Threads overlap only inside numpy calls
that release the GIL, which on the data path are most of a trial: the
Philox fill, the colouring products and the batched solve. An invariant
trial costs about 1 us in short numpy calls that contend for the GIL, so
the harness runs that path on one thread. _simulate_chunks yields the
chunks as they are computed, which is how the harness reduces every
phase in flat memory; simulate_statistics concatenates them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
# unused here; the benchmark's pool counter patches this name
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .detectors import DetectorId, detector_label, parse_detector_label
from .em import POSTERIOR_FLOOR
from .linalg import HermitianMatrix
from .scenario import (
    ScenarioConfig,
    block_rngs,
    build_covariance,
    injection_amplitude,
    mismatched_steering,
    steering_vector,
)

__all__ = ["SimulatedStatistics", "simulate_statistics", "statistics_from_stacks"]

_DEFAULT_CHUNK = 4096
# trials per block key, on either path
_BLOCK = 256
_CLASSICAL = {d.value for d in (DetectorId.GLRT, DetectorId.AMF, DetectorId.RAO,
                                DetectorId.ACE)}


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


def _needs(labels: tuple[str, ...], record_em_trace: bool) -> tuple[bool, bool]:
    """Whether labels need (a, |b|^2, c), and whether they need the benchmark.

    Every classical statistic and the EM recursion read the invariant; the
    trace (record_em_trace) runs the recursion and also needs log det S.
    """
    parsed = [parse_detector_label(lab)[0] for lab in labels]
    need_scalars = record_em_trace or any(
        det.value in _CLASSICAL or det is DetectorId.EM_BML_D for det in parsed
    )
    return need_scalars, DetectorId.BENCHMARK in parsed


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
    """Detector statistics of a trial range, whichever generator drew it.

    scalars is (a, |b|^2, c), benchmark_aux the (u, c, alpha) arguments of
    benchmark_statistic_from_aux and logdet_s log det S; each is None
    unless _needs asks for it (logdet_s only with the trace). Every
    operation is elementwise over trials, so a trial's statistics do not
    depend on how many trials are evaluated with it. EM variant labels
    like em-bml-d5 share a single EM recursion run to the largest cap.
    """
    parsed = [parse_detector_label(lab) for lab in labels]
    em_ls = sorted({lmax for det, lmax in parsed if det is DetectorId.EM_BML_D})

    stats: dict[str, np.ndarray] = {}
    if any(det.value in _CLASSICAL for det, _ in parsed):
        classical = _classical_batched(*scalars)
        for det, _ in parsed:
            if det.value in classical:
                stats[det.value] = classical[det.value]

    if benchmark_aux is not None:
        stats[DetectorId.BENCHMARK.value] = benchmark_statistic_from_aux(
            *benchmark_aux
        )

    em_delta = None
    if em_ls or record_em_trace:
        l_top = max(em_ls, default=0)
        if record_em_trace:
            l_top = max(l_top, trace_l_max or 0)
        snaps, em_delta = _em_batched(
            *scalars, logdet_s, l_top, tuple(em_ls), k, n,
        )
        for l in em_ls:
            stats[detector_label(DetectorId.EM_BML_D, l)] = snaps[l]

    return SimulatedStatistics(statistics=stats, em_delta_l=em_delta)


def _scatter(zs: np.ndarray) -> np.ndarray:
    """S = Zs Zs^H of each trial of a (B, n, k) secondary stack."""
    return zs @ zs.conj().swapaxes(1, 2)


def _stack_invariants(z, zs, v, need_scalars: bool, minv_v, need_logdet: bool):
    """What the statistics read of a trial stack: (a, |b|^2, c), the
    benchmark's projection v^H M^-1 z and log det S.

    Each is None unless needed; the projection is needed when M^-1 v
    (minv_v) is given. S is formed only when the invariant or log det S is
    needed, and then once; one solve of S against [v, z] gives a, b and c.
    """
    u = None if minv_v is None else np.einsum("i,bi->b", minv_v.conj(), z)
    if not (need_scalars or need_logdet):
        return None, u, None
    s = _scatter(zs)
    scalars = None
    if need_scalars:
        x = np.linalg.solve(s, np.stack(np.broadcast_arrays(v, z), axis=2))
        scalars = (
            np.einsum("i,bi->b", v.conj(), x[:, :, 0]).real,
            np.abs(np.einsum("i,bi->b", v.conj(), x[:, :, 1])) ** 2,
            np.einsum("bi,bi->b", z.conj(), x[:, :, 1]).real,
        )
    return scalars, u, np.linalg.slogdet(s)[1] if need_logdet else None


def _benchmark_projection(v, true_m, alpha_hyp):
    """M^-1 v and the constant arguments (v^H M^-1 v, alpha) of the benchmark."""
    if true_m is None:
        raise ValueError("benchmark statistics require the true covariance")
    if alpha_hyp is None:
        raise ValueError("benchmark statistics require an amplitude")
    minv_v = true_m.solve(v)
    return minv_v, float(np.vdot(v, minv_v).real), alpha_hyp


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
    labels = tuple(labels)
    need_scalars, need_benchmark = _needs(labels, record_em_trace)
    minv_v, c, alpha = (_benchmark_projection(v, true_m, alpha_hyp)
                        if need_benchmark else (None, None, None))
    scalars, u, logdet_s = _stack_invariants(z, zs, v, need_scalars, minv_v,
                                             record_em_trace)
    return _evaluate(labels, z.shape[1], k, scalars,
                     None if u is None else (u, c, alpha), logdet_s,
                     record_em_trace, trace_l_max)


def benchmark_statistic_from_aux(
    u: np.ndarray, c: float, alpha: complex
) -> np.ndarray:
    """g = 2 Re(conj(alpha) u) - |alpha|^2 c, u = v^H M^-1 z, c = v^H M^-1 v."""
    return 2.0 * (np.conj(alpha) * u).real - abs(alpha) ** 2 * c


def _covering_blocks(fill, start: int, stop: int, rows: int) -> np.ndarray:
    """Columns of trials [start, stop) in a buffer of their whole blocks.

    The (rows, blocks * _BLOCK) buffer holds every block covering the
    range; fill(b, slab) writes block b into its (rows, _BLOCK) column
    slab. Each trial's draws depend only on its index, never on where a
    chunk starts.
    """
    first = start // _BLOCK
    blocks = range(first, (stop - 1) // _BLOCK + 1)
    buf = np.empty((rows, len(blocks) * _BLOCK))
    for i, b in enumerate(blocks):
        fill(b, buf[:, i * _BLOCK : (i + 1) * _BLOCK])
    offset = first * _BLOCK
    return buf[:, start - offset : stop - offset]


def _coloured_blocks(
    cfg: ScenarioConfig,
    chol: np.ndarray,
    stream_seed: int,
    start: int,
    stop: int,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, Z) per block part [lo, hi) of trials [start, stop), in order.

    Z is the (n, hi - lo, k+1) matrices of the block's part, coloured by
    chol. Each block of _BLOCK trials draws its normals x, y in one call
    from block_rng(stream_seed, block_index, data=True), re-keyed on one
    Philox, scales them by 1/sqrt(2) in place and colours them by two real
    products with chol, written straight into the block's real and
    imaginary parts. build_covariance is real, so its factor's imaginary
    part is exactly zero and the complex product chol @ (x + j y) / sqrt(2)
    splits into those two products bit for bit; a complex factor is refused
    rather than truncated. Every block reuses the normals and the block
    buffer, so Z is valid only until the next block is drawn. A trial is
    regenerated through its block.
    """
    if np.any(chol.imag):
        raise ValueError("the colouring factor must be real")
    n, cols = cfg.n, cfg.k + 1
    real = np.ascontiguousarray(chol.real)
    w = np.empty((2, n, _BLOCK * cols))
    block = np.empty((n, _BLOCK * cols), dtype=np.complex128)
    rngs = block_rngs(stream_seed, data=True)
    for b in range(start // _BLOCK, (stop - 1) // _BLOCK + 1):
        rngs(b).standard_normal(out=w)
        # the reciprocal gives the bits of numpy's complex division by sqrt(2)
        np.multiply(w, 1.0 / np.sqrt(2.0), out=w)
        np.matmul(real, w[0], out=block.real)
        np.matmul(real, w[1], out=block.imag)
        first = b * _BLOCK
        lo, hi = max(start, first), min(stop, first + _BLOCK)
        yield lo, hi, block.reshape(n, _BLOCK, cols)[:, lo - first : hi - first]


def _data_chunk(cfg, labels, stream_seed, start, stop, inject, record_trace,
                trace_l_max) -> SimulatedStatistics:
    """Statistics of trials [start, stop) drawn as data.

    Each block's part of the range is drawn, coloured and solved on its
    own, and keeps only (a, |b|^2, c), the benchmark's projection and
    log det S, whichever the labels need; the statistics are then evaluated
    once over the chunk. Labels that need none of the three form no S.
    """
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
    if inject:
        target = injection_amplitude(v_true, m, cfg.scnr_db) * v_true

    labels = tuple(labels)
    need_scalars, need_benchmark = _needs(labels, record_trace)
    minv_v, c, alpha = (_benchmark_projection(v, m, alpha_hyp)
                        if need_benchmark else (None, None, None))
    trials = stop - start
    # one (trials,) row per scalar, filled block by block
    kept = (
        np.empty((3, trials)) if need_scalars else None,
        np.empty(trials, dtype=np.complex128) if need_benchmark else None,
        np.empty(trials) if record_trace else None,
    )
    for lo, hi, stack in _coloured_blocks(cfg, m.chol, stream_seed, start, stop):
        z = stack[:, :, 0].T
        if inject:
            z = z + target
        block = _stack_invariants(z, stack[:, :, 1:].transpose(1, 0, 2), v,
                                  need_scalars, minv_v, record_trace)
        for out, part in zip(kept, block):
            if out is not None:
                out[..., lo - start : hi - start] = part

    scalars, u, logdet_s = kept
    return _evaluate(labels, cfg.n, cfg.k, scalars,
                     None if u is None else (u, c, alpha), logdet_s,
                     record_trace, trace_l_max)


def _invariant_block(n: int, k: int, rngs, record_trace: bool,
                     block: int, out: np.ndarray) -> None:
    """Raw draws of one block of _BLOCK trials into out, one column per trial.

    Rows: the real then the imaginary parts of z1, z2 and the strictly
    lower entries of T (row by row), the Gamma(k-n+p-i) squares of T's
    diagonal, Gamma(n-2) for r^2 when n > 2, and with the trace the sum of
    log Gamma(k-i), i < n-p. The trace row is drawn last, so the other rows
    do not depend on it. rngs(block) is the block's generator.
    """
    p = min(n, 3)
    rng = rngs(block)
    normals = 2 * (2 + p * (p - 1) // 2)
    out[:normals] = rng.standard_normal((normals, _BLOCK))
    shapes = [k - n + p - i for i in range(p)] + [n - 2] * (n > 2)
    out[normals : normals + len(shapes)] = rng.standard_gamma(
        shapes, (_BLOCK, len(shapes))).T
    if record_trace:
        rest = rng.standard_gamma(k - np.arange(n - p), (_BLOCK, n - p))
        out[-1] = np.log(rest).sum(axis=1)


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
    m_normal = 2 + p * (p - 1) // 2
    draws = _covering_blocks(
        partial(_invariant_block, n, k, block_rngs(stream_seed), record_trace),
        start, stop, 2 * m_normal + p + (n > 2) + record_trace,
    )
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

    labels = tuple(labels)
    need_scalars, need_benchmark = _needs(labels, record_trace)
    scalars = benchmark_aux = logdet_s = None
    if need_scalars:
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
        scalars = (
            np.sum(np.abs(sol[0]) ** 2, axis=0),
            np.abs(np.sum(sol[0].conj() * sol[1], axis=0)) ** 2,
            np.sum(np.abs(sol[1]) ** 2, axis=0),
        )
    if need_benchmark:
        # v^H M^-1 z = x1 and v^H M^-1 v = 1 for v = e1, so alpha = sqrt(s)
        if root_s is None:
            raise ValueError("benchmark statistics require an amplitude")
        benchmark_aux = (x[0], 1.0, root_s)
    if record_trace:
        logdet_s = (
            np.log(gammas[:p]).sum(axis=0)
            + draws[-1]
            + build_covariance(cfg).log_det()
        )

    return _evaluate(labels, n, k, scalars, benchmark_aux, logdet_s,
                     record_trace, trace_l_max)


def _compute_chunk(args) -> SimulatedStatistics:
    invariant, *rest = args
    return (_invariant_chunk if invariant else _data_chunk)(*rest)


def _concatenate(parts) -> SimulatedStatistics:
    """One result of consecutive trial ranges, in order."""
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


def _simulate_chunks(
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
) -> Iterator[SimulatedStatistics]:
    """simulate_statistics' chunks in trial order, each as it is computed."""
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if inject and cfg.scnr_db is None:
        raise ValueError("injection requires scnr_db")
    seed = cfg.master_seed if stream_seed is None else stream_seed
    starts = range(0, n_trials, chunk_size)
    args = (
        (invariant, cfg, labels, seed, start, min(start + chunk_size, n_trials),
         inject, record_em_trace, trace_l_max)
        for start in starts
    )
    if workers > 1 and len(starts) > 1:
        # map submits every chunk at once, which starts all the pool's
        # threads, so it gets no more than there are chunks to run
        with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            yield from pool.map(_compute_chunk, args)
    else:
        yield from map(_compute_chunk, args)


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
    random stream. With workers > 1 and more than one chunk of chunk_size
    trials, the chunks run on up to that many threads (numpy releases
    the GIL in the draws, the colouring products and the solve); results
    are bit-identical for fixed seeds regardless of workers or chunk_size.
    A chunk's exception reaches the caller unchanged.
    """
    return _concatenate(list(_simulate_chunks(
        cfg, labels, n_trials, stream_seed=stream_seed, inject=inject,
        record_em_trace=record_em_trace, trace_l_max=trace_l_max,
        workers=workers, chunk_size=chunk_size, invariant=invariant,
    )))
