"""Trial-vectorized evaluation of detector statistics for Monte Carlo runs.

The per-trial functions in detectors.py and em.py are the reference
implementations; this module evaluates the same statistics on whole blocks
of trials at once. The classical statistics and the whole EM recursion are
closed forms in the maximal invariant a = v^H S^-1 v, |b|^2 = |v^H S^-1 z|^2
and c = z^H S^-1 z (the EM trace also needs log det S), and one helper,
_evaluate, computes the requested statistics from it. Each is read off
the whitened pair L^-1 [v, z], L a lower factor of S, and one forward
substitution, _whitened, forms that pair on both of the generators that
feed _evaluate:

- the data path draws the (n, k+1) data matrices of each block of trials,
  colours them in place by two real products with chol(M), which is real,
  and factors each trial's S once by Cholesky, which also gives log det S
  (_stack_invariants). statistics_from_stacks is its entry for data from
  outside (cube windows); it is cross-checked to 1e-9 against the
  per-trial reference.
- the invariant path draws a, |b|^2, c, log det S and the benchmark's
  projection exactly from O(n) scalars per trial, with no data matrix:
  L is Bartlett's p x p factor T, p = min(n, 3). The test suite checks its
  distributions against the data path. A target is only an offset of the
  CUT there, so the draws are target-free (_invariant_draws), and one
  chunk's draws and its target-free CUT, whitened once
  (_invariant_whitening), serve every row of a grid. Forward substitution
  is linear, so a row's target moves only b and Kelly's residual
  r = c - |b|^2 / a, by a few operations per trial (_invariant_row).

A run's labels are parsed once, by _simulate_chunks or
statistics_from_stacks, into its plan (_Plan): the classical detectors,
the EM caps, whether the benchmark is read and the EM trace's depth. A
chunk of _CHUNK trials is the unit of work: _compute_chunk has one path
draw what the plan reads, and _evaluate runs once over it, or once per
row of a grid. A chunk is a plain dict of per-trial arrays: one (trials,)
array per detector label, and the (trials, l_max) EM trace under TRACE
when it is recorded. A grid's chunk is one such dict per row, keyed
(row, label), each evaluated when it is read, and _simulate_chunks
yields those row dicts in turn. _compute_chunk and statistics_from_stacks
draw and evaluate with numpy's divide, invalid and overflow warnings
silenced on the thread that runs them, so an undefined or overflowing
statistic (0/0, say, or a square at an extreme SCNR) is a quiet NaN or
inf, which the harness's finite check names by its trial.

On both paths each block of _BLOCK trials draws from a generator keyed by
(stream_seed, block_index), with a tag per path; a chunk builds one Philox
and re-keys it for each block covering it (_blocks, scenario.block_rngs),
so each trial's draws depend only on its index, never on where a chunk
starts. The data path draws, colours and whitens one block at a time and
keeps only the chunk's part of what the plan reads, so a chunk holds one
block's matrices, never the chunk's. The invariant path, at O(n) scalars
per trial, fills the whole covering blocks into one buffer. Results are
bit-identical for a given stream seed whatever the chunk size or worker
count, which only set the tasks of a thread pool, one thread per usable
CPU at most. Threads overlap only inside numpy calls that release the GIL,
most of a data trial (the Philox fill, the colouring products, the batched
Cholesky factorization); an invariant trial costs about 1 us in short
calls that contend for the GIL, so the harness runs that path on one
thread. The chunk iterator, _simulate_chunks, is the package's one entry,
and every caller names its stream seed: it yields each chunk as it is
computed, so the harness reduces every phase in flat memory.
simulate_statistics joins one null data run at the scenario's master seed,
for the benchmark.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
# unused here; the benchmark's pool counter patches this name
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from .detectors import DetectorId, detector_label, parse_detector_label
from .em import POSTERIOR_FLOOR
from .linalg import HermitianMatrix
from .scenario import (
    _DATA_BLOCK_KEY_BIT,
    ScenarioConfig,
    block_rngs,
    build_covariance,
    injection_amplitude,
    mismatched_steering,
    steering_vector,
)

__all__ = ["TRACE", "simulate_statistics", "statistics_from_stacks"]

# trials per chunk, the task size of a thread pool
_CHUNK = 4096
# trials per block key, on either path
_BLOCK = 256
# block_key keeps the streams of block indices below 2^62 apart, so of
# this many trials
_MAX_TRIALS = _BLOCK * _DATA_BLOCK_KEY_BIT
# a chunk's key for the (trials, l_max) EM trace; no detector label
# parses to it
TRACE = "em-delta"

# each function that draws and evaluates trials enters this on its own
# thread, since numpy's error state is per thread
_quiet = np.errstate(divide="ignore", invalid="ignore", over="ignore")

# the classical statistics from a = v^H S^-1 v, b2 = |v^H S^-1 z|^2 and
# c = z^H S^-1 z. Rao uses the Sherman-Morrison identity on S + z z^H:
# v^H T^-1 z = b / (1 + c) and v^H T^-1 v = a - |b|^2 / (1 + c).
_CLASSICAL = {
    DetectorId.GLRT: lambda a, b2, c: b2 / (a * (1.0 + c)),
    DetectorId.AMF: lambda a, b2, c: b2 / a,
    DetectorId.RAO: lambda a, b2, c: (b2 / (1.0 + c)**2) / (a - b2 / (1.0 + c)),
    DetectorId.ACE: lambda a, b2, c: b2 / (a * c),
}


def _sigmoid_clamped(r: np.ndarray) -> np.ndarray:
    """Elementwise logistic of a log ratio, clamped inside (0, 1)."""
    # e <= 1, so neither branch overflows; -|r| is exactly -r or r
    e = np.exp(-np.abs(r))
    return np.clip(np.where(r >= 0, 1.0 / (1.0 + e), e / (1.0 + e)),
                   POSTERIOR_FLOOR, 1.0 - POSTERIOR_FLOOR)


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


class _Plan(NamedTuple):
    """What a run reads of its trials, fixed by its labels before any draw:
    the classical detectors, the EM caps (ascending), whether the
    benchmark is among the labels, and the EM trace's depth (None: no
    trace).
    """

    classical: tuple[DetectorId, ...]
    em_ls: tuple[int, ...]
    benchmark: bool
    trace: int | None

    @property
    def scalars(self) -> bool:
        """Whether (a, |b|^2, c) is read: by every classical statistic and
        the EM recursion, whose trace also reads log det S."""
        return bool(self.classical or self.em_ls) or self.trace is not None


def _plan(labels: tuple[str, ...], trace: int | None) -> _Plan:
    """labels parsed once, into what a run evaluates."""
    parsed = [parse_detector_label(lab) for lab in labels]
    return _Plan(
        tuple(det for det, _ in parsed if det in _CLASSICAL),
        tuple(sorted({lmax for det, lmax in parsed
                      if det is DetectorId.EM_BML_D})),
        any(det is DetectorId.BENCHMARK for det, _ in parsed),
        trace,
    )


def _evaluate(
    plan: _Plan,
    n: int,
    k: int,
    scalars,
    benchmark_aux,
    logdet_s,
) -> dict[str, np.ndarray]:
    """plan's statistics of a trial range, whichever generator drew it.

    scalars is (a, |b|^2, c), benchmark_aux the (u, c, alpha) arguments of
    benchmark_statistic_from_aux and logdet_s log det S; each is None
    unless the plan reads it, and the EM trace is recorded, under TRACE,
    exactly when the plan has a trace depth. Its callers run it under
    _quiet. Every operation is elementwise over trials, so a trial's
    statistics do not depend on how many trials are evaluated with it. EM
    variant labels like em-bml-d5 share a single EM recursion run to the
    largest cap.
    """
    stats = {det.value: _CLASSICAL[det](*scalars) for det in plan.classical}
    if plan.benchmark:
        stats[DetectorId.BENCHMARK.value] = benchmark_statistic_from_aux(
            *benchmark_aux
        )

    if plan.em_ls or plan.trace is not None:
        l_top = max((*plan.em_ls, plan.trace or 0))
        snaps, em_delta = _em_batched(
            *scalars, logdet_s, l_top, plan.em_ls, k, n,
        )
        for l in plan.em_ls:
            stats[detector_label(DetectorId.EM_BML_D, l)] = snaps[l]
        if plan.trace is not None:
            stats[TRACE] = em_delta

    return stats


def _scatter(zs: np.ndarray) -> np.ndarray:
    """S = Zs Zs^H of each trial of a (B, n, k) secondary stack."""
    return zs @ zs.conj().swapaxes(1, 2)


def _whitened(sol, lower, diag):
    """(a, b, c) of an (m, n, trials) stack [v, z, ...], whitened in place.

    The lower factor L of S is given as its strictly lower entries
    lower[i][j] and real diagonal diag[i], one value per trial each.
    Forward substitution leaves L^-1 of every column in sol, [y, u, ...]
    = L^-1 [v, z, ...], and a = |y|^2, b = y^H u and c = |u|^2. Each sum
    adds the n rows in order, so a trial's values do not depend on how
    many trials or columns are whitened with it. Each row is divided by
    the real diagonal as two real products by its reciprocal.
    """
    for i in range(len(diag)):
        for j in range(i):
            sol[:, i] -= lower[i][j] * sol[:, j]
        r = 1.0 / diag[i]
        sol[:, i].real *= r
        sol[:, i].imag *= r
    y, u = sol[:2]
    return sum(np.abs(y) ** 2), sum(y.conj() * u), sum(np.abs(u) ** 2)


def _stack_invariants(z, zs, v, plan: _Plan, minv_v):
    """What plan reads of a trial stack: (a, |b|^2, c), the benchmark's
    projection v^H M^-1 z and log det S.

    Each is None unless read; the projection is read when M^-1 v (minv_v)
    is given. S is formed and factored only when the invariant is read,
    and then once, S = L L^H by Cholesky: _whitened forward-substitutes
    [v, z] against L, and log det S = 2 sum log L_ii.
    """
    u = None if minv_v is None else np.einsum("i,bi->b", minv_v.conj(), z)
    if not plan.scalars:
        return None, u, None
    lower = np.linalg.cholesky(_scatter(zs)).transpose(1, 2, 0)
    diag = lower.diagonal().real.T
    sol = np.empty((2, *z.T.shape), dtype=np.complex128)
    sol[0], sol[1] = v[:, None], z.T
    a, b, c = _whitened(sol, lower, diag)
    logdet_s = None if plan.trace is None else 2.0 * sum(np.log(diag))
    return (a, np.abs(b) ** 2, c), u, logdet_s


def _benchmark_projection(v, true_m, alpha_hyp):
    """M^-1 v and the constant arguments (v^H M^-1 v, alpha) of the benchmark."""
    if true_m is None:
        raise ValueError("benchmark statistics require the true covariance")
    if alpha_hyp is None:
        raise ValueError("benchmark statistics require an amplitude")
    minv_v = true_m.solve(v)
    return minv_v, float(np.vdot(v, minv_v).real), alpha_hyp


@_quiet
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
) -> dict[str, np.ndarray]:
    """Evaluate detector statistics on stacked trials, one (B,) array per label.

    z is (B, n), zs is (B, n, k). The benchmark needs the true covariance
    and the hypothesized amplitude. The (B, trace_l_max) EM trace is under
    TRACE when requested (record_em_trace). Labels may name any subset of
    detectors.
    """
    v = np.asarray(v, dtype=np.complex128)
    k = zs.shape[2]
    if k < z.shape[1]:
        raise ValueError("stacked trials need k >= n secondary vectors")
    plan = _plan(labels, (trace_l_max or 0) if record_em_trace else None)
    minv_v, c, alpha = (_benchmark_projection(v, true_m, alpha_hyp)
                        if plan.benchmark else (None, None, None))
    scalars, u, logdet_s = _stack_invariants(z, zs, v, plan, minv_v)
    return _evaluate(plan, z.shape[1], k, scalars,
                     None if u is None else (u, c, alpha), logdet_s)


def benchmark_statistic_from_aux(
    u: np.ndarray, c: float, alpha: complex
) -> np.ndarray:
    """g = 2 Re(conj(alpha) u) - |alpha|^2 c, u = v^H M^-1 z, c = v^H M^-1 v."""
    return 2.0 * (np.conj(alpha) * u).real - abs(alpha) ** 2 * c


def _blocks(start: int, stop: int) -> range:
    """Indices of the blocks of _BLOCK trials covering trials [start, stop)."""
    return range(start // _BLOCK, (stop - 1) // _BLOCK + 1)


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
    for b in _blocks(start, stop):
        rngs(b).standard_normal(out=w)
        # the reciprocal gives the bits of numpy's complex division by sqrt(2)
        np.multiply(w, 1.0 / np.sqrt(2.0), out=w)
        np.matmul(real, w[0], out=block.real)
        np.matmul(real, w[1], out=block.imag)
        first = b * _BLOCK
        lo, hi = max(start, first), min(stop, first + _BLOCK)
        yield lo, hi, block.reshape(n, _BLOCK, cols)[:, lo - first : hi - first]


def _data_chunk(cfg, stream_seed, start, stop, inject, plan: _Plan):
    """(a, |b|^2, c), the benchmark's arguments and log det S of trials
    [start, stop) drawn as data, each None unless plan reads it.

    Each block's part of the range is drawn, coloured and whitened on its
    own, and keeps only those. A plan that reads no (a, |b|^2, c) forms no
    S.
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

    minv_v, c, alpha = (_benchmark_projection(v, m, alpha_hyp)
                        if plan.benchmark else (None, None, None))
    trials = stop - start
    # one (trials,) row per scalar, filled block by block
    kept = (
        np.empty((3, trials)) if plan.scalars else None,
        np.empty(trials, dtype=np.complex128) if plan.benchmark else None,
        np.empty(trials) if plan.trace is not None else None,
    )
    for lo, hi, stack in _coloured_blocks(cfg, m.chol, stream_seed, start, stop):
        z = stack[:, :, 0].T
        if inject:
            z = z + target
        block = _stack_invariants(z, stack[:, :, 1:].transpose(1, 0, 2), v,
                                  plan, minv_v)
        for out, part in zip(kept, block):
            if out is not None:
                out[..., lo - start : hi - start] = part

    scalars, u, logdet_s = kept
    return scalars, None if u is None else (u, c, alpha), logdet_s


def _invariant_block(n: int, k: int, rng, record_trace: bool,
                     out: np.ndarray) -> None:
    """Raw draws of one block of _BLOCK trials into out, one column per trial.

    Rows: the real then the imaginary parts of z1, z2 and the strictly
    lower entries of T (row by row), the Gamma(k-n+p-i) squares of T's
    diagonal, Gamma(n-2) for z3^2 when n > 2, and with the trace the sum of
    log Gamma(k-i), i < n-p. The trace row is drawn last, so the other rows
    do not depend on it. rng is the block's generator.
    """
    p = min(n, 3)
    normals = 2 * (2 + p * (p - 1) // 2)
    out[:normals] = rng.standard_normal((normals, _BLOCK))
    shapes = [k - n + p - i for i in range(p)] + [n - 2] * (n > 2)
    out[normals : normals + len(shapes)] = rng.standard_gamma(
        shapes, (_BLOCK, len(shapes))).T
    if record_trace:
        rest = rng.standard_gamma(k - np.arange(n - p), (_BLOCK, n - p))
        out[-1] = np.log(rest).sum(axis=1)


def _invariant_draws(n: int, k: int, stream_seed: int, start: int, stop: int,
                     need_logdet: bool):
    """The target-free draws (w, gammas) of trials [start, stop) on the
    invariant path, one column per trial.

    w holds the complex normals z1, z2 and the strictly lower entries of
    Bartlett's T (row by row); gammas the squares of T's diagonal, z3^2 when
    n > 2 and, given need_logdet, the trace row last. The whole blocks
    covering the range are drawn into one buffer.
    """
    p = min(n, 3)
    m_normal = 2 + p * (p - 1) // 2
    blocks = _blocks(start, stop)
    buf = np.empty((2 * m_normal + p + (n > 2) + need_logdet,
                    len(blocks) * _BLOCK))
    rngs = block_rngs(stream_seed)
    for i, b in enumerate(blocks):
        _invariant_block(n, k, rngs(b), need_logdet,
                         buf[:, i * _BLOCK : (i + 1) * _BLOCK])
    first = start - blocks[0] * _BLOCK
    draws = buf[:, first : first + stop - start]
    # two real products give the bits of (x + 1j y) / sqrt(2), up to the
    # sign of a part that is exactly zero
    w = np.empty((m_normal, stop - start), dtype=np.complex128)
    np.multiply(draws[:m_normal], 1.0 / np.sqrt(2.0), out=w.real)
    np.multiply(draws[m_normal : 2 * m_normal], 1.0 / np.sqrt(2.0),
                out=w.imag)
    return w, draws[2 * m_normal :]


def _invariant_whitening(n, draws, mismatched):
    """What every row of a chunk reads of the invariant draws (w, gammas):
    the target-free CUT x0 = (z1, z2, z3, 0, ...), whitened once.

    [e1, x0], and e2 when mismatched, are forward-substituted against
    Bartlett's T, whose strictly lower entries are w[2:], row by row, into
    y = T^-1 e1, u0 = T^-1 x0 and y2 = T^-1 e2. The result is
    (a, b0, c0, r0, (f, h, g)): a = |y|^2, b0 = y^H u0, c0 = |u0|^2 and
    Kelly's residual r0 = c0 - |b0|^2 / a of the target-free CUT; and,
    only when mismatched, f = y^H y2, h = Re(y2'^H u0) and g = |y2'|^2,
    where y2' = y2 - (f / a) y is the part of y2 orthogonal to y.
    """
    p = min(n, 3)
    w, gammas = draws
    sol = np.zeros((2 + mismatched, p, w.shape[1]), dtype=np.complex128)
    sol[0, 0] = 1.0
    sol[1, :2] = w[:2]
    if n > 2:
        sol[1, 2] = np.sqrt(gammas[p])
    if mismatched:
        sol[2, 1] = 1.0
    off = iter(w[2:])
    a, b0, c0 = _whitened(sol, [[next(off) for _ in range(i)]
                                for i in range(p)], np.sqrt(gammas[:p]))
    mismatch = None
    if mismatched:
        y, u0, y2 = sol
        f = sum(y.conj() * y2)
        y2 -= (f / a) * y
        mismatch = (f, sum(y2.conj() * u0).real, sum(np.abs(y2) ** 2))
    return a, b0, c0, c0 - np.abs(b0) ** 2 / a, mismatch


@_quiet
def _invariant_row(cfg, plan: _Plan, shared, inject):
    """plan's statistics of one chunk's invariant draws with cfg's target.

    shared is what every row of the chunk reads: the draws (w, gammas) and
    their whitened target-free CUT (from _invariant_whitening; None unless
    the plan reads the invariant).

    After whitening, a rotation puts v along e1 and the true steering in
    span(e1, e2), and one inside span(e3, ..., en) puts the rest of the CUT
    noise on e3, so the CUT is (z1 + sqrt(s) cos phi, z2 + sqrt(s) sin phi,
    z3, 0, ...) with z3^2 ~ Gamma(n-2). S is unitarily invariant, so a, b and
    c need only the leading p x p block of S^-1, p = min(n, 3): the inverse
    of W ~ CW(k-n+p, p, I), drawn as T T^H by Bartlett's decomposition, and
    W's complement gives the rest of log det S. v is taken as e1 itself:
    every statistic is invariant to the scale of v.

    The target is only the offset o0 e1 + o1 e2 of the target-free CUT x0,
    o0 = sqrt(s) cos phi and o1 = sqrt(s) sin phi, so the draws serve every
    scenario of one n and k, and the rows of a chunk share x0 whitened
    once. Forward substitution is linear, so a row moves only b and
    Kelly's residual r = c - |b|^2 / a, which does not see the offset
    along v: b = b0 + o0 a + o1 f and r = r0 + 2 o1 h + o1^2 g (r = r0 for a
    matched row), and the row's c is |b|^2 / a + r. Without injection, or
    without an SCNR, the row is target-free: it reads (a, |b0|^2, c0) as
    whitened.
    """
    n, p = cfg.n, min(cfg.n, 3)
    w, gammas, whitened = shared
    root_s = None if cfg.scnr_db is None else 10.0 ** (cfg.scnr_db / 20.0)
    inject = inject and root_s is not None
    if inject:
        o0 = root_s * math.sqrt(cfg.cos_sq_phi)
        o1 = root_s * math.sqrt(1.0 - cfg.cos_sq_phi)

    scalars = benchmark_aux = logdet_s = None
    if plan.scalars:
        a, b0, c0, r0, mismatch = whitened
        if inject:
            b, r = b0 + o0 * a, r0
            if o1:
                f, h, g = mismatch
                b += o1 * f
                r = r0 + o1 * (2.0 * h + o1 * g)
            b2 = np.abs(b) ** 2
            scalars = a, b2, b2 / a + r
        else:
            scalars = a, np.abs(b0) ** 2, c0
    if plan.benchmark:
        # v^H M^-1 z = x1 and v^H M^-1 v = 1 for v = e1, so alpha = sqrt(s)
        benchmark_aux = (w[0] + o0 if inject else w[0], 1.0, root_s)
    if plan.trace is not None:
        logdet_s = (
            np.log(gammas[:p]).sum(axis=0)
            + gammas[-1]
            + build_covariance(cfg).log_det()
        )
    return _evaluate(plan, n, cfg.k, scalars, benchmark_aux, logdet_s)


@_quiet
def _compute_chunk(start, *, cfg, plan, stream_seed, n_trials, inject,
                   invariant, rows):
    """The statistics of the chunk of trials from start, in a run of
    n_trials that _simulate_chunks describes.

    The data path evaluates the chunk at once. On the invariant path the
    draws are made and whitened once; given rows, the chunk is an iterator
    of one dict per row, keyed (row index, label), and a row is evaluated
    at its own scenario when its dict is read.
    """
    stop = min(start + _CHUNK, n_trials)
    if not invariant:
        return _evaluate(plan, cfg.n, cfg.k,
                         *_data_chunk(cfg, stream_seed, start, stop, inject,
                                      plan))
    draws = _invariant_draws(cfg.n, cfg.k, stream_seed, start, stop,
                             plan.trace is not None)
    whitened = None
    if plan.scalars:
        whitened = _invariant_whitening(cfg.n, draws, inject and any(
            row.cos_sq_phi < 1.0 for row in rows or (cfg,)))
    shared = (*draws, whitened)
    if rows is None:
        return _invariant_row(cfg, plan, shared, inject)
    return ({(i, label): stats for label, stats
             in _invariant_row(row, plan, shared, inject).items()}
            for i, row in enumerate(rows))


def _simulate_chunks(
    cfg: ScenarioConfig,
    labels: tuple[str, ...],
    n_trials: int,
    *,
    stream_seed: int,
    inject: bool = False,
    trace_l_max: int | None = None,
    workers: int = 1,
    invariant: bool = False,
    rows: tuple[ScenarioConfig, ...] | None = None,
) -> Iterator[dict]:
    """n_trials independent trials' statistics, one part at a time in order.

    The labels are parsed once, into the run's plan, and the arguments are
    checked before any draw. The trials draw from stream_seed's substream;
    harness phases pass derived seeds so different experiment stages never
    share substreams. Under inject=True the cell under test receives a
    target along the scenario's true steering (mismatched when
    cos_sq_phi < 1) at scnr_db. Given trace_l_max, each chunk records the
    EM convergence trace to that iteration under TRACE. invariant=True
    draws each trial's maximal invariant instead of its data; the
    statistics have the same distribution but come from another random
    stream. Each part is a plain dict: one chunk's statistics keyed by
    label, or, given rows, the scenarios of one grid with cfg's n and k
    (invariant path only), one row's, keyed (row index, label). A grid's
    chunk draws and whitens once and serves every row, each with its own
    target, so its parts come row by row, chunk by chunk; row i's parts
    are bit for bit the chunks of _simulate_chunks(rows[i], ...) without
    rows, and without inject for a row whose scnr_db is None, which is
    target-free. With workers > 1 and more than one chunk of _CHUNK
    trials, the chunks run on up to that many threads, and never more than
    the usable CPUs (numpy releases the GIL in the draws, the colouring
    products and the factorization); results are bit-identical for fixed seeds
    regardless of workers or _CHUNK. A chunk's exception reaches the
    caller unchanged.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if rows is not None and not invariant:
        raise ValueError("grid rows share their draws only on the invariant "
                         "path")
    plan = _plan(labels, trace_l_max)
    if inject and rows is None and cfg.scnr_db is None:
        raise ValueError("injection requires scnr_db")
    if plan.benchmark and any(row.scnr_db is None for row in rows or (cfg,)):
        raise ValueError("benchmark statistics require an amplitude")
    starts = range(0, n_trials, _CHUNK)
    compute = partial(_compute_chunk, cfg=cfg, plan=plan,
                      stream_seed=stream_seed, n_trials=n_trials,
                      inject=inject, invariant=invariant, rows=rows)

    def parts(chunks):
        return chunks if rows is None else chain.from_iterable(chunks)

    if workers > 1 and len(starts) > 1:
        # map submits every chunk at once, which starts all the pool's
        # threads, so it gets no more than there are chunks to run or CPUs
        # to run them
        threads = min(workers, len(starts), len(os.sched_getaffinity(0)))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from parts(pool.map(compute, starts))
    else:
        yield from parts(map(compute, starts))


def simulate_statistics(
    cfg: ScenarioConfig,
    labels: tuple[str, ...],
    n_trials: int,
) -> dict[str, np.ndarray]:
    """The null statistics of n_trials data trials at cfg.master_seed, each
    label's chunks joined into one (n_trials,) array.

    The package reduces _simulate_chunks' chunks as they come instead;
    this whole-array form is kept for the benchmark's generate layer.
    """
    parts = list(_simulate_chunks(cfg, labels, n_trials,
                                  stream_seed=cfg.master_seed))
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
