"""Trial-vectorized evaluation of detector statistics for Monte Carlo runs.

The per-trial functions in detectors.py and em.py are the reference
implementations; this module evaluates the same statistics on whole blocks
of trials at once. Every statistic is a function of the maximal invariant,
which Kelly (1986) writes as two scalars: the AMF t = |b|^2 / a and Kelly's
residual r = c - |b|^2 / a, with a = v^H S^-1 v, b = v^H S^-1 z and
c = z^H S^-1 z = t + r (the EM trace also needs log det S). The classical
statistics and the whole EM recursion are closed forms in (t, r) with no
cancelling difference, so they keep their precision at any SCNR, and one
helper, _evaluate, computes the requested statistics from it, whichever of
two generators drew it:

- the data path draws the (n, k+1) data matrices of each block of trials,
  colours them in place by two real products with chol(M), which is real,
  factors each trial's S once by Cholesky, which also gives log det S, and
  forward-substitutes [v, z] against the factor; t and r are read off the
  whitened columns, r as the squared norm of the whitened CUT less its
  component along the whitened v (_stack_invariants). The rows of a grid
  share each block's white normals, drawn once, and each colours,
  scatters and whitens them by its own scenario (_DataScene, made once per
  run). statistics_from_stacks is its entry for data from outside (cube
  windows); it is cross-checked to 1e-9 against the per-trial reference.
- the invariant path draws the maximal invariant, log det S and the
  benchmark's projection exactly from nine variates per trial (six
  normals and three Gammas), with no data matrix and no solve: Kelly's
  partitioned-Wishart representation with v = e1 (_invariant_row). The
  test suite checks its distributions against the data path and against
  Kelly's closed-form laws. A target is only an offset of the CUT there, so
  the draws are target-free (_invariant_draws), and one chunk's draws serve
  every row of a grid. A row reads (t, r) off them and hands it to
  _evaluate as drawn; a row with no target off v reuses the chunk's
  residual (_matched), at a few operations per trial.

A run's labels are parsed once, by _simulate_chunks or
statistics_from_stacks, into its plan (_Plan): the classical detectors,
the EM caps, whether the benchmark is read and the EM trace's depth. A
chunk of _CHUNK trials is the unit of work: _compute_chunk has one path
draw what the plan reads, and _evaluate runs once over it, or once per
row of a grid. A chunk is a plain dict of per-trial arrays: one (trials,)
array per detector label, and the (trials, l_max) EM trace under TRACE
when it is recorded. A grid's chunk is one such dict per row, keyed
(row, label), and _simulate_chunks yields those row dicts in turn: on the
invariant path each is evaluated when it is read, and on the data path
all are evaluated on the thread that computes the chunk. _compute_chunk
and statistics_from_stacks draw and evaluate with numpy's divide,
invalid and overflow warnings silenced on the thread that runs them, so
an undefined or overflowing statistic (0/0, say, or (k+1) t at an
extreme SCNR) is a quiet NaN or inf, which the harness's finite check
names by its trial.

On both paths each block of _BLOCK trials draws from a generator keyed by
(stream_seed, block_index), with a tag per path; a chunk builds one Philox
and re-keys it for each block covering it (_blocks, scenario.block_rngs),
so each trial's draws depend only on its index, never on where a chunk
starts. The data path draws one block at a time, colours and whitens it
for each row in turn and keeps only the chunk's part of what the plan
reads, so a chunk holds one white and one coloured block, never the
chunk's matrices. The invariant path, at nine variates per trial (and
n-2 more Gammas for the trace), fills the whole covering blocks into one
buffer. Results are bit-identical for a given stream seed
whatever the chunk size or worker count, which only set the tasks of a
thread pool, one thread per usable CPU at most. Threads overlap only
inside numpy calls that release the GIL, most of a data trial (the Philox
fill, the colouring products, the batched Cholesky factorization); an
invariant trial costs about 0.3 us in short calls that contend for the
GIL, so the harness runs that path on one thread. The chunk iterator,
_simulate_chunks, is the package's one entry, and every caller names its
stream seed: it yields each chunk as it is computed, so the harness
reduces every phase in flat memory. simulate_statistics joins one null
data run at the scenario's master seed, for the benchmark.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
# unused here; the benchmark's pool counter patches this name
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import chain, cycle
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

# the classical statistics from (t, r), c = t + r. Rao uses the
# Sherman-Morrison identity on S + z z^H: v^H T^-1 z = b / (1 + c) and
# v^H T^-1 v = a (1 + r) / (1 + c).
_CLASSICAL = {
    DetectorId.GLRT: lambda t, r: t / (1.0 + (t + r)),
    DetectorId.AMF: lambda t, r: t,
    DetectorId.RAO: lambda t, r: t / ((1.0 + (t + r)) * (1.0 + r)),
    DetectorId.ACE: lambda t, r: t / (t + r),
}


def _sigmoid_clamped(r: np.ndarray) -> np.ndarray:
    """Elementwise logistic of a log ratio r >= 0, clamped inside (0, 1).

    The EM recursion's log ratios are never negative: the first is the AMF
    t, and each step adds a gain g >= 0 to log q1 - log q0 >= 0, since a
    logistic of r >= 0 is at least 1/2. So exp(-r) <= 1 cannot overflow,
    and no branch for r < 0 is kept; r = inf gives the upper clamp, and
    NaN stays NaN for the finite check to name.
    """
    return np.clip(1.0 / (1.0 + np.exp(-r)), POSTERIOR_FLOOR,
                   1.0 - POSTERIOR_FLOOR)


def _em_batched(
    t: np.ndarray,
    r: np.ndarray,
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
    lemma reduce the whole recursion to the AMF t and Kelly's residual r
    (Kelly 1986), c = t + r. With u = 1 + q0 c and e = 1 + q0 r,
    v^H A^-1 v = a e / u, so the step's gain is g = (k+1) t / (u e) and
    d^H A^-1 d = r / e, each formed from positive terms with no difference
    that cancels at high SCNR. logdet_s = log det S is given only when the
    convergence trace is recorded.
    """
    kp1 = k + 1
    c = t + r
    log_post = t
    snaps = {0: log_post} if 0 in snapshot_ls else {}

    deltas = None
    if logdet_s is not None:
        deltas = np.empty((len(t), l_top))
        # state after the previous M-step: log det M, tr(M^-1 S),
        # z^H M^-1 z and d^H M^-1 d; initially M = S, d = z - (b / a) v
        logdet_prev, trs_prev, qz_prev, qd_prev = logdet_s, n, c, r

    for l in range(1, l_top + 1):
        q1 = _sigmoid_clamped(log_post)
        q0 = 1.0 - q1
        u = 1.0 + q0 * c
        e = 1.0 + q0 * r
        # g = z^H M^-1 z - d^H M^-1 d; tends to (k+1) AMF as q0 -> 0
        g = kp1 * t / (u * e)
        log_post = np.log(q1) - np.log(q0) + g
        if l in snapshot_ls:
            snaps[l] = log_post

        if logdet_s is not None:
            delta = r / e  # d^H A^-1 d
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
        """Whether (t, r) is read: by every classical statistic and the EM
        recursion, whose trace also reads log det S."""
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
    tr,
    benchmark_aux,
    logdet_s,
) -> dict[str, np.ndarray]:
    """plan's statistics of a trial range, whichever generator drew it.

    tr is the AMF t and Kelly's residual r, both paths' one form of the
    maximal invariant, benchmark_aux the (u, c, alpha) arguments of
    benchmark_statistic_from_aux and logdet_s log det S; each is None
    unless the plan reads it, and the EM trace is recorded, under TRACE,
    exactly when the plan has a trace depth. Its callers run it under
    _quiet. Every operation is elementwise over trials, so a trial's
    statistics do not depend on how many trials are evaluated with it. EM
    variant labels like em-bml-d5 share a single EM recursion run to the
    largest cap.
    """
    stats = {det.value: _CLASSICAL[det](*tr) for det in plan.classical}
    if plan.benchmark:
        stats[DetectorId.BENCHMARK.value] = benchmark_statistic_from_aux(
            *benchmark_aux
        )

    if plan.em_ls or plan.trace is not None:
        l_top = max((*plan.em_ls, plan.trace or 0))
        snaps, em_delta = _em_batched(
            *tr, logdet_s, l_top, plan.em_ls, k, n,
        )
        for l in plan.em_ls:
            stats[detector_label(DetectorId.EM_BML_D, l)] = snaps[l]
        if plan.trace is not None:
            stats[TRACE] = em_delta

    return stats


def _scatter(zs: np.ndarray) -> np.ndarray:
    """S = Zs Zs^H of each trial of a (B, n, k) secondary stack."""
    return zs @ zs.conj().swapaxes(1, 2)


def _stack_invariants(z, zs, v, plan: _Plan, minv_v):
    """What plan reads of a trial stack: (t, r), the benchmark's projection
    v^H M^-1 z and log det S.

    Each is None unless read; the projection is read when M^-1 v (minv_v)
    is given. S is formed and factored only when (t, r) is read, and then
    once, S = L L^H by Cholesky, which gives log det S = 2 sum log L_ii.
    Forward substitution against L turns [v, z] into [y, w] = L^-1 [v, z]
    in place, each row divided by the real diagonal as two real products
    by its reciprocal. Then a = |y|^2, b = y^H w, t = |b|^2 / a and
    Kelly's residual r = |w - (b / a) y|^2, w less its component along y.
    Each sum adds the n rows in order, so a trial's values do not depend on
    how many trials are whitened with it.
    """
    u = None if minv_v is None else np.einsum("i,bi->b", minv_v.conj(), z)
    if not plan.scalars:
        return None, u, None
    lower = np.linalg.cholesky(_scatter(zs)).transpose(1, 2, 0)
    diag = lower.diagonal().real.T
    sol = np.empty((2, *z.T.shape), dtype=np.complex128)
    sol[0], sol[1] = v[:, None], z.T
    for i in range(len(diag)):
        for j in range(i):
            sol[:, i] -= lower[i][j] * sol[:, j]
        recip = 1.0 / diag[i]
        sol[:, i].real *= recip
        sol[:, i].imag *= recip
    y, w = sol
    a, b = sum(np.abs(y) ** 2), sum(y.conj() * w)
    r = sum(np.abs(w - (b / a) * y) ** 2)
    logdet_s = None if plan.trace is None else 2.0 * sum(np.log(diag))
    return (np.abs(b) ** 2 / a, r), u, logdet_s


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
    tr, u, logdet_s = _stack_invariants(z, zs, v, plan, minv_v)
    return _evaluate(plan, z.shape[1], k, tr,
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
    """(lo, hi, Z) per block part [lo, hi) of trials [start, stop) and per
    colouring factor, in order.

    chol is one factor, or a (rows, n, n) stack of them, one per row of a
    grid. Z is the (n, hi - lo, k+1) matrices of the block's part, coloured
    by the factor. Each block of _BLOCK trials draws its normals x, y once,
    in one call from block_rng(stream_seed, block_index, data=True),
    re-keyed on one Philox, and scales them by 1/sqrt(2) in place; each
    factor in turn then colours them by two real products, written straight
    into the block's real and imaginary parts. build_covariance is real, so
    its factor's imaginary part is exactly zero and the complex product
    chol @ (x + j y) / sqrt(2) splits into those two products bit for bit;
    a complex factor is refused rather than truncated. A factor's Z does
    not depend on the others given with it. Every block and factor reuses
    the normals and the block buffer, so Z is valid only until the next is
    yielded. A trial is regenerated through its block.
    """
    if np.any(chol.imag):
        raise ValueError("the colouring factor must be real")
    n, cols = cfg.n, cfg.k + 1
    reals = [np.ascontiguousarray(f.real)
             for f in np.reshape(chol, (-1, n, n))]
    w = np.empty((2, n, _BLOCK * cols))
    block = np.empty((n, _BLOCK * cols), dtype=np.complex128)
    rngs = block_rngs(stream_seed, data=True)
    for b in _blocks(start, stop):
        rngs(b).standard_normal(out=w)
        # the reciprocal gives the bits of numpy's complex division by sqrt(2)
        np.multiply(w, 1.0 / np.sqrt(2.0), out=w)
        first = b * _BLOCK
        lo, hi = max(start, first), min(stop, first + _BLOCK)
        for real in reals:
            np.matmul(real, w[0], out=block.real)
            np.matmul(real, w[1], out=block.imag)
            yield lo, hi, block.reshape(n, _BLOCK, cols)[:, lo - first : hi - first]


class _DataScene(NamedTuple):
    """What the data path reads of one row's scenario, made once per run:
    the colouring factor chol(M), the nominal steering v, the CUT's target
    (None: target-free) and the benchmark's (M^-1 v, v^H M^-1 v, alpha)
    (None unless the plan reads it)."""

    chol: np.ndarray
    v: np.ndarray
    target: np.ndarray | None
    projection: tuple | None


def _data_scene(cfg: ScenarioConfig, inject: bool, plan: _Plan) -> _DataScene:
    """cfg's _DataScene; the target is along the true steering at scnr_db,
    given inject and an SCNR."""
    m = build_covariance(cfg)
    v = steering_vector(cfg.n, cfg.doppler)
    target = None
    if inject and cfg.scnr_db is not None:
        v_true = (
            v
            if cfg.cos_sq_phi == 1.0
            else mismatched_steering(v, m, cfg.cos_sq_phi, cfg.doppler)
        )
        target = injection_amplitude(v_true, m, cfg.scnr_db) * v_true
    projection = None
    if plan.benchmark:
        # the clairvoyant hypothesizes the target along the nominal steering
        projection = _benchmark_projection(
            v, m, injection_amplitude(v, m, cfg.scnr_db))
    return _DataScene(m.chol, v, target, projection)


def _data_chunk(cfg, scenes, stream_seed, start, stop, plan: _Plan):
    """Per scene, (t, r), the benchmark's arguments and log det S of
    trials [start, stop) drawn as data, each None unless plan reads it.

    Every scene reads the same white draws: each block's part of the range
    is drawn once, then coloured by each scene's factor, given its target
    and whitened in turn, and each scene keeps only its scalars. A plan
    that reads no (t, r) forms no S.
    """
    trials = stop - start
    # per scene, one (trials,) row per scalar, filled block by block
    kept = [(
        np.empty((2, trials)) if plan.scalars else None,
        np.empty(trials, dtype=np.complex128) if plan.benchmark else None,
        np.empty(trials) if plan.trace is not None else None,
    ) for _ in scenes]
    blocks = _coloured_blocks(cfg, np.stack([s.chol for s in scenes]),
                              stream_seed, start, stop)
    for (lo, hi, stack), (scene, out) in zip(blocks, cycle(zip(scenes, kept))):
        z = stack[:, :, 0].T
        if scene.target is not None:
            z = z + scene.target
        block = _stack_invariants(
            z, stack[:, :, 1:].transpose(1, 0, 2), scene.v, plan,
            None if scene.projection is None else scene.projection[0])
        for dest, part in zip(out, block):
            if dest is not None:
                dest[..., lo - start : hi - start] = part

    return [(tr, None if u is None else (u, *scene.projection[1:]), logdet_s)
            for scene, (tr, u, logdet_s) in zip(scenes, kept)]


def _invariant_block(n: int, k: int, rng, record_trace: bool,
                     out: np.ndarray) -> None:
    """Raw draws of one block of _BLOCK trials into out, one column per trial.

    Rows: the real then the imaginary parts of z1, w' and w1, G0 ~
    Gamma(k-n+1), G1 ~ Gamma(k-n+2), Q ~ Gamma(n-2) when n > 2, and with the
    trace the sum of log Gamma(k-i), i < n-2. The trace row is drawn last,
    so the other rows do not depend on it. rng is the block's generator.
    """
    out[:6] = rng.standard_normal((6, _BLOCK))
    # one call per shape: numpy's scalar-shape loop is about twice as fast
    # as its broadcast one
    for row, shape in enumerate([k - n + 1, k - n + 2] + [n - 2] * (n > 2)):
        rng.standard_gamma(shape, out=out[6 + row])
    if record_trace:
        rest = rng.standard_gamma(k - np.arange(n - 2), (_BLOCK, n - 2))
        out[-1] = np.log(rest).sum(axis=1)


def _invariant_draws(n: int, k: int, stream_seed: int, start: int, stop: int,
                     need_logdet: bool) -> np.ndarray:
    """The target-free draws of trials [start, stop) on the invariant path,
    _invariant_block's rows with one column per trial.

    The six normal rows are scaled by 1/sqrt(2), to the parts of CN(0, 1)
    variates. The whole blocks covering the range are drawn into one
    buffer.
    """
    blocks = _blocks(start, stop)
    buf = np.empty((8 + (n > 2) + need_logdet, len(blocks) * _BLOCK))
    rngs = block_rngs(stream_seed)
    for i, b in enumerate(blocks):
        _invariant_block(n, k, rngs(b), need_logdet,
                         buf[:, i * _BLOCK : (i + 1) * _BLOCK])
    first = start - blocks[0] * _BLOCK
    draws = buf[:, first : first + stop - start]
    draws[:6] *= 1.0 / np.sqrt(2.0)
    return draws


def _residual(n: int, draws: np.ndarray, w1_real: np.ndarray) -> np.ndarray:
    """Kelly's residual r = (|w1 + o1|^2 + Q) / G1 of the draws, given the
    real part of w1 + o1."""
    r = w1_real**2 + draws[5] ** 2
    if n > 2:
        r += draws[8]
    return r / draws[7]


def _matched(n: int, draws: np.ndarray):
    """What every row without a target off v reads of a chunk's draws:
    Kelly's residual r0 of the target-free CUT and d0 = z1 - sqrt(r0) w',
    as (r0, Re d0, (Im d0)^2)."""
    r0 = _residual(n, draws, draws[2])
    root = np.sqrt(r0)
    return r0, draws[0] - root * draws[1], (draws[3] - root * draws[4]) ** 2


@_quiet
def _invariant_row(cfg, plan: _Plan, shared, inject, logdet_m):
    """plan's statistics of one chunk's invariant draws with cfg's target.

    shared is what every row of the chunk reads: the draws, their matched
    part (from _matched; None unless the plan reads the invariant) and the
    row-free part of log det S (None without the trace); logdet_m is log det
    M of cfg's clutter, read only with the trace.

    This is the partitioned-Wishart representation behind Kelly (1986) and
    Richmond (2000). After whitening by M, a rotation puts v along e1 and
    the true steering in span(e1, e2), so the target is the offset
    o0 e1 + o1 e2 of the CUT, o0 = sqrt(s) cos phi and o1 = sqrt(s) sin phi.
    Partition S ~ CW(k, n, I) as 1 + (n-1). v is taken as e1 itself, since
    every statistic is invariant to the scale of v, so a = 1 / G0 with
    G0 = S11 - S12 S22^-1 S21 ~ Gamma(k-n+1), independent of the rest.
    Kelly's residual is r = z2^H S22^-1 z2 = (|w1 + o1|^2 + Q) / G1, with z2's
    other n-2 complex components in Q ~ Gamma(n-2) and G1 ~ Gamma(k-n+2);
    given r, b / a = z1 + o0 - sqrt(r) w', so the AMF t = |b|^2 / a is
    |z1 + o0 - sqrt(r) w'|^2 / G0, and the row hands _evaluate (t, r) as
    drawn. A row with o1 = 0 has the chunk's r0 and d0, so it costs a few
    operations per trial, and such rows see one CUT at different targets;
    rows with o1 != 0 read the same variates at their own r, a coupling of
    their CUTs rather than one CUT, each row's law exact. Without
    injection, or without an SCNR, the row is target-free. The benchmark
    reads v^H M^-1 z = z1 + o0 and v^H M^-1 v = 1, so alpha = sqrt(s);
    log det S = log det M + log G0 + log G1 + the sum of log Gamma(k-i),
    i < n-2.
    """
    draws, matched, logdet_w = shared
    root_s = None if cfg.scnr_db is None else 10.0 ** (cfg.scnr_db / 20.0)
    o0 = o1 = 0.0
    if inject and root_s is not None:
        o0 = root_s * math.sqrt(cfg.cos_sq_phi)
        o1 = root_s * math.sqrt(1.0 - cfg.cos_sq_phi)

    tr = benchmark_aux = logdet_s = None
    if plan.scalars:
        if o1:
            r = _residual(cfg.n, draws, draws[2] + o1)
            root = np.sqrt(r)
            t = ((draws[0] + o0 - root * draws[1]) ** 2
                 + (draws[3] - root * draws[4]) ** 2) / draws[6]
        else:
            r, d0_real, d0_imag2 = matched
            t = ((d0_real + o0) ** 2 + d0_imag2) / draws[6]
        tr = t, r
    if plan.benchmark:
        benchmark_aux = (draws[0] + o0, 1.0, root_s)
    if plan.trace is not None:
        logdet_s = logdet_w + logdet_m
    return _evaluate(plan, cfg.n, cfg.k, tr, benchmark_aux, logdet_s)


def _keyed(row: int, stats: dict) -> dict:
    """A grid row's statistics, keyed (row index, label)."""
    return {(row, label): values for label, values in stats.items()}


@_quiet
def _compute_chunk(start, *, cfg, plan, stream_seed, n_trials, inject,
                   invariant, rows, scenes):
    """The statistics of the chunk of trials from start, in a run of
    n_trials that _simulate_chunks describes.

    scenes holds what each row (cfg alone without rows) reads of its
    scenario, made once per run: its _DataScene on the data path, log det
    M on the invariant path, read only by the trace. Given rows, the chunk
    is one dict per row, keyed (row index, label). The data path draws and
    evaluates every row at once, so a grid's chunk is the list of its rows,
    computed on the thread that runs it. On the invariant path the draws,
    their matched part and the row-free part of log det S are made once,
    and a grid's chunk is an iterator that evaluates a row at its own
    scenario when its dict is read.
    """
    stop = min(start + _CHUNK, n_trials)
    if not invariant:
        stats = [_evaluate(plan, cfg.n, cfg.k, *scalars) for scalars
                 in _data_chunk(cfg, scenes, stream_seed, start, stop, plan)]
        return stats[0] if rows is None else [
            _keyed(i, part) for i, part in enumerate(stats)]
    draws = _invariant_draws(cfg.n, cfg.k, stream_seed, start, stop,
                             plan.trace is not None)
    shared = (
        draws,
        _matched(cfg.n, draws) if plan.scalars else None,
        None if plan.trace is None
        else np.log(draws[6]) + np.log(draws[7]) + draws[-1],
    )
    if rows is None:
        return _invariant_row(cfg, plan, shared, inject, scenes[0])
    return (_keyed(i, _invariant_row(row, plan, shared, inject, logdet_m))
            for i, (row, logdet_m) in enumerate(zip(rows, scenes)))


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
    checked before any draw; what each row reads of its scenario (its
    covariance and factor, steering, target and benchmark projection, or
    log det M for the invariant trace) is made once per run. The trials
    draw from stream_seed's substream; harness phases pass derived seeds so
    different experiment stages never share substreams. Under inject=True
    the cell under test receives a target along the scenario's true
    steering (mismatched when cos_sq_phi < 1) at scnr_db. Given
    trace_l_max, each chunk records the EM convergence trace to that
    iteration under TRACE. invariant=True draws each trial's maximal
    invariant instead of its data; the statistics have the same
    distribution but come from another random stream. Each part is a plain
    dict: one chunk's statistics keyed by label, or, given rows, the
    scenarios of one grid with cfg's n and k, one row's, keyed (row index,
    label). A grid's chunk draws once and serves every row (common random
    numbers): on the invariant path each row has its own target, and on
    the data path its own colouring, target and whitening of one white
    draw. So its parts come row by row, chunk by chunk; row i's parts are
    bit for bit the chunks of _simulate_chunks(rows[i], ...) without rows,
    and without inject for a row whose scnr_db is None, which is
    target-free. With workers > 1 and more than one chunk of _CHUNK
    trials, the chunks run on up to that many threads, and never more than
    the usable CPUs (numpy releases the GIL in the draws, the colouring
    products and the factorization); results are bit-identical for fixed
    seeds regardless of workers or _CHUNK. A chunk's exception reaches the
    caller unchanged.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    plan = _plan(labels, trace_l_max)
    if rows is not None and not rows:
        return  # a grid without rows draws nothing
    if inject and rows is None and cfg.scnr_db is None:
        raise ValueError("injection requires scnr_db")
    scenarios = rows or (cfg,)
    if plan.benchmark and any(row.scnr_db is None for row in scenarios):
        raise ValueError("benchmark statistics require an amplitude")
    if not invariant:
        scenes = [_data_scene(row, inject, plan) for row in scenarios]
    elif plan.trace is not None:
        scenes = [build_covariance(row).log_det() for row in scenarios]
    else:
        scenes = [None] * len(scenarios)
    starts = range(0, n_trials, _CHUNK)
    compute = partial(_compute_chunk, cfg=cfg, plan=plan,
                      stream_seed=stream_seed, n_trials=n_trials,
                      inject=inject, invariant=invariant, rows=rows,
                      scenes=scenes)

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
