"""Range-pulse data cubes: file formats, synthesis, sliding-window runs.

A cube holds complex baseband returns indexed (pulse, range bin). Two
fully specified encodings are supported: an interleaved little-endian
binary format for bulk data and a CSV format for inspection (grammar in
README). Both readers view the stored float pairs as complex, so a read is
exact to the bit. A CSV file is opened once and read one block at a time,
each completed to the end of its last line. Each such run of whole lines
goes to numpy's C tokenizer, and a run it refuses, or may read
differently, to the line parser, which goes on from the line and row
width the runs before it left. Both append to one flat buffer of doubles,
so a read holds the cube and one run, never the whole text, gives the
same cells or a FormatError at path:line, and works from a FIFO. A binary
cube is read into one buffer that grows block by block from a pipe.

Recorded (or synthesized) cubes are evaluated with a sliding N-pulse
window: the cell under test is one designated range bin, the secondary
data are the K/2 bins on each side, and consecutive windows may share a
configurable number of pulses. Each bin's windows are gathered from the
cube and evaluated one block of 256 (the engine's block) at a time, and
each block goes through the harness's chunk loop as it comes: the
calibration bin's into each detector's top tail, which gives its
threshold, and the evaluation bin's into exceedance counts. So no bin's
per-window statistics are ever held whole. A statistic undefined at a
window (0/0 at an all-zero CUT, say) is a NaN the engine computes without
a warning, and the chunk loop names it by its window.
"""

from __future__ import annotations

import io
import math
import os
import struct
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .curves import CurveResult
from .engine import _BLOCK, _keyed, _scatter, statistics_from_stacks
from .harness import (
    _PHASE_CUBE,
    NonFiniteStatistic,
    _curve,
    _Exceedances,
    _reduce,
    _TopTail,
    order_labels,
    required_trials,
)
from .linalg import HermitianMatrix
from .scenario import (
    ScenarioConfig,
    _standard_complex,
    derive_stream_seed,
    steering_vector,
    trial_rng,
)

__all__ = [
    "FormatError",
    "InsufficientData",
    "DataCube",
    "CubeRunResult",
    "write_cube_binary",
    "read_cube_binary",
    "write_cube_csv",
    "read_cube_csv",
    "ingest_cube",
    "write_cube",
    "synthesize_cube",
    "window_count",
    "sliding_window_run",
]

_HEADER = struct.Struct("<QQ")
# bytes read at a time from a CSV cube, or from a binary one on a pipe
_READ_BLOCK = 1 << 16


class FormatError(ValueError):
    """Cube file violates the declared encoding."""


class InsufficientData(ValueError):
    """Cube too small for the requested windowing."""


@dataclass(frozen=True)
class DataCube:
    """Complex returns indexed (pulse, range bin), plus a source label."""

    data: np.ndarray
    source: str = ""

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 2:
            raise FormatError(f"cube must be 2-D (pulse, bin); got {data.ndim}-D")
        for top in range(0, len(data), _BLOCK):  # no mask of the cube's size
            finite = np.isfinite(data[top:top + _BLOCK])
            if not finite.all():
                pulse, rbin = divmod(int(np.argmin(finite)), data.shape[1])
                where = f"{self.source}: " if self.source else ""
                raise FormatError(
                    f"{where}cube contains non-finite samples, first at pulse "
                    f"{top + pulse}, range bin {rbin}"
                )
        object.__setattr__(self, "data", data)


def write_cube_binary(cube: DataCube, path) -> None:
    """16-byte header (two LE u64 dims), then pulse-major LE f64 (re, im)."""
    p, r = cube.data.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(p, r))
        # complex128's memory layout is exactly the interleaved (re, im) pairs
        fh.write(np.ascontiguousarray(cube.data, dtype="<c16"))


def read_cube_binary(path) -> DataCube:
    with open(path, "rb") as fh:
        # a writable buffer the cube can view; a pipe reports size 0, so the
        # buffer grows one block at a time, to what the stream holds
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw):]
        block = bytearray(_READ_BLOCK)
        while size := fh.readinto(block):
            raw += memoryview(block)[:size]
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    p, r = _HEADER.unpack_from(raw)
    expected = _HEADER.size + 16 * p * r
    if len(raw) != expected:
        raise FormatError(
            f"{path}: header declares {p}x{r} cube "
            f"({expected} bytes) but file holds {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(p, r)
    return DataCube(data=data, source=str(path))


def write_cube_csv(cube: DataCube, path) -> None:
    """One row per pulse; 2R columns alternating re, im per range bin."""
    p, r = cube.data.shape
    cells = np.ascontiguousarray(cube.data).view(np.float64).reshape(p, 2 * r)
    with open(path, "w", encoding="ascii", newline="") as fh:
        for row in cells:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_cube_csv(path) -> DataCube:
    cells = array("d")
    line, width = 0, None
    with open(path, "rb") as fh:
        # a block and the rest of its last line: a run of whole lines
        while run := fh.read(_READ_BLOCK) + fh.readline():
            tokens = _tokenized_csv(run)
            if tokens is None or width not in (None, tokens.shape[1]):
                line, width = _parse_csv_lines(path, run, cells, line, width)
                continue
            cells.frombytes(memoryview(tokens).cast("B"))
            width = tokens.shape[1]
            # the tokenizer refuses a \r outside \r\n, so the line parser
            # would count a line per b"\n" (numpy counts 4x as fast as bytes)
            ends = np.frombuffer(run, np.uint8) == ord("\n")
            line += int(np.count_nonzero(ends))
    if width is None:
        raise FormatError(f"{path}: empty cube file")
    data = np.frombuffer(cells, np.complex128).reshape(-1, width // 2)
    return DataCube(data=data, source=str(path))


def _tokenized_csv(text: bytes) -> np.ndarray | None:
    """The (rows, 2R) cells of a run of lines as numpy's C tokenizer reads
    them, or None where it refuses them or may read them differently."""
    # the tokenizer strips the separators around a cell as whitespace,
    # and float() refuses them
    if not text.isascii() or any(sep in text for sep in b"\x1c\x1d\x1e\x1f"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = np.loadtxt(io.BytesIO(text), delimiter=",",
                               dtype=np.float64, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if cells.size == 0 or cells.shape[1] % 2 != 0:
        return None
    return cells


def _parse_csv_lines(path, text: bytes, cells: array, line: int,
                     width: int | None) -> tuple[int, int | None]:
    """Parse a run of lines into cells, going on from the line number and
    row width before it; return both after it, or raise FormatError as
    path:line. Lines split as a text-mode file splits them."""
    lines = io.TextIOWrapper(io.BytesIO(text), encoding="ascii",
                             errors="surrogateescape")
    for line, row in enumerate(lines, start=line + 1):
        if not row.isascii():
            raise FormatError(f"{path}:{line}: non-ASCII byte in cube text")
        row = row.strip()
        if not row:
            continue
        try:
            values = list(map(float, row.split(",")))
        except ValueError as err:
            raise FormatError(f"{path}:{line}: {err}") from err
        if len(values) % 2 != 0:
            raise FormatError(
                f"{path}:{line}: odd cell count {len(values)}; "
                "cells must be re,im pairs"
            )
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(
                f"{path}:{line}: ragged row ({len(values)} cells, "
                f"expected {width})"
            )
        cells.fromlist(values)
    return line, width


# the cube encodings by name: (reader, writer)
CUBE_FORMATS = {
    "interleaved-binary": (read_cube_binary, write_cube_binary),
    "csv": (read_cube_csv, write_cube_csv),
}


def _codec(format: str):
    if format not in CUBE_FORMATS:
        raise ValueError(f"unknown cube format {format!r}")
    return CUBE_FORMATS[format]


def ingest_cube(path, format: str = "interleaved-binary") -> DataCube:
    return _codec(format)[0](path)


def write_cube(cube: DataCube, path, format: str = "interleaved-binary") -> None:
    _codec(format)[1](cube, path)


def synthesize_cube(
    cfg: ScenarioConfig, pulses: int, range_bins: int
) -> DataCube:
    """A homogeneous cube drawn from the scenario's interference model.

    Per range bin, the clutter is an exact stationary AR(1) process with
    one-lag correlation rho (filtered from the stationary start), so every
    N-pulse window of every bin has exactly the scenario covariance
    build_covariance(cfg); white receiver noise is added on top. Bins are
    mutually independent.
    """
    if pulses < 1 or range_bins < 1:
        raise ValueError("cube dimensions must be positive")
    sigma_c = math.sqrt(cfg.noise_power * 10.0 ** (cfg.cnr_db / 10.0))
    rho = cfg.rho
    seed = derive_stream_seed(cfg.master_seed, _PHASE_CUBE)
    clutter = np.empty((pulses, range_bins), dtype=np.complex128)
    noise = np.empty_like(clutter)
    for j in range(range_bins):
        draws = _standard_complex(trial_rng(seed, j), pulses, 2)
        clutter[:, j] = draws[:, 0]
        noise[:, j] = draws[:, 1]
    # x_0 = w_0 at full power, then x_t = rho x_{t-1} + sqrt(1-rho^2) w_t:
    # the exact stationary unit-power process with lag-h correlation rho^h
    clutter[1:] *= math.sqrt(1.0 - rho**2)
    for t in range(1, pulses):
        clutter[t] += rho * clutter[t - 1]
    # in place: the same products and sum, without three more cube-sized arrays
    clutter *= sigma_c
    noise *= math.sqrt(cfg.noise_power)
    clutter += noise
    return DataCube(data=clutter, source="synthetic")


def window_count(pulses: int, n: int, overlap: int) -> int:
    """Number of N-pulse windows when consecutive windows share overlap pulses."""
    if not 0 <= overlap < n:
        raise ValueError(f"overlap must lie in [0, N); got {overlap}")
    if pulses < n:
        return 0
    stride = n - overlap
    return (pulses - n) // stride + 1


@dataclass(frozen=True)
class CubeRunResult:
    """Rates from the evaluation bin at thresholds from the calibration bin."""

    curve: CurveResult
    window_count: int
    scnr_db: float | None


def _window_index(n: int, k: int, range_bin: int, overlap: int, start: int,
                  stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(windows, n) pulse rows of one bin's windows [start, stop) and its k
    secondary bins."""
    half = k // 2
    # rows[t] are the pulses of window start + t
    rows = np.arange(start, stop)[:, None] * (n - overlap) + np.arange(n)
    secondary_bins = np.r_[range_bin - half : range_bin,
                           range_bin + 1 : range_bin + half + 1]
    return rows, secondary_bins


def _windows(cube: DataCube, n: int, k: int, range_bin: int, overlap: int,
             start: int, stop: int):
    """(windows, n) CUT stack and (windows, n, k) secondary stack of one bin's
    windows [start, stop)."""
    rows, secondary_bins = _window_index(n, k, range_bin, overlap, start, stop)
    return cube.data[rows, range_bin], cube.data[rows[..., None], secondary_bins]


def _region_target(cube: DataCube, n: int, k: int, eval_bin: int,
                   overlap: int, count: int, v: np.ndarray,
                   scnr_db: float) -> np.ndarray:
    """Target alpha v at scnr_db, normalized by the evaluation region.

    The region's sample covariance, of all secondary snapshots of the
    evaluation bin's windows, stands in for the unknown true covariance.
    The snapshots are gathered whole, once, straight into (windows, k, n)
    order, so they flatten to (windows * k, n) rows without a copy, and are
    freed on return.
    """
    rows, secondary_bins = _window_index(n, k, eval_bin, overlap, 0, count)
    snapshots = cube.data[rows[:, None, :], secondary_bins[:, None]]
    with _singular_windows_named(cube, snapshots.swapaxes(1, 2), eval_bin, 0):
        flat = snapshots.reshape(-1, n)
        m_hat = HermitianMatrix(flat.T @ flat.conj() / flat.shape[0])
        # |alpha|^2 v^H M^-1 v = SCNR with the region estimate standing in for M
        alpha = math.sqrt(10.0 ** (scnr_db / 10.0) / m_hat.quad_form(v))
    return alpha * v


def _reduce_bin(cube: DataCube, n: int, k: int, range_bin: int, overlap: int,
                count: int, v: np.ndarray, labels: tuple[str, ...],
                reducers: dict, target: np.ndarray | None = None) -> dict:
    """Each label's reducer, fed its statistics over one bin's windows.

    The bin's windows are the one row of a grid, so reducers is keyed (0,
    label) for each of labels, as _reduce keys every part. The windows are
    gathered and, with target (if any) added to every CUT, evaluated one
    block of _BLOCK at a time, each block reduced before the next is
    gathered. A non-finite statistic (0/0 at an all-zero CUT, say, which
    the engine computes without a warning) raises FormatError naming the
    cube, the range bin, the window and the detector.
    """
    def blocks():
        for start in range(0, count, _BLOCK):
            z, zs = _windows(cube, n, k, range_bin, overlap, start,
                             min(start + _BLOCK, count))
            if target is not None:
                z += target
            with _singular_windows_named(cube, zs, range_bin, start):
                part = _keyed(0, statistics_from_stacks(z, zs, v, labels))
            # outside the with, so it does not hold while the consumer runs
            yield part

    try:
        return _reduce(reducers, blocks())
    except NonFiniteStatistic as err:
        raise FormatError(
            f"{cube.source}: range bin {range_bin}, window {err.index}: "
            f"{err.detector} statistic is not finite"
        ) from err


@contextmanager
def _singular_windows_named(cube: DataCube, zs: np.ndarray, range_bin: int,
                            first: int):
    """Turn a singular-covariance failure into a FormatError naming its place.

    zs holds the secondary stacks of the bin's windows from index first on.
    The range bin and the first window whose secondary covariance is
    singular are located, in zs only, once the failure has happened.
    """
    try:
        yield
    except np.linalg.LinAlgError as err:
        ranks = np.linalg.matrix_rank(_scatter(zs), hermitian=True)
        singular = np.flatnonzero(ranks < zs.shape[1])
        if singular.size == 0:
            raise
        raise FormatError(
            f"{cube.source}: range bin {range_bin}, window {first + singular[0]}: "
            "secondary covariance is singular"
        ) from err


def sliding_window_run(cube: DataCube, spec) -> CubeRunResult:
    """Calibrate on one range bin of a cube and measure rates on another.

    Windows of N pulses slide with spec.cube_overlap shared pulses. The
    calibration bin (spec.cube_cut_bin) provides the null ensembles and
    thresholds at spec.pfa; the evaluation bin (spec.cube_eval_bin) yields
    the empirical rate per detector. When the scenario pins an SCNR, a
    target is injected into every evaluation window, normalized by the
    evaluation region's sample covariance (the true covariance of recorded
    data being unknown), so the measured rate is a detection probability;
    otherwise it is an empirical false-alarm probability. A window whose
    secondary covariance is singular, or with a NaN or infinite statistic
    (0/0 at an all-zero CUT, say), raises FormatError naming the cube, the
    range bin and the window's index in the bin, and the detector for a
    statistic; a bin without K/2 secondary bins on each side, or a
    calibration bin with too few windows for spec.pfa, raises
    InsufficientData naming the cube and the bin.

    Each bin's windows are gathered and evaluated one block of 256 at a
    time, and each block's statistics are bit for bit those of one stack
    of all the bin's windows. Each block is reduced as it comes, into the
    calibration bin's order-statistic thresholds or the evaluation bin's
    exceedance counts, so the rates are those of sorting and counting the
    whole bins. Memory is flat in the window count but for, in a Pd run,
    the evaluation region, which is gathered whole once for its covariance
    and freed before the blocks run.
    """
    cfg = spec.scenario
    n, k = cfg.n, cfg.k
    if k % 2 != 0:
        raise InsufficientData(f"windowing needs an even K; got {k}")
    labels = order_labels(
        lab for lab in spec.detectors if lab != "benchmark"
    )
    if not labels:
        raise ValueError("no adaptive detectors requested")
    overlap = spec.cube_overlap
    cut_bin = spec.cube_cut_bin
    eval_bin = spec.cube_eval_bin
    if cut_bin is None or eval_bin is None:
        raise InsufficientData("sliding-window run needs cut_bin and eval_bin")
    if cut_bin == eval_bin:
        raise InsufficientData("calibration and evaluation bins must differ")

    pulses, bins = cube.data.shape
    count = window_count(pulses, n, overlap)
    half = k // 2
    for role, option, range_bin in (("calibration", "cut_bin", cut_bin),
                                     ("evaluation", "eval_bin", eval_bin)):
        if not half <= range_bin < bins - half:
            raise InsufficientData(
                f"{cube.source}: {role} bin {range_bin} ({option}) needs "
                f"{half} secondary bins on each side of a {bins}-bin cube"
            )
    if count < required_trials(spec.pfa):
        raise InsufficientData(
            f"{cube.source}: calibration bin {cut_bin} has {count} windows; "
            f"pfa={spec.pfa} needs at least {required_trials(spec.pfa)}"
        )

    v = steering_vector(n, cfg.doppler)
    scnr_db = cfg.scnr_db
    target = None
    if scnr_db is not None:
        target = _region_target(cube, n, k, eval_bin, overlap, count, v, scnr_db)
    cal = _reduce_bin(cube, n, k, cut_bin, overlap, count, v, labels,
                      {(0, lab): _TopTail(count, spec.pfa) for lab in labels})
    ev = _reduce_bin(cube, n, k, eval_bin, overlap, count, v, labels,
                     {(0, lab): _Exceedances(cal[0, lab].threshold)
                      for lab in labels}, target)
    return CubeRunResult(
        curve=_curve(("scnr_db",),
                     [(float("-inf") if scnr_db is None else scnr_db,)],
                     labels, [[ev[0, lab].count for lab in labels]], count),
        window_count=count,
        scnr_db=scnr_db,
    )
