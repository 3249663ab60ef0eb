"""Figure-data containers and their deterministic CSV encoding.

A CurveResult is one grid of per-detector rate estimates (Pd or Pfa) with
binomial 95% confidence half-widths. The CSV layout is: axis column(s)
first, then "<label>_rate,<label>_ci" per detector in canonical detector
order. Numbers are written with full round-trip precision so re-reading a
file reproduces the in-memory values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IoError",
    "CurveResult",
    "ConvergenceResult",
    "format_curve",
    "write_curve",
    "read_curve",
    "format_convergence",
    "write_convergence",
]


class IoError(OSError):
    """Raised when emitting or reading curve files fails."""


@dataclass(frozen=True)
class CurveResult:
    """Rates over a grid: axis columns, per-detector estimates and CIs."""

    axis_names: tuple[str, ...]
    axis_values: np.ndarray          # (rows, len(axis_names))
    detectors: tuple[str, ...]
    rates: np.ndarray                # (rows, len(detectors))
    cis: np.ndarray                  # same shape as rates

    def __post_init__(self):
        av = np.atleast_2d(np.asarray(self.axis_values, dtype=float))
        rates = np.atleast_2d(np.asarray(self.rates, dtype=float))
        cis = np.atleast_2d(np.asarray(self.cis, dtype=float))
        if av.shape != (rates.shape[0], len(self.axis_names)):
            raise ValueError("axis_values shape does not match axis_names/rows")
        if rates.shape != (av.shape[0], len(self.detectors)) or cis.shape != rates.shape:
            raise ValueError("rates/cis shape does not match detectors/rows")
        object.__setattr__(self, "axis_values", av)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "cis", cis)

    @property
    def rows(self) -> int:
        return self.axis_values.shape[0]

    def column(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        """(rates, cis) for one detector label."""
        j = self.detectors.index(label)
        return self.rates[:, j], self.cis[:, j]


@dataclass(frozen=True)
class ConvergenceResult:
    """Mean absolute relative objective change per EM iteration.

    One column pair per studied configuration (e.g. "h0", "scnr15"); means
    and cis have shape (iterations, configurations).
    """

    iterations: tuple[int, ...]
    configurations: tuple[str, ...]
    means: np.ndarray
    cis: np.ndarray
    trial_count: int


def _fmt(x: float) -> str:
    return repr(float(x))


def format_curve(result: CurveResult) -> str:
    """Render the CSV text for a CurveResult (deterministic byte-for-byte)."""
    header = list(result.axis_names)
    for lab in result.detectors:
        header.append(f"{lab}_rate")
        header.append(f"{lab}_ci")
    lines = [",".join(header)]
    for i in range(result.rows):
        cells = [_fmt(x) for x in result.axis_values[i]]
        for j in range(len(result.detectors)):
            cells.append(_fmt(result.rates[i, j]))
            cells.append(_fmt(result.cis[i, j]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_curve(result: CurveResult, path) -> None:
    """Emit a CurveResult as CSV. Raises IoError on filesystem failure."""
    text = format_curve(result)
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise IoError(f"cannot write curve to {path}: {err}") from err


def read_curve(path) -> CurveResult:
    """Parse a CSV produced by write_curve back into a CurveResult."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln for ln in fh.read().split("\n") if ln]
    except OSError as err:
        raise IoError(f"cannot read curve from {path}: {err}") from err
    if not lines:
        raise IoError(f"empty curve file: {path}")
    header = lines[0].split(",")
    detectors = []
    axis_names = []
    for name in header:
        if name.endswith("_rate"):
            detectors.append(name[: -len("_rate")])
        elif name.endswith("_ci"):
            continue
        else:
            axis_names.append(name)
    n_axis = len(axis_names)
    axis_vals, rates, cis = [], [], []
    for ln in lines[1:]:
        cells = [float(c) for c in ln.split(",")]
        axis_vals.append(cells[:n_axis])
        rates.append(cells[n_axis::2])
        cis.append(cells[n_axis + 1 :: 2])
    return CurveResult(
        axis_names=tuple(axis_names),
        axis_values=np.array(axis_vals, dtype=float),
        detectors=tuple(detectors),
        rates=np.array(rates, dtype=float),
        cis=np.array(cis, dtype=float),
    )


def format_convergence(result: ConvergenceResult) -> str:
    header = ["iteration"]
    for name in result.configurations:
        header.append(f"{name}_mean_delta")
        header.append(f"{name}_ci")
    lines = [",".join(header)]
    for i, l in enumerate(result.iterations):
        cells = [str(l)]
        for j in range(len(result.configurations)):
            cells.append(_fmt(result.means[i, j]))
            cells.append(_fmt(result.cis[i, j]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_convergence(result: ConvergenceResult, path) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(format_convergence(result))
    except OSError as err:
        raise IoError(f"cannot write convergence table to {path}: {err}") from err
