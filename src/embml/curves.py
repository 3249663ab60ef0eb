"""Figure-data containers and their deterministic CSV encoding.

A CurveResult is one grid of per-detector rate estimates (Pd or Pfa) with
binomial 95% confidence half-widths. The CSV layout is: axis column(s)
first, then "<label>_rate,<label>_ci" per detector in canonical detector
order. Numbers are written with full round-trip precision, so any float
parser (np.loadtxt, say) reads back the in-memory values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IoError",
    "CurveResult",
    "ConvergenceResult",
    "write_text",
    "format_curve",
    "write_curve",
    "format_convergence",
    "write_convergence",
]


class IoError(OSError):
    """A file could not be read or written; the message names the path."""


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


def write_text(path, text: str) -> None:
    """Write ASCII text to path. Raises IoError naming the path and cause."""
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise IoError(f"cannot write {path}: {err}") from err


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
    write_text(path, format_curve(result))


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
    write_text(path, format_convergence(result))
