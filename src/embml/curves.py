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


def _format_pairs(lead, names, suffix, lead_cells, values, cis) -> str:
    """CSV text: the lead columns, then "<name>_<suffix>,<name>_ci" per
    name; each row's lead cells, then its value and CI per name."""
    header = list(lead)
    for name in names:
        header += [f"{name}_{suffix}", f"{name}_ci"]
    lines = [",".join(header)]
    for cells, row_values, row_cis in zip(lead_cells, values.tolist(),
                                          cis.tolist()):
        row = list(cells)
        for value, ci in zip(row_values, row_cis):
            row += [_fmt(value), _fmt(ci)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def format_curve(result: CurveResult) -> str:
    """Render the CSV text for a CurveResult (deterministic byte-for-byte)."""
    return _format_pairs(result.axis_names, result.detectors, "rate",
                         [[_fmt(x) for x in row] for row in result.axis_values],
                         result.rates, result.cis)


def write_curve(result: CurveResult, path) -> None:
    """Emit a CurveResult as CSV. Raises IoError on filesystem failure."""
    write_text(path, format_curve(result))


def format_convergence(result: ConvergenceResult) -> str:
    """Render the CSV text for a ConvergenceResult: the iteration, then
    "<configuration>_mean_delta,<configuration>_ci" per configuration."""
    return _format_pairs(("iteration",), result.configurations, "mean_delta",
                         [[str(l)] for l in result.iterations],
                         result.means, result.cis)


def write_convergence(result: ConvergenceResult, path) -> None:
    write_text(path, format_convergence(result))
