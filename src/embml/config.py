"""Experiment configuration: INI-style parsing, validation, serialization.

A config file has up to four sections — [run], [scenario], [grids], [cube]
— every key optional. parse_config applies the standard defaults (N=8,
K=16, rho=0.9, CNR=30 dB, Doppler 0.1, iteration cap 5), so the empty
string parses to a fully usable spec. serialize_spec writes a file that
parses back to an equal spec. Every key is listed once, in _KEYS, which
the unknown-key checks, parsing and serialization all read.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .cube import CUBE_FORMATS
from .detectors import DetectorId, detector_label, parse_detector_label
from .engine import _MAX_TRIALS
from .harness import required_trials
from .scenario import ScenarioConfig, _finite_db

__all__ = [
    "COMMANDS",
    "ParseError",
    "ValidationError",
    "ExperimentSpec",
    "parse_config",
    "serialize_spec",
]

COMMANDS = (
    "calibrate",
    "pfa-sweep",
    "pd-curve",
    "mismatch-contour",
    "convergence",
    "ingest-run",
)

_CLASSICAL_DEFAULTS = ("glrt", "amf", "rao", "ace")

_DEFAULT_SCNR_GRID = tuple(float(s) for s in range(0, 31, 2))
_DEFAULT_CNR_GRID = tuple(float(c) for c in range(30, 111, 10))
_DEFAULT_RHO_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)
_DEFAULT_COS_SQ_PHI_GRID = tuple(i / 10 for i in range(0, 11))


class ParseError(ValueError):
    """Malformed config text; carries the offending line or field."""


class ValidationError(ValueError):
    """Well-formed config violating an invariant; names the invariant."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully validated description of one batch experiment."""

    command: str = "calibrate"
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    detectors: tuple[str, ...] = _CLASSICAL_DEFAULTS + ("em-bml-d5",)
    pfa: float = 1e-3
    trials: int = 100000
    calibration_trials: int | None = None
    l_max: tuple[int, ...] = (5,)
    scnr_grid_db: tuple[float, ...] = _DEFAULT_SCNR_GRID
    cnr_grid_db: tuple[float, ...] = _DEFAULT_CNR_GRID
    rho_grid: tuple[float, ...] = _DEFAULT_RHO_GRID
    cos_sq_phi_grid: tuple[float, ...] = _DEFAULT_COS_SQ_PHI_GRID
    output_path: str = "result.csv"
    cube_path: str | None = None
    cube_format: str = "interleaved-binary"
    cube_cut_bin: int | None = None
    cube_eval_bin: int | None = None
    cube_overlap: int = 5
    workers: int = 1

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(
                f"command must be one of {', '.join(COMMANDS)}; got {self.command!r}"
            )
        if not self.detectors:
            raise ValidationError("detector list must be nonempty")
        for lab in self.detectors:
            try:
                parse_detector_label(lab)
            except ValueError as err:
                raise ValidationError(str(err)) from None
        if not 0.0 < self.pfa < 0.5:
            raise ValidationError(f"pfa must lie in (0, 0.5); got {self.pfa}")
        if self.trials < 1:
            raise ValidationError("trials must be positive")
        if self.calibration_trials is not None and self.calibration_trials < 1:
            raise ValidationError("calibration_trials must be positive")
        # block keys keep trial streams apart below _MAX_TRIALS trials only
        for name in ("trials", "calibration_trials"):
            value = getattr(self, name)
            if value is not None and value > _MAX_TRIALS:
                raise ValidationError(
                    f"{name} must be at most 2^70 = {_MAX_TRIALS}, beyond "
                    f"which trial streams collide; got {value}")
        # the null-ensemble size each command calibrates on, where the spec
        # fixes it: pfa-sweep's nominal row reuses its calibration ensemble,
        # so it calibrates on trials; the curve commands fall back to exactly
        # 100/pfa, and ingest-run checks its cube's window count
        needed = required_trials(self.pfa)
        cal = {
            "calibrate": self.calibration_trials or self.trials,
            "pfa-sweep": self.trials,
            "pd-curve": self.calibration_trials or needed,
            "mismatch-contour": self.calibration_trials or needed,
        }.get(self.command)
        if cal is not None and cal < needed:
            raise ValidationError(
                f"calibration trials must be >= 100/pfa = {needed}; got {cal}"
            )
        if cal is not None and cal > _MAX_TRIALS:
            # trials and calibration_trials passed above, so cal is 100/pfa
            raise ValidationError(
                f"pfa={self.pfa} would calibrate on 100/pfa = {needed:.3g} trials, "
                f"more than 2^70 = {_MAX_TRIALS}, beyond which trial streams "
                "collide; give calibration_trials")
        if not self.l_max or any(l < 1 for l in self.l_max):
            raise ValidationError("l_max list must be nonempty positive integers")
        for name in ("scnr_grid_db", "cnr_grid_db", "rho_grid", "cos_sq_phi_grid"):
            if len(getattr(self, name)) == 0:
                raise ValidationError(f"{name} must be nonempty")
        for name in ("scnr_grid_db", "cnr_grid_db"):
            for db in getattr(self, name):
                if not _finite_db(db):
                    raise ValidationError(
                        f"{name} values must be finite, as must their linear "
                        f"power 10^(dB/10); got {db}")
        for r in self.rho_grid:
            if not 0.0 <= r < 1.0:
                raise ValidationError(f"rho_grid values must lie in [0, 1); got {r}")
        for c in self.cos_sq_phi_grid:
            if not 0.0 <= c <= 1.0:
                raise ValidationError(
                    f"cos_sq_phi_grid values must lie in [0, 1]; got {c}"
                )
        if self.cube_format not in CUBE_FORMATS:
            raise ValidationError(
                f"cube_format must be {' or '.join(CUBE_FORMATS)}; "
                f"got {self.cube_format!r}"
            )
        if self.command == "ingest-run":
            if self.cube_overlap < 0 or self.cube_overlap >= self.scenario.n:
                raise ValidationError(
                    f"cube_overlap must lie in [0, N); got {self.cube_overlap}"
                )
            if self.cube_path is None:
                raise ValidationError("ingest-run requires cube_path")
        if self.workers < 1:
            raise ValidationError("workers must be positive")


def _default_detectors(l_max: tuple[int, ...]) -> tuple[str, ...]:
    return _CLASSICAL_DEFAULTS + tuple(
        detector_label(DetectorId.EM_BML_D, l) for l in sorted(set(l_max))
    )


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(s) for s in raw.replace(",", " ").split())


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(s) for s in raw.replace(",", " ").split())


def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(raw.replace(",", " ").split())


def _optional_float(raw: str) -> float | None:
    raw = raw.strip()
    return None if raw.lower() in ("", "none") else float(raw)


# Every config key, in serialization order: (section, key) -> (field,
# parser). Keys of [scenario] name ScenarioConfig fields, all others
# ExperimentSpec fields.
_KEYS = {
    ("run", "command"): ("command", str),
    ("run", "detectors"): ("detectors", _str_list),
    ("run", "pfa"): ("pfa", float),
    ("run", "trials"): ("trials", int),
    ("run", "calibration_trials"): ("calibration_trials", int),
    ("run", "l_max"): ("l_max", _int_list),
    ("run", "out"): ("output_path", str),
    ("run", "workers"): ("workers", int),
    ("scenario", "n"): ("n", int),
    ("scenario", "k"): ("k", int),
    ("scenario", "rho"): ("rho", float),
    ("scenario", "cnr_db"): ("cnr_db", float),
    ("scenario", "noise_power"): ("noise_power", float),
    ("scenario", "doppler"): ("doppler", float),
    ("scenario", "scnr_db"): ("scnr_db", _optional_float),
    ("scenario", "cos_sq_phi"): ("cos_sq_phi", float),
    ("scenario", "master_seed"): ("master_seed", int),
    ("grids", "scnr_db"): ("scnr_grid_db", _float_list),
    ("grids", "cnr_db"): ("cnr_grid_db", _float_list),
    ("grids", "rho"): ("rho_grid", _float_list),
    ("grids", "cos_sq_phi"): ("cos_sq_phi_grid", _float_list),
    ("cube", "format"): ("cube_format", str),
    ("cube", "overlap"): ("cube_overlap", int),
    ("cube", "path"): ("cube_path", str),
    ("cube", "cut_bin"): ("cube_cut_bin", int),
    ("cube", "eval_bin"): ("cube_eval_bin", int),
}

_SECTIONS = tuple(dict.fromkeys(section for section, _ in _KEYS))


def _format(value) -> str:
    """Config text for a value: repr for floats, space-joined sequences."""
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return " ".join(_format(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str, overrides=None) -> ExperimentSpec:
    """Parse INI-style config text into a validated ExperimentSpec.

    overrides maps section -> key -> value and is applied on top of the
    text, each value rendered as serialize_spec renders it; the CLI passes
    its flags this way. Unknown sections or keys raise ParseError (typos
    should not silently fall back to defaults); invariant violations raise
    ValidationError.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
        parser.read_dict(
            {
                section: {key: _format(value) for key, value in items.items()}
                for section, items in (overrides or {}).items()
            }
        )
    except configparser.Error as err:
        line = getattr(err, "lineno", None)
        where = f" (line {line})" if line is not None else ""
        raise ParseError(f"malformed config{where}: {err}") from err

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ParseError(
                f"unknown section [{section}]; expected one of "
                + ", ".join(f"[{s}]" for s in _SECTIONS)
            )
        for key in parser.options(section):
            if (section, key) not in _KEYS:
                raise ParseError(f"unknown key {key!r} in section [{section}]")

    spec_kwargs: dict = {}
    scen_kwargs: dict = {}
    for (section, key), (name, parse) in _KEYS.items():
        if not parser.has_option(section, key):
            continue
        raw = parser.get(section, key)
        try:
            value = parse(raw)
        except ValueError as err:
            raise ParseError(f"bad value for {section}.{key}: {raw!r} ({err})") from None
        (scen_kwargs if section == "scenario" else spec_kwargs)[name] = value

    try:
        spec_kwargs["scenario"] = ScenarioConfig(**scen_kwargs)
    except ValueError as err:
        raise ValidationError(f"scenario: {err}") from err
    if "l_max" in spec_kwargs and "detectors" not in spec_kwargs:
        spec_kwargs["detectors"] = _default_detectors(spec_kwargs["l_max"])
    return ExperimentSpec(**spec_kwargs)


def serialize_spec(spec: ExperimentSpec) -> str:
    """Render a spec as config text; parse_config(serialize_spec(s)) == s.

    An optional key whose value is None is left out, except scenario
    scnr_db, which is written as "none".
    """
    sections: dict[str, list[str]] = {}
    for (section, key), (name, parse) in _KEYS.items():
        value = getattr(spec.scenario if section == "scenario" else spec, name)
        if value is None and parse is not _optional_float:
            continue
        sections.setdefault(section, []).append(f"{key} = {_format(value)}")
    return "\n\n".join(
        f"[{section}]\n" + "\n".join(lines) for section, lines in sections.items()
    ) + "\n"
