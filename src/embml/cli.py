"""Batch command-line interface.

One subcommand per experiment family:

  calibrate         null-ensemble thresholds at a target false-alarm rate
  pfa-sweep         empirical Pfa under off-nominal clutter (CFAR check)
  pd-curve          detection probability versus SCNR
  mismatch-contour  detection probability over the (cos^2 phi, SCNR) grid
  convergence       mean EM objective change per iteration
  ingest-run        sliding-window evaluation of a recorded data cube

Settings come from an optional INI config file (--config); each flag sets
one config key on top of the file, and the merged config is parsed and
validated once. Exit codes: 0 success, 1 a worker process died, 2 invalid
configuration or arguments, 3 file I/O or format failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from concurrent.futures.process import BrokenProcessPool

from .config import (
    COMMANDS,
    ExperimentSpec,
    ParseError,
    ValidationError,
    parse_config,
)
from .cube import FormatError, ingest_cube, sliding_window_run
from .curves import IoError, write_convergence, write_curve, write_text
from .harness import (
    calibrate,
    cfar_sweep,
    convergence_study,
    mismatch_contour,
    order_labels,
    pd_curve,
)

__all__ = ["main", "build_parser"]


def _value_flag(parser, flag: str, key: str, **kwargs) -> None:
    """Add a flag whose value sets config key "section.key" over --config.

    The flag's text is parsed by the key's own parser, as the INI value is.
    """
    kwargs.setdefault("metavar", flag[2:].upper().replace("-", "_"))
    parser.add_argument(flag, dest=key, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embml",
        description="Monte Carlo characterization of adaptive radar detectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    _value_flag(common, "--seed", "scenario.master_seed",
                help="master seed (unsigned 64-bit)")
    _value_flag(common, "--out", "run.out", help="output CSV path")
    _value_flag(common, "--pfa", "run.pfa",
                help="target false-alarm probability")
    _value_flag(common, "--trials", "run.trials",
                help="trials per grid point")
    _value_flag(common, "--detectors", "run.detectors", nargs="+",
                metavar="LABEL",
                help="detector labels (e.g. glrt amf rao ace em-bml-d5 benchmark)")
    _value_flag(common, "--l-max", "run.l_max", nargs="+", metavar="L",
                help="EM iteration caps (defines em-bml-d variants / trace depth)")
    _value_flag(common, "--n", "scenario.n",
                help="pulses per coherent processing interval")
    _value_flag(common, "--k", "scenario.k",
                help="secondary data vectors")
    _value_flag(common, "--rho", "scenario.rho",
                help="clutter one-lag correlation")
    _value_flag(common, "--cnr", "scenario.cnr_db",
                help="clutter-to-noise ratio, dB")
    _value_flag(common, "--doppler", "scenario.doppler",
                help="normalized target Doppler frequency")
    _value_flag(common, "--scnr", "scenario.scnr_db",
                help="scenario signal-to-clutter-plus-noise ratio, dB")
    _value_flag(common, "--cos-sq-phi", "scenario.cos_sq_phi",
                help="scenario steering mismatch cos^2 phi")

    descriptions = {
        "calibrate": "estimate detection thresholds from a null ensemble",
        "pfa-sweep": "empirical Pfa across CNR and rho grids (CFAR check)",
        "pd-curve": "detection probability versus SCNR",
        "mismatch-contour": "Pd over the (cos^2 phi, SCNR) grid",
        "convergence": "mean EM objective change per iteration",
        "ingest-run": "sliding-window detection run on a recorded cube",
    }
    subparsers = {
        name: sub.add_parser(name, parents=[common], help=descriptions[name])
        for name in COMMANDS
    }

    # only the data path of pfa-sweep costs enough per trial for a process
    # pool to pay; every other command runs in one process
    _value_flag(subparsers["pfa-sweep"], "--workers", "run.workers",
                help="parallel worker processes")
    # only these read it: pfa-sweep calibrates on its own trials (its nominal
    # row reuses that ensemble), ingest-run on the cube's windows, and
    # convergence calibrates nothing
    for name in ("calibrate", "pd-curve", "mismatch-contour"):
        _value_flag(subparsers[name], "--calibration-trials",
                    "run.calibration_trials",
                    help="null trials for thresholding")
    _value_flag(subparsers["pfa-sweep"], "--cnr-grid", "grids.cnr_db",
                metavar="DB", nargs="+", help="CNR grid, dB")
    _value_flag(subparsers["pfa-sweep"], "--rho-grid", "grids.rho",
                metavar="RHO", nargs="+", help="one-lag correlation grid")
    for name in ("pd-curve", "mismatch-contour", "convergence"):
        _value_flag(subparsers[name], "--scnr-grid", "grids.scnr_db",
                    metavar="DB", nargs="+", help="SCNR grid, dB")
    _value_flag(subparsers["mismatch-contour"], "--cos-sq-phi-grid",
                "grids.cos_sq_phi", metavar="C", nargs="+",
                help="cos^2 phi grid")
    cube = subparsers["ingest-run"]
    _value_flag(cube, "--cube", "cube.path", help="cube file path")
    _value_flag(cube, "--cube-format", "cube.format",
                help="cube file encoding: interleaved-binary or csv")
    _value_flag(cube, "--cut-bin", "cube.cut_bin",
                help="range bin under test")
    _value_flag(cube, "--eval-bin", "cube.eval_bin",
                help="range bin for rate estimation")
    _value_flag(cube, "--overlap", "cube.overlap",
                help="pulses shared by consecutive windows")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: each add_argument sizes the terminal."""
    return build_parser()


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The config file with the subcommand and every set flag on top."""
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise IoError(f"cannot read config {args.config}: {err}") from err
    overrides: dict[str, dict] = {"run": {"command": args.command}}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            overrides.setdefault(section, {})[key] = value
    return parse_config(text, overrides)


def _run_calibrate(spec: ExperimentSpec) -> str:
    thresholds = calibrate(spec.scenario, spec.detectors, spec.pfa,
                           spec.calibration_trials or spec.trials)
    lines = ["detector,pfa,threshold"]
    for lab in order_labels(thresholds):
        lines.append(f"{lab},{spec.pfa!r},{thresholds[lab]!r}")
    write_text(spec.output_path, "\n".join(lines) + "\n")
    return f"calibrated {len(thresholds)} detectors"


def _run_pfa_sweep(spec: ExperimentSpec) -> str:
    result = cfar_sweep(
        spec.scenario,
        spec.pfa,
        spec.cnr_grid_db,
        spec.rho_grid,
        spec.trials,
        detectors=spec.detectors,
        workers=spec.workers,
    )
    write_curve(result, spec.output_path)
    return f"swept {result.rows} clutter points"


def _run_pd_curve(spec: ExperimentSpec) -> str:
    result = pd_curve(
        spec.scenario,
        spec.pfa,
        spec.scnr_grid_db,
        spec.detectors,
        spec.trials,
        calibration_trials=spec.calibration_trials,
    )
    write_curve(result, spec.output_path)
    return f"estimated Pd at {result.rows} SCNR points"


def _run_mismatch_contour(spec: ExperimentSpec) -> str:
    result = mismatch_contour(
        spec.scenario,
        spec.pfa,
        spec.scnr_grid_db,
        spec.cos_sq_phi_grid,
        spec.detectors,
        spec.trials,
        calibration_trials=spec.calibration_trials,
    )
    write_curve(result, spec.output_path)
    return f"estimated Pd at {result.rows} contour points"


def _run_convergence(spec: ExperimentSpec) -> str:
    configs = [None] + [float(s) for s in spec.scnr_grid_db]
    result = convergence_study(
        spec.scenario, configs, spec.trials, max(spec.l_max)
    )
    write_convergence(result, spec.output_path)
    return f"traced {len(result.iterations)} iterations over {len(configs)} configurations"


def _run_ingest(spec: ExperimentSpec) -> str:
    cube = ingest_cube(spec.cube_path, spec.cube_format)
    result = sliding_window_run(cube, spec)
    write_curve(result.curve, spec.output_path)
    kind = "Pfa" if result.scnr_db is None else "Pd"
    return f"evaluated {kind} over {result.window_count} windows"


_RUNNERS = {
    "calibrate": _run_calibrate,
    "pfa-sweep": _run_pfa_sweep,
    "pd-curve": _run_pd_curve,
    "mismatch-contour": _run_mismatch_contour,
    "convergence": _run_convergence,
    "ingest-run": _run_ingest,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        summary = _RUNNERS[spec.command](spec)
    except BrokenProcessPool as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, FormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ParseError, ValidationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{summary}; wrote {spec.output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
