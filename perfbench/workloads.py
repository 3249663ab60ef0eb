"""The benchmark's workloads: inputs, one round of operations, and checks.

A workload writes its config files (and any fixed input files) into a work
directory, then runs the same list of operations every round. Operations go
through embml.cli.main in-process, or through the embml.cube API where no
subcommand exists. Every round uses the same inputs, so its outputs must
equal the first round's byte for byte; the statistical checks run on the
first round's outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from embml import cli
from embml import cube as cube_api
from embml.scenario import ScenarioConfig

import checks

CLASSICAL = ("glrt", "amf", "rao", "ace")
EM_CAPS = ("em-bml-d5", "em-bml-d7")
SIX = CLASSICAL + EM_CAPS


@dataclass
class OpResult:
    ok: bool
    output: bytes | None = None
    detail: str = ""


@dataclass
class Op:
    name: str  # unique within a round
    command: str  # CLI subcommand, or "cube.<function>" for API calls
    run: Callable[[], OpResult]

    def __call__(self) -> OpResult:
        try:
            return self.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            return OpResult(False, detail=f"{type(exc).__name__}: {exc}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """embml.cli.main in-process with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue().strip()


def cli_op(name: str, command: str, config: Path, out_path: Path) -> Op:
    def run() -> OpResult:
        rc, err = run_cli([command, "--config", str(config)])
        if rc != 0:
            return OpResult(False, detail=f"exit {rc}: {err}")
        return OpResult(True, out_path.read_bytes())

    return Op(name, command, run)


def write_ini(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        for key, value in items.items():
            if isinstance(value, (list, tuple)):
                value = " ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="ascii")
    return path


def digest(data: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).digest()


def _rate(row: dict[str, str], label: str) -> float:
    return float(row[f"{label}_rate"])


class Workload:
    name = ""
    # operations that fail today because of a known fault in embml
    KNOWN_FAULTS: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # one master seed per CLI call, all drawn from the workload seed
        self._rng = random.Random(seed)
        self.prepare()

    def next_seed(self) -> int:
        return self._rng.getrandbits(63)

    def prepare(self) -> None:
        """Write config files and fixed inputs (the measured set-up)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def extra_ops(self) -> list[Op]:
        """Operations run once per run, outside the timed phase."""
        return []

    trials_per_round = 0

    def check(self, outputs: dict[str, bytes | None]) -> list[str]:
        """Problems found in one round's outputs (empty when correct)."""
        return []


class NullSweep(Workload):
    """calibrate, then pfa-sweep over two off-nominal clutter points."""

    name = "null-sweep"
    N, K, PFA, TRIALS = 8, 16, 0.05, 2000
    CNR0, RHO0 = 30.0, 0.9
    CNR_GRID, RHO_GRID = (30.0, 70.0), (0.5, 0.9)

    def prepare(self):
        scenario = {"n": self.N, "k": self.K, "rho": self.RHO0, "cnr_db": self.CNR0}
        run = {"detectors": SIX, "pfa": self.PFA, "trials": self.TRIALS, "workers": 1}
        self.cal_out = self.workdir / "thresholds.csv"
        self.sweep_out = self.workdir / "cfar.csv"
        self.cal_ini = write_ini(self.workdir / "calibrate.ini", {
            "run": {**run, "command": "calibrate", "out": self.cal_out},
            "scenario": {**scenario, "master_seed": self.next_seed()},
        })
        self.sweep_ini = write_ini(self.workdir / "pfa-sweep.ini", {
            "run": {**run, "command": "pfa-sweep", "out": self.sweep_out},
            "scenario": {**scenario, "master_seed": self.next_seed()},
            "grids": {"cnr_db": self.CNR_GRID, "rho": self.RHO_GRID},
        })
        points = {(c, self.RHO0) for c in self.CNR_GRID}
        points |= {(self.CNR0, r) for r in self.RHO_GRID}
        self.points = sorted(points)
        off_nominal = len(points) - 1
        # calibrate, then pfa-sweep's own calibration and its off-nominal points
        self.trials_per_round = self.TRIALS * (2 + off_nominal)

    def ops(self):
        return [
            cli_op("calibrate", "calibrate", self.cal_ini, self.cal_out),
            cli_op("pfa-sweep", "pfa-sweep", self.sweep_ini, self.sweep_out),
        ]

    def check(self, outputs):
        problems = []
        z = checks.bonferroni_z(1 + len(self.points) * len(SIX))
        cal = {row["detector"]: float(row["threshold"]) for row in checks.parse_csv(outputs["calibrate"])}
        if sorted(cal) != sorted(SIX):
            problems.append(f"calibrate reported detectors {sorted(cal)}")
        elif (p := checks.check_glrt_threshold(cal["glrt"], self.N, self.K, self.PFA, self.TRIALS, z)):
            problems.append(p)
        rows = checks.parse_csv(outputs["pfa-sweep"])
        got_points = [(float(r["cnr_db"]), float(r["rho"])) for r in rows]
        if got_points != self.points:
            problems.append(f"pfa-sweep rows {got_points}, expected {self.points}")
            return problems
        for row, (cnr, rho) in zip(rows, self.points):
            for lab in SIX:
                p = checks.check_null_rate(
                    _rate(row, lab), self.PFA, self.TRIALS, self.TRIALS, z,
                    f"pfa-sweep {lab} at CNR {cnr:g} dB, rho {rho:g}",
                )
                if p:
                    problems.append(p)
        return problems


class GridStudy(Workload):
    """pd-curve, mismatch-contour and convergence with two workers."""

    name = "grid-study"
    N, K = 16, 32
    WORKERS = min(2, len(os.sched_getaffinity(0)))  # never more workers than CPUs
    # pd-curve: 4608 trials per point is two chunks, so every point starts a pool
    PD_PFA, PD_CAL, PD_TRIALS = 0.02, 5000, 4608
    PD_SCNR = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0)
    PD_DETECTORS = ("benchmark", "glrt", "amf")
    MC_PFA, MC_CAL, MC_TRIALS = 0.05, 2000, 1000
    MC_SCNR, MC_COS_SQ = (12.0,), (0.25, 0.5, 1.0)
    MC_DETECTORS = ("benchmark", "amf") + EM_CAPS
    CV_TRIALS, CV_LMAX, CV_SCNR = 1000, 6, (15.0,)

    def prepare(self):
        scenario = {"n": self.N, "k": self.K}
        self.pd_out = self.workdir / "pd.csv"
        self.mc_out = self.workdir / "contour.csv"
        self.cv_out = self.workdir / "convergence.csv"
        self.pd_ini = write_ini(self.workdir / "pd-curve.ini", {
            "run": {"command": "pd-curve", "detectors": self.PD_DETECTORS,
                    "pfa": self.PD_PFA, "trials": self.PD_TRIALS,
                    "calibration_trials": self.PD_CAL, "workers": self.WORKERS,
                    "out": self.pd_out},
            "scenario": {**scenario, "master_seed": self.next_seed()},
            "grids": {"scnr_db": self.PD_SCNR},
        })
        self.mc_ini = write_ini(self.workdir / "mismatch-contour.ini", {
            "run": {"command": "mismatch-contour", "detectors": self.MC_DETECTORS,
                    "pfa": self.MC_PFA, "trials": self.MC_TRIALS,
                    "calibration_trials": self.MC_CAL, "workers": self.WORKERS,
                    "out": self.mc_out},
            "scenario": {**scenario, "master_seed": self.next_seed()},
            "grids": {"scnr_db": self.MC_SCNR, "cos_sq_phi": self.MC_COS_SQ},
        })
        self.cv_ini = write_ini(self.workdir / "convergence.ini", {
            "run": {"command": "convergence", "trials": self.CV_TRIALS,
                    "l_max": self.CV_LMAX, "workers": self.WORKERS,
                    "out": self.cv_out},
            "scenario": {**scenario, "master_seed": self.next_seed()},
            "grids": {"scnr_db": self.CV_SCNR},
        })
        # reduced pd-curve run with one and with two workers
        self.repro = {}
        repro_seed = self.next_seed()
        for workers in (1, 2):
            out = self.workdir / f"repro-w{workers}.csv"
            ini = write_ini(self.workdir / f"repro-w{workers}.ini", {
                "run": {"command": "pd-curve", "detectors": ("benchmark", "glrt"),
                        "pfa": self.PD_PFA, "trials": self.PD_TRIALS,
                        "calibration_trials": self.PD_CAL, "workers": workers,
                        "out": out},
                "scenario": {**scenario, "master_seed": repro_seed},
                "grids": {"scnr_db": (6.0,)},
            })
            self.repro[workers] = (ini, out)
        self.trials_per_round = (
            self.PD_CAL + self.PD_TRIALS * len(self.PD_SCNR)
            + self.MC_CAL + self.MC_TRIALS * len(self.MC_SCNR) * len(self.MC_COS_SQ)
            + self.CV_TRIALS * (1 + len(self.CV_SCNR))
        )

    def ops(self):
        return [
            cli_op("pd-curve", "pd-curve", self.pd_ini, self.pd_out),
            cli_op("mismatch-contour", "mismatch-contour", self.mc_ini, self.mc_out),
            cli_op("convergence", "convergence", self.cv_ini, self.cv_out),
        ]

    def extra_ops(self):
        def run() -> OpResult:
            outputs = []
            for workers in (1, 2):
                ini, out = self.repro[workers]
                rc, err = run_cli(["pd-curve", "--config", str(ini)])
                if rc != 0:
                    return OpResult(False, detail=f"pd-curve --workers {workers}: exit {rc}: {err}")
                outputs.append(out.read_bytes())
            if outputs[0] != outputs[1]:
                return OpResult(False, detail="pd-curve CSVs differ between 1 and 2 workers")
            return OpResult(True, outputs[0])

        return [Op("worker-count-identity", "pd-curve", run)]

    def check(self, outputs):
        problems = []
        z = checks.bonferroni_z(len(self.PD_SCNR) + len(self.MC_SCNR) * len(self.MC_COS_SQ))
        pd_rows = checks.parse_csv(outputs["pd-curve"])
        if [float(r["scnr_db"]) for r in pd_rows] != list(self.PD_SCNR):
            return [f"pd-curve rows {[r['scnr_db'] for r in pd_rows]}"]
        for row in pd_rows:
            p = checks.check_clairvoyant_pd(
                _rate(row, "benchmark"), self.PD_PFA, float(row["scnr_db"]), 1.0,
                self.PD_TRIALS, self.PD_CAL, z,
            )
            if p:
                problems.append("pd-curve: " + p)
        mc_rows = checks.parse_csv(outputs["mismatch-contour"])
        expected = sorted((c, s) for c in self.MC_COS_SQ for s in self.MC_SCNR)
        got = [(float(r["cos_sq_phi"]), float(r["scnr_db"])) for r in mc_rows]
        if got != expected:
            return problems + [f"mismatch-contour rows {got}, expected {expected}"]
        for row, (cos_sq, scnr) in zip(mc_rows, expected):
            p = checks.check_clairvoyant_pd(
                _rate(row, "benchmark"), self.MC_PFA, scnr, cos_sq,
                self.MC_TRIALS, self.MC_CAL, z,
            )
            if p:
                problems.append("mismatch-contour: " + p)
            p = checks.check_em_caps(
                _rate(row, "em-bml-d5"), _rate(row, "em-bml-d7"),
                f"mismatch-contour at cos^2 phi {cos_sq:g}, SCNR {scnr:g} dB",
            )
            if p:
                problems.append(p)
        cv_rows = checks.parse_csv(outputs["convergence"])
        h0 = {int(r["iteration"]): float(r["h0_mean_delta"]) for r in cv_rows}
        p = checks.check_h0_convergence(h0)
        if p:
            problems.append("convergence: " + p)
        return problems


class CubeIngest(Workload):
    """Synthesize a cube, write and read it in both formats, ingest-run each
    file as a Pfa run and a Pd run, and ingest-run a zero-region cube."""

    name = "cube-ingest"
    N, K, PFA, SCNR = 8, 16, 0.1, 10.0
    WINDOWS = 1000  # per range bin, the least that calibrates Pfa 0.1
    BINS, CUT_BIN, EVAL_BIN = 18, 8, 9
    # the zero-region cube: calibration region bins 0..16, evaluation region 17..33
    ZERO_BINS, ZERO_CUT, ZERO_EVAL = 34, 8, 25
    # exits 2 with a bare "Singular matrix" instead of 3 naming bin and window
    KNOWN_FAULTS = ("ingest-zero-region",)

    def prepare(self):
        self.cfg = ScenarioConfig(n=self.N, k=self.K, master_seed=self.next_seed())
        self.pulses = self.N * self.WINDOWS
        self.bin_path = self.workdir / "cube.bin"
        self.csv_path = self.workdir / "cube.csv"
        self.runs = {}
        for name, fmt, path, scnr in (
            ("ingest-pfa-bin", "interleaved-binary", self.bin_path, "none"),
            ("ingest-pfa-csv", "csv", self.csv_path, "none"),
            ("ingest-pd-bin", "interleaved-binary", self.bin_path, self.SCNR),
        ):
            out = self.workdir / f"{name}.csv"
            ini = write_ini(self.workdir / f"{name}.ini", {
                "run": {"command": "ingest-run", "detectors": SIX, "pfa": self.PFA,
                        "workers": 1, "out": out},
                "scenario": {"n": self.N, "k": self.K, "scnr_db": scnr,
                             "master_seed": self.cfg.master_seed},
                "cube": {"path": path, "format": fmt, "cut_bin": self.CUT_BIN,
                         "eval_bin": self.EVAL_BIN, "overlap": 0},
            })
            self.runs[name] = (ini, out)

        zero_cfg = ScenarioConfig(n=self.N, k=self.K, master_seed=self.next_seed())
        data = cube_api.synthesize_cube(zero_cfg, self.pulses, self.ZERO_BINS).data.copy()
        data[:, self.ZERO_EVAL - self.K // 2:] = 0.0
        self.zero_path = self.workdir / "zero-region.bin"
        cube_api.write_cube_binary(cube_api.DataCube(data), self.zero_path)
        self.zero_out = self.workdir / "ingest-zero.csv"
        self.zero_ini = write_ini(self.workdir / "ingest-zero.ini", {
            "run": {"command": "ingest-run", "detectors": SIX, "pfa": self.PFA,
                    "workers": 1, "out": self.zero_out},
            "scenario": {"n": self.N, "k": self.K},
            "cube": {"path": self.zero_path, "format": "interleaved-binary",
                     "cut_bin": self.ZERO_CUT, "eval_bin": self.ZERO_EVAL, "overlap": 0},
        })
        # calibration and evaluation windows of the three ingest runs
        self.trials_per_round = len(self.runs) * 2 * self.WINDOWS

    def ops(self):
        state = {}

        def synthesize() -> OpResult:
            state["cube"] = cube_api.synthesize_cube(self.cfg, self.pulses, self.BINS)
            return OpResult(True, digest(state["cube"].data))

        def writer(fmt, path):
            def run() -> OpResult:
                cube_api.write_cube(state["cube"], path, fmt)
                return OpResult(True, hashlib.sha256(path.read_bytes()).digest())
            return run

        def reader(fmt, path):
            def run() -> OpResult:
                return OpResult(True, digest(cube_api.ingest_cube(path, fmt).data))
            return run

        def zero_region() -> OpResult:
            rc, err = run_cli(["ingest-run", "--config", str(self.zero_ini)])
            names_place = (
                re.search(rf"\bbin\s*[=:]?\s*{self.ZERO_EVAL}\b", err)
                and re.search(r"\bwindow\s*[=:]?\s*\d+", err)
            )
            if rc == 3 and names_place:
                return OpResult(True, detail=err)
            return OpResult(False, detail=f"exit {rc}: {err}")

        ops = [
            Op("synthesize", "cube.synthesize_cube", synthesize),
            Op("write-bin", "cube.write_cube", writer("interleaved-binary", self.bin_path)),
            Op("write-csv", "cube.write_cube", writer("csv", self.csv_path)),
            Op("read-bin", "cube.ingest_cube", reader("interleaved-binary", self.bin_path)),
            Op("read-csv", "cube.ingest_cube", reader("csv", self.csv_path)),
        ]
        ops += [cli_op(name, "ingest-run", ini, out) for name, (ini, out) in self.runs.items()]
        ops.append(Op("ingest-zero-region", "ingest-run", zero_region))
        return ops

    def check(self, outputs):
        problems = []
        for name in ("read-bin", "read-csv"):
            if outputs.get(name) != outputs["synthesize"]:
                problems.append(f"{name}: cube read back differs from the synthesized cube")
        if outputs["ingest-pfa-bin"] != outputs["ingest-pfa-csv"]:
            problems.append("ingest-run: binary and CSV cubes give different CSVs")
        pfa_row = checks.parse_csv(outputs["ingest-pfa-bin"])[0]
        pd_row = checks.parse_csv(outputs["ingest-pd-bin"])[0]
        z = checks.bonferroni_z(len(SIX))
        for lab in SIX:
            p = checks.check_null_rate(
                _rate(pfa_row, lab), self.PFA, self.WINDOWS, self.WINDOWS, z,
                f"ingest-run Pfa {lab}",
            )
            if p:
                problems.append(p)
            if not _rate(pd_row, lab) > _rate(pfa_row, lab):
                problems.append(f"ingest-run {lab}: Pd {_rate(pd_row, lab)} not above Pfa {_rate(pfa_row, lab)}")
        return problems


WORKLOADS = {w.name: w for w in (NullSweep, GridStudy, CubeIngest)}
