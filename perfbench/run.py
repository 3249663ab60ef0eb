#!/usr/bin/env python3
"""embml benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload grid-study --seed 7919 --seconds 30 --trace 1

One run of one workload prints the environment, one line per metric with its
unit, and as its last line a JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1 the
per-layer metrics, taken from spans around embml's public functions and
from per-layer timing calls. Times in the end-to-end metrics are scaled to
a reference machine speed (speed.py). See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before NumPy loads here or in any child,
# so that pool workers times BLAS threads never exceeds the cores.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SPAN_ROOT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("null-sweep", "grid-study", "cube-ingest")
DEFAULT_SEED = 2503  # confirm a claimed gain on a second seed, 7919
SETUP_REPEATS = 3
SETUP_REFERENCE_PASSES = 10  # timed by each set-up interpreter after its set-up
MIN_UNTRACED_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "trial/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    **{
        f"engine.{layer}_us_per_trial.{size}": "us/trial"
        for layer in ("generate", "classical", "em", "em_trace", "benchmark")
        for size in ("n8", "n16")
    },
    "engine.simulate_calls": "count",
    "engine.pools_created": "count",
    "harness.threshold_us_per_trial": "us/trial",
    "harness.rate_us_per_trial": "us/trial",
    "harness.self_s": "s",
    "curves.write_s": "s",
    "cli.self_s": "s",
    "cube.synthesize_ns_per_sample": "ns/sample",
    "cube.write_binary_mib_per_s": "MiB/s",
    "cube.write_csv_mib_per_s": "MiB/s",
    "cube.read_binary_mib_per_s": "MiB/s",
    "cube.read_csv_mib_per_s": "MiB/s",
    "cube.window_us_per_window": "us/window",
    "trace.overhead_pct": "%",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", metavar="DIR",
        help="import embml, prepare the workload's inputs in DIR and exit",
    )
    return parser.parse_args(argv)


def import_embml():
    """Import embml from this checkout's src/, never from anywhere else."""
    package = SRC / "embml"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no embml sources at {package}")
    sys.path.insert(0, str(SRC))
    import embml

    if Path(embml.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: embml imported from {embml.__file__}, not {package}")
    return embml


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "git_sha": git_sha(),
        "seed": seed,
        **{var: os.environ[var] for var in BLAS_VARS},
    }


def measure_setup(args, work: Path) -> float:
    """Median scaled wall time of fresh interpreters that import embml and
    prepare the workload's inputs.

    Each interpreter then times reference passes itself, on the CPU it ran
    on; their time is taken off its wall time and they give its scale.
    """
    times = []
    for i in range(SETUP_REPEATS):
        target = work / f"setup-{i}"
        target.mkdir()
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only", str(target),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        reference = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((elapsed - reference["seconds"]) * speed.scale(reference["passes"]))
        shutil.rmtree(target)
    return statistics.median(times)


class Runner:
    """Runs rounds of one workload and keeps what the metrics need."""

    def __init__(self, workload, monitor, tracer, reference):
        self.wl = workload
        self.monitor = monitor
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fault_details: dict[str, str] = {}
        self.first_outputs: dict[str, bytes | None] | None = None
        self.rounds: list[dict] = []
        self.op_command: dict[str, str] = {}

    def _run_op(self, op):
        t0 = time.perf_counter()
        res = op()
        dt = time.perf_counter() - t0
        self.attempted += 1
        if not res.ok:
            self.failed += 1
            self.fault_details.setdefault(op.name, res.detail)
        return res, dt

    def round(self, traced: bool) -> None:
        pools_before = self.monitor.created
        outputs, op_seconds, passes = {}, {}, []
        root = None
        if traced:
            self.tracer.install()
            root = self.tracer.open(f"round{len(self.rounds)}", "bench")
        try:
            for op in self.wl.ops():
                passes.append(self.reference.pass_seconds())
                res, op_seconds[op.name] = self._run_op(op)
                self.op_command[op.name] = op.command
                outputs[op.name] = res.output if res.ok else None
        finally:
            if traced:
                self.tracer.close(root)
                self.tracer.uninstall()
        self.rounds.append({
            "traced": traced, "op_seconds": op_seconds, "passes": passes,
            "pools": self.monitor.created - pools_before, "root": root,
        })
        self._check(outputs)

    def _check(self, outputs) -> None:
        if self.first_outputs is None:
            self.first_outputs = outputs
            failed = [name for name, out in outputs.items()
                      if out is None and name not in self.wl.KNOWN_FAULTS]
            if failed:
                print(f"# checks skipped: operations failed: {', '.join(failed)}")
                return
            self.problems += self.wl.check(outputs)
            return
        for name, out in outputs.items():
            if out != self.first_outputs.get(name):
                self.problems.append(f"{name}: output differs from the first round's")

    def extra(self) -> None:
        for op in self.wl.extra_ops():
            self._run_op(op)

    def scaled(self, traced: bool) -> dict[str, float]:
        """Each operation's mean time over the rounds, scaled to reference speed."""
        times, passes = defaultdict(list), []
        for r in self.rounds:
            if r["traced"] == traced:
                passes += r["passes"]
                for name, dt in r["op_seconds"].items():
                    times[name].append(dt)
        factor = speed.scale(passes)
        return {name: statistics.fmean(ts) * factor for name, ts in times.items()}


def run_rounds(runner: Runner, start: float, seconds: float, cycle, min_cycles: int) -> None:
    """Repeat the cycle of rounds until another cycle would pass the budget."""
    cycles = 0
    while True:
        for traced in cycle:
            runner.round(traced)
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= min_cycles and elapsed + elapsed / cycles > seconds:
            return


def untraced_metrics(runner: Runner, setup_s: float) -> tuple[dict, dict]:
    from tracing import vm_hwm_kib

    op_seconds = runner.scaled(traced=False)
    trials = runner.wl.trials_per_round
    metrics = {
        "setup_s": setup_s,
        "trials_per_s": trials / sum(op_seconds.values()),
        "peak_rss_mib": (vm_hwm_kib() + runner.monitor.peak_worker_kib) / 1024.0,
    }
    info = defaultdict(float)
    for name, dt in op_seconds.items():
        command = runner.op_command[name]
        info[command if command.startswith("cube.") else f"cli.{command}"] += dt
    info = {f"{key}_s": info[key] for key in sorted(info)}
    raw = [sum(r["op_seconds"].values()) for r in runner.rounds]
    info["unscaled_trials_per_s"] = trials / statistics.median(raw)
    info["round_seconds"] = [round(t, 4) for t in raw]
    info["round_scale"] = [round(speed.scale(r["passes"]), 4) for r in runner.rounds]
    return metrics, info


def traced_metrics(runner: Runner, layer_metrics: dict) -> tuple[dict, dict]:
    from tracing import self_times, subtree

    spans = runner.tracer.spans
    per_round = defaultdict(list)
    for r in runner.rounds:
        if not r["traced"]:
            continue
        sub = subtree(spans, r["root"])
        own = self_times(sub)
        per_round["harness.self_s"].append(own["harness"])
        per_round["cli.self_s"].append(own["cli"])
        per_round["curves.write_s"].append(sum(sp.duration for sp in sub if sp.layer == "curves"))
        per_round["engine.simulate_calls"].append(
            sum(sp.name == "engine.simulate_statistics" for sp in sub)
        )
        per_round["engine.pools_created"].append(r["pools"])
    metrics = dict(layer_metrics)
    metrics.update({name: statistics.median(vals) for name, vals in per_round.items()})
    traced = sum(runner.scaled(traced=True).values())
    untraced = sum(runner.scaled(traced=False).values())
    metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    info = {"rounds": len(runner.rounds), "spans": len(spans)}
    return metrics, info


def write_spans(tracer, workload: str, seed: int) -> Path:
    SPAN_ROOT.mkdir(exist_ok=True)
    path = SPAN_ROOT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps([vars(sp) for sp in tracer.spans]), encoding="ascii")
    return path


def run_one(args) -> int:
    import_embml()
    from layers import all_layers
    from tracing import PoolMonitor, Tracer
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed, Path(args.setup_only))
        t0 = time.perf_counter()
        reference = speed.Reference()
        passes = [reference.pass_seconds() for _ in range(SETUP_REFERENCE_PASSES)]
        print(json.dumps({"seconds": time.perf_counter() - t0, "passes": passes}))
        return 0

    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    monitor = PoolMonitor()
    monitor.install()
    reference = speed.Reference()
    try:
        if args.trace:
            start = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, work)
            runner = Runner(workload, monitor, Tracer(), reference)
            layer_metrics = all_layers(args.seed, work)
            run_rounds(runner, start, args.seconds, (False, True), 1)
            runner.extra()
            metrics, info = traced_metrics(runner, layer_metrics)
            info["span_file"] = str(write_spans(runner.tracer, args.workload, args.seed).relative_to(ROOT))
            units = PER_LAYER
        else:
            setup_s = measure_setup(args, work)
            workload = WORKLOADS[args.workload](args.seed, work)
            runner = Runner(workload, monitor, Tracer(), reference)
            run_rounds(runner, time.perf_counter(), args.seconds, (False,), MIN_UNTRACED_ROUNDS)
            runner.extra()
            metrics, info = untraced_metrics(runner, setup_s)
            units = END_TO_END
    finally:
        monitor.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for name, detail in runner.fault_details.items():
        print(f"# failed {name}: {detail}")
    for problem in runner.problems:
        print(f"# check failed: {problem}")
    for name, value in info.items():
        print(f"# {name} {value}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter; a combined summary line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"## {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        if args.setup_only:
            raise SystemExit("perfbench: --setup-only needs one workload")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
