"""Per-layer timings: calls into embml's public functions on generated inputs.

Each measurement repeats a call REPEATS times on fixed inputs and keeps the
median, so one slow repeat does not move it. Inputs come from the run seed
through NumPy's own generator, not from embml's trial streams.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from embml import cube as cube_api
from embml.config import ExperimentSpec
from embml.engine import simulate_statistics, statistics_from_stacks
from embml.harness import TrialEnsemble, calibrate_threshold, estimate_rate
from embml.scenario import (
    ScenarioConfig,
    build_covariance,
    injection_amplitude,
    steering_vector,
)

from tracing import Tracer

REPEATS = 3
# (label, n, k, trials per call)
SIZES = (("n8", 8, 16, 1024), ("n16", 16, 32, 512))


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _stacks(rng: np.random.Generator, chol: np.ndarray, n: int, k: int, trials: int):
    w = rng.standard_normal((2, trials, n, k + 1))
    zfull = chol @ ((w[0] + 1j * w[1]) / np.sqrt(2.0))
    return np.ascontiguousarray(zfull[:, :, 0]), np.ascontiguousarray(zfull[:, :, 1:])


def engine_layers(seed: int) -> dict[str, float]:
    """us/trial of generation and of each group of statistics, per size."""
    out = {}
    rng = np.random.default_rng(seed)
    for label, n, k, trials in SIZES:
        cfg = ScenarioConfig(n=n, k=k, master_seed=seed)
        m = build_covariance(cfg)
        v = steering_vector(n, cfg.doppler)
        z, zs = _stacks(rng, m.chol, n, k, trials)
        calls = {
            "generate": lambda: simulate_statistics(cfg, (), trials),
            "classical": lambda: statistics_from_stacks(z, zs, v, ("glrt", "amf", "rao", "ace")),
            "em": lambda: statistics_from_stacks(z, zs, v, ("em-bml-d5", "em-bml-d7")),
            "em_trace": lambda: statistics_from_stacks(
                z, zs, v, (), record_em_trace=True, trace_l_max=6
            ),
            "benchmark": lambda: statistics_from_stacks(
                z, zs, v, ("benchmark",), true_m=m,
                alpha_hyp=injection_amplitude(v, m, 10.0),
            ),
        }
        for name, fn in calls.items():
            out[f"engine.{name}_us_per_trial.{label}"] = _median_seconds(fn) / trials * 1e6
    return out


def harness_layers(seed: int, trials: int = 100_000) -> dict[str, float]:
    """us/trial of the threshold sort and of rate estimation."""
    rng = np.random.default_rng(seed)
    stats = rng.exponential(size=trials)
    cfg = ScenarioConfig()
    threshold = _median_seconds(
        lambda: calibrate_threshold(TrialEnsemble("glrt", stats, cfg), 1e-3)
    )
    thr = calibrate_threshold(TrialEnsemble("glrt", stats, cfg), 1e-3)
    rate = _median_seconds(lambda: estimate_rate(stats, thr))
    return {
        "harness.threshold_us_per_trial": threshold / trials * 1e6,
        "harness.rate_us_per_trial": rate / trials * 1e6,
    }


def cube_layers(seed: int, workdir: Path) -> dict[str, float]:
    """Cube synthesis, binary and CSV throughput, and window extraction."""
    pulses, bins = 2048, 32
    cfg = ScenarioConfig(master_seed=seed)
    out = {
        "cube.synthesize_ns_per_sample": _median_seconds(
            lambda: cube_api.synthesize_cube(cfg, pulses, bins)
        ) / (pulses * bins) * 1e9,
    }
    cube = cube_api.synthesize_cube(cfg, pulses, bins)
    for fmt, tag in (("interleaved-binary", "binary"), ("csv", "csv")):
        path = workdir / f"layers-cube.{tag}"
        write = _median_seconds(lambda: cube_api.write_cube(cube, path, fmt))
        mib = path.stat().st_size / 2**20
        read = _median_seconds(lambda: cube_api.ingest_cube(path, fmt))
        out[f"cube.write_{tag}_mib_per_s"] = mib / write
        out[f"cube.read_{tag}_mib_per_s"] = mib / read
        path.unlink()

    # sliding_window_run minus its statistics_from_stacks children, per window
    n, k, windows = 8, 16, 500
    window_cfg = ScenarioConfig(n=n, k=k, master_seed=seed)
    window_cube = cube_api.synthesize_cube(window_cfg, n * windows, k + 2)
    spec = ExperimentSpec(
        command="ingest-run", scenario=window_cfg, pfa=0.2,
        detectors=("glrt", "amf", "rao", "ace", "em-bml-d5", "em-bml-d7"),
        cube_path="in-memory", cube_cut_bin=k // 2, cube_eval_bin=k // 2 + 1,
        cube_overlap=0,
    )
    per_window = []
    for _ in range(REPEATS):
        tracer = Tracer()
        with tracer:
            cube_api.sliding_window_run(window_cube, spec)
        root = next(sp for sp in tracer.spans if sp.name == "cube.sliding_window_run")
        stats_time = sum(
            sp.duration for sp in tracer.spans
            if sp.parent == root.id and sp.name == "engine.statistics_from_stacks"
        )
        per_window.append((root.duration - stats_time) / (2 * windows))
    out["cube.window_us_per_window"] = statistics.median(per_window) * 1e6
    return out


def all_layers(seed: int, workdir: Path) -> dict[str, float]:
    return {**engine_layers(seed), **harness_layers(seed), **cube_layers(seed, workdir)}
