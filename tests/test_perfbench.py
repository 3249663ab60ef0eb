"""The embml call surface the benchmark in perfbench/ relies on.

perfbench wraps embml's public functions by name, swaps
engine.ProcessPoolExecutor and calls the engine, harness and cube APIs
with fixed arguments; a rename or a dropped argument there fails only
when the benchmark runs. This runs its per-layer timings once under both
hooks.
"""

import math
import sys
from pathlib import Path

import embml.cli  # noqa: F401  (the tracer wraps embml.cli.main)
import embml.engine as engine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from tracing import TRACED, PoolMonitor, Tracer  # noqa: E402


def test_layers_run_under_tracer_and_pool_monitor(tmp_path):
    originals = {
        (module, attr): getattr(sys.modules[module], attr)
        for _, module, attr in TRACED
    }
    base_pool = engine.ProcessPoolExecutor
    tracer, monitor = Tracer(), PoolMonitor()
    tracer.install()
    monitor.install()
    try:
        assert issubclass(engine.ProcessPoolExecutor, base_pool)
        metrics = layers.all_layers(2503, tmp_path)
    finally:
        monitor.uninstall()
        tracer.uninstall()

    assert metrics
    for name, value in metrics.items():
        assert math.isfinite(value) and value > 0, name
    traced = {sp.name for sp in tracer.spans}
    # calls made inside embml; layers' own direct calls are not wrapped
    for name in ("cube.sliding_window_run", "engine.statistics_from_stacks",
                 "engine.benchmark_statistic_from_aux"):
        assert name in traced
    assert engine.ProcessPoolExecutor is base_pool
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn
