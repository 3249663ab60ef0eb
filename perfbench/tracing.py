"""Spans around embml's public functions, recorded from outside the package.

Tracer.install replaces each traced function by a wrapper in every embml
module that holds it (cli imports harness functions by name, for example),
so calls made inside the package are caught too. Spans stay in memory and
are written out by the caller when the run ends. Spans recorded inside pool
worker processes stay in those processes and are lost; the parent's span
around the pooled call covers them.

PoolMonitor replaces embml.engine.ProcessPoolExecutor by a subclass that
counts pools and samples the workers' peak resident set before shutdown.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (layer, module, function) for every traced public function
TRACED = (
    ("cli", "embml.cli", "main"),
    ("harness", "embml.harness", "calibrate"),
    ("harness", "embml.harness", "cfar_sweep"),
    ("harness", "embml.harness", "pd_curve"),
    ("harness", "embml.harness", "mismatch_contour"),
    ("harness", "embml.harness", "convergence_study"),
    ("harness", "embml.harness", "calibrate_threshold"),
    ("harness", "embml.harness", "estimate_rate"),
    ("engine", "embml.engine", "simulate_statistics"),
    ("engine", "embml.engine", "statistics_from_stacks"),
    ("engine", "embml.engine", "benchmark_statistic_from_aux"),
    ("curves", "embml.curves", "write_curve"),
    ("curves", "embml.curves", "write_convergence"),
    ("cube", "embml.cube", "synthesize_cube"),
    ("cube", "embml.cube", "write_cube"),
    ("cube", "embml.cube", "write_cube_binary"),
    ("cube", "embml.cube", "write_cube_csv"),
    ("cube", "embml.cube", "ingest_cube"),
    ("cube", "embml.cube", "read_cube_binary"),
    ("cube", "embml.cube", "read_cube_csv"),
    ("cube", "embml.cube", "sliding_window_run"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str) -> Span:
        """Start a span under the innermost open one."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sp)

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "embml" or name.startswith("embml."))
        ]
        for layer, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, f"{layer}.{attr}", layer)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """root and every span below it (spans are stored parents first)."""
    inside = {root.id}
    out = [root]
    for sp in spans[root.id + 1:]:
        if sp.parent in inside:
            inside.add(sp.id)
            out.append(sp)
    return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer not covered by a child span.

    Spans nest on one thread, so a span's children never overlap and the
    covered part of its interval is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.duration
    out: dict[str, float] = defaultdict(float)
    for sp in spans:
        out[sp.layer] += sp.duration - covered[sp.id]
    return out


class PoolMonitor:
    """Counts embml.engine process pools and their workers' peak memory."""

    def __init__(self):
        self.created = 0
        self.peak_worker_kib = 0
        self._restore = None

    def install(self) -> None:
        import embml.engine as engine

        base = engine.ProcessPoolExecutor
        monitor = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                monitor.created += 1
                super().__init__(*args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                # workers are still alive here; sample them before they exit
                pids = list((getattr(self, "_processes", None) or {}).keys())
                total = sum(vm_hwm_kib(pid) for pid in pids)
                monitor.peak_worker_kib = max(monitor.peak_worker_kib, total)
                super().shutdown(wait=wait, **kwargs)

        engine.ProcessPoolExecutor = CountingPool
        self._restore = (engine, base)

    def uninstall(self) -> None:
        if self._restore is not None:
            engine, base = self._restore
            engine.ProcessPoolExecutor = base
            self._restore = None


def vm_hwm_kib(pid: int | str = "self") -> int:
    """Peak resident set (VmHWM) of a process in KiB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
