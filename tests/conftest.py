"""Shared pytest plumbing for the test suite."""

import re
import sys
import threading

import pytest


def _criterion_key(line):
    m = re.match(r"ACCEPTANCE (\d+)(\S*)", line)
    return (int(m.group(1)), m.group(2)) if m else (99, line)


def _simd_groups():
    """numpy's baseline SIMD group and the dispatch groups enabled on this
    CPU, which choose the loops of its ufuncs."""
    from numpy._core import _multiarray_umath as umath

    enabled = umath.__cpu_features__
    return " ".join([*umath.__cpu_baseline__,
                     *(g for g in umath.__cpu_dispatch__ if enabled.get(g))])


def _openblas_core():
    """The kernel that the OpenBLAS bundled with numpy chose for this CPU."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    lib = ctypes.CDLL(glob.glob(os.path.join(libs, "*openblas*"))[0])
    corename = lib.scipy_openblas_get_corename64_
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pytest_report_header():
    """What the pinned bits depend on: the numpy version, its SIMD groups
    and the OpenBLAS kernel. A field that cannot be read prints unknown."""
    import numpy

    fields = {"numpy": lambda: numpy.__version__, "SIMD": _simd_groups,
              "OpenBLAS core": _openblas_core}
    values = []
    for name, read in fields.items():
        try:
            values.append(f"{name} {read() or 'unknown'}")
        except Exception:  # the header never fails the run
            values.append(f"{name} unknown")
    return "; ".join(values)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criteria lines outside of output capture."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(lines, key=_criterion_key):
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves alive a thread it started: a pool worker or
    a FIFO writer, say."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left alive: {', '.join(leaked)}"


@pytest.fixture
def counted_pools(monkeypatch):
    """The keyword arguments of every thread pool the engine builds."""
    from embml import engine

    built = []

    class CountingPool(engine.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "ThreadPoolExecutor", CountingPool)
    return built


@pytest.fixture
def nan_in_second_chunk(monkeypatch):
    """Every engine chunk that starts at trial 4096, the second of the
    default size, returns a NaN AMF statistic 17 trials in, on whichever
    thread computes it. Returns that trial's index."""
    from embml import engine

    compute = engine._compute_chunk
    bad = 4096 + 17

    def spoiled(start, **run):
        part = compute(start, **run)
        if start == 4096 and "amf" in part:
            part["amf"][bad - start] = float("nan")
        return part

    monkeypatch.setattr(engine, "_compute_chunk", spoiled)
    return bad


@pytest.fixture
def non_finite_cube():
    """Writer of a 6 x 4 cube file whose first non-finite sample is the
    imaginary part at pulse 3, range bin 2; a later pulse holds an inf at
    bin 0. The files are patched after writing, since a DataCube holding
    such a sample cannot be built."""
    import numpy as np

    from embml.cube import DataCube, write_cube

    def write(path, format):
        write_cube(DataCube(np.ones((6, 4))), path, format)
        if format == "csv":
            rows = [line.split(",") for line in path.read_text().splitlines()]
            rows[3][2 * 2 + 1] = "nan"
            rows[4][0] = "inf"
            path.write_text("".join(",".join(r) + "\n" for r in rows))
        else:
            raw = bytearray(path.read_bytes())
            samples = np.frombuffer(raw, dtype="<f8", offset=16).reshape(6, 4, 2)
            samples[3, 2, 1] = np.nan
            samples[4, 0, 0] = np.inf
            path.write_bytes(raw)
        return path

    return write
