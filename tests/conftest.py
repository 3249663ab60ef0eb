"""Shared pytest plumbing for the test suite."""

import multiprocessing
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest


def _criterion_key(line):
    m = re.match(r"ACCEPTANCE (\d+)(\S*)", line)
    return (int(m.group(1)), m.group(2)) if m else (99, line)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criteria lines outside of output capture."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(lines, key=_criterion_key):
        terminalreporter.write_line(line)


def _die(args):
    os._exit(1)


@pytest.fixture
def crashing_workers(monkeypatch):
    """Every pooled chunk kills its (forked) worker process."""
    from embml import engine

    monkeypatch.setattr(engine, "_compute_chunk", _die)
    monkeypatch.setattr(engine, "ProcessPoolExecutor", partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


@pytest.fixture
def counted_pools(monkeypatch):
    """The keyword arguments of every process pool the engine builds."""
    from embml import engine

    built = []

    class CountingPool(engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
    return built


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
