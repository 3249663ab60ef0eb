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
