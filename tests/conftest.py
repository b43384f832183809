"""Shared fixtures, the acceptance-criteria terminal summary, and the choice
of pinned bytes by SIMD target."""

import functools
import importlib.util
import os

import numpy as np
import pytest

#: One line per acceptance criterion, echoed after the test run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def record_criterion():
    """Record one acceptance line, print it, and assert the verdict."""

    def _record(cid: str, name: str, ok: bool, detail: str = ""):
        line = f"[acceptance] {cid} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return _record


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@functools.cache
def simd_found():
    """The SIMD targets numpy dispatches to on this CPU, the ``found`` list
    of ``np.show_runtime()``, by the probe that ``tools/bench_pairs.py``
    records with each benchmark."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs._simd_found()


def pin_target(pinned):
    """The first target of ``pinned``, which lists them widest first, that
    numpy found; the test fails when numpy found none of them."""
    found = simd_found()
    for target in pinned:
        if target in found:
            return target
    pytest.fail(f"no pinned bytes for this CPU: numpy found SIMD targets"
                f" {' '.join(found) or '(none)'}, pins exist for {', '.join(pinned)}")
