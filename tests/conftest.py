"""Shared fixtures and the acceptance-criteria summary hook.

Acceptance tests register one outcome per criterion via ``record_criterion``;
after the run, the terminal summary prints exactly one pass/fail line per
criterion so the benchmark gate is readable at a glance.
"""

from __future__ import annotations

import numpy as np
import pytest

from ordnet import GroupedDataset, SimulationConfig, simulate_experiment

_CRITERIA: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _CRITERIA[number] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        passed, detail = _CRITERIA[number]
        verdict = "PASS" if passed else "FAIL"
        markup = {"green": True} if passed else {"red": True}
        tr.write(f"criterion {number}: {verdict}", **markup)
        tr.write_line(f" - {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def small_experiment():
    """P=10 two-trajectory benchmark dataset reused by integration tests."""
    config = SimulationConfig(
        p=10,
        levels=(1, 2, 3, 4),
        n_base_edges=10,
        n_appearing=5,
        n_disappearing=5,
        n_per_group=120,
        seed=7,
    )
    dataset, truth = simulate_experiment(config)
    return dataset.prepare(), truth


def with_pair(matrix, pair, value) -> np.ndarray:
    """A copy of ``matrix`` with ``value`` at ``pair`` and at its mirror.

    A state's per-edge fields read as read-only matrices, so a test sets an
    edge by assigning the whole matrix: ``state.ez[a] = with_pair(state.ez[a],
    (0, 1), 0.5)``.
    """
    out = np.array(matrix, dtype=float)
    out[pair] = out[pair[::-1]] = value
    return out


def grouped_from_arrays(levels, arrays) -> GroupedDataset:
    return GroupedDataset(levels=tuple(levels), data=tuple(arrays)).prepare()
