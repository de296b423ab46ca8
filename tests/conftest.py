"""Shared fixtures for the test suite."""

import multiprocessing

import numpy as np
import pytest

from crossolve import OpAmpModel, build_feedback


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process alive: every worker must have exited when a run ends."""
    yield
    left = multiprocessing.active_children()
    if left:
        pytest.fail(f"the test left {len(left)} child process(es) running: {left}")


@pytest.fixture
def oa():
    """Default op-amp model: gbw = 1e8 rad/s, l0 = 1e5, slew rate 2.2e7 V/s."""
    return OpAmpModel()


@pytest.fixture
def demo_system():
    """The bundled three-node demonstration system and its rhs."""
    a = np.array([[1.2, 0.15, 0.8], [0.5, 0.5, 0.6], [0.6, 0.1, 0.8]])
    b = np.array([-0.12, 0.36, 0.24])
    return build_feedback(a), b


@pytest.fixture
def spd_pair():
    """A small symmetric positive-definite matrix with a handy rhs."""
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -0.5])
    return a, b
