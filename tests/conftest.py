"""Shared test settings.

Hypothesis draws its examples from a fixed seed derived from each test, so
every run of the suite tries the same examples and a property that fails
reproduces from the same pytest command. Each test's own `max_examples` and
`deadline` still apply.

Every test must join the threads it starts: one still alive after the test
fails it, as a helper left running would outlive the command that started it.
"""

import threading

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    if left:
        pytest.fail(f"the test left threads running: {', '.join(left)}")
