"""Shared test settings.

Hypothesis draws its examples from a fixed seed derived from each test, so
every run of the suite tries the same examples and a property that fails
reproduces from the same pytest command. Each test's own `max_examples` and
`deadline` still apply.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
