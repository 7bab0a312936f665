"""Hypothesis profiles for the test suite, chosen by ``HYPOTHESIS_PROFILE``.

* ``tier1`` (the default): every property and stateful test is
  derandomized, so each run draws the same examples and the suite
  cannot go red on a lucky draw.
* ``nightly``: fresh random draws, and each stateful suite runs
  ``NIGHTLY_SCALE`` times its tier-1 example budget::

      HYPOTHESIS_PROFILE=nightly python -m pytest tests/contracts

``tests/conftest.py`` imports this module, so the profile is loaded
before any test module builds its settings.
"""

import os

from hypothesis import settings

#: How many times its tier-1 example budget a stateful suite runs nightly.
NIGHTLY_SCALE = 10

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("nightly", max_examples=100 * NIGHTLY_SCALE,
                          deadline=None)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


def stateful_settings(max_examples: int, stateful_step_count: int) -> settings:
    """A stateful suite's settings: its tier-1 budget, scaled nightly."""
    if PROFILE == "nightly":
        max_examples *= NIGHTLY_SCALE
    return settings(max_examples=max_examples,
                    stateful_step_count=stateful_step_count, deadline=None)
