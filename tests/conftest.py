"""One hypothesis profile for the whole suite.

Draws are derandomized (the same examples on every run), nothing is stored
between runs and no example has a deadline, so property tests are
reproducible and never flaky on a slow machine.  Tests set only
max_examples.
"""

from hypothesis import settings

settings.register_profile("causalnc", derandomize=True, deadline=None, database=None)
settings.load_profile("causalnc")
