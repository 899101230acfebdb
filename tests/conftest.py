"""One Hypothesis profile for the whole suite: every run draws the same examples.

``derandomize`` seeds each property test from its own source, so a failure
reproduces on the next run; tests keep their own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("vermatwist", derandomize=True, database=None)
settings.load_profile("vermatwist")
