"""Hypothesis profiles for the test suite.

``ci`` (select it with ``--hypothesis-profile=ci``; Hypothesis also loads
it when the ``CI`` environment variable is set) is Hypothesis's own CI
profile except that it is not derandomized: every run keeps drawing
fresh examples, and a failing example prints the blob that replays it
with ``@reproduce_failure``.
"""

from hypothesis import settings

settings.register_profile("ci", settings.get_profile("ci"),
                          derandomize=False)
