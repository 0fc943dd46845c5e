"""Suite-wide settings: generated tests run a fixed, bounded set of
examples, so the suite is deterministic and its time is predictable."""

from hypothesis import settings

settings.register_profile(
    "qitbench", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("qitbench")
