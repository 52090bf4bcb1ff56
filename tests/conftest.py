"""Settings shared by every test module."""

from hypothesis import settings

# one hypothesis profile for the suite: no per-example deadline, since the first
# example of a test pays for numpy's and scipy's warm-up, and derandomized
# examples, so every run of the suite draws the same ones
settings.register_profile("greenwalk", deadline=None, derandomize=True)
settings.load_profile("greenwalk")
