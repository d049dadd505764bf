"""Shared test settings.

Property tests run a fixed, derandomized set of examples with no per-example
deadline, so a run gives the same verdict every time and does not fail on a
slow or busy machine.
"""

from hypothesis import settings

settings.register_profile("entcap", derandomize=True, deadline=None)
settings.load_profile("entcap")
