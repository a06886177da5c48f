"""Tier-1 test configuration.

Every `hypothesis` test draws its examples from a fixed derandomized
stream with no example database, so two runs of the suite on the same code
exercise the same inputs.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
