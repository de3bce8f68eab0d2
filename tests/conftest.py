"""Test-suite settings shared by every module."""

from hypothesis import settings

# Property tests run the same fixed examples on every run, with no time
# limit per example (host speed varies) and no example database on disk.
settings.register_profile("tier1", deadline=None, derandomize=True,
                          database=None, max_examples=50)
settings.load_profile("tier1")
