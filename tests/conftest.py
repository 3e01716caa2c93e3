"""Shared pytest configuration."""

from hypothesis import settings

# Property tests replay the same examples on every run (derandomize, no
# example database), never fail on timing (no deadline), and draw few
# enough examples to keep the suite quick.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("tier1")
