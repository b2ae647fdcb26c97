"""Hypothesis profiles for the XML tests.

Tier-1 runs Hypothesis's default profile.  CI also runs this package with
``--hypothesis-profile=ci`` so the differential parser tests search
deeper::

    PYTHONPATH=src python -m pytest -q tests/xmllib --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=500, deadline=None)
