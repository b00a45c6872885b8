"""Hypothesis profiles for tests that set no example count of their own, as
the config-contract property does: ``tier1``, loaded here, keeps the suite
under a minute, and ``pytest --hypothesis-profile=contract`` searches ten
times as long."""

from hypothesis import settings

settings.register_profile("tier1", max_examples=150)
settings.register_profile("contract", max_examples=1500)
settings.load_profile("tier1")
