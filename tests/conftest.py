"""One hypothesis profile for the whole suite: no per-example deadline, so
a loaded host slows a property test down without failing it.  Tests that
need a different example count still set ``max_examples`` themselves."""

from hypothesis import settings

settings.register_profile("gaugeforge", deadline=None)
settings.load_profile("gaugeforge")
