"""Settings for the whole suite: Hypothesis draws its examples from a fixed
seed and keeps no example database, so a run's result does not depend on
the draw or on earlier runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
