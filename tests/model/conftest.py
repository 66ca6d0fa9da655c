"""Hypothesis profiles for the reference model.

``python -m pytest tests/model --hypothesis-profile=ci`` runs the model
at depth; without the option it runs the small default of its module.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=400,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
