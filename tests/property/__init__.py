"""Property-based tests and model-based state machines."""

from hypothesis import settings


def scaled_settings(examples, steps):
    """Explicit settings override a loaded profile, so scale the
    example count with it: the default profile (100 examples) keeps
    *examples*, ``--hypothesis-profile=ci`` multiplies it by ten."""
    scale = settings.default.max_examples / 100
    return settings(max_examples=max(1, round(examples * scale)),
                    stateful_step_count=steps, deadline=None)
