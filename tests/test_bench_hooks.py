"""The traced benchmark run wraps library functions by name; every name
it wraps must exist."""
import casmkit.verify as cverify

import layers
import tracing


def test_traced_run_hooks_install_and_unwrap():
    original = cverify.enumerate_step_outcomes
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        assert cverify.enumerate_step_outcomes is not original
    finally:
        tracer.unwrap_all()
    assert cverify.enumerate_step_outcomes is original
