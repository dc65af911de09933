"""Shared hygiene for observability tests: every test starts and ends
with an empty tracer ring / metrics registry, so tests cannot leak
telemetry into each other (or into the rest of the suite)."""

import pytest

from repro.obs import reset_telemetry


@pytest.fixture(autouse=True)
def clean_obs():
    reset_telemetry()
    yield
    reset_telemetry()
