"""Every test must leave the execution context as it found it."""

import pytest


@pytest.fixture(autouse=True)
def _context_is_restored():
    """A test (or the code it drives) that leaves a different
    :class:`repro.context.Context` active would change how every later
    test computes; fail it instead of resetting after it."""
    from repro.context import current

    before = current()
    yield
    assert current() == before, "the test leaked its execution context"


@pytest.fixture
def tracing():
    """Run the test with tracing on; the previous context is restored."""
    from repro.context import use

    with use(trace=True):
        yield
