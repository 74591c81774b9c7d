"""Fixtures shared by the test modules."""

import warnings

import pytest

from wdsmooth.variety import _jordan_system

# hypothesis reports a failing example through its lazily imported
# _patching module, whose libcst import raises mypy_extensions'
# DeprecationWarning for TypedDict; under -W error that warning, raised
# inside a report hook, ends the whole session. Imported here once, with
# the warning ignored, a failure is reported and the session goes on.
# libcst comes only with hypothesis's optional extras; where it is missing
# the report hook skips that import too, so there is nothing to do.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def fresh_jordan_systems():
    # a test that fakes the kernel must neither read a kept Jordan system
    # nor leave its fake one behind for later tests
    _jordan_system.cache_clear()
    yield
    _jordan_system.cache_clear()
