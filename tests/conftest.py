"""Fixtures shared by the test modules."""

import pytest

from wdsmooth.variety import _jordan_system


@pytest.fixture
def fresh_jordan_systems():
    # a test that fakes the kernel must neither read a kept Jordan system
    # nor leave its fake one behind for later tests
    _jordan_system.cache_clear()
    yield
    _jordan_system.cache_clear()
