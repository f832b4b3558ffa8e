import gc

import pytest


@pytest.fixture
def no_cyclic_gc():
    """Switch the cyclic collector off, so only reference counting frees objects."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
