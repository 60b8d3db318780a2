import sys

import pytest


@pytest.fixture
def default_recursion_limit():
    """Run the test at CPython's default recursion limit, whatever pytest
    or an earlier test set it to."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)
