import pytest


@pytest.fixture
def threads(monkeypatch):
    """Set the worker count for the rest of the test: threads(4)."""
    def set_threads(count):
        monkeypatch.setenv("LAWBOUND_THREADS", str(count))
    return set_threads
