import pytest

from lawbound import runtime


@pytest.fixture(scope="session", autouse=True)
def single_blas_thread():
    """Run the suite with numpy's OpenBLAS on one thread, as a `lawbound`
    command runs: after each product a second BLAS thread only spins, and
    in-process battery calls spent about twice their wall time in CPU.
    The BLAS thread count changes no output bit
    (`test_library_costs_do_not_depend_on_blas_threads`)."""
    with runtime._single_blas_thread():
        yield


@pytest.fixture
def threads(monkeypatch):
    """Set the worker count for the rest of the test: threads(4)."""
    def set_threads(count):
        monkeypatch.setenv("LAWBOUND_THREADS", str(count))
    return set_threads
