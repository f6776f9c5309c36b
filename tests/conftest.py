import contextlib
import io

import pytest

from lawbound import runtime
from lawbound.cli import main
from lawbound.reporting import strip_timing
from spectral_oracle import count_full_complex_transforms


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


@pytest.fixture(scope="session")
def quick_battery(tmp_path_factory):
    """One in-process `verify-all --quick --seed 42` on one worker, shared
    by criterion 14 and the full-complex transform count: (exit code,
    stripped report, names of the full complex transforms it ran)."""
    out = tmp_path_factory.mktemp("quick_battery")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LAWBOUND_THREADS", "1")
        calls = count_full_complex_transforms(mp)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify-all", "--quick", "--seed", "42",
                         "--out", str(out)])
    return code, strip_timing((out / "report.json").read_text()), calls
