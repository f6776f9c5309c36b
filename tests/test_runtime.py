import sys
import threading
import time

import pytest

from lawbound import cli, runtime
from lawbound.runtime import parallel_map


def test_pool_threads_are_reused_across_calls(threads):
    # a pool per call starts fresh threads, and a thread that starts before
    # the last one has exited can get a malloc arena of its own
    threads(2)
    barrier = threading.Barrier(2, timeout=10)

    def who(_):
        barrier.wait()      # both items in flight: two distinct threads
        return threading.current_thread()

    first = parallel_map(who, range(2))
    second = parallel_map(who, range(2))
    assert len(set(first)) == 2
    assert set(second) == set(first)


def test_nested_call_runs_inline(threads):
    threads(2)
    done = []

    def outer(i):
        return parallel_map(lambda j: (i, j, threading.current_thread()),
                            range(3))

    def run():
        done.append(parallel_map(outer, range(2)))

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive(), "nested parallel_map did not finish"
    (rows,) = done
    for i, row in enumerate(rows):
        assert [r[:2] for r in row] == [(i, j) for j in range(3)]
        assert len({r[2] for r in row}) == 1


def test_every_item_finishes_before_an_exception_is_raised(threads):
    threads(2)
    finished = []

    def item(i):
        if i == 0:
            raise ValueError("item 0")
        time.sleep(0.2)
        finished.append(i)
        return i

    with pytest.raises(ValueError, match="item 0"):
        parallel_map(item, range(2))
    assert finished == [1]


def test_concurrent_first_calls_share_one_pool(threads):
    # callers racing to create the pool of a worker count must end up on
    # the same one: more pool threads than workers means a second pool
    threads(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    results, used = [None] * 8, set()
    start = threading.Barrier(8, timeout=10)
    try:
        def caller(c):
            start.wait()
            out = parallel_map(lambda x: (c * x, threading.current_thread()),
                               range(16))
            results[c] = [v for v, _ in out]
            used.update(t for _, t in out)

        callers = [threading.Thread(target=caller, args=(c,), daemon=True)
                   for c in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert results == [[c * x for x in range(16)] for c in range(8)]
    assert len(used) <= 5


@pytest.fixture
def caller_blas_threads():
    """The OpenBLAS (get, set) pair with the caller's count set to 2 for
    the test and put back after it."""
    blas = runtime._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS this process can find")
    get, put = blas
    before = get()
    put(2)
    yield get
    put(before)


@pytest.mark.parametrize("error, code", [(None, 0), (ValueError, 1),
                                         (RuntimeError, 3)])
def test_cli_command_runs_on_one_blas_thread(tmp_path, monkeypatch,
                                             caller_blas_threads, error,
                                             code):
    # a second BLAS thread only spins beside the package's own pool, so a
    # command runs on one; the caller's count is back on every exit path
    get = caller_blas_threads
    seen = []

    def command(args):
        seen.append(get())
        if error is not None:
            raise error("stop")
        return 0

    monkeypatch.setattr(cli, "cmd_gen", command)
    argv = ["gen", "--seed", "1", "--out", str(tmp_path / "g")]
    assert cli.main(argv) == code
    assert seen == [1]
    assert get() == 2


def test_cli_command_runs_where_no_openblas_is_found(tmp_path, monkeypatch,
                                                     capsys):
    ran = []
    monkeypatch.setattr(runtime, "_openblas", lambda: None)
    monkeypatch.setattr(cli, "cmd_gen", lambda args: ran.append(args) or 0)
    assert cli.main(["gen", "--seed", "1", "--out", str(tmp_path / "g")]) == 0
    assert len(ran) == 1
    assert capsys.readouterr().err == ""
