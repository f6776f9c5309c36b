"""Tests of the benchmark's own code: span arithmetic, wrapping, digests."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lawbound.ensemble import Ensemble  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402
from perfbench.workloads import Ledger  # noqa: E402
from perfbench.tracing import Span  # noqa: E402

TINY_FLOW = {
    "strain_pairs": 1, "strain_members": 3, "strain_n": 32,
    "strain_t": 2.0 / 64, "strain_checkpoints": 2,
    "rollout_members": 3, "rollout_n": 32, "rollout_windows": 1,
    "paths_members": 3, "paths_n": 32, "paths_steps": 1,
}


def _span(name, layer, start, end, parent=None, thread=1, info=None):
    return Span(name, layer, parent, thread, start, end, info)


def _synthetic_pass():
    """op [0, 10] on the main thread:
         euler.evolve [1, 5] with fft [2, 3];
         rollout.run [5.5, 10] with parallel_map [6, 10] over two workers:
           item [6, 9] on thread 2 with fft [7, 8], item [6.5, 10] on thread 3.
    """
    op = _span("op", "op", 0.0, 10.0)
    evolve = _span("evolve", "euler", 1.0, 5.0, op, info=8)
    fft1 = _span("fft.fft2", "fft", 2.0, 3.0, evolve, info=(64, 1000.0))
    roll = _span("run_rollout_experiment", "rollout", 5.5, 10.0, op)
    pool = _span("parallel_map", "runtime", 6.0, 10.0, roll, info=2)
    item1 = _span("item", "item", 6.0, 9.0, pool, thread=2)
    fft2 = _span("fft.ifft2", "fft", 7.0, 8.0, item1, thread=2,
                 info=(192, 3000.0))
    item2 = _span("item", "item", 6.5, 10.0, pool, thread=3)
    return {"op": op, "evolve": evolve, "fft1": fft1, "roll": roll,
            "pool": pool, "item1": item1, "fft2": fft2, "item2": item2}


def test_self_times_on_nested_and_threaded_spans():
    s = _synthetic_pass()
    selfs = tracing.self_times(list(s.values()))
    expected = {"op": 10 - 8.5, "evolve": 4 - 1, "fft1": 1, "roll": 4.5 - 4,
                "pool": 0.0, "item1": 3 - 1, "fft2": 1, "item2": 3.5}
    for key, value in expected.items():
        assert selfs[id(s[key])] == pytest.approx(value), key


def test_reduce_pass_on_synthetic_spans():
    s = _synthetic_pass()
    m = tracing.reduce_pass(list(s.values()))
    assert m["fft.calls"] == 2
    assert m["fft.points_per_call"] == pytest.approx(128.0)
    assert m["fft.self_s"] == pytest.approx(2.0)
    assert m["fft.gflop_computed"] == pytest.approx(4e-6)
    assert m["euler.self_s"] == pytest.approx(3.0)
    assert m["euler.member_steps"] == 8
    assert m["euler.us_per_member_step"] == pytest.approx(1e6 * 4 / 8)
    # pool items run rollout code: their self time is rollout's
    assert m["rollout.self_s"] == pytest.approx(0.5 + 2.0 + 3.5)
    assert m["runtime.pool.calls"] == 1
    assert m["runtime.pool.busy_ratio"] == pytest.approx(6.5 / 8.0)
    assert m["runtime.pool.wait_s"] == pytest.approx(1.5)
    assert m["trace.layer_coverage"] == pytest.approx(8.5 / 10.0)
    assert {name for name, _, _ in tracing.per_layer_names()} \
        == set(m) | {"trace.overhead_ratio"}


def _bindings():
    """Every object the tracer may rebind, keyed by where it is bound."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "lawbound" or name.startswith("lawbound."):
            for attr, obj in vars(mod).items():
                found[(name, attr)] = obj
    for fn in tracing.FFT_FUNCS:
        found[("numpy.fft", fn)] = getattr(np.fft, fn)
    found[("Ensemble", "from_fields")] = Ensemble.__dict__["from_fields"]
    return found


def test_wrap_and_unwrap_restore_every_original_object():
    import lawbound.cli  # noqa: F401
    from lawbound import euler, rollout, runtime

    before = _bindings()
    original_evolve = euler.evolve
    with tracing.Tracer():
        assert rollout.evolve is not original_evolve
        assert rollout.evolve is euler.evolve
        assert rollout.parallel_map is not before[("lawbound.runtime",
                                                   "parallel_map")]
        assert np.fft.fft2 is not before[("numpy.fft", "fft2")]
        assert Ensemble.__dict__["from_fields"] \
            is not before[("Ensemble", "from_fields")]
    after = _bindings()
    assert after.keys() == before.keys()
    for key, obj in before.items():
        assert after[key] is obj, key
    assert runtime.parallel_map is before[("lawbound.runtime", "parallel_map")]


def _run_op(op, tracer=None):
    if tracer is None:
        payload, outcome = op.run()
    else:
        with tracer, tracer.span(op.name, "op"):
            payload, outcome = op.run()
    return workloads.digest(payload), outcome


def test_tracing_leaves_an_operation_digest_unchanged(tmp_path):
    wl = workloads.build("flow-coupling", 3, tmp_path, TINY_FLOW)
    paths = next(op for op in wl.ops if op.name == "rollout_paths")
    plain = _run_op(paths)
    tracer = tracing.Tracer()
    traced = _run_op(paths, tracer)
    assert traced == plain
    assert plain[1] == "ok"
    spans = tracer.take()
    pools = [s for s in spans if s.name == "parallel_map"]
    items = [s for s in spans if s.layer == "item"]
    assert pools and len(items) == TINY_FLOW["paths_members"]
    assert all(s.parent in pools for s in items)
    # every span in a pool thread hangs below one of the items
    for s in spans:
        if s.thread != pools[0].thread:
            root = s
            while root.layer != "item":
                root = root.parent
            assert root in items


def test_seed_changes_inputs_and_digest(tmp_path):
    one = workloads.build("flow-coupling", 1, tmp_path, TINY_FLOW)
    again = workloads.build("flow-coupling", 1, tmp_path, TINY_FLOW)
    two = workloads.build("flow-coupling", 2, tmp_path, TINY_FLOW)
    assert workloads.digest(one.inputs) == workloads.digest(again.inputs)
    assert workloads.digest(one.inputs) != workloads.digest(two.inputs)
    d1, ok1 = _run_op(one.ops[0])
    d2, ok2 = _run_op(two.ops[0])
    assert ok1 == ok2 == "ok"
    assert d1 != d2
    assert _run_op(again.ops[0])[0] == d1


def test_ledger_counts_errors_checks_and_digest_changes():
    ledger = Ledger()
    ledger.record("a", "ok", "x")
    ledger.record("a", "ok", "y")        # same op, different result
    ledger.record("b", "error", "z")
    ledger.record("c", "check", "w")
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (4, 3, 2)
    assert ledger.reasons == {"a": "digest", "b": "error", "c": "check"}
