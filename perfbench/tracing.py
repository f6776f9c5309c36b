"""Outside-in span tracing of the lawbound layers.

The tracer never edits the package. It rebinds every public function of
each layer module to a recording wrapper in every ``lawbound.*`` namespace
that holds it (modules bind names with ``from .x import y``), wraps the
``numpy.fft`` transforms beneath them and the ``Ensemble.from_fields``
constructor, and restores every original object on exit.

A span records name, layer, start, end, parent span and thread. Items run
by ``runtime.parallel_map`` in pool threads are parented to their
``parallel_map`` span. Spans stay in memory; ``reduce_pass`` turns one
pass's spans into the per-layer metrics and ``write_spans`` saves them.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import inspect
import json
import math
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("fields", "ensemble", "transport", "euler", "sampler", "certify",
          "scores", "rollout", "reporting", "cli", "runtime")
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
CLI_COMMANDS = ("gen", "metrics", "transport", "evolve", "scores", "certify")
_LBF_IO = ("write_lbf", "read_lbf", "write_ensemble", "read_ensemble",
           "write_lawcurve", "read_lawcurve", "write_csv", "read_report")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "thread", "info")

    def __init__(self, name, layer, parent, thread, start=0.0, end=0.0,
                 info=None):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.info = info


# ------------------------------------------------- argument-derived counts

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fft_info(name):
    one_d = not name.endswith(("2", "n"))

    def info(args, kwargs, tracer):
        shape = np.shape(args[0])
        if one_d:
            axes = (_arg(args, kwargs, 2, "axis", -1),)
        elif name.endswith("2"):
            axes = _arg(args, kwargs, 2, "axes", (-2, -1))
        else:
            axes = _arg(args, kwargs, 2, "axes") or range(len(shape))
        size = math.prod(shape)
        length = math.prod(shape[a] for a in axes)
        # 5 P log2 P flops per length-P transform, size / P transforms
        return size, 5.0 * size * math.log2(max(length, 2))
    return info


def _evolve_steps(args, kwargs, tracer):
    cfg, t = _arg(args, kwargs, 1, "cfg"), _arg(args, kwargs, 2, "t")
    return int(round(t / cfg.dt))


def _fingerprint(values) -> bytes:
    arr = np.ascontiguousarray(values)
    return hashlib.blake2b(arr.data, digest_size=16).digest()


def _pairwise_repeat(args, kwargs, tracer):
    key = (_fingerprint(args[0].values), _fingerprint(args[1].values))
    repeat = key in tracer.pairwise_seen
    tracer.pairwise_seen.add(key)
    return repeat


def _drift_evals(args, kwargs, tracer):
    e0, n_steps = args[0], _arg(args, kwargs, 3, "n_steps")
    return 4 * n_steps * e0.size


def _file_bytes(args, kwargs, tracer):
    return os.path.getsize(args[0])


_INFO = {
    ("euler", "evolve"): _evolve_steps,
    ("euler", "step"): lambda args, kwargs, tracer: 1,
    ("transport", "solve_assignment"):
        lambda args, kwargs, tracer: int(np.shape(args[0])[0]),
    ("transport", "pairwise_distances"): _pairwise_repeat,
    ("certify", "drift_driven_curve"): _drift_evals,
    ("reporting", "write_lbf"): _file_bytes,
    ("reporting", "read_lbf"): _file_bytes,
}


# ----------------------------------------------------------------- tracer

class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.pairwise_seen = set()
        self._local = threading.local()
        self._saved = []

    # -- recording
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span):
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name, layer):
        """Record a span around benchmark code (``with tracer.span(...)``)."""
        stack = self._stack()
        span = Span(name, layer, stack[-1] if stack else None,
                    threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self._record(span)

    def wrap(self, layer, name, fn):
        info = _INFO.get((layer, name))
        if name.startswith("fft."):
            info = _fft_info(name[4:])
        stack_of = self._stack
        record = self._record
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(name, layer, stack[-1] if stack else None,
                        threading.get_ident())
            stack.append(span)
            returned = False
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                span.end = clock()
                stack.pop()
                if returned and info is not None:
                    span.info = info(args, kwargs, tracer)
                record(span)

        traced.__wrapped__ = fn
        return traced

    def _wrap_pool(self, fn):
        """parallel_map wrapper: each item becomes a span in its thread."""
        tracer = self
        clock = time.perf_counter
        worker_count = sys.modules["lawbound.runtime"].worker_count

        def traced_map(item_fn, items):
            items = list(items)
            stack = tracer._stack()
            pool = Span("parallel_map", "runtime", stack[-1] if stack else None,
                        threading.get_ident())
            workers = worker_count()
            pool.info = 1 if workers <= 1 or len(items) <= 1 else workers

            def item(x):
                local = tracer._stack()
                outer = list(local)
                span = Span("item", "item", pool, threading.get_ident())
                local[:] = [span]
                span.start = clock()
                try:
                    return item_fn(x)
                finally:
                    span.end = clock()
                    local[:] = outer
                    tracer._record(span)

            stack.append(pool)
            pool.start = clock()
            try:
                return fn(item, items)
            finally:
                pool.end = clock()
                stack.pop()
                tracer._record(pool)

        traced_map.__wrapped__ = fn
        return traced_map

    # -- installation
    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import lawbound.cli  # noqa: F401  (imports every layer module)
        from lawbound.ensemble import Ensemble

        package = [m for name, m in sorted(sys.modules.items())
                   if name == "lawbound" or name.startswith("lawbound.")]
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"lawbound.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    if (layer, name) == ("runtime", "parallel_map"):
                        replacements[id(obj)] = (obj, self._wrap_pool(obj))
                    else:
                        replacements[id(obj)] = (obj, self.wrap(layer, name, obj))
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, hit[1])
        original = Ensemble.__dict__["from_fields"]
        self._rebind(Ensemble, "from_fields", classmethod(
            self.wrap("ensemble", "from_fields", original.__func__)))
        for name in FFT_FUNCS:
            self._rebind(np.fft, name,
                         self.wrap("fft", f"fft.{name}", getattr(np.fft, name)))

    def uninstall(self):
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self):
        """Return the spans recorded so far and start a new pass."""
        spans, self.spans = self.spans, []
        self.pairwise_seen = set()
        return spans


# -------------------------------------------------------------- reduction

def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): (s.end - s.start)
            - _union_length(children.get(id(s), ()), s.start, s.end)
            for s in spans}


def _layer_of(span) -> str:
    """Pool items run the caller's code: charge them to the caller's layer."""
    if span.layer != "item":
        return span.layer
    caller = span.parent.parent
    return _layer_of(caller) if caller is not None else "runtime"


def _outermost_time(spans, names) -> float:
    """Summed duration of spans named in `names` with no such ancestor."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            total += s.end - s.start
    return total


def per_layer_names():
    """Every per-layer metric with its unit and direction, in report order."""
    count, sec = "count", "s"
    rows = [
        ("fft.calls", count, "lower"), ("fft.points_per_call", "points", "higher"),
        ("fft.self_s", sec, "lower"), ("fft.gflop_computed", "GFLOP", "lower"),
        ("euler.self_s", sec, "lower"), ("euler.evolve.calls", count, "lower"),
        ("euler.member_steps", count, "lower"),
        ("euler.us_per_member_step", "us", "lower"),
        ("euler.strain.calls", count, "lower"),
        ("euler.strain_lambda.s", sec, "lower"),
        ("runtime.pool.calls", count, "lower"),
        ("runtime.pool.busy_ratio", "ratio", "higher"),
        ("runtime.pool.wait_s", sec, "lower"),
        ("transport.self_s", sec, "lower"),
        ("transport.exact.calls", count, "lower"),
        ("transport.assign.calls", count, "lower"),
        ("transport.assign.s", sec, "lower"),
        ("transport.assign.max_n", count, "lower"),
        ("transport.pairwise.calls", count, "lower"),
        ("transport.pairwise.s", sec, "lower"),
        ("transport.pairwise.repeat_ratio", "ratio", "lower"),
        ("transport.sinkhorn.s", sec, "lower"),
        ("certify.self_s", sec, "lower"), ("certify.curve.s", sec, "lower"),
        ("certify.drift_evals", count, "lower"),
        ("certify.us_per_drift_eval", "us", "lower"),
        ("certify.pass.s", sec, "lower"),
        ("fields.self_s", sec, "lower"),
        ("fields.random_divfree.calls", count, "lower"),
        ("fields.random_divfree.s", sec, "lower"),
        ("ensemble.self_s", sec, "lower"),
        ("ensemble.from_fields.calls", count, "lower"),
        ("ensemble.tail_profile.s", sec, "lower"),
        ("sampler.self_s", sec, "lower"),
        ("sampler.sample_step.calls", count, "lower"),
        ("rollout.self_s", sec, "lower"), ("scores.self_s", sec, "lower"),
        ("reporting.lbf.files_read", count, "lower"),
        ("reporting.lbf.files_written", count, "lower"),
        ("reporting.lbf.bytes_read", "B", "lower"),
        ("reporting.lbf.bytes_written", "B", "lower"),
        ("reporting.io.s", sec, "lower"),
        ("cli.self_s", sec, "lower"),
    ]
    rows += [(f"cli.{c}.s", sec, "lower") for c in CLI_COMMANDS]
    rows += [("trace.overhead_ratio", "ratio", "lower"),
             ("trace.layer_coverage", "ratio", "higher")]
    return rows


def reduce_pass(spans) -> dict:
    """Per-layer metrics of one traced pass (``trace.overhead_ratio`` aside)."""
    selfs = self_times(spans)
    layer_self = {}
    for s in spans:
        layer = _layer_of(s)
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[id(s)]

    by_name = {}
    for s in spans:
        by_name.setdefault((s.layer, s.name), []).append(s)

    def named(layer, name):
        return by_name.get((layer, name), [])

    def total(layer, name):
        return sum(s.end - s.start for s in named(layer, name))

    def infos(layer, name):
        """Argument-derived counts of the calls that returned."""
        return [s.info for s in named(layer, name) if s.info is not None]

    ffts = [s for s in spans if s.layer == "fft"]
    fft_counts = [s.info for s in ffts if s.info is not None]
    evolves = named("euler", "evolve") + named("euler", "step")
    member_steps = sum(infos("euler", "evolve") + infos("euler", "step"))
    euler_s = _outermost_time(evolves, {"evolve", "step"})
    pools = named("runtime", "parallel_map")
    items = [s for s in spans if s.layer == "item"]
    pool_capacity = sum((s.end - s.start) * s.info for s in pools)
    item_time = sum(s.end - s.start for s in items)
    pairwise = infos("transport", "pairwise_distances")
    drift_evals = sum(infos("certify", "drift_driven_curve"))
    curve_s = total("certify", "drift_driven_curve")
    reporting = [s for s in spans if s.layer == "reporting"]
    ops = [s for s in spans if s.layer == "op"]
    op_time = sum(s.end - s.start for s in ops)
    below_ops = {}
    for s in spans:
        if s.parent is not None and s.parent.layer == "op":
            below_ops.setdefault(id(s.parent), []).append((s.start, s.end))
    covered = sum(_union_length(below_ops.get(id(o), ()), o.start, o.end)
                  for o in ops)

    m = {
        "fft.calls": len(ffts),
        "fft.points_per_call":
            sum(c[0] for c in fft_counts) / len(ffts) if ffts else 0.0,
        "fft.self_s": layer_self.get("fft", 0.0),
        "fft.gflop_computed": sum(c[1] for c in fft_counts) / 1e9,
        "euler.self_s": layer_self.get("euler", 0.0),
        "euler.evolve.calls": len(named("euler", "evolve")),
        "euler.member_steps": member_steps,
        "euler.us_per_member_step":
            1e6 * euler_s / member_steps if member_steps else 0.0,
        "euler.strain.calls": len(named("euler", "strain")),
        "euler.strain_lambda.s": _outermost_time(
            [s for s in spans if s.layer == "euler"],
            {"strain", "lambda_coupled", "lambda_pointwise"}),
        "runtime.pool.calls": len(pools),
        "runtime.pool.busy_ratio":
            item_time / pool_capacity if pool_capacity else 0.0,
        "runtime.pool.wait_s": max(pool_capacity - item_time, 0.0),
        "transport.self_s": layer_self.get("transport", 0.0),
        "transport.exact.calls": len(named("transport", "wasserstein_exact")),
        "transport.assign.calls": len(named("transport", "solve_assignment")),
        "transport.assign.s": total("transport", "solve_assignment"),
        "transport.assign.max_n":
            max(infos("transport", "solve_assignment"), default=0),
        "transport.pairwise.calls": len(pairwise),
        "transport.pairwise.s": total("transport", "pairwise_distances"),
        "transport.pairwise.repeat_ratio":
            sum(pairwise) / len(pairwise) if pairwise else 0.0,
        "transport.sinkhorn.s": total("transport", "sinkhorn"),
        "certify.self_s": layer_self.get("certify", 0.0),
        "certify.curve.s": curve_s,
        "certify.drift_evals": drift_evals,
        "certify.us_per_drift_eval":
            1e6 * curve_s / drift_evals if drift_evals else 0.0,
        "certify.pass.s": sum(selfs[id(s)] for s in
                              named("certify", "certification_report")),
        "fields.self_s": layer_self.get("fields", 0.0),
        "fields.random_divfree.calls": len(named("fields", "random_divfree")),
        "fields.random_divfree.s": _outermost_time(
            named("fields", "random_divfree"), {"random_divfree"}),
        "ensemble.self_s": layer_self.get("ensemble", 0.0),
        "ensemble.from_fields.calls": len(named("ensemble", "from_fields")),
        "ensemble.tail_profile.s": total("ensemble", "tail_profile"),
        "sampler.self_s": layer_self.get("sampler", 0.0),
        "sampler.sample_step.calls": len(named("sampler", "sample_step")),
        "rollout.self_s": layer_self.get("rollout", 0.0),
        "scores.self_s": layer_self.get("scores", 0.0),
        "reporting.lbf.files_read": len(named("reporting", "read_lbf")),
        "reporting.lbf.files_written": len(named("reporting", "write_lbf")),
        "reporting.lbf.bytes_read": sum(infos("reporting", "read_lbf")),
        "reporting.lbf.bytes_written": sum(infos("reporting", "write_lbf")),
        "reporting.io.s": _outermost_time(reporting, set(_LBF_IO)),
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.layer_coverage": covered / op_time if op_time else 0.0,
    }
    for c in CLI_COMMANDS:
        m[f"cli.{c}.s"] = total("cli", f"cmd_{c}")
    return m


def write_spans(path, passes) -> None:
    """Write the spans of every traced pass as gzipped JSON lines."""
    with gzip.open(path, "wt") as fh:
        for index, spans in enumerate(passes):
            ids = {id(s): k for k, s in enumerate(spans)}
            for k, s in enumerate(spans):
                fh.write(json.dumps([
                    index, k, s.layer, s.name, s.start, s.end,
                    ids.get(id(s.parent)), s.thread, s.info]) + "\n")
