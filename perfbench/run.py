"""Run one lawbound benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flow-coupling --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src``. With ``--trace 0`` the run prints every end-to-end metric, with
``--trace 1`` every per-layer metric. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary, the machine
block and the result digest. Spans and the full result are written under
``perfbench/out``. See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy; "
                 "import lawbound.cli; print(time.perf_counter() - t)")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("flow-coupling", "cli-pipeline"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _child_import_seconds() -> float:
    """Import time of numpy plus the whole package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip())


def machine_block() -> dict:
    import numpy as np
    from lawbound.runtime import worker_count

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "worker_count": worker_count(),
        "LAWBOUND_THREADS": os.environ.get("LAWBOUND_THREADS"),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def run_pass(workload, ledger, tracer=None):
    """Run every operation once; returns per-operation (wall s, CPU s)."""
    from perfbench.workloads import digest

    if workload.before_pass is not None:
        workload.before_pass()
    times = []
    for op in workload.ops:
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            if tracer is None:
                payload, outcome = op.run()
            else:
                with tracer.span(op.name, "op"):
                    payload, outcome = op.run()
        except Exception as exc:  # an escaped exception fails this operation
            payload, outcome = {"exception": f"{type(exc).__name__}: {exc}"}, "error"
        times.append((time.perf_counter() - t0, _cpu_seconds() - c0))
        ledger.record(op.name, outcome, digest(payload))
    return times


def fastest_pass(passes, column=0) -> float:
    """Wall (column 0) or CPU (column 1) seconds of the fastest pass.

    Other tenants of a shared host slow whole stretches of 30-60 s by up
    to 40 %, so the median of a run's passes follows how much of the run
    fell in a slow stretch; the fastest pass does not."""
    return min(sum(op[column] for op in p) for p in passes)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lawbound" / "__init__.py").is_file():
        print(f"error: no lawbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    # The first child compiles the bytecode, so this process's peak RSS
    # never includes compiling the package.
    imports = [_child_import_seconds() for _ in range(SETUP_REPEATS)]
    from perfbench import tracing, workloads

    workdir = OUT / f"work-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, layer_rows, traced_spans = [], [], [], []
    try:
        setups = []
        for imported in imports:
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            wl = workloads.build(args.workload, args.seed, workdir)
            setups.append(imported + time.perf_counter() - t0)

        ledger = workloads.Ledger()
        warmup = sum(w for w, _ in run_pass(wl, ledger))
        started = time.perf_counter()
        while True:
            untraced.append(run_pass(wl, ledger))
            if tracer is not None:
                with tracer:
                    traced.append(run_pass(wl, ledger, tracer))
                spans = tracer.take()
                layer_rows.append(tracing.reduce_pass(spans))
                traced_spans.append(spans)
            if time.perf_counter() - started >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        "wall_s": fastest_pass(untraced),
        "cpu_s": fastest_pass(untraced, column=1),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}
    else:
        metrics = {}
        for name, unit, _ in tracing.per_layer_names():
            if name == "trace.overhead_ratio":
                value = fastest_pass(traced) / end_to_end["wall_s"] - 1.0
            else:
                value = statistics.median(row[name] for row in layer_rows)
            metrics[name] = {"value": value, "unit": unit}

    machine = machine_block()
    error_rate = ledger.failed / ledger.attempted
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(untraced), "traced_passes": len(traced),
        "warmup_s": warmup, "setups_s": setups,
        "operations": [op.name for op in wl.ops],
        "untraced_op_times": untraced, "traced_op_times": traced,
        "digest": ledger.result_digest(), "error_rate": error_rate,
        "failures": ledger.reasons, "machine": machine,
        "end_to_end": end_to_end, "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        tracing.write_spans(OUT / f"spans-{stem}.jsonl.gz", traced_spans)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes of "
          f"{len(wl.ops)} operations after a {warmup:.3f} s warm-up pass; "
          f"wall_s and cpu_s are the fastest pass, median pass "
          f"{statistics.median(sum(op[0] for op in p) for p in untraced):.6g} s")
    print(f"machine {json.dumps(machine)}")
    print(f"digest {result['digest']}")
    for name, value in end_to_end.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"error_rate {error_rate:.6g} ratio ({ledger.failed} of "
          f"{ledger.attempted} operations failed: "
          f"{json.dumps(ledger.reasons) if ledger.reasons else 'none'})")
    print(json.dumps({"correct": ledger.wrong == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
