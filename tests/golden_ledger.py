"""The golden ledger: committed report payloads of fixed runs.

`tests/golden/` holds the `strip_timing` payload of each run in `RUNS` and
the machine block (numpy version and BLAS) they were made on.  A change
that moves a reported value fails the ledger tests with one line per moved
value, its relative change and whether it is within 1e-13, so the
roundoff rule of ROADMAP.md reads off the failure.  A change that moves a
value on purpose rewrites the ledger in its own diff:

    PYTHONPATH=src python tests/golden_ledger.py

The full ledger, which tier-1 does not run, holds the stripped payload of
the full battery (`FULL_RUNS`, about 20 s) and the per-operation and result
digests of one pass of each benchmark workload at seed `BENCH_SEED`.  Every
change to `src` checks it, and fails naming each moved value:

    PYTHONPATH=src python tests/golden_ledger.py --full

and a change that moves one of them on purpose rewrites it with
`--full --write`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "golden"
SEED = 42
REL_TOL = 1e-13
# payload name -> lawbound argv (without --out); each command at its
# default config
RUNS = {
    "verify_quick": ["verify-all", "--quick", "--seed", str(SEED)],
    "certify": ["certify", "--seed", str(SEED)],
    "pfode": ["pfode", "--seed", str(SEED)],
}
FULL_RUNS = {
    "verify_full": ["verify-all", "--seed", str(SEED)],
}
BENCH_SEED = 11
BENCH_WORKLOADS = ("flow-coupling", "cli-pipeline")


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def run_payload(name: str, out_dir) -> str:
    """The stripped report of RUNS[name], run in this process."""
    from lawbound import cli
    from lawbound.reporting import strip_timing

    argv = {**RUNS, **FULL_RUNS}[name]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out_dir)])
    assert code == 0, f"{name} exited {code}"
    return strip_timing((Path(out_dir) / "report.json").read_text())


def _leaves(obj, path=""):
    """(path, value) of every leaf; checks are keyed by their name."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            key = item["name"] if path == "checks" else i
            yield from _leaves(item, f"{path}[{key}]")
    else:
        yield path, obj


def _is_float(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def moved_values(want_text: str, got_text: str) -> list:
    """One line per value that differs between two payloads."""
    want = dict(_leaves(json.loads(want_text)))
    got = dict(_leaves(json.loads(got_text)))
    lines = []
    for path in sorted(want.keys() | got.keys()):
        if path not in got:
            lines.append(f"{path}: {want[path]!r} -> (missing)")
        elif path not in want:
            lines.append(f"{path}: (new) -> {got[path]!r}")
        elif want[path] != got[path] or type(want[path]) != type(got[path]):
            w, g = want[path], got[path]
            line = f"{path}: {w!r} -> {g!r}"
            if _is_float(w) and _is_float(g) and math.isfinite(w) \
                    and math.isfinite(g):
                rel = abs(g - w) / max(abs(w), abs(g))
                verdict = "within" if rel <= REL_TOL else "BEYOND"
                line += f" (relative change {rel:.3g}, {verdict} {REL_TOL:g})"
            lines.append(line)
    return lines


def compare(name: str, got_text: str, stored: dict | None = None) -> None:
    """Fail with every moved value of payload `name` against the ledger."""
    want_text = (GOLDEN / f"{name}.json").read_text().rstrip("\n")
    if got_text == want_text:
        return
    lines = (moved_values(want_text, got_text)
             or ["(bytes differ, values equal)"])
    stored = stored or json.loads((GOLDEN / "machine.json").read_text())
    here = machine()
    if stored != here:
        lines.append(f"machine block differs: ledger {stored}, here {here}")
    raise AssertionError(f"golden ledger {name}: {len(lines)} moved\n  "
                         + "\n  ".join(lines))


def bench_digests() -> str:
    """Per-operation and result digests of one pass of each workload."""
    sys.path.insert(0, str(GOLDEN.parent.parent))
    from perfbench import workloads
    from perfbench.run import run_pass

    doc = {}
    for name in BENCH_WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.build(name, BENCH_SEED, Path(tmp) / "work")
            ledger = workloads.Ledger()
            run_pass(wl, ledger)
        doc[name] = {"operations": dict(ledger.reference),
                     "result": ledger.result_digest()}
    return json.dumps(doc, indent=1, sort_keys=True)


def _payloads(runs) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: run_payload(name, Path(tmp) / name) for name in runs}


def _full_payloads() -> dict:
    return {**_payloads(FULL_RUNS), "bench_digests": bench_digests()}


def write_ledger(full: bool = False) -> None:
    GOLDEN.mkdir(exist_ok=True)
    texts = _full_payloads() if full else _payloads(RUNS)
    for name, text in texts.items():
        (GOLDEN / f"{name}.json").write_text(text + "\n")
    (GOLDEN / "machine.json").write_text(
        json.dumps(machine(), indent=1, sort_keys=True) + "\n")


def check_full() -> int:
    """Compare the full ledger; one line per moved value, exit 1 if any."""
    failures = []
    for name, text in _full_payloads().items():
        try:
            compare(name, text)
        except AssertionError as exc:
            failures.append(str(exc))
    print("\n".join(failures) or f"full ledger: {len(FULL_RUNS) + 1} "
          "payloads unchanged")
    return 1 if failures else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args not in ([], ["--full"], ["--full", "--write"]):
        sys.exit("usage: golden_ledger.py [--full [--write]]")
    if args == ["--full"]:
        sys.exit(check_full())
    write_ledger(full=bool(args))
