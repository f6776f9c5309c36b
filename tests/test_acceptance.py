"""Acceptance suite: every criterion at its stated tolerance, full scale.

Run with `pytest tests/test_acceptance.py -s` to see one line per
criterion.  The reduced variant of the same battery backs the CLI's
`verify-all --quick`.
"""

import json
import os
import subprocess
import sys

import pytest

import golden_ledger
from lawbound import acceptance as A
from lawbound.reporting import strip_timing

SEED = 42


def run_criterion(name, fn):
    checks = fn(quick=False, seed=SEED)
    failed = [c for c in checks if not c.satisfied]
    status = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({len(checks)} checks)")
    for c in checks:
        print(f"    {c}")
    assert not failed, f"{name}: {[c.name for c in failed]}"


def test_criterion_01_spectral_core():
    run_criterion("01_spectral", A.crit01_spectral)


def test_criterion_02_capacity_coverage():
    run_criterion("02_capacity_coverage", A.crit02_capacity_coverage)


def test_criterion_03_powerlaw_coverage():
    run_criterion("03_powerlaw_tails", A.crit03_powerlaw_tails)


def test_criterion_04_l2_difference_identity():
    run_criterion("04_l2_identity", A.crit04_l2_identity)


def test_criterion_05_w2_average_strain():
    run_criterion("05_strain_bound", A.crit05_strain_bound)


def test_criterion_06_discrete_gronwall():
    run_criterion("06_gronwall", A.crit06_gronwall)


def test_criterion_07_rollout_bound():
    run_criterion("07_rollout", A.crit07_rollout)


def test_criterion_08_time_regularity():
    run_criterion("08_time_regularity", A.crit08_time_regularity)


def test_criterion_09_continuity_equation():
    run_criterion("09_continuity", A.crit09_continuity)


def test_criterion_10_residual_certification():
    run_criterion("10_certification", A.crit10_certification)


def test_criterion_11_pf_ode_identities():
    run_criterion("11_pf_ode", A.crit11_pf_ode)


def test_criterion_12_scores():
    run_criterion("12_scores", A.crit12_scores)


def test_criterion_13_marginalization():
    run_criterion("13_marginalization", A.crit13_marginalization)


def _run_verify_quick(out_dir, threads):
    env = dict(os.environ, LAWBOUND_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "lawbound.cli", "verify-all", "--quick",
         "--seed", str(SEED), "--out", str(out_dir)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return strip_timing((out_dir / "report.json").read_text())


def test_criterion_14_determinism(tmp_path, quick_battery):
    # the shared in-process run, then one fresh process per worker count
    code, first, _ = quick_battery
    assert code == 0
    second = _run_verify_quick(tmp_path / "run1", threads=1)
    threaded = _run_verify_quick(tmp_path / "run4", threads=4)
    same_seed = first == second
    same_threads = second == threaded
    status = "PASS" if same_seed and same_threads else "FAIL"
    print(f"ACCEPTANCE 14_determinism: {status} (3 runs compared)")
    assert same_seed, "repeated runs with one seed differ"
    assert same_threads, "worker count changed the report payload"
    golden_ledger.compare("verify_quick", first)
