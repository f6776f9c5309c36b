import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lawbound import ensemble as E
from lawbound import euler as EU
from lawbound import fields as F
from lawbound import rollout as R
from lawbound import sampler as SA

GRID = F.Grid(2, 32)


def recursion_oracle(delta0, L, eps):
    out = [delta0]
    for Ln, en in zip(L, eps):
        out.append(Ln * out[-1] + en)
    return np.array(out)


# ------------------------------------------------------------- closed form

def test_unit_factors_linear_accumulation():
    # L_n = 1, eps_n = ebar: delta_0 + N ebar
    N, ebar, d0 = 7, 0.3, 1.2
    out = R.gronwall_closed_form(d0, np.ones(N), np.full(N, ebar))
    assert abs(out[-1] - (d0 + N * ebar)) < 1e-14


def test_zero_defects_pure_product():
    rng = np.random.default_rng(0)
    L = rng.uniform(0.5, 2.0, 6)
    out = R.gronwall_closed_form(2.0, L, np.zeros(6))
    assert abs(out[-1] - 2.0 * np.prod(L)) <= 1e-14 * out[-1]


def test_closed_form_equals_recursion_1000_instances():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d0 = rng.uniform(0, 2)
        L = rng.uniform(0, 2, 10)
        eps = rng.uniform(0, 1, 10)
        closed = R.gronwall_closed_form(d0, L, eps)
        rec = recursion_oracle(d0, L, eps)
        scale = np.maximum(rec, 1e-30)
        assert np.max(np.abs(closed - rec) / scale) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 3), min_size=1, max_size=8),
       st.floats(0, 2))
def test_closed_form_recursion_property(L, d0):
    eps = [0.1] * len(L)
    closed = R.gronwall_closed_form(d0, L, eps)
    rec = recursion_oracle(d0, L, eps)
    assert np.allclose(closed, rec, rtol=1e-12, atol=1e-12)


def test_rollout_bound_base_case_and_constant_form():
    d0, a0, e1 = 0.5, 0.2, 0.05
    out = R.rollout_bound(d0, [a0], [e1])
    assert abs(out[-1] - (np.exp(a0) * d0 + e1)) < 1e-14
    # constant-coefficient simplification matches the general form
    N, ab, eb = 9, 0.13, 0.02
    gen = R.rollout_bound(d0, np.full(N, ab), np.full(N, eb))[-1]
    assert abs(R.constant_coefficient_bound(d0, ab, eb, N) - gen) <= 1e-12 * gen
    assert R.constant_coefficient_bound(d0, 0.0, eb, N) == d0 + N * eb


def test_bound_monotone_in_coefficients():
    rng = np.random.default_rng(2)
    alphas = rng.uniform(0, 0.5, 6)
    eps = rng.uniform(0, 0.2, 6)
    base = R.rollout_bound(0.3, alphas, eps)[-1]
    for j in range(6):
        up_a = alphas.copy(); up_a[j] += 0.1
        up_e = eps.copy(); up_e[j] += 0.1
        assert R.rollout_bound(0.3, up_a, eps)[-1] >= base
        assert R.rollout_bound(0.3, alphas, up_e)[-1] >= base


def test_gronwall_input_validation():
    with pytest.raises(ValueError):
        R.gronwall_closed_form(-1.0, [1.0], [0.0])
    with pytest.raises(ValueError):
        R.gronwall_closed_form(1.0, [1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        R.constant_coefficient_bound(1.0, -0.1, 0.0, 3)


def test_ledger_validation():
    with pytest.raises(ValueError):
        R.RolloutLedger([0.1], [0.1], [1.0], [1.0])
    with pytest.raises(ValueError):
        R.RolloutLedger([0.1], [np.nan], [1.0, 1.0], [1.0, 1.0])


# -------------------------------------------------------------- experiment

CFG = EU.EulerConfig(GRID, dt=0.00625)
DT = 0.05


def unit_ensemble(n, seed0):
    out = []
    for i in range(n):
        u = F.random_divfree(GRID, 4.0, 8, seed=seed0 + i)
        out.append(F.GridField(GRID, u.values / F.l2_norm(u)))
    return E.Ensemble.from_fields(out)


def test_experiment_identical_laws_reference_model():
    a = unit_ensemble(4, 0)
    spec = SA.KernelSpec("deterministic", internal_steps=4)
    ledger, rep = R.run_rollout_experiment(a, a, CFG, spec, n_steps=3,
                                           dt_phys=DT, master_seed=5)
    assert np.max(ledger.deltas) < 1e-12
    assert np.max(ledger.defects) < 1e-12
    assert rep["satisfied"]


def test_experiment_stability_route_only():
    a = unit_ensemble(4, 10)
    b = E.Ensemble(GRID, a.values + 0.02 * unit_ensemble(4, 40).values)
    spec = SA.KernelSpec("deterministic", internal_steps=4)
    ledger, rep = R.run_rollout_experiment(a, b, CFG, spec, n_steps=3,
                                           dt_phys=DT, master_seed=6)
    assert np.max(ledger.defects) < 1e-12
    assert rep["satisfied"]
    assert ledger.deltas[-1] <= np.exp(ledger.alphas.sum()) * ledger.deltas[0] * 1.05


def test_experiment_perturbed_model_full_bound():
    a = unit_ensemble(4, 20)
    b = E.Ensemble(GRID, a.values + 0.02 * unit_ensemble(4, 60).values)
    spec = SA.KernelSpec("perturbed-reference", internal_steps=4,
                         noise_scale=2e-3)
    ledger, rep = R.run_rollout_experiment(a, b, CFG, spec, n_steps=3,
                                           dt_phys=DT, master_seed=7)
    assert rep["per_step_ok"] and rep["final_ok"] and rep["satisfied"]
    assert rep["horizon_complete"]
    assert np.max(ledger.defects) > 0
    assert np.all(np.diff(ledger.bounds) >= -1e-15)


def test_experiment_guard_trip_reported():
    # amplitude far above the CFL budget: the run exits the admissible
    # class; the experiment truncates and reports the event
    base = unit_ensemble(3, 80)
    a = E.Ensemble(GRID, 200.0 * base.values)
    cfg_big = EU.EulerConfig(GRID, dt=0.00625)
    spec = SA.KernelSpec("deterministic", internal_steps=2)
    ledger, rep = R.run_rollout_experiment(a, a, cfg_big, spec, n_steps=2,
                                           dt_phys=0.05, master_seed=1)
    assert rep["guard_events"]
    assert rep["n_steps"] == 0
    assert len(ledger.deltas) == 1


def test_guard_truncated_rollout_is_not_satisfied():
    # the CFL guard trips in window 0: every recorded bound holds trivially
    # over the empty horizon, which must still not read as a pass
    base = unit_ensemble(3, 80)
    a = E.Ensemble(GRID, 200.0 * base.values)
    spec = SA.KernelSpec("deterministic", internal_steps=2)
    _, rep = R.run_rollout_experiment(a, a, CFG, spec, n_steps=2,
                                      dt_phys=DT, master_seed=1)
    assert rep["per_step_ok"] and rep["final_ok"]
    assert rep["horizon_complete"] is False
    assert rep["satisfied"] is False
