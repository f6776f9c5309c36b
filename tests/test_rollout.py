import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lawbound import ensemble as E
from lawbound import euler as EU
from lawbound import fields as F
from lawbound import rollout as R
from lawbound import sampler as SA
from sampler_oracle import sample_step

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
    # only b's half of the stacked march trips, at its third step, after
    # two meetings: the push raises what b's own evolve raises, and the
    # experiment records that as the guard event
    a = unit_ensemble(3, 80)
    b = unit_ensemble(3, 81)
    limit = EU.CFL * GRID.spacing / CFG.dt   # the largest admitted speed
    b = E.Ensemble(GRID, 0.99 * limit / np.abs(b.values).max() * b.values)
    EU.evolve(b, CFG, 2 * CFG.dt)
    with pytest.raises(RuntimeError, match="CFL") as alone:
        EU.evolve(b, CFG, DT, checkpoints=8)
    with pytest.raises(RuntimeError) as pushed:
        EU.push_coupling(a, b, CFG, DT, 8)
    assert str(pushed.value) == str(alone.value)
    _, rep = R.run_rollout_experiment(a, b, CFG, spec, n_steps=2, dt_phys=DT,
                                      master_seed=1)
    assert rep["guard_events"] == [{"window": 0, "event": str(alone.value)}]
    assert rep["horizon_complete"] is False
    assert rep["satisfied"] is False


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


# ----------------------------------------------------------- coupling push

def coupled_strain_oracle(ua, vb):
    """lambda, max|S| and squared distances of one checkpoint, the way the
    coupled strain took them from the whole ensemble's strain tensor before
    the march evaluated them in shares."""
    g = ua.grid
    s = EU.strain(vb)
    w = ua.values - vb.values
    sq = F._sq_norms(w, g)
    den = float(np.sum(sq))
    num = float(g.cell_volume * np.sum(s.op_norm * (w**2).sum(axis=-3)))
    return (num / den if den != 0.0 else 0.0), float(s.op_norm.max()), sq


def test_push_coupling_lambda_matches_per_checkpoint_loop(threads):
    # the oracle pushes each ensemble by `evolve`, keeps every checkpoint
    # and evaluates the coupled strain per checkpoint; the stacked march
    # must give the same bits at any worker count, also where its blocks
    # (16 members at n=64) mix a and b and the worker shares are uneven
    g64 = F.Grid(2, 64)
    cases = []
    for grid, cfg, t, k, N in ((GRID, CFG, DT, 4, 4),
                               (g64, EU.EulerConfig(g64, dt=0.005), 0.01, 2,
                                24)):
        a = E.Ensemble(grid, np.stack([
            F.random_divfree(grid, 4.0, 8, seed=90 + i).values
            for i in range(N)]))
        b = E.Ensemble(grid, a.values + 0.05 * np.stack([
            F.random_divfree(grid, 4.0, 8, seed=190 + i).values
            for i in range(N)]))
        times, pa = EU.evolve(a, cfg, t, checkpoints=k)
        _, pb = EU.evolve(b, cfg, t, checkpoints=k)
        lam, sup, sq = map(np.array, zip(*(coupled_strain_oracle(ua, vb)
                                           for ua, vb in zip(pa, pb))))
        loop = np.array([EU.lambda_coupled(ua, vb) for ua, vb in zip(pa, pb)])
        assert lam.tobytes() == loop.tobytes()
        cases.append(((a, b, cfg, t, k),
                      (times, pa[-1], pb[-1], lam, sup, sq)))
    # a short switch interval interleaves the workers' shares and marches
    # finely, so a share that read a buffer the march was writing would
    # change a bit
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for count in (1, 2, 3):
            threads(count)
            for args, oracle in cases:
                got = EU.push_coupling(*args)
                times, a_t, b_t, lam, sup, sq = oracle
                assert got[0].tobytes() == times.tobytes()
                assert got[1].values.tobytes() == a_t.values.tobytes()
                assert got[2].values.tobytes() == b_t.values.tobytes()
                assert got[3].tobytes() == lam.tobytes()
                assert got[4].tobytes() == sup.tobytes()
                assert got[5].tobytes() == sq.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_push_coupling_peak_does_not_grow_with_checkpoints():
    # the marks take turns in two velocity buffers and each one's strain
    # is evaluated at the march's meeting there, so 32 checkpoints hold no
    # more than 4 (holding both paths would add 56 ensembles of 64 KB)
    a = unit_ensemble(4, 90)
    b = E.Ensemble(GRID, a.values + 0.05 * unit_ensemble(4, 94).values)
    t = 32 * CFG.dt

    def peak(checkpoints):
        tracemalloc.start()
        try:
            EU.push_coupling(a, b, CFG, t, checkpoints)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)   # fill the solver's operator caches outside the comparison
    few, many = peak(4), peak(32)
    assert abs(many - few) <= 0.1 * few


def test_push_commutes_with_member_permutation():
    # a march is blockwise (16 members per block at n=64), and a member's
    # result must not depend on its block: pushing then permuting equals
    # permuting then pushing, which push_coupling's callers rely on
    g = F.Grid(2, 64)
    cfg = EU.EulerConfig(g, dt=0.005)
    e = E.Ensemble(g, np.stack([F.random_divfree(g, 4.0, 8, seed=s).values
                                for s in range(40)]))
    order = np.random.default_rng(0).permutation(40)
    pushed = EU.evolve(e, cfg, 0.01).values[order]
    permuted = EU.evolve(E.Ensemble(g, e.values[order]), cfg, 0.01).values
    assert pushed.tobytes() == permuted.tobytes()


def oracle_rollout_ledger(a, b, cfg, spec, n_steps, dt_phys, seed, k):
    """The per-member rollout route: unaligned pushes, lambda per
    checkpoint, and the model kernel drawn member by member."""
    from lawbound.transport import wasserstein_exact

    mu, mu_hat = a, b
    delta, plan = wasserstein_exact(mu, mu_hat, p=2)
    deltas, alphas, defects = [delta], [], []
    for n in range(n_steps):
        times, ref_a = EU.evolve(mu, cfg, dt_phys, checkpoints=k)
        _, ref_b = EU.evolve(mu_hat, cfg, dt_phys, checkpoints=k)
        lam = [EU.lambda_coupled(ua, E.Ensemble(GRID,
                                                vb.values[plan.permutation]))
               for ua, vb in zip(ref_a, ref_b)]
        alphas.append(float(np.trapezoid(lam, times)))
        push = ref_b[-1]
        model = E.Ensemble.from_fields([
            sample_step(mu_hat.member(i), spec,
                        lambda u, i=i: push.member(i), seed, member=i,
                        step=n)[0] for i in range(mu.size)])
        defects.append(wasserstein_exact(push, model, p=2)[0])
        mu, mu_hat = ref_a[-1], model
        delta, plan = wasserstein_exact(mu, mu_hat, p=2)
        deltas.append(delta)
    return np.array(alphas), np.array(defects), np.array(deltas)


def test_experiment_matches_member_oracle():
    a = unit_ensemble(4, 20)
    b = E.Ensemble(GRID, a.values + 0.02 * unit_ensemble(4, 60).values)
    spec = SA.KernelSpec("perturbed-reference", internal_steps=4,
                         noise_scale=2e-3)
    ledger, _ = R.run_rollout_experiment(a, b, CFG, spec, n_steps=2,
                                         dt_phys=DT, master_seed=7,
                                         checkpoints_per_window=4)
    alphas, defects, deltas = oracle_rollout_ledger(a, b, CFG, spec, 2, DT,
                                                    7, 4)
    assert ledger.alphas.tobytes() == alphas.tobytes()
    assert ledger.defects.tobytes() == defects.tobytes()
    assert ledger.deltas.tobytes() == deltas.tobytes()


def test_experiment_peak_does_not_grow_with_windows():
    # a window's checkpoint paths are dropped once alpha_n is taken, so a
    # longer rollout must not hold one window's paths into the next
    a = unit_ensemble(4, 20)
    b = E.Ensemble(GRID, a.values + 0.02 * unit_ensemble(4, 60).values)
    spec = SA.KernelSpec("perturbed-reference", internal_steps=4,
                         noise_scale=2e-3)
    k = 8

    def peak(n_steps):
        tracemalloc.start()
        try:
            R.run_rollout_experiment(a, b, CFG, spec, n_steps=n_steps,
                                     dt_phys=DT, master_seed=7,
                                     checkpoints_per_window=k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)   # fill the solver's operator caches outside the comparison
    paths = 2 * (k + 1) * a.values.nbytes
    assert peak(3) - peak(1) < paths


def test_experiment_makes_one_march_per_window(monkeypatch):
    calls = {"march": 0, "from_fields": 0}
    march = EU._march
    from_fields = E.Ensemble.from_fields.__func__

    def counted_march(*args, **kw):
        calls["march"] += 1
        return march(*args, **kw)

    def counted_from_fields(cls, members):
        calls["from_fields"] += 1
        return from_fields(cls, members)

    a = unit_ensemble(3, 20)
    b = E.Ensemble(GRID, a.values + 0.02 * unit_ensemble(3, 60).values)
    spec = SA.KernelSpec("perturbed-reference", internal_steps=2,
                         noise_scale=2e-3)
    monkeypatch.setattr(EU, "_march", counted_march)
    monkeypatch.setattr(E.Ensemble, "from_fields",
                        classmethod(counted_from_fields))
    R.run_rollout_experiment(a, b, CFG, spec, n_steps=3, dt_phys=DT,
                             master_seed=7, checkpoints_per_window=2)
    assert calls == {"march": 3, "from_fields": 0}
