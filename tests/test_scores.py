import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lawbound import ensemble as E
from lawbound import fields as F
from lawbound import scores as S
from lawbound import transport as T

GRID = F.Grid(2, 16)


def rand_ensemble(N, rng, m=2, grid=GRID):
    return E.Ensemble(grid, rng.standard_normal((N, m) + grid.shape))


def w1_exact(x, y):
    """Exact W1 of equal-size point clouds (N, m) by `wasserstein_exact` on
    constant fields over Grid(1, 8), whose L2 distance is sqrt(2 pi)|x - y|."""
    grid = F.Grid(1, 8)

    def constant(p):
        return E.Ensemble(grid, np.repeat(np.asarray(p)[..., None], 8, -1))
    return T.wasserstein_exact(constant(x), constant(y), p=1)[0] / np.sqrt(
        grid.volume)


def apply(obs, u):
    """l(u) of one field: the per-member view of `apply_ensemble`."""
    return F.inner(u, obs.psi)


# ------------------------------------------------------------------- CRPS

def test_crps_point_degenerate():
    assert abs(S.crps([2.0], 0.5) - 1.5) < 1e-15


def test_crps_identical_laws_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(32)
    assert abs(S.crps_between(x, x)) < 1e-14


def test_crps_two_point_quarter():
    # P = (delta_0 + delta_1)/2, y = 0: E|X| = 1/2, E|X-X'|/2 = 1/4
    assert abs(S.crps([0.0, 1.0], 0.0) - 0.25) < 1e-15


def test_crps_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.standard_normal(16)
        y = rng.standard_normal(16)
        v = S.crps_between(x, y)
        assert v >= -1e-12
        assert v > 1e-4  # distinct continuous samples
    x = rng.standard_normal(16)
    assert abs(S.crps_between(x, np.random.permutation(x))) < 1e-13


def test_crps_w1_delta_masses():
    rep = S.crps_w1_check([0.0], [1.0], [0.0])
    assert abs(rep["crps"] - 1.0) < 1e-15
    assert abs(rep["w1"] - 1.0) < 1e-15
    assert rep["direct_ok"] and rep["lipschitz_ok"]


def test_crps_w1_200_random_triples():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = rng.standard_normal(64) * rng.uniform(0.5, 2)
        q = rng.standard_normal(64) + rng.uniform(-1, 1)
        p2 = rng.standard_normal(64)
        rep = S.crps_w1_check(p, q, p2)
        assert rep["direct_ok"] and rep["lipschitz_ok"]


# ----------------------------------------------------------- energy score

def test_energy_degenerate_and_identical():
    a = np.array([[1.0, 2.0]])
    y = np.array([4.0, 6.0])
    assert abs(S.energy_score(a, y) - 5.0) < 1e-14
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 3))
    assert abs(S.energy_between(x, x)) < 1e-13


def test_energy_matches_crps_in_1d():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((32, 1))
    y = rng.standard_normal((32, 1))
    assert abs(S.energy_between(x, y) - S.crps_between(x[:, 0], y[:, 0])) < 1e-12


def test_energy_below_2w1_vector_case():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.standard_normal((16, 2))
        y = rng.standard_normal((16, 2)) + 0.5
        es = S.energy_between(x, y)
        w1 = w1_exact(x, y)
        assert es <= 2.0 * w1 + 1e-12


def test_exact_w1_certifies_the_solve(monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 3))
    y = rng.standard_normal((8, 3)) + 0.5
    solve = T.solve_assignment

    def corrupted(cost):
        perm, u, v = solve(cost)
        return np.roll(perm, 1), u, v

    monkeypatch.setattr(T, "solve_assignment", corrupted)
    with pytest.raises(RuntimeError, match="assignment"):
        w1_exact(x, y)


def test_w1_sorted_matches_assignment_1d():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(24)
    y = rng.standard_normal(24)
    assert abs(S.w1_sorted(x, y) - w1_exact(x[:, None], y[:, None])) < 1e-12


# ------------------------------------------------------------ observables

def test_inner_product_observable_lipschitz():
    psi = F.random_divfree(GRID, 3.0, 4, seed=1)
    obs = S.inner_product_observable(psi)
    assert abs(obs.lipschitz - F.l2_norm(psi)) < 1e-14
    rng = np.random.default_rng(7)
    u = F.GridField(GRID, rng.standard_normal((2,) + GRID.shape))
    v = F.GridField(GRID, rng.standard_normal((2,) + GRID.shape))
    gap = abs(apply(obs, u) - apply(obs, v))
    dist = F.l2_norm(F.GridField(GRID, u.values - v.values))
    assert gap <= obs.lipschitz * dist + 1e-12


@pytest.mark.parametrize("grid, m", [(F.Grid(1, 32), 1), (F.Grid(1, 16), 2),
                                     (GRID, 2), (F.Grid(2, 32), 1)])
def test_apply_ensemble_matches_member_apply(grid, m):
    rng = np.random.default_rng(8 + grid.d + m)
    obs = S.inner_product_observable(
        F.GridField(grid, rng.standard_normal((m,) + grid.shape)))
    e = rand_ensemble(5, rng, m=m, grid=grid)
    batch = obs.apply_ensemble(e)
    loop = np.array([apply(obs, e.member(i)) for i in range(e.size)])
    assert batch.shape == (5,)
    assert np.abs(batch - loop).max() <= 1e-13 * np.abs(loop).max()


def test_mollified_observable_unit_mass_and_lip():
    obs = S.mollified_point_observable(GRID, (np.pi, np.pi), 0, width=0.5)
    mass = GRID.cell_volume * obs.psi.values[0].sum()
    assert abs(mass - 1.0) < 1e-12
    const = F.GridField(GRID, np.stack([np.full(GRID.shape, 3.0),
                                        np.zeros(GRID.shape)]))
    assert abs(apply(obs, const) - 3.0) < 1e-12
    assert obs.lipschitz > 0


def test_crps_dT_identical_curves():
    rng = np.random.default_rng(8)
    ens = [rand_ensemble(8, rng) for _ in range(3)]
    c = E.LawCurve([0.0, 0.4, 1.0], ens)
    obs = S.inner_product_observable(F.random_divfree(GRID, 3.0, 4, seed=2))
    rep = S.crps_dT_check(c, c, obs)
    assert rep["crps_integral"] < 1e-12
    assert rep["integral_ok"] and rep["per_time_ok"]


def test_crps_dT_singleton_cauchy_schwarz():
    rng = np.random.default_rng(9)
    a = rand_ensemble(1, rng)
    b = rand_ensemble(1, rng)
    obs = S.inner_product_observable(F.random_divfree(GRID, 3.0, 4, seed=3))
    ca = E.LawCurve([0.0, 1.0], [a, a])
    cb = E.LawCurve([0.0, 1.0], [b, b])
    rep = S.crps_dT_check(ca, cb, obs)
    gap = abs(apply(obs, a.member(0)) - apply(obs, b.member(0)))
    dist = F.l2_norm(F.GridField(GRID, a.values[0] - b.values[0]))
    assert abs(rep["rows"][0]["crps"] - gap) < 1e-12
    assert gap <= obs.lipschitz * dist + 1e-12
    assert rep["integral_ok"] and rep["per_time_ok"]


def test_crps_dT_random_curves():
    rng = np.random.default_rng(10)
    times = [0.0, 0.3, 0.7, 1.0]
    ca = E.LawCurve(times, [rand_ensemble(8, rng) for _ in times])
    cb = E.LawCurve(times, [rand_ensemble(8, rng) for _ in times])
    for obs in (S.inner_product_observable(F.random_divfree(GRID, 3.0, 4, seed=4)),
                S.mollified_point_observable(GRID, (1.0, 2.0), 1, width=0.4)):
        rep = S.crps_dT_check(ca, cb, obs)
        assert rep["integral_ok"] and rep["per_time_ok"]


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_crps_dT_check_rejects_a_false_lipschitz_claim_at_any_scale(c):
    # an observable claiming 1e-6 of its Lipschitz constant breaks the
    # chain W1(l#a, l#b) <= Lip(l) W1(a, b) and the d_T integral; an
    # absolute slack of 1e-9 passed both once members were near 1e-12
    rng = np.random.default_rng(10)
    times = [0.0, 0.3, 1.0]
    ca, cb = (E.LawCurve(times, [E.Ensemble(GRID, c * e.values) for e in
                                 (rand_ensemble(8, rng) for _ in times)])
              for _ in range(2))
    true = S.inner_product_observable(F.random_divfree(GRID, 3.0, 4, seed=4))
    rep = S.crps_dT_check(ca, cb, true)
    assert rep["integral_ok"] and rep["per_time_ok"]
    false = S.ResolvedObservable(true.kind, true.psi, 1e-6 * true.lipschitz)
    rep = S.crps_dT_check(ca, cb, false)
    assert not rep["integral_ok"]
    assert not any(r["ok"] for r in rep["rows"])


def test_crps_dT_check_solves_each_time_once(monkeypatch):
    from lawbound import transport as T
    rng = np.random.default_rng(10)
    times = [0.0, 0.3, 0.7, 1.0]
    ca = E.LawCurve(times, [rand_ensemble(8, rng) for _ in times])
    cb = E.LawCurve(times, [rand_ensemble(8, rng) for _ in times])
    obs = S.inner_product_observable(F.random_divfree(GRID, 3.0, 4, seed=4))
    solves = []
    exact = T.wasserstein_exact

    def counted(a, b, p=2):
        solves.append(p)
        return exact(a, b, p=p)

    monkeypatch.setattr(T, "wasserstein_exact", counted)
    rep = S.crps_dT_check(ca, cb, obs)
    monkeypatch.undo()
    assert solves == [1] * len(times)
    assert rep["d_T"] == T.time_integrated_w1(ca, cb)[0]


# ------------------------------------------------------------------- XNLL

def truth_map(u):
    return F.GridField(u.grid, 1.5 * u.values)


def test_xnll_model_equals_truth():
    rng = np.random.default_rng(11)
    inputs = rand_ensemble(4, rng)
    num = E.Ensemble(GRID, np.stack([truth_map(inputs.member(i)).values
                                     for i in range(4)]))
    cert = S.QuadraticCertificate(lam=2.0, b_true=truth_map)
    rep = S.excess_nll_check(inputs, num, num, cert)
    assert rep["mse"] == 0.0 and rep["excess_nll"] == 0.0
    assert rep["satisfied"]


def test_xnll_single_pair_quadratic_equality():
    rng = np.random.default_rng(12)
    inputs = rand_ensemble(1, rng)
    truth = truth_map(inputs.member(0)).values
    c = 0.7
    num = E.Ensemble(GRID, truth[None])
    model = E.Ensemble(GRID, (truth + c)[None])
    lam = 3.0
    cert = S.QuadraticCertificate(lam=lam, b_true=truth_map)
    rep = S.excess_nll_check(inputs, num, model, cert)
    shift_sq = F.l2_norm(F.GridField(GRID, np.full((2,) + GRID.shape, c))) ** 2
    assert abs(rep["mse"] - shift_sq) < 1e-10 * shift_sq
    assert abs(rep["excess_nll"] - 0.5 * lam * shift_sq) < 1e-10 * shift_sq
    assert rep["equality_gap"] <= 1e-10
    assert rep["satisfied"]


def test_xnll_random_equality_gap():
    rng = np.random.default_rng(13)
    inputs = rand_ensemble(8, rng)
    num = E.Ensemble(GRID, np.stack([truth_map(inputs.member(i)).values
                                     for i in range(8)]))
    model = E.Ensemble(GRID, num.values + 0.1 * rng.standard_normal(num.values.shape))
    cert = S.QuadraticCertificate(lam=1.7, b_true=truth_map)
    rep = S.excess_nll_check(inputs, num, model, cert)
    assert rep["equality_gap"] <= 1e-10
    assert rep["satisfied"]
    # direct summation oracle for the MSE
    direct = np.mean([
        GRID.cell_volume * np.sum((model.values[i] - num.values[i]) ** 2)
        for i in range(8)
    ])
    assert abs(rep["mse"] - direct) <= 1e-12 * direct


def test_xnll_measured_reconstruction_constant():
    # down-up spectral pair: truncate to K then back; c_r measured <= 1
    rng = np.random.default_rng(14)
    inputs = rand_ensemble(6, rng)
    K = 4

    def down_up(u):
        return F.inverse(F.project_leq(F.forward(u), K))

    num = E.Ensemble(GRID, np.stack([down_up(truth_map(inputs.member(i))).values
                                     for i in range(6)]))
    model = E.Ensemble(GRID, num.values * 1.05)
    ratios = []
    for i in range(6):
        z = F.GridField(GRID, num.values[i])
        ratios.append(F.l2_norm(down_up(z)) / max(F.l2_norm(z), 1e-30))
    c_r = max(ratios)
    assert c_r <= 1.0 + 1e-12
    cert = S.QuadraticCertificate(lam=2.0, b_true=lambda u: down_up(truth_map(u)),
                                  c_r=c_r)
    rep = S.excess_nll_check(inputs, num, model, cert)
    assert rep["satisfied"]


# ---------------------------------------------------------------- clipping

def test_clip_identity_below_level():
    vals = np.array([-0.5, 0.2, 0.9])
    assert np.array_equal(S.clip_values(vals, 1.0), vals)


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 10))
def test_clip_is_1_lipschitz(a, b, level):
    ca, cb = S.clip_values([a, b], level)
    assert abs(ca - cb) <= abs(a - b) + 1e-12


def test_tail_bound_gaussian_sweep():
    rng = np.random.default_rng(15)
    e_in = rand_ensemble(16, rng)
    e_out = rand_ensemble(16, rng)
    for radius in (1.0, 2.0, 4.0, 8.0):
        rep = S.tail_bound_report(e_in, e_out, radius)
        assert rep["satisfied"]
    with pytest.raises(ValueError):
        S.tail_bound_report(e_in, e_out, 0.0)
