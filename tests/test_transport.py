import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from lawbound import ensemble as E
from lawbound import fields as F
from lawbound import transport as T


def rand_ensemble(grid, N, m, rng, scale=1.0):
    return E.Ensemble(grid, scale * rng.standard_normal((N, m) + grid.shape))


GRID = F.Grid(2, 16)


# --------------------------------------------------------------- assignment

def test_assignment_matches_brute_force_and_scipy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = 4
        cost = rng.random((n, n))
        perm, u, v = T.solve_assignment(cost)
        best = min(
            sum(cost[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        got = sum(cost[i, perm[i]] for i in range(n))
        assert abs(got - best) < 1e-12
    for n in (8, 33):
        cost = rng.random((n, n))
        perm, u, v = T.solve_assignment(cost)
        r, c = linear_sum_assignment(cost)
        assert abs(cost[np.arange(n), perm].sum() - cost[r, c].sum()) < 1e-10


def test_assignment_dual_certificate():
    rng = np.random.default_rng(1)
    cost = rng.random((12, 12))
    perm, u, v = T.solve_assignment(cost)
    slack = cost - u[:, None] - v[None, :]
    assert slack.min() > -1e-10
    assert np.abs(cost[np.arange(12), perm] - u - v[perm]).max() < 1e-10


# ------------------------------------------------------------------ exact W

def test_identical_ensembles_zero_identity_permutation():
    rng = np.random.default_rng(2)
    a = rand_ensemble(GRID, 6, 2, rng)
    for p in (1, 2):
        val, plan = T.wasserstein_exact(a, a, p=p)
        assert val < 1e-12
        assert np.array_equal(plan.permutation, np.arange(6))


def test_singletons_give_l2_distance():
    rng = np.random.default_rng(3)
    a = rand_ensemble(GRID, 1, 2, rng)
    b = rand_ensemble(GRID, 1, 2, rng)
    d = F.l2_norm(F.GridField(GRID, a.values[0] - b.values[0]))
    for p in (1, 2):
        val, _ = T.wasserstein_exact(a, b, p=p)
        assert abs(val - d) <= 1e-12 * d


def test_w_exact_matches_permutation_bruteforce():
    rng = np.random.default_rng(4)
    a = rand_ensemble(GRID, 4, 2, rng)
    b = rand_ensemble(GRID, 4, 2, rng)
    dist = T.pairwise_distances(a, b)
    for p in (1, 2):
        val, _ = T.wasserstein_exact(a, b, p=p)
        cost = dist if p == 1 else dist**2
        best = min(
            np.mean([cost[i, s[i]] for i in range(4)])
            for s in itertools.permutations(range(4))
        )
        best = best if p == 1 else np.sqrt(best)
        assert abs(val - best) <= 1e-12 * max(best, 1.0)


def test_unequal_sizes_rejected():
    rng = np.random.default_rng(5)
    a = rand_ensemble(GRID, 3, 1, rng)
    b = rand_ensemble(GRID, 4, 1, rng)
    with pytest.raises(ValueError):
        T.wasserstein_exact(a, b)


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rand_ensemble(GRID, 5, 1, rng)
        b = rand_ensemble(GRID, 5, 1, rng)
        c = rand_ensemble(GRID, 5, 1, rng)
        for p in (1, 2):
            dab = T.wasserstein_exact(a, b, p)[0]
            dba = T.wasserstein_exact(b, a, p)[0]
            assert abs(dab - dba) < 1e-12
            dac = T.wasserstein_exact(a, c, p)[0]
            dcb = T.wasserstein_exact(c, b, p)[0]
            assert dab <= dac + dcb + 1e-9


def test_w1_below_w2_and_projection_monotone():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rand_ensemble(GRID, 8, 2, rng)
        b = rand_ensemble(GRID, 8, 2, rng)
        w1 = T.wasserstein_exact(a, b, 1)[0]
        w2 = T.wasserstein_exact(a, b, 2)[0]
        assert w1 <= w2 + 1e-9
        K = 3
        w2p = T.wasserstein_exact(T.project_ensemble(a, K),
                                  T.project_ensemble(b, K), 2)[0]
        assert w2p <= w2 + 1e-9


# ---------------------------------------------------------------- sinkhorn

def test_sinkhorn_identical_small():
    rng = np.random.default_rng(8)
    a = rand_ensemble(GRID, 8, 1, rng)
    eps = 1e-3
    val, plan = T.sinkhorn(a, a, epsilon=eps)
    spread = T.pairwise_distances(a, a).max()
    assert val <= np.sqrt(eps) * spread * 10


def test_sinkhorn_singletons():
    rng = np.random.default_rng(9)
    a = rand_ensemble(GRID, 1, 1, rng)
    b = rand_ensemble(GRID, 1, 1, rng)
    d = T.pairwise_distances(a, b)[0, 0]
    val, _ = T.sinkhorn(a, b, epsilon=1e-2)
    assert abs(val - d) < 1e-6 + 1e-9 * d


def test_sinkhorn_close_to_exact():
    rng = np.random.default_rng(10)
    a = rand_ensemble(GRID, 64, 1, rng)
    b = E.Ensemble(GRID, a.values + 0.3 * rng.standard_normal(a.values.shape))
    exact = T.wasserstein_exact(a, b, 2)[0]
    approx, _ = T.sinkhorn(a, b, epsilon=5e-4 * exact**2, max_iter=20000)
    assert abs(approx - exact) <= 0.05 * exact


def test_sinkhorn_rejects_bad_epsilon():
    rng = np.random.default_rng(11)
    a = rand_ensemble(GRID, 2, 1, rng)
    with pytest.raises(ValueError):
        T.sinkhorn(a, a, epsilon=0.0)


# ---------------------------------------------------------------------- dT

def test_dT_identical_zero():
    rng = np.random.default_rng(12)
    ens = [rand_ensemble(GRID, 4, 1, rng) for _ in range(3)]
    c = E.LawCurve([0.0, 0.5, 1.0], ens)
    val, _ = T.time_integrated_w1(c, c)
    assert val < 1e-12


def test_dT_time_constant_singletons():
    rng = np.random.default_rng(13)
    a = rand_ensemble(GRID, 1, 1, rng)
    b = rand_ensemble(GRID, 1, 1, rng)
    d = T.pairwise_distances(a, b)[0, 0]
    Tfin = 0.8
    ca = E.LawCurve([0.0, Tfin / 2, Tfin], [a, a, a])
    cb = E.LawCurve([0.0, Tfin / 2, Tfin], [b, b, b])
    val, _ = T.time_integrated_w1(ca, cb)
    assert abs(val - Tfin * d) <= 1e-12 * max(Tfin * d, 1.0)


def test_dT_matches_per_time_quadrature():
    rng = np.random.default_rng(14)
    times = [0.0, 0.3, 1.0]
    ca = E.LawCurve(times, [rand_ensemble(GRID, 4, 1, rng) for _ in range(3)])
    cb = E.LawCurve(times, [rand_ensemble(GRID, 4, 1, rng) for _ in range(3)])
    val, w1s = T.time_integrated_w1(ca, cb)
    manual = [T.wasserstein_exact(ea, eb, 1)[0]
              for ea, eb in zip(ca.ensembles, cb.ensembles)]
    assert np.allclose(w1s, manual)
    assert abs(val - np.trapezoid(manual, times)) < 1e-14


# ------------------------------------------------------- capacity/coverage

def test_capacity_identical_all_zero():
    rng = np.random.default_rng(15)
    a = rand_ensemble(GRID, 4, 2, rng)
    rep = T.capacity_coverage(a, a, K=3)
    assert rep.w2 < 1e-12 and rep.train_k < 1e-12
    assert rep.satisfied


def test_capacity_projected_pair_equality_case():
    # b = projected a: W2(a, b) <= Tail_K(a), realized by the diagonal coupling
    rng = np.random.default_rng(16)
    a = rand_ensemble(GRID, 6, 2, rng)
    K = 3
    b = T.project_ensemble(a, K)
    rep = T.capacity_coverage(a, b, K)
    diag = np.sqrt(np.mean([
        F.l2_norm(F.GridField(GRID, a.values[i] - b.values[i])) ** 2
        for i in range(a.size)
    ]))
    ta = E.tail(a, K)
    assert abs(diag - ta) <= 1e-10 * ta  # the coupling bound is tight here
    assert rep.w2 <= ta + 1e-9
    assert rep.band_limited_b
    assert rep.satisfied


def test_project_ensemble_matches_member_loop():
    rng = np.random.default_rng(18)
    for grid, m in ((GRID, 2), (F.Grid(1, 32), 1)):
        a = rand_ensemble(grid, 5, m, rng)
        for K in (1, 3, 5.5):
            batch = T.project_ensemble(a, K).values
            loop = np.stack([F.inverse(F.project_leq(F.forward(a.member(i)), K)).values
                             for i in range(a.size)])
            assert np.max(np.abs(batch - loop)) <= 1e-15 * np.max(np.abs(loop))
    with pytest.raises(ValueError):
        T.project_ensemble(a, 0.5)


def test_capacity_random_pairs_never_violated():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rand_ensemble(GRID, 8, 2, rng)
        b = rand_ensemble(GRID, 8, 2, rng)
        rep = T.capacity_coverage(a, b, K=rng.integers(1, 6))
        assert rep.satisfied
        assert rep.w1 <= rep.w2 + 1e-9


# ------------------------------------------------------------------ defect

def test_one_step_defect_zero_for_matching_kernel():
    rng = np.random.default_rng(18)
    rho = rand_ensemble(GRID, 5, 2, rng)
    ref = lambda u: F.GridField(u.grid, 2.0 * u.values)
    model = lambda u, i: F.GridField(u.grid, 2.0 * u.values)
    assert T.one_step_defect(rho, ref, model) < 1e-12


def test_one_step_defect_constant_shift():
    rng = np.random.default_rng(19)
    rho = rand_ensemble(GRID, 5, 2, rng)
    c = 0.37
    ref = lambda u: u
    model = lambda u, i: F.GridField(u.grid, u.values + c)
    shift_norm = F.l2_norm(F.GridField(GRID, np.full((2,) + GRID.shape, c)))
    val = T.one_step_defect(rho, ref, model)
    assert abs(val - shift_norm) <= 1e-10 * shift_norm


def test_one_step_defect_perturbation_scale():
    rng = np.random.default_rng(20)
    rho = rand_ensemble(GRID, 6, 2, rng)
    eps = 1e-2
    noise = [rng.standard_normal((2,) + GRID.shape) for _ in range(6)]
    ref = lambda u: u
    model = lambda u, i: F.GridField(u.grid, u.values + eps * noise[i])
    # identity coupling is an upper bound; actual defect within 10% of it
    upper = np.sqrt(np.mean([
        F.l2_norm(F.GridField(GRID, eps * noise[i])) ** 2 for i in range(6)
    ]))
    val = T.one_step_defect(rho, ref, model)
    assert val <= upper * (1 + 1e-12)
    assert val >= 0.9 * upper


def test_assignment_tie_break_lowest_index():
    # all-equal costs: lowest-index pairing wins, so runs are reproducible
    cost = np.zeros((5, 5))
    perm, _, _ = T.solve_assignment(cost)
    assert np.array_equal(perm, np.arange(5))
    tie = np.array([[1.0, 1.0], [1.0, 1.0]])
    perm2, _, _ = T.solve_assignment(tie)
    assert np.array_equal(perm2, np.arange(2))
