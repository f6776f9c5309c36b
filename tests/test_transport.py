import contextlib
import itertools
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from lawbound import ensemble as E
from lawbound import fields as F
from lawbound import reporting as RP
from lawbound import transport as T
from lawbound.cli import main
from spectral_oracle import full_spectrum, full_synthesize


def rand_ensemble(grid, N, m, rng, scale=1.0):
    return E.Ensemble(grid, scale * rng.standard_normal((N, m) + grid.shape))


GRID = F.Grid(2, 16)


def pairwise_loop(a, b):
    """The row-by-row explicit-difference kernel, kept as the oracle."""
    X, Y = a.values.reshape(a.size, -1), b.values.reshape(b.size, -1)
    sq = np.empty((X.shape[0], Y.shape[0]))
    for i in range(X.shape[0]):
        sq[i] = ((Y - X[i]) ** 2).sum(axis=1)
    return np.sqrt(a.grid.cell_volume * sq)


def tile_rows(grid, m):
    """Members of b per tile of the distance kernel."""
    return max(1, T._TILE_BYTES // (8 * m * grid.n**grid.d))


# ------------------------------------------------------- pairwise distances

def test_pairwise_tiles_match_loop_bitwise():
    rng = np.random.default_rng(21)
    wide = F.Grid(2, 256)             # one member is larger than a tile
    for grid, m in ((GRID, 2), (F.Grid(1, 32), 1), (wide, 2)):
        rows = tile_rows(grid, m)
        sizes = {(1, 1), (3, 1), (1, 5), (4, rows - 1), (4, rows),
                 (4, rows + 1), (3, 2 * rows + 1)}
        for n_a, n_b in sorted(s for s in sizes if min(s) >= 1):
            a = rand_ensemble(grid, n_a, m, rng)
            # nearly identical members, where cancellation would show
            near = a.values[rng.integers(0, n_a, n_b)]
            b = E.Ensemble(grid, near + 1e-9 * rng.standard_normal(near.shape))
            for x, y in ((a, b), (b, a)):
                assert np.array_equal(T.pairwise_distances(x, y),
                                      pairwise_loop(x, y)), (grid, n_a, n_b)
    assert tile_rows(GRID, 2) == 64 and tile_rows(wide, 2) == 1


@pytest.mark.parametrize("n_a", [1, 3, 7, 65])
def test_pairwise_row_blocks_identical_across_worker_counts(threads, n_a):
    rng = np.random.default_rng(23)
    a = rand_ensemble(GRID, n_a, 2, rng)
    b = rand_ensemble(GRID, 2 * tile_rows(GRID, 2) + 1, 2, rng)
    got = []
    for count in (1, 4):
        threads(count)
        got.append(T.pairwise_distances(a, b).tobytes())
    assert got[0] == got[1] == pairwise_loop(a, b).tobytes()


def test_pairwise_rejects_mismatched_grids():
    rng = np.random.default_rng(22)
    a = rand_ensemble(GRID, 2, 2, rng)
    with pytest.raises(ValueError):
        T.pairwise_distances(a, rand_ensemble(F.Grid(2, 8), 2, 2, rng))
    with pytest.raises(ValueError):
        T.pairwise_distances(a, rand_ensemble(GRID, 2, 1, rng))


# ------------------------------------------------- exact solves on a product

def explicit_exact(a, b, p):
    """The explicit route, kept as the oracle of every exact solve."""
    return T._exact_from_distances(T.pairwise_distances(a, b), p)


def explicit_costs(a, b, p):
    dist = T.pairwise_distances(a, b)
    return dist if p == 1 else dist**2


def oracle_pairs(N, scale, rng):
    """Seeded pairs (name, a, b) of N members scaled by `scale`."""
    a = scale * rng.standard_normal((N, 2) + GRID.shape)
    noise = scale * rng.standard_normal(a.shape)
    partners = {
        "independent": scale * rng.standard_normal(a.shape),
        "near 1e-2": a + 1e-2 * noise,
        "near 1e-6": a + 1e-6 * noise,
        "equal": a.copy(),
        "duplicates": a[rng.integers(0, N, N)],
    }
    return [(name, E.Ensemble(GRID, a), E.Ensemble(GRID, b))
            for name, b in partners.items()]


def refuse_explicit_matrix(a, b):
    raise AssertionError("the product route fell back")


@pytest.fixture
def no_explicit_matrix(monkeypatch):
    """Fail any exact solve that falls back to the explicit matrix."""
    monkeypatch.setattr(T, "pairwise_distances", refuse_explicit_matrix)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("N", [1, 2, 8])
def test_product_route_matches_explicit_route(N, scale):
    rng = np.random.default_rng(40)
    for name, a, b in oracle_pairs(N, scale, rng):
        for p in (1, 2):
            value, plan = T.wasserstein_exact(a, b, p)
            oracle, oracle_plan = explicit_exact(a, b, p)
            # the duals certify the permutation on the explicit costs too
            T._certify_duals(explicit_costs(a, b, p), plan.permutation,
                             plan.dual_row, plan.dual_col)
            assert np.array_equal(plan.permutation,
                                  oracle_plan.permutation), (name, p)
            assert value == oracle, (name, p)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("N", [1, 2, 8])
def test_product_route_certifies_every_solve(N, scale, monkeypatch,
                                             no_explicit_matrix):
    certified = []
    certify = T._certify_duals

    def counted(cost, perm, u, v, **kw):
        certify(cost, perm, u, v, **kw)
        certified.append(len(perm))

    monkeypatch.setattr(T, "_certify_duals", counted)
    rng = np.random.default_rng(41)
    for _, a, b in oracle_pairs(N, scale, rng):
        T.pair_costs(a, b)
        T.wasserstein_exact(a, b, 2)
    assert certified == [N] * 15


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_lower_costs_bound_the_explicit_costs(scale):
    rng = np.random.default_rng(42)
    h = GRID.cell_volume
    for _, a, b in oracle_pairs(8, scale, rng):
        mean = scale * rng.standard_normal((1, 2) + GRID.shape)
        # a shared mean 1e4 times the spread: centring rounds every value
        for shift in (0.0, 10.0, 1e4):
            x = E.Ensemble(GRID, a.values + shift * mean)
            y = E.Ensemble(GRID, b.values + shift * mean)
            product = T._product_sq(*T._members(x, y), h)
            for p in (1, 2):
                assert np.all(T._lower_costs(*product, h, p)
                              <= explicit_costs(x, y, p))


@pytest.mark.parametrize("spread", [1e-4, 1e-7])
def test_pair_sharing_a_large_mean_stays_on_the_product(spread, monkeypatch):
    # unit-size members that differ by `spread`: uncentred, the product's
    # rounding, relative to the norms, would swamp the costs
    rng = np.random.default_rng(43)
    base = rng.standard_normal((1, 2) + GRID.shape)
    a, b = (E.Ensemble(GRID, base + spread * rng.standard_normal(
        (64, 2) + GRID.shape)) for _ in range(2))
    expected = {p: explicit_exact(a, b, p) for p in (1, 2)}
    monkeypatch.setattr(T, "pairwise_distances", refuse_explicit_matrix)
    for p in (1, 2):
        value, plan = T.wasserstein_exact(a, b, p)
        assert value == expected[p][0]
        assert np.array_equal(plan.permutation, expected[p][1].permutation)
    assert T.pair_costs(a, b) == (expected[1][0], expected[2][0], None)


def test_members_of_very_different_sizes_match_the_explicit_route(
        monkeypatch):
    # members scaled by 1e-3 ... 1e8: the product's rounding, relative to
    # the largest norms, hides the small members' costs, and the
    # certificate's tolerance, relative to the largest cost, would too.
    # Each solve must still find the explicit optimum, or fall back.
    cases = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-3, 9, 12)
        values = scales[:, None, None, None] * rng.standard_normal(
            (12, 2) + GRID.shape)
        a, b = E.Ensemble(GRID, values[:6]), E.Ensemble(GRID, values[6:])
        cases += [(a, b, p, explicit_exact(a, b, p)[0]) for p in (1, 2)]
    fallbacks = []
    pairwise = T.pairwise_distances
    monkeypatch.setattr(T, "pairwise_distances",
                        lambda a, b: fallbacks.append(1) or pairwise(a, b))
    for a, b, p, oracle in cases:
        # permutations may differ where costs below the rounding of the
        # large ones tie; the optimal cost may not
        assert T.wasserstein_exact(a, b, p)[0] == oracle
    # some solves find a cycle that lowers the product's permutation on H
    assert 0 < len(fallbacks) < len(cases)


def test_column_potentials_prove_or_refute_a_permutation():
    cost = np.array([[0.0, 3.0, 5.0],
                     [2.0, 0.0, 4.0],
                     [1.0, 6.0, 0.0]])
    v = T._column_potentials(cost, np.array([0, 1, 2]))
    u = np.diag(cost) - v
    assert np.all(cost - u[:, None] - v[None, :] >= 0)
    # swapping rows 0 and 2 costs 5 + 1 against 0 + 0: a cheaper cycle
    assert T._column_potentials(cost, np.array([2, 1, 0])) is None


def test_rejected_certificate_reruns_that_solve_explicitly(monkeypatch):
    rng = np.random.default_rng(44)
    a = rand_ensemble(GRID, 8, 2, rng)
    b = rand_ensemble(GRID, 8, 2, rng)
    expected = {p: explicit_exact(a, b, p) for p in (1, 2)}
    calls = {"pairwise": 0, "certified": 0}
    pairwise, certify = T.pairwise_distances, T._certify_duals

    def counted_pairwise(x, y):
        calls["pairwise"] += 1
        return pairwise(x, y)

    def reject_first(*args, **kwargs):
        calls["certified"] += 1
        if calls["certified"] == 1:
            raise RuntimeError("assignment dual infeasible: solver bug")
        return certify(*args, **kwargs)

    monkeypatch.setattr(T, "pairwise_distances", counted_pairwise)
    monkeypatch.setattr(T, "_certify_duals", reject_first)
    w1, w2, _ = T.pair_costs(a, b)
    # W1 fell back to the explicit matrix; W2 passed on the product
    assert calls == {"pairwise": 1, "certified": 3}
    assert (w1, w2) == (expected[1][0], expected[2][0])
    calls.update(pairwise=0, certified=0)
    value, plan = T.wasserstein_exact(a, b, 2)
    assert calls == {"pairwise": 1, "certified": 2}
    assert value == expected[2][0]
    assert np.array_equal(plan.permutation, expected[2][1].permutation)
    assert np.array_equal(plan.dual_row, expected[2][1].dual_row)


@pytest.mark.parametrize("p", [1, 2])
def test_overflowing_members_keep_the_overflow_error(p):
    rng = np.random.default_rng(45)
    a = rand_ensemble(GRID, 4, 2, rng, scale=1e160)
    b = rand_ensemble(GRID, 4, 2, rng, scale=1e160)
    for solve in (lambda: T.wasserstein_exact(a, b, p), lambda: T.pair_costs(a, b)):
        with pytest.raises(ValueError, match="^transport costs overflow the "
                                             "float range$"):
            solve()


def test_pair_whose_norms_overflow_but_differences_do_not():
    # members +-x with ||x||^2 = 3e307: the product's range check
    # 2 (||x|| + ||x||)^2 overflows, so the pair goes to the explicit route,
    # whose largest squared difference 4 ||x||^2 is still finite
    x = np.random.default_rng(46).standard_normal((2,) + GRID.shape)
    x *= np.sqrt(3e307) / np.linalg.norm(x)
    a = E.Ensemble(GRID, np.stack([x, -x]))
    assert T._product_sq(*T._members(a, a), GRID.cell_volume) is None
    for p in (1, 2):
        value, plan = T.wasserstein_exact(a, a, p)
        assert value == 0.0 and plan.permutation.tolist() == [0, 1]


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


def test_sinkhorn_cost_not_below_exact_w2():
    # For certified duals (u, v) of the exact problem and any plan P whose
    # row and column sums miss 1/N by at most delta,
    #   <P, C> >= sum_ij P_ij (u_i + v_j) >= W2^2 - delta (|u|_1 + |v|_1),
    # so the entropic cost can undercut W2 only by the marginal tolerance.
    rng = np.random.default_rng(23)
    for N, scale in ((8, 1.0), (32, 0.3)):
        a = rand_ensemble(GRID, N, 1, rng)
        b = E.Ensemble(GRID, a.values + scale * rng.standard_normal(a.values.shape))
        dist = T.pairwise_distances(a, b)
        w2, plan = T._exact_from_distances(dist, 2)
        slack = T.MARGINAL_TOL * (np.abs(plan.dual_row).sum()
                                  + np.abs(plan.dual_col).sum())
        for eps in (1e-3 * w2**2, 3e-2 * w2**2):
            value, entropic = T._sinkhorn_from_cost(dist**2, eps, 20000)
            assert T._marginal_error(entropic.matrix) <= T.MARGINAL_TOL
            assert value**2 >= w2**2 - slack


def test_pair_costs_match_separate_solves():
    rng = np.random.default_rng(24)
    a = rand_ensemble(GRID, 12, 2, rng, scale=0.1)
    b = rand_ensemble(GRID, 12, 2, rng, scale=0.1)
    w1, w2, entropic = T.pair_costs(a, b, epsilon=0.05)
    assert w1 == T.wasserstein_exact(a, b, p=1)[0]
    assert w2 == T.wasserstein_exact(a, b, p=2)[0]
    assert entropic == T.sinkhorn(a, b, epsilon=0.05)[0]
    assert T.pair_costs(a, b)[2] is None
    with pytest.raises(ValueError):
        T.pair_costs(a, rand_ensemble(GRID, 11, 2, rng))


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


def test_capacity_sweep_matches_separate_solves():
    rng = np.random.default_rng(25)
    a = rand_ensemble(GRID, 8, 2, rng)
    b = rand_ensemble(GRID, 8, 2, rng)
    Ks = [1, 2.5, 4]
    sweep = T.capacity_sweep(a, b, Ks)
    w2 = T.wasserstein_exact(a, b, p=2)[0]
    w1 = T.wasserstein_exact(a, b, p=1)[0]
    for K, rep in zip(Ks, sweep):
        train = T.wasserstein_exact(T.project_ensemble(a, K),
                                    T.project_ensemble(b, K), p=2)[0]
        ta, tb = E.tail(a, K), E.tail(b, K)
        assert (rep.K, rep.w2, rep.w1, rep.tail_a, rep.tail_b, rep.train_k,
                rep.bound) == (K, w2, w1, ta, tb, train, ta + train + tb)
        assert rep.as_dict() == T.capacity_coverage(a, b, K).as_dict()
    with pytest.raises(ValueError, match="K must be >= 1"):
        T.capacity_sweep(a, b, [2, 0.5])


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

def batched(member_map):
    """An Ensemble -> Ensemble map from a per-member map (GridField, i)."""
    return lambda e: E.Ensemble(e.grid, np.stack(
        [member_map(e.member(i), i).values for i in range(e.size)]))


def test_one_step_defect_zero_for_matching_kernel():
    rng = np.random.default_rng(18)
    rho = rand_ensemble(GRID, 5, 2, rng)
    ref = batched(lambda u, i: F.GridField(u.grid, 2.0 * u.values))
    model = batched(lambda u, i: F.GridField(u.grid, 2.0 * u.values))
    assert T.one_step_defect(rho, ref, model) < 1e-12


def test_one_step_defect_constant_shift():
    rng = np.random.default_rng(19)
    rho = rand_ensemble(GRID, 5, 2, rng)
    c = 0.37
    ref = batched(lambda u, i: u)
    model = batched(lambda u, i: F.GridField(u.grid, u.values + c))
    shift_norm = F.l2_norm(F.GridField(GRID, np.full((2,) + GRID.shape, c)))
    val = T.one_step_defect(rho, ref, model)
    assert abs(val - shift_norm) <= 1e-10 * shift_norm


def test_one_step_defect_perturbation_scale():
    rng = np.random.default_rng(20)
    rho = rand_ensemble(GRID, 6, 2, rng)
    eps = 1e-2
    noise = [rng.standard_normal((2,) + GRID.shape) for _ in range(6)]
    ref = batched(lambda u, i: u)
    model = batched(lambda u, i: F.GridField(u.grid,
                                             u.values + eps * noise[i]))
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


# ------------------------------------------------- one matrix per CLI pair

def _count_calls(monkeypatch):
    calls = {"pairwise": 0, "product": 0, "certified": 0}
    pairwise, product = T.pairwise_distances, T._product_sq
    certify = T._certify_duals

    def counted_pairwise(a, b):
        calls["pairwise"] += 1
        return pairwise(a, b)

    def counted_product(*args):
        calls["product"] += 1
        return product(*args)

    def counted_certify(*args, **kwargs):
        calls["certified"] += 1
        return certify(*args, **kwargs)

    monkeypatch.setattr(T, "pairwise_distances", counted_pairwise)
    monkeypatch.setattr(T, "_product_sq", counted_product)
    monkeypatch.setattr(T, "_certify_duals", counted_certify)
    return calls


def _write_pair(tmp_path, N=6):
    rng = np.random.default_rng(26)
    paths = []
    for name in ("a", "b"):
        RP.write_ensemble(tmp_path / name,
                          rand_ensemble(GRID, N, 2, rng, scale=0.1))
        paths.append(str(tmp_path / name / "ensemble.json"))
    return paths


def test_cli_metrics_solves_the_pair_once(tmp_path, monkeypatch, capsys):
    a, b = _write_pair(tmp_path)
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"K_list": [2, 3, 4]}))
    calls = _count_calls(monkeypatch)
    assert main(["metrics", "--a", a, "--b", b, "--out", str(tmp_path / "m"),
                 "--config", str(cfg)]) == 0
    # W2 and W1 of (a, b) from one product, then one projected pair per K;
    # every solve certified, and no explicit distance matrix
    assert calls == {"pairwise": 0, "product": 1 + 3, "certified": 2 + 3}


def test_cli_transport_sinkhorn_uses_one_matrix(tmp_path, monkeypatch, capsys):
    a, b = _write_pair(tmp_path)
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"epsilon": 0.05}))
    calls = _count_calls(monkeypatch)
    assert main(["transport", "--a", a, "--b", b, "--out", str(tmp_path / "t"),
                 "--config", str(cfg)]) == 0
    # Sinkhorn reads every entry, so W1, W2 and the entropic cost share
    # one explicit matrix and no product is formed
    assert calls == {"pairwise": 1, "product": 0, "certified": 2}


_REPORTS = """
import sys
from lawbound.cli import main
from lawbound.reporting import strip_timing
a, b, entropic, out = sys.argv[1:]
runs = (("transport", []), ("metrics", []),
        ("transport", ["--config", entropic]))
for k, (command, config) in enumerate(runs):
    dest = f"{out}{k}{command}"
    assert main([command, "--a", a, "--b", b, *config, "--out", dest]) == 0
    print(strip_timing(open(dest + "/report.json").read()))
"""


def test_cli_reports_do_not_depend_on_blas_or_pool_threads(tmp_path):
    # 32 members of 2 x 32 x 32 values: a product large enough for the BLAS
    # to split it over two threads.  The entropic run reads the explicit
    # distance matrix; at epsilon 1 (W2^2 is about 151) Sinkhorn converges
    # in milliseconds.
    rng = np.random.default_rng(47)
    grid = F.Grid(2, 32)
    paths = []
    for name in ("a", "b"):
        RP.write_ensemble(tmp_path / name, rand_ensemble(grid, 32, 2, rng))
        paths.append(str(tmp_path / name / "ensemble.json"))
    paths.append(str(tmp_path / "entropic.json"))
    (tmp_path / "entropic.json").write_text(json.dumps({"epsilon": 1.0}))
    reports = set()
    for blas, pool in itertools.product((1, 2), (1, 2)):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas),
                   LAWBOUND_THREADS=str(pool))
        proc = subprocess.run(
            [sys.executable, "-c", _REPORTS, *paths,
             str(tmp_path / f"b{blas}p{pool}-")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        reports.add(proc.stdout)
    assert len(reports) == 1


_LIBRARY_COSTS = """
import numpy as np
from lawbound import ensemble as E
from lawbound import fields as F
from lawbound import transport as T
rng = np.random.default_rng(47)
grid = F.Grid(2, 32)
a, b = (E.Ensemble(grid, rng.standard_normal((32, 2) + grid.shape))
        for _ in range(2))
w1, w2, _ = T.pair_costs(a, b)
value, plan = T.wasserstein_exact(a, b)
print(w1.hex(), w2.hex(), value.hex(), plan.permutation.tolist())
"""


def test_library_costs_do_not_depend_on_blas_threads():
    # `lawbound` commands run BLAS on one thread whatever the caller set,
    # so the library is what meets a two-thread product: the pair of
    # `test_cli_reports_do_not_depend_on_blas_or_pool_threads`, unchanged
    # in every bit under one and two BLAS threads
    outputs = set()
    for blas in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-c", _LIBRARY_COSTS], capture_output=True,
            text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=str(blas)),
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_cli_metrics_fft_calls_do_not_grow_with_K_list(tmp_path, monkeypatch,
                                                       capsys):
    a, b = _write_pair(tmp_path)
    counts = {}
    for K_list in ([4], [4, 8, 16]):
        calls = []
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft",
                     "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
            def counted(*args, _f=getattr(np.fft, name), _name=name, **kw):
                calls.append(_name)
                return _f(*args, **kw)
            monkeypatch.setattr(np.fft, name, counted)
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"K_list": K_list}))
        assert main(["metrics", "--a", a, "--b", b, "--config", str(cfg),
                     "--out", str(tmp_path / f"m{len(K_list)}")]) == 0
        monkeypatch.undo()
        counts[len(K_list)] = sorted(calls)
    # one forward transform per ensemble and one inverse of the stacked
    # projections per ensemble (its two passes), whatever the number of K
    assert counts[1] == counts[3] == ["ifft", "ifft", "irfft", "irfft",
                                      "rfftn", "rfftn"]


# ------------------------------------------------- half-spectrum layout

def full_project_ensemble(e, K):
    """The full-complex projection that the half-spectrum route replaced."""
    mag = F._mode_magnitude(e.grid.d, e.grid.n)
    coef = np.where(mag <= K, full_spectrum(e.values, e.grid), 0.0)
    return E.Ensemble(e.grid, full_synthesize(coef, e.grid))


@pytest.mark.parametrize("K", [1, 2.5, 4, 7])
def test_project_ensemble_matches_full_complex_oracle(K):
    rng = np.random.default_rng(27)
    e = rand_ensemble(GRID, 5, 2, rng)
    oracle = full_project_ensemble(e, K).values
    proj = T.project_ensemble(e, K).values
    assert np.abs(proj - oracle).max() <= 1e-13 * np.abs(oracle).max()
    # the sweep's stacked projections are bitwise the single ones
    stacked = T._projections(F._half_spectrum(e.values, GRID), GRID,
                             [1, K, 8])
    assert np.array_equal(stacked[1].values, proj)


# --------------------------------------------------- non-finite cost matrices

def _run_python(args, timeout=60):
    """A child interpreter, so that a hang fails the test at its timeout."""
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("command", ["transport", "metrics"])
def test_cli_exits_1_on_distances_beyond_the_float_range(tmp_path, command):
    # finite members of about 1e160 square to inf in the distance kernel
    rng = np.random.default_rng(31)
    paths = []
    for name in ("a", "b"):
        v = rng.standard_normal((4, 2) + GRID.shape)
        RP.write_ensemble(tmp_path / name,
                          E.Ensemble(GRID, 1e160 * v / np.abs(v).max()))
        paths.append(str(tmp_path / name / "ensemble.json"))
    proc = _run_python(["-m", "lawbound.cli", command, "--a", paths[0],
                        "--b", paths[1], "--out", str(tmp_path / "out")])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "overflow the float range" in proc.stderr


def test_solve_assignment_raises_on_non_finite_costs():
    code = ("import numpy as np\n"
            "from lawbound.transport import solve_assignment\n"
            "for cost in (np.full((3, 3), np.inf), np.full((4, 4), np.nan),\n"
            "             np.array([[np.inf, np.inf], [1.0, 2.0]])):\n"
            "    try:\n"
            "        solve_assignment(cost)\n"
            "    except RuntimeError as exc:\n"
            "        print('raised:', exc)\n")
    proc = _run_python(["-c", code])
    assert proc.stdout.count("raised: assignment search") == 3, proc.stderr


def test_entropic_solve_rejects_non_finite_costs():
    a = rand_ensemble(GRID, 3, 2, np.random.default_rng(32), scale=1e160)
    b = rand_ensemble(GRID, 3, 2, np.random.default_rng(33), scale=1e160)
    with pytest.raises(ValueError, match="overflow the float range"):
        T.sinkhorn(a, b, 0.1, max_iter=50)


# ---------------------------------------------------- fuzz of the exact core

@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the main thread once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"exact solve still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


FUZZ_GRID = F.Grid(2, 8)


@st.composite
def exact_pairs(draw):
    """Two N-member ensembles on an 8x8 grid whose members are random,
    band-limited, zero, constant or duplicates of earlier ones, each scaled
    by 10^e with |e| <= 160; and a member permutation."""
    N = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(2 * N):
        kind = draw(st.sampled_from(["random", "band", "zero", "constant",
                                     "duplicate"]))
        scale = 10.0 ** draw(st.integers(-160, 160))
        if kind == "duplicate" and members:
            v = members[draw(st.integers(0, len(members) - 1))]
        elif kind == "band":
            v = F.random_divfree(FUZZ_GRID, 4.0, 2, seed=rng).values
            v = scale * v / np.abs(v).max()
        elif kind == "zero":
            v = np.zeros((2,) + FUZZ_GRID.shape)
        elif kind == "constant":
            v = scale * rng.standard_normal((2, 1, 1)) + np.zeros((2, 8, 8))
        else:
            v = scale * rng.standard_normal((2,) + FUZZ_GRID.shape)
        members.append(v)
    values = np.stack(members)
    perm = np.array(draw(st.permutations(range(N))))
    return (E.Ensemble(FUZZ_GRID, values[:N]),
            E.Ensemble(FUZZ_GRID, values[N:]), perm)


def _solve_or_none(a, b, p):
    """W_p of the pair (every solve certified by _certify_duals), or None
    when the cost matrix is rejected with a one-line ValueError."""
    try:
        return T.wasserstein_exact(a, b, p)[0]
    except ValueError as exc:
        assert "\n" not in str(exc) and "overflow" in str(exc)
        return None


def _close(x, y):
    return abs(x - y) <= 1e-12 * max(abs(x), abs(y))


@settings(max_examples=150, deadline=None)
@given(exact_pairs(), st.sampled_from([1, 2]))
def test_exact_core_fuzz(pair, p):
    a, b, perm = pair
    with _time_limit(10):
        aa = _solve_or_none(a, a, p)
        ab = _solve_or_none(a, b, p)
        ba = _solve_or_none(b, a, p)
        pb = _solve_or_none(E.Ensemble(a.grid, a.values[perm]), b, p)
    assert aa is None or aa == 0.0
    assert (ab is None) == (ba is None) == (pb is None)
    if ab is not None:
        assert _close(ab, ba) and _close(ab, pb)
