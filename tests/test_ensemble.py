import numpy as np
import pytest

from lawbound import fields as F
from lawbound import ensemble as E
from spectral_oracle import full_spectrum


def grf_ensemble(grid, n_members, s, k_max, seed0):
    p = F.spectrum_exponent_for_structure(s)
    return E.Ensemble.from_fields(
        [F.random_divfree(grid, p, k_max, seed=seed0 + i) for i in range(n_members)]
    )


# ------------------------------------------------------------------ moments

def test_moment_zero_and_cosine():
    g1 = F.Grid(1, 32)
    zero = E.Ensemble(g1, np.zeros((1, 1, 32)))
    assert E.moment(zero, 2) == 0.0
    x = g1.coordinates()[0]
    single = E.Ensemble(g1, np.cos(x)[None, None])
    assert abs(E.moment(single, 2) - np.pi) < 1e-12


def test_moment_matches_member_loop():
    g = F.Grid(2, 16)
    rng = np.random.default_rng(0)
    e = E.Ensemble(g, rng.standard_normal((3, 2) + g.shape))
    for p in (2, 4):
        direct = sum(F.l2_norm(e.member(i)) ** p for i in range(3)) / 3.0
        assert abs(E.moment(e, p) - direct) <= 1e-12 * direct


def test_moment_rejects_odd_order():
    g = F.Grid(1, 16)
    e = E.Ensemble(g, np.ones((1, 1, 16)))
    with pytest.raises(ValueError):
        E.moment(e, 3)


# -------------------------------------------------------------------- tails

def test_tail_band_limited_cases():
    g = F.Grid(1, 32)
    x = g.coordinates()[0]
    e = E.Ensemble(g, np.stack([np.cos(5 * x)[None]] * 3))
    assert E.tail(e, 8) < 1e-13
    assert abs(E.tail(e, 4) - np.sqrt(np.pi)) < 1e-12


def test_tail_energy_split_invariant():
    g = F.Grid(2, 32)
    rng = np.random.default_rng(1)
    e = E.Ensemble(g, rng.standard_normal((4, 2) + g.shape))
    prev = np.inf
    for K in (1, 2, 4, 8):
        t = E.tail(e, K)
        assert t <= prev + 1e-12
        prev = t
        low = np.mean([F.spec_l2_norm(F.project_leq(F.forward(e.member(i)), K)) ** 2
                       for i in range(e.size)])
        assert abs(t**2 + low - E.moment(e, 2)) <= 1e-9 * E.moment(e, 2)


def test_tail_slope_matches_target():
    # log tail vs log K slope = -s for a synthesized power-law ensemble
    g = F.Grid(2, 256)
    e = grf_ensemble(g, 64, s=0.5, k_max=g.n // 2 - 1, seed0=100)
    Ks = np.array([4.0, 8.0, 16.0, 32.0])
    tails = E.tail_profile(e, Ks)
    slope = np.polyfit(np.log(Ks), np.log(tails), 1)[0]
    assert abs(slope - (-0.5)) < 0.1


# -------------------------------------------------------- structure moduli

def test_structure_constant_fields_zero():
    g = F.Grid(2, 16)
    e = E.Ensemble(g, np.full((2, 1) + g.shape, 3.0))
    sc = E.pointwise_modulus(e, [2 * g.spacing, 4 * g.spacing])
    assert np.max(sc.values) < 1e-13


def test_structure_single_member_enumeration_oracle():
    # direct offset enumeration at n=16, one member, r = pi
    g = F.Grid(1, 16)
    x = g.coordinates()[0]
    u = F.GridField(g, np.cos(x)[None])
    e = E.Ensemble.from_fields([u])
    r = np.pi
    sc = E.pointwise_modulus(e, [r])
    acc, count = 0.0, 0
    jmax = g.n // 2
    for j in list(range(-jmax + 1, 0)) + list(range(1, jmax + 1)):
        if abs(j) * g.spacing <= r:
            shifted = np.roll(u.values, -j, axis=1)
            acc += g.cell_volume * np.sum((shifted - u.values) ** 2)
            count += 1
    oracle = np.sqrt(acc / count)
    assert abs(sc.values[0] - oracle) <= 1e-10 * oracle


def test_time_constant_curve_equality_case():
    g = F.Grid(2, 32)
    e = grf_ensemble(g, 4, s=0.5, k_max=8, seed0=5)
    T = 0.75
    curve = E.LawCurve(np.linspace(0.0, T, 4), [e] * 4)
    radii = [4 * g.spacing, 8 * g.spacing]
    sf = E.structure_function(curve, radii)
    omega = E.pointwise_modulus(e, radii)
    assert np.allclose(sf.values, np.sqrt(T) * omega.values, rtol=1e-9)
    assert E.pointwise_to_time_avg_gap(curve, radii) <= 1e-9


def test_pointwise_to_time_avg_bound_varying_curve():
    g = F.Grid(2, 32)
    curve = E.LawCurve(
        np.linspace(0.0, 0.5, 3),
        [grf_ensemble(g, 4, 0.5, 8, seed0=10 * j) for j in range(3)],
    )
    assert E.pointwise_to_time_avg_gap(curve, [4 * g.spacing]) <= 1e-9


def test_pointwise_to_time_avg_gap_transforms_each_ensemble_once(monkeypatch):
    g = F.Grid(2, 16)
    curve = E.LawCurve(
        np.linspace(0.0, 0.5, 3),
        [grf_ensemble(g, 3, 0.5, 4, seed0=10 * j) for j in range(3)],
    )
    radii = np.array([2 * g.spacing, 4 * g.spacing])
    # the route that transformed every ensemble twice
    sf = E.structure_function(curve, radii).values
    per_time = np.stack([E.pointwise_modulus(e, radii).values
                         for e in curve.ensembles])
    oracle = float(np.max(sf - np.sqrt(curve.horizon) * per_time.max(axis=0)))
    calls = []

    def counted(*args, _f=np.fft.rfftn, **kw):
        calls.append(1)
        return _f(*args, **kw)

    monkeypatch.setattr(np.fft, "rfftn", counted)
    assert E.pointwise_to_time_avg_gap(curve, radii) == oracle
    assert len(calls) == 3


def test_structure_curve_monotone_and_radius_guard():
    g = F.Grid(2, 64)
    e = grf_ensemble(g, 8, s=0.5, k_max=24, seed0=3)
    radii = g.spacing * np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    sc = E.pointwise_modulus(e, radii)
    # nondecreasing in r up to a 5% relative slack
    assert np.all(sc.values >= 0.95 * np.maximum.accumulate(sc.values))
    with pytest.raises(ValueError):
        E.pointwise_modulus(e, [0.5 * g.spacing])


# ------------------------------------------------------------ power-law fit

def test_fit_exact_synthetic_power_law():
    r = np.geomspace(0.05, 0.5, 12)
    sc = E.StructureCurve(r, 2.0 * r**0.7)
    C0, s, resid = E.fit_power_modulus(sc)
    assert abs(C0 - 4.0) < 1e-10
    assert abs(s - 0.7) < 1e-10
    assert resid < 1e-12


def test_fit_constant_modulus():
    r = np.geomspace(0.05, 0.5, 8)
    sc = E.StructureCurve(r, np.full_like(r, 1.3))
    _, s, _ = E.fit_power_modulus(sc)
    assert abs(s) < 1e-12


def test_grf_structure_exponent_matches_synthesis_target():
    g = F.Grid(2, 128)
    target = 0.5
    e = grf_ensemble(g, 128, s=target, k_max=g.n // 2 - 1, seed0=40)
    lo, hi = E.default_fit_range(g)
    radii = np.geomspace(lo, hi, 8)
    sc = E.pointwise_modulus(e, radii)
    _, s, _ = E.fit_power_modulus(sc)
    assert abs(s - target) < 0.1


# ---------------------------------------------------------- marginalization

def test_kpoint_psi_one_gives_volume_powers():
    g = F.Grid(2, 16)
    rng = np.random.default_rng(2)
    e = E.Ensemble(g, rng.standard_normal((4, 2) + g.shape))
    psi = lambda v: np.ones(v.shape[:1] + v.shape[2:])
    for k in (1, 2):
        lhs, rhs = E.kpoint_marginal_exact(e, k, psi)
        assert abs(lhs - g.volume**k) < 1e-9 * g.volume**k
        assert abs(rhs - g.volume**k) < 1e-9 * g.volume**k


def test_kpoint_exact_enumeration_k2():
    g = F.Grid(2, 16)
    rng = np.random.default_rng(7)
    e = E.Ensemble(g, rng.standard_normal((8, 2) + g.shape))
    psi = lambda v: (v**2).sum(axis=1)
    for i in (0, 1):
        lhs, rhs = E.kpoint_marginal_exact(e, 2, psi, i=i)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_kpoint_k1_identical_sums():
    g = F.Grid(1, 16)
    rng = np.random.default_rng(8)
    e = E.Ensemble(g, rng.standard_normal((4, 1) + g.shape))
    psi = lambda v: np.abs(v).sum(axis=1)
    lhs, rhs = E.kpoint_marginal_exact(e, 1, psi)
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_kpoint_monte_carlo_within_3_sigma():
    g = F.Grid(2, 16)
    rng = np.random.default_rng(9)
    e = E.Ensemble(g, rng.standard_normal((8, 2) + g.shape))
    psi = lambda v: (v**2).sum(axis=1)
    lhs, rhs, sigma = E.kpoint_marginal_check(e, 2, psi, samples=4000, seed=11)
    assert abs(lhs - rhs) <= 3.0 * sigma


# ------------------------------------------------------------------- types

def test_lawcurve_validation():
    g = F.Grid(1, 16)
    e = E.Ensemble(g, np.zeros((1, 1, 16)))
    with pytest.raises(ValueError):
        E.LawCurve([0.5, 1.0], [e, e])
    with pytest.raises(ValueError):
        E.LawCurve([0.0, 0.0], [e, e])
    with pytest.raises(ValueError):
        E.LawCurve([0.0], [e])


def test_ensemble_mixed_members_rejected():
    g1, g2 = F.Grid(1, 16), F.Grid(1, 32)
    u1 = F.GridField(g1, np.zeros((1, 16)))
    u2 = F.GridField(g2, np.zeros((1, 32)))
    with pytest.raises(ValueError):
        E.Ensemble.from_fields([u1, u2])


def test_tail_bounded_by_structure_modulus_scaling():
    # tail(e, K) <= C_emp sqrt(C0) K^(-s) with C_emp stable across K
    g = F.Grid(2, 256)
    target = 0.5
    e = grf_ensemble(g, 32, s=target, k_max=g.n // 2 - 1, seed0=900)
    lo, hi = E.default_fit_range(g)
    sc = E.pointwise_modulus(e, np.geomspace(lo, hi, 8))
    C0, s_fit, _ = E.fit_power_modulus(sc)
    Ks = np.array([4.0, 8.0, 16.0, 32.0])
    tails = E.tail_profile(e, Ks)
    c_emp = tails / (np.sqrt(C0) * Ks ** (-s_fit))
    assert np.all(np.isfinite(c_emp)) and np.all(c_emp > 0)
    assert c_emp.max() / c_emp.min() < 1.5


# ------------------------------------------------- half-spectrum layout
# The full-complex routes that the half-spectrum (rfftn) layout replaced
# stay here as oracles.

def full_tail_energies(e, Ks):
    coef = full_spectrum(e.values, e.grid)
    power = (np.abs(coef) ** 2).sum(axis=1)  # (N, *shape)
    mag = F._mode_magnitude(e.grid.d, e.grid.n)
    return np.array([e.grid.volume * power[:, mag > K].sum() / e.size
                     for K in Ks])


def full_mean_increment_energy(e, offsets):
    g = e.grid
    coef = full_spectrum(e.values, e.grid)
    power = (np.abs(coef) ** 2).sum(axis=(0, 1)) / e.size
    kk = F._modes(g.d, g.n)
    total = 0.0
    for h in offsets:
        hphys = h * g.spacing
        phase = kk[0] * hphys[0]
        for a in range(1, g.d):
            phase = phase + kk[a] * hphys[a]
        total += float(np.sum((2.0 - 2.0 * np.cos(phase)) * power))
    return g.volume * total / len(offsets)


def ensemble_norm(e):
    return np.sqrt(e.grid.cell_volume * (e.values**2).sum())


@pytest.mark.parametrize("d", [1, 2])
def test_tails_match_full_complex_oracle(d):
    g = F.Grid(d, 32)
    rng = np.random.default_rng(30 + d)
    e = E.Ensemble(g, rng.standard_normal((5, 2) + g.shape))
    Ks = [1, 2.5, 4, 8, 15]
    oracle = np.sqrt(full_tail_energies(e, Ks))
    assert np.all(np.abs(E.tail_profile(e, Ks) - oracle) <= 1e-13 * oracle)


def test_band_limited_tails_match_oracle_at_roundoff():
    g = F.Grid(2, 64)
    e = grf_ensemble(g, 4, s=0.5, k_max=8, seed0=60)
    Ks = [8, 12, 16]
    oracle = np.sqrt(full_tail_energies(e, Ks))
    tails = E.tail_profile(e, Ks)
    assert np.all(np.abs(tails - oracle) <= 1e-15 * ensemble_norm(e))


def test_increment_energy_matches_full_complex_oracle():
    g = F.Grid(2, 32)
    rng = np.random.default_rng(33)
    e = E.Ensemble(g, rng.standard_normal((3, 2) + g.shape))
    radii = g.spacing * np.array([1.0, 3.0, 7.5])
    sc = E.pointwise_modulus(e, radii)
    for r, value in zip(radii, sc.values):
        oracle = np.sqrt(full_mean_increment_energy(
            e, F.lattice_offsets_in_ball(g, r)))
        assert abs(value - oracle) <= 1e-13 * oracle


def test_coefficient_tails_match_synthesized_field():
    # crit03 reads its tails off random_divfree's coefficients
    g = F.Grid(2, 128)
    Ks = [4.0, 8.0, 16.0, 32.0]
    p = F.spectrum_exponent_for_structure(0.5)
    for seed in (0, 1, 2):
        coef = F._divfree_coef(g, p, g.n // 2 - 1, seed=seed)
        direct = E._tails(coef[None], g, Ks)
        u = F.random_divfree(g, p, g.n // 2 - 1, seed=seed)
        via_field = E.tail_profile(E.Ensemble(g, u.values[None]), Ks)
        assert np.all(np.abs(direct - via_field) <= 1e-13 * via_field)


# ------------------------------------------- batched unit synthesis

@pytest.mark.parametrize("n", [16, 64])
def test_batched_unit_synthesis_matches_member_draws(n):
    g = F.Grid(2, n)
    p = F.spectrum_exponent_for_structure(0.5)
    # a Generator listed three times draws three times, in order
    seeds = lambda: [np.random.default_rng(3)] * 3 + [
        7, np.random.SeedSequence([1, 2])]
    batch = F.random_divfree_batch(g, p, n // 4, seeds())
    unit = E.Ensemble(g, batch).normalized()
    assert batch.shape == (5, 2, n, n)
    for i, seed in enumerate(seeds()):
        # the per-member route: one coefficient draw, one irfftn
        u = F._half_synthesize(F._divfree_coef(g, p, n // 4, seed), g)
        assert batch[i].tobytes() == u.tobytes()
        member = F.GridField(g, u)
        assert unit.values[i].tobytes() \
            == (u / F.l2_norm(member)).tobytes()
    single = F.random_divfree(g, p, n // 4, seed=7)
    assert single.values.tobytes() == batch[3].tobytes()


def test_normalized_keeps_a_zero_member_zero():
    g = F.Grid(2, 16)
    vals = np.zeros((2, 2) + g.shape)
    vals[1] = F.random_divfree(g, 3.0, 4, seed=1).values
    unit = E.Ensemble(g, vals).normalized()
    assert np.all(unit.values[0] == 0.0)
    assert abs(unit.member_norms()[1] - 1.0) < 1e-14
