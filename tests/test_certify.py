import numpy as np
import pytest

from lawbound import certify as C
from lawbound import ensemble as E
from lawbound import euler as EU
from lawbound import fields as F
from spectral_oracle import full_spectrum

GRID = F.Grid(2, 32)


def bandlimited_unit(seed, k_max=8, grid=GRID, exponent=3.5):
    u = F.random_divfree(grid, exponent, k_max, seed=seed)
    return F.GridField(grid, u.values / F.l2_norm(u))


# ------------------------------------------------------------------ oracles
# Independent per-member references for the batched code in certify: the
# velocity-form resolved drift on full-complex FFTs, and the residual routes
# evaluated one member at a time.

def drift_velocity_form(vals, K):
    """P_{<=K} Leray(-div(u x u)) of a batch (N, 2, n, n), assembled from
    the spectral divergence of the products u_i u_j."""
    n = vals.shape[-1]
    kk = F._modes(2, n)
    kd = F._deriv_modes(2, n)
    mag2 = kk[0] ** 2 + kk[1] ** 2
    safe = np.where(mag2 == 0, 1.0, mag2)
    mask = F._mode_magnitude(2, n) <= min(K, n / 3.0)
    scale = n * n
    prods = np.stack([vals[:, 0] * vals[:, 0],
                      vals[:, 0] * vals[:, 1],
                      vals[:, 1] * vals[:, 1]], axis=1)
    h = np.fft.fft2(prods) / scale
    div0 = 1j * kd[0] * h[:, 0] + 1j * kd[1] * h[:, 1]
    div1 = 1j * kd[0] * h[:, 1] + 1j * kd[1] * h[:, 2]
    coef = np.stack([-div0, -div1], axis=1)
    kdotu = kk[0] * coef[:, 0] + kk[1] * coef[:, 1]
    coef = coef - kk[None] * (kdotu / safe)[:, None]
    coef *= mask
    return np.fft.ifft2(coef * scale).real


def oracle_drift(u, K):
    return F.GridField(u.grid, drift_velocity_form(u.values[None], K)[0])


def drift_test_pairing_oracle(u, phi):
    """Grid quadrature of int (u x u) : grad phi dx.

    For divergence-free phi this equals <Leray(-div(u x u)), phi> by parts,
    so it cross-checks the spectral drift assembly.
    """
    g = u.grid
    kd = F._deriv_modes(g.d, g.n)
    ph = full_spectrum(phi.values, g)
    scale = g.n**g.d
    total = 0.0
    for i in range(2):
        for j in range(2):
            dphi = np.fft.ifft2(1j * kd[i] * ph[j] * scale).real
            total += np.sum(u.values[i] * u.values[j] * dphi)
    return float(g.cell_volume * total)


def _pairings(tt, u_values, cell):
    return np.array([cell * np.sum(u_values * f.values) for f in tt.fields])


def product_observable(tt, t, u):
    """F(t, u) = prod_j <u, theta(t) phi_j>."""
    p = _pairings(tt, u.values, u.grid.cell_volume)
    return float(tt.theta(t) ** tt.k * np.prod(p))


def product_observable_dt(tt, t, u):
    """Time derivative: sum_i <u, theta' phi_i> prod_{j != i} <u, theta phi_j>."""
    p = _pairings(tt, u.values, u.grid.cell_volume)
    th, dth = tt.theta(t), tt.dtheta(t)
    total = 0.0
    for i in range(tt.k):
        term = dth * p[i]
        for j in range(tt.k):
            if j != i:
                term *= th * p[j]
        total += term
    return float(total)


def product_observable_du(tt, t, u, w):
    """Directional derivative: sum_i <w, theta phi_i> prod_{j != i} <u, theta phi_j>."""
    cell = u.grid.cell_volume
    p = _pairings(tt, u.values, cell)
    q = _pairings(tt, w.values, cell)
    th = tt.theta(t)
    total = 0.0
    for i in range(tt.k):
        term = th * q[i]
        for j in range(tt.k):
            if j != i:
                term *= th * p[j]
        total += term
    return float(total)


def model_drift(drift, u, base):
    """B(t, u) = B*_K(u) + epsilon * g of a DriftSpec, given B*_K(u)."""
    if drift.epsilon == 0.0:
        return base
    return F.GridField(u.grid,
                       base.values + drift.epsilon * drift.perturbation.values)


def residual_direct(curve, tt, K):
    """Trapezoidal quadrature of E[dF/dt + D_u F[B*_K]] plus E[F(0, .)]."""
    vals = np.empty(len(curve.times))
    for s, (t, e) in enumerate(zip(curve.times, curve.ensembles)):
        acc = 0.0
        for i in range(e.size):
            u = e.member(i)
            base = oracle_drift(u, K)
            acc += (product_observable_dt(tt, t, u)
                    + product_observable_du(tt, t, u, base))
        vals[s] = acc / e.size
    e0 = curve.ensembles[0]
    init = np.mean([product_observable(tt, 0.0, e0.member(i))
                    for i in range(e0.size)])
    return float(np.trapezoid(vals, curve.times) + init)


def residual_via_defect(curve, tt, K, drift):
    """Trapezoidal quadrature of E[D_u F[B*_K - B_model]]."""
    vals = np.empty(len(curve.times))
    for s, (t, e) in enumerate(zip(curve.times, curve.ensembles)):
        acc = 0.0
        for i in range(e.size):
            u = e.member(i)
            base = oracle_drift(u, K)
            model = model_drift(drift, u, base)
            defect = F.GridField(u.grid, base.values - model.values)
            acc += product_observable_du(tt, t, u, defect)
        vals[s] = acc / e.size
    return float(np.trapezoid(vals, curve.times))


def residual_bound_check(curve, tt, K, drift, slack=1e-9):
    """Drift-regression bound on the defect-route residual.

        |R| <= sqrt(T) M_2k^((k-1)/(2k)) (test-norm factor) sqrt(L_drift)

    with every piece evaluated on the same quadrature grid as the residual.
    """
    k = tt.k
    n_t = len(curve.times)
    defect_sq = np.empty(n_t)
    duF = np.empty(n_t)
    m2k = 0.0
    for s, (t, e) in enumerate(zip(curve.times, curve.ensembles)):
        acc_sq = acc_du = acc_m = 0.0
        for i in range(e.size):
            u = e.member(i)
            base = oracle_drift(u, K)
            model = model_drift(drift, u, base)
            defect = F.GridField(u.grid, base.values - model.values)
            acc_sq += F.l2_norm(defect) ** 2
            acc_du += product_observable_du(tt, t, u, defect)
            acc_m += F.l2_norm(u) ** (2 * k)
        defect_sq[s] = acc_sq / e.size
        duF[s] = acc_du / e.size
        m2k = max(m2k, acc_m / e.size)
    residual = float(np.trapezoid(duF, curve.times))
    l_drift = float(np.trapezoid(defect_sq, curve.times))
    factor = tt.norm_factor()
    bound = float(np.sqrt(curve.horizon) * m2k ** ((k - 1) / (2.0 * k))
                  * factor * np.sqrt(l_drift))
    return {
        "residual_defect": residual,
        "l_drift": l_drift,
        "m_2k": float(m2k),
        "norm_factor": factor,
        "bound": bound,
        "satisfied": bool(abs(residual) <= bound * (1 + slack)),
    }


def oracle_drift_driven_curve(e0, drift, horizon, n_steps):
    """Reference curve held whole: RK4 on the velocities, every stage's
    drift the resolved drift of the velocity itself plus epsilon*g."""
    dt = horizon / n_steps
    times = np.linspace(0.0, horizon, n_steps + 1)
    K = drift.resolution
    pert = drift.epsilon * drift.perturbation.values
    states = np.empty((n_steps + 1,) + e0.values.shape)
    states[0] = e0.values
    bufs = [np.empty_like(e0.values) for _ in range(5)]

    def vel(y, _, out):
        return np.add(EU._resolved_drift(y, K), pert, out=out)

    for s in range(n_steps):
        EU._rk4_step(vel, states[s], 0.0, dt, bufs, states[s + 1])
    return E.LawCurve(times, [E.Ensemble(e0.grid, s) for s in states])


def oracle_certification_pass(curve, tt, K, drift):
    """Reference residual pass over a held curve, evaluating the resolved
    drift of every stored state itself."""
    grid = curve.grid
    cell = grid.cell_volume
    phis = np.stack([f.values for f in tt.fields])
    pert = drift.epsilon * drift.perturbation.values
    k = tt.k
    n_t = len(curve.times)
    direct = np.empty(n_t)
    defq = np.empty(n_t)
    dsq = np.empty(n_t)
    model_route = np.empty(n_t)
    m2k = 0.0
    for s, (t, e) in enumerate(zip(curve.times, curve.ensembles)):
        vals = e.values
        base = EU._resolved_drift(vals, K)
        model = base + pert if drift.epsilon else base
        defect = base - model
        p = cell * np.einsum("ncxy,kcxy->nk", vals, phis)
        pb = cell * np.einsum("ncxy,kcxy->nk", base, phis)
        pm = cell * np.einsum("ncxy,kcxy->nk", model, phis)
        pd = pb - pm
        th, dth = tt.theta(t), tt.dtheta(t)
        th_p = th * p
        dtF = C._slot_sum(th_p, dth * p)
        direct[s] = (dtF + C._slot_sum(th_p, th * pb)).mean()
        defq[s] = C._slot_sum(th_p, th * pd).mean()
        model_route[s] = (dtF + C._slot_sum(th_p, th * pm)).mean()
        dsq[s] = np.mean(cell * (defect**2).sum(axis=(1, 2, 3)))
        norms_sq = cell * (vals**2).sum(axis=(1, 2, 3))
        m2k = max(m2k, float(np.mean(norms_sq**k)))
    e0 = curve.ensembles[0]
    p0 = cell * np.einsum("ncxy,kcxy->nk", e0.values, phis)
    f0 = (tt.theta(0.0) ** k) * np.prod(p0, axis=1)
    return {
        "direct": float(np.trapezoid(direct, curve.times) + f0.mean()),
        "defect": float(np.trapezoid(defq, curve.times)),
        "l_drift": float(np.trapezoid(dsq, curve.times)),
        "m_2k": float(m2k),
        "scale": float(np.trapezoid(np.abs(model_route), curve.times)
                       + np.abs(f0).mean()),
    }


# ------------------------------------------------------------ Euler drift

def test_drift_zero_field():
    z = F.GridField(GRID, np.zeros((2,) + GRID.shape))
    out = C.euler_drift_resolved(z, 8)
    assert np.max(np.abs(out.values)) == 0.0


def test_drift_duality_against_quadrature_oracle():
    u = bandlimited_unit(1)
    K = 8
    drift = C.euler_drift_resolved(u, K)
    for s in range(5):
        phi = bandlimited_unit(100 + s, k_max=K)
        pairing = F.inner(drift, phi)
        oracle = drift_test_pairing_oracle(u, phi)
        assert abs(pairing - oracle) <= 1e-8 * max(abs(oracle), 1e-12)


def test_taylor_green_drift_is_pure_gradient():
    tg = EU.taylor_green(GRID)
    drift = C.euler_drift_resolved(tg, 10)
    assert F.l2_norm(drift) < 1e-12
    for s in range(5):
        phi = bandlimited_unit(200 + s, k_max=10)
        assert abs(drift_test_pairing_oracle(tg, phi)) < 1e-12


def test_drift_matches_vorticity_solver_tendency():
    # velocity tendency recovered from the vorticity-form right-hand side
    # equals the resolved drift on the shared resolved band
    u = bandlimited_unit(2, k_max=7)
    n = GRID.n
    w_hat = EU.vorticity_hat(u)
    dw = np.empty((1,) + w_hat.shape, complex)
    EU._advection(w_hat[None], EU._Workspace(1, n), EU._solver_arrays(n)[2], dw)
    du = EU.velocity_from_vorticity(GRID, dw[0])
    du_iso = F.inverse(F.project_leq(F.forward(du), n / 3.0))
    drift = C.euler_drift_resolved(u, n / 3.0)
    gap = F.l2_norm(F.GridField(GRID, du_iso.values - drift.values))
    assert gap <= 1e-12 * max(F.l2_norm(drift), 1e-12)


def test_drift_batch_matches_single():
    members = [bandlimited_unit(3 + i) for i in range(3)]
    vals = np.stack([m.values for m in members])
    batch = EU._resolved_drift(vals, 8)
    for i, m in enumerate(members):
        single = C.euler_drift_resolved(m, 8)
        assert np.max(np.abs(batch[i] - single.values)) < 1e-14


@pytest.mark.parametrize("N, mean_flow", [(1, False), (3, False), (3, True)])
def test_shared_drift_matches_velocity_form_oracle(N, mean_flow):
    # the drift built on the solver's half-spectrum advection equals the
    # velocity-form P_{<=K} Leray(-div(u x u)); a constant mean flow is
    # divergence-free and band-limited
    vals = np.stack([0.1 * bandlimited_unit(40 + i).values for i in range(N)])
    if mean_flow:
        vals = vals + np.array([0.3, -0.2])[None, :, None, None]
    for K in (4, 8, GRID.n / 3.0):
        oracle = drift_velocity_form(vals, K)
        shared = EU._resolved_drift(vals, K)
        scale = np.max(np.abs(oracle))
        assert scale > 0
        assert np.max(np.abs(shared - oracle)) <= 1e-13 * scale
    if mean_flow:
        # the case is not vacuous: the mean flow changes the drift
        base = drift_velocity_form(vals, 8)
        rest = drift_velocity_form(vals - vals.mean(axis=(2, 3), keepdims=True), 8)
        assert np.max(np.abs(base - rest)) > 1e-3 * np.max(np.abs(base))


def test_drift_rejects_unbanded_input():
    rng = np.random.default_rng(5)
    raw = F.GridField(GRID, rng.standard_normal((2,) + GRID.shape))
    with pytest.raises(ValueError):
        C.euler_drift_resolved(raw, 8)


def test_drift_rejects_divergent_input():
    # band-limited but compressible: the vorticity form would not see the
    # u div(u) part of div(u x u)
    x = GRID.coordinates()
    grad = F.GridField(GRID, np.stack([np.cos(x[0]), np.zeros(GRID.shape)]))
    with pytest.raises(ValueError, match="divergence-free"):
        C.euler_drift_resolved(grad, 8)


def test_drift_spec_checks_are_relative_to_the_perturbation_norm():
    # a valid perturbation stays valid at any scale, and a gradient stays
    # a gradient however small
    g = F.random_divfree(GRID, 3.0, 8, seed=1)
    g = F.GridField(GRID, 1e6 * g.values / F.l2_norm(g))
    C.DriftSpec(resolution=8, epsilon=0.1, perturbation=g)
    x = GRID.coordinates()
    grad = F.GridField(GRID, 1e-13 * np.stack([np.cos(x[0]),
                                               np.zeros(GRID.shape)]))
    with pytest.raises(ValueError, match="divergence-free"):
        C.DriftSpec(resolution=8, epsilon=0.1, perturbation=grad)
    with pytest.raises(ValueError, match="divergence-free"):
        C.TestTuple([grad], 0.5)


# ------------------------------------------------- product observables

def make_tuple(k, seed=7, T=0.5, k_test=6):
    return C.random_test_tuple(GRID, k, k_test, T, seed=seed)


def test_observable_k1_linear():
    tt = make_tuple(1)
    u = bandlimited_unit(8)
    w = bandlimited_unit(9)
    t = 0.2
    assert abs(product_observable(tt, t, u)
               - tt.theta(t) * F.inner(u, tt.fields[0])) < 1e-14
    assert abs(product_observable_du(tt, t, u, w)
               - tt.theta(t) * F.inner(w, tt.fields[0])) < 1e-14


def test_observable_orthogonal_input_zero():
    tt = make_tuple(2)
    # a field orthogonal to both tests: a pure high mode
    x = GRID.coordinates()
    hi = F.GridField(GRID, np.stack([np.cos(12 * x[0]), np.zeros(GRID.shape)]))
    assert abs(product_observable(tt, 0.1, hi)) < 1e-12


def test_observable_fd_oracle():
    tt = make_tuple(2)
    u = bandlimited_unit(10)
    w = bandlimited_unit(11)
    t = 0.13
    h = 1e-5
    up = F.GridField(GRID, u.values + h * w.values)
    um = F.GridField(GRID, u.values - h * w.values)
    fd = (product_observable(tt, t, up) - product_observable(tt, t, um)) / (2 * h)
    exact = product_observable_du(tt, t, u, w)
    assert abs(fd - exact) <= 1e-7 * max(abs(exact), 1.0)
    # time derivative against finite differences as well
    fd_t = (product_observable(tt, t + h, u) - product_observable(tt, t - h, u)) / (2 * h)
    assert abs(fd_t - product_observable_dt(tt, t, u)) <= 1e-7


def test_theta_profile_endpoints():
    tt = make_tuple(1, T=0.7)
    assert tt.theta(0.0) == 1.0
    assert tt.theta(0.7) == 0.0
    h = 1e-6
    assert abs((tt.theta(0.3 + h) - tt.theta(0.3 - h)) / (2 * h)
               - tt.dtheta(0.3)) < 1e-8


# ----------------------------------------------------------- residuals

def small_setup(k=1, eps=1e-2, n_steps=64, T=0.25, seed=21):
    rng = np.random.default_rng(seed)
    e0 = E.Ensemble.from_fields([bandlimited_unit(rng.integers(1 << 30))
                                 for _ in range(3)])
    tt = C.random_test_tuple(GRID, k, 6, T, seed=rng)
    g = bandlimited_unit(int(rng.integers(1 << 30)))
    drift = C.DriftSpec(resolution=8, epsilon=eps, perturbation=g)
    curve = C.drift_driven_curve(e0, drift, T, n_steps)
    return e0, tt, drift, curve


def test_zero_defect_residual_small():
    _, tt, drift, curve = small_setup(eps=0.0, n_steps=128)
    direct = residual_direct(curve, tt, 8)
    assert abs(residual_via_defect(curve, tt, 8, drift)) == 0.0
    assert abs(direct) < 1e-5  # pure quadrature noise, O(dt^2)


def test_zero_test_fields_zero_residual():
    _, tt, drift, curve = small_setup(eps=1e-2)
    zero_tt = C.TestTuple([F.GridField(GRID, np.zeros((2,) + GRID.shape))],
                          tt.horizon)
    assert residual_direct(curve, zero_tt, 8) == 0.0
    assert residual_via_defect(curve, zero_tt, 8, drift) == 0.0


def test_cross_route_agreement_report_level():
    rep = C.certification_report(GRID, members=3, k=2, K=8, k_test=6,
                                 epsilon=1e-2, n_steps=128, horizon=0.25,
                                 seed=22, rel_tol=2e-4)
    assert rep["routes_agree"]
    assert rep["satisfied"]
    # halving dt divides the cross-route gap by about four
    rep2 = C.certification_report(GRID, members=3, k=2, K=8, k_test=6,
                                  epsilon=1e-2, n_steps=256, horizon=0.25,
                                  seed=22, rel_tol=2e-4)
    assert rep2["rel_gap"] <= rep["rel_gap"] / 3.0


@pytest.mark.parametrize("members, k, match", [(0, 1, "member"),
                                               (-2, 1, "member"),
                                               (2, 0, "k in"), (2, 4, "k in")])
def test_certification_rejects_bad_member_and_test_counts(members, k, match):
    with pytest.raises(ValueError, match=match):
        C.certification_report(GRID, members=members, k=k, K=8, k_test=4,
                               epsilon=0.0, n_steps=4, horizon=0.5, seed=1)


def test_fused_pass_matches_public_routes():
    # the batched pass, fed the stored states and their resolved drift,
    # against the per-member oracle routes above
    _, tt, drift, curve = small_setup(k=2, eps=1e-2, n_steps=32)
    sweep = C._fused_certification_pass(
        ((t, e.values, EU._resolved_drift(e.values, 8))
         for t, e in zip(curve.times, curve.ensembles)), tt, drift)
    assert abs(sweep["direct"] - residual_direct(curve, tt, 8)) < 1e-12
    assert abs(sweep["defect"] - residual_via_defect(curve, tt, 8, drift)) < 1e-12
    bound_rep = residual_bound_check(curve, tt, 8, drift)
    assert abs(sweep["l_drift"] - bound_rep["l_drift"]) < 1e-12
    assert abs(sweep["m_2k"] - bound_rep["m_2k"]) <= 1e-12 * bound_rep["m_2k"]


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("mean_flow", [False, True])
def test_vorticity_march_matches_velocity_form_curve(N, eps, mean_flow):
    # the vorticity march plus its mean flow against the velocity RK4; in
    # the mean-flow case the perturbation has a mean too, so the mean moves
    rng = np.random.default_rng(60 + N)
    vals = np.stack([bandlimited_unit(int(rng.integers(1 << 30))).values
                     for _ in range(N)])
    g = bandlimited_unit(int(rng.integers(1 << 30))).values
    if mean_flow:
        vals = vals + np.array([0.3, -0.2])[None, :, None, None]
        g = g + np.array([0.1, 0.4])[:, None, None]
    drift = C.DriftSpec(resolution=8, epsilon=eps,
                        perturbation=F.GridField(GRID, g))
    e0 = E.Ensemble(GRID, vals)
    got = C.drift_driven_curve(e0, drift, 0.25, 32)
    want = oracle_drift_driven_curve(e0, drift, 0.25, 32)
    assert got.times.tobytes() == want.times.tobytes()
    for a, b in zip(got.ensembles, want.ensembles):
        scale = np.abs(b.values).max()
        assert np.abs(a.values - b.values).max() <= 1e-13 * scale
    if mean_flow and eps:
        moved = want.ensembles[-1].values.mean(axis=(2, 3)) - vals.mean(axis=(2, 3))
        assert np.abs(moved).max() > 1e-4


@pytest.mark.parametrize("k, eps", [(1, 0.0), (2, 1e-2), (3, 1e-3)])
def test_certification_report_matches_oracle_route(k, eps):
    # the streamed march and pass against the held velocity-form curve and
    # the pass that evaluates its own drifts, on certification_report's draws
    grid, members, K, k_test, T, n_steps, seed = GRID, 3, 8, 6, 0.25, 64, 22
    rep = C.certification_report(grid, members=members, k=k, K=K,
                                 k_test=k_test, epsilon=eps, n_steps=n_steps,
                                 horizon=T, seed=seed)
    rng = np.random.default_rng(seed)
    e0 = E.Ensemble(grid, F.random_divfree_batch(grid, 3.5, K,
                                                 [rng] * members)).normalized()
    tt = C.random_test_tuple(grid, k, k_test, T, seed=rng)
    g = E.Ensemble(grid, F.random_divfree_batch(grid, 3.0, K, [rng]))
    drift = C.DriftSpec(resolution=K, epsilon=eps,
                        perturbation=g.normalized().member(0))
    curve = oracle_drift_driven_curve(e0, drift, T, n_steps)
    sweep = oracle_certification_pass(curve, tt, K, drift)
    bound = float(np.sqrt(T) * sweep["m_2k"] ** ((k - 1) / (2.0 * k))
                  * tt.norm_factor() * np.sqrt(sweep["l_drift"]))
    for got, want in ((rep["residual_defect"], sweep["defect"]),
                      (rep["l_drift"], sweep["l_drift"]),
                      (rep["m_2k"], sweep["m_2k"]),
                      (rep["bound"], bound),
                      (rep["cross_route_scale"], sweep["scale"])):
        assert abs(got - want) <= 1e-13 * abs(want)
    scale = sweep["scale"]
    assert abs(rep["residual_direct"] - sweep["direct"]) <= 1e-13 * scale
    gap = abs(sweep["direct"] - sweep["defect"])
    assert abs(rep["cross_route_gap"] - gap) <= 1e-13 * scale


def test_certification_fft_calls_per_step(monkeypatch):
    # each march step takes four transforms per RK4 stage and two for the
    # stored state's drift velocity; the pass takes none
    counts = {}
    for n_steps in (8, 16):
        calls = []
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft",
                     "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
            def counted(*args, _f=getattr(np.fft, name), **kw):
                calls.append(1)
                return _f(*args, **kw)
            monkeypatch.setattr(np.fft, name, counted)
        C.certification_report(GRID, members=2, k=2, K=8, k_test=4,
                               epsilon=1e-2, n_steps=n_steps, horizon=0.5,
                               seed=3)
        monkeypatch.undo()
        counts[n_steps] = len(calls)
    assert (counts[16] - counts[8]) / 8 <= 18


@pytest.mark.parametrize("broken, match", [
    ("divergent", "member 1 of the initial ensemble must be divergence-free"),
    ("unbanded", "member 1 of the initial ensemble must be band-limited")])
def test_drift_driven_curve_rejects_unresolvable_member(broken, match):
    # the vorticity march would drop a gradient part and alias modes
    # beyond n/3 without a word
    x = GRID.coordinates()
    bad = (np.stack([np.cos(x[0]), np.zeros(GRID.shape)]) if broken == "divergent"
           else np.stack([np.cos(15 * x[1]), np.zeros(GRID.shape)]))
    e0 = E.Ensemble(GRID, np.stack([bandlimited_unit(70).values,
                                    0.1 * bandlimited_unit(71).values + bad]))
    drift = C.DriftSpec(resolution=8, epsilon=0.0,
                        perturbation=bandlimited_unit(72))
    with pytest.raises(ValueError, match=match):
        C.drift_driven_curve(e0, drift, 0.25, 4)


def test_single_mode_closed_form():
    # k=1, perturbation = phi_1: R_defect = -eps <g, phi> T/4 exactly
    x = GRID.coordinates()
    mode = np.stack([np.cos(2 * x[1]), np.zeros(GRID.shape)])  # div-free
    g = F.GridField(GRID, mode / F.l2_norm(F.GridField(GRID, mode)))
    T, eps = 0.5, 1e-2
    tt = C.TestTuple([g], T)
    e0 = E.Ensemble.from_fields([bandlimited_unit(31)])
    drift = C.DriftSpec(resolution=8, epsilon=eps, perturbation=g)
    curve = C.drift_driven_curve(e0, drift, T, 512)
    analytic = -eps * F.inner(g, g) * T / 4.0  # integral of theta is T/4
    theta_quad = np.trapezoid([tt.theta(t) for t in curve.times], curve.times)
    discrete = -eps * F.inner(g, g) * theta_quad
    defect = residual_via_defect(curve, tt, 8, drift)
    direct = residual_direct(curve, tt, 8)
    assert abs(defect - discrete) <= 1e-12 * abs(discrete)
    assert abs(defect - analytic) <= 1e-4 * abs(analytic)
    assert abs(direct - analytic) <= 1e-3 * abs(analytic)


def test_residual_linear_in_test_scale():
    _, tt, drift, curve = small_setup(k=1, eps=1e-2, n_steps=32)
    scaled = C.TestTuple(
        [F.GridField(GRID, 2.5 * tt.fields[0].values)], tt.horizon)
    r1 = residual_via_defect(curve, tt, 8, drift)
    r2 = residual_via_defect(curve, scaled, 8, drift)
    assert abs(r2 - 2.5 * r1) <= 1e-12 * max(abs(r2), 1e-12)


def test_gradient_drifts_invisible():
    tt = make_tuple(2)
    u = bandlimited_unit(33)
    rng = np.random.default_rng(34)
    scalar = rng.standard_normal((1,) + GRID.shape)
    Shat = F.project_leq(F.forward(F.GridField(GRID, scalar)), 8)
    kd = F._half(F._deriv_modes(2, GRID.n), GRID)
    grad = F.inverse(F.SpecField(GRID, np.stack([
        1j * kd[0] * Shat.coef[0], 1j * kd[1] * Shat.coef[0]])))
    val = product_observable_du(tt, 0.2, u, grad)
    assert abs(val) <= 1e-9 * max(F.l2_norm(grad), 1.0)


def test_residual_bound_never_violated_and_k1_form():
    _, tt, drift, curve = small_setup(k=1, eps=1e-2, n_steps=64)
    rep = residual_bound_check(curve, tt, 8, drift)
    assert rep["satisfied"]
    expected = np.sqrt(curve.horizon) * F.l2_norm(tt.fields[0]) * np.sqrt(rep["l_drift"])
    assert abs(rep["bound"] - expected) <= 1e-12 * expected


def test_epsilon_sweep_linearity():
    rs = []
    epss = (1e-3, 2e-3, 4e-3, 8e-3)
    for eps in epss:
        _, tt, drift, curve = small_setup(k=1, eps=eps, n_steps=64, seed=21)
        rs.append(residual_via_defect(curve, tt, 8, drift))
    A = np.stack([np.ones(4), np.array(epss)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, np.array(rs), rcond=None)
    ss_tot = np.sum((np.array(rs) - np.mean(rs)) ** 2)
    r2 = 1.0 - (res[0] if len(res) else 0.0) / ss_tot
    assert r2 > 0.999


# ------------------------------------------------------ PF-ODE identities

def default_gd(q=4, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((q, q)) * 0.3
    cov = A @ A.T + np.eye(q)
    return C.GaussianDiffusion(mean=rng.standard_normal(q), cov=cov)


def test_pf_identity_zero_perturbation():
    gd = default_gd()
    rep = C.pf_identities(gd, np.linspace(0, 1, 17), c=0.0, mc_size=512)
    assert max(abs(v) for v in rep["lhs_curve"]) == 0.0
    assert rep["per_tau_ok"] and rep["integrated_ok"]


def test_pf_identity_1d_hand_oracle():
    gd = C.GaussianDiffusion(mean=np.zeros(1), cov=np.eye(1))
    c = 0.37
    taus = np.linspace(0, 1, 9)
    rep = C.pf_identities(gd, taus, c=c, mc_size=256)
    # by hand: Sigma_tau = 1 + tau, both sides = c^2 (1+tau) / 4
    for tau, lhs, rhs in zip(taus, rep["lhs_curve"], rep["rhs_curve"]):
        hand = 0.25 * c**2 * (1.0 + tau)
        assert abs(lhs - hand) < 1e-12
        assert abs(rhs - hand) < 1e-12


def test_pf_identity_quadratic_scaling():
    gd = default_gd(q=3, seed=1)
    taus = np.linspace(0, 1, 9)
    r1 = C.pf_identities(gd, taus, c=0.1, mc_size=256)
    r4 = C.pf_identities(gd, taus, c=0.4, mc_size=256)
    ratio = np.array(r4["lhs_curve"]) / np.array(r1["lhs_curve"])
    assert np.allclose(ratio, 16.0, rtol=1e-12)


def test_pf_marginals_match_analytic():
    gd = default_gd(q=4, seed=2)
    rep = C.pf_identities(gd, np.linspace(0, 1, 33), c=0.0,
                          mc_size=4096, seed=5)
    assert rep["marginals_ok"]


def oracle_pf_samples(gd, taus, mc_size, seed):
    """The probability-flow samples as pf_identities marched them before
    the shared RK4 step: every stage allocated, the tableau written out."""
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(gd.cov)
    x = gd.mean[None, :] + rng.standard_normal((mc_size, gd.dim)) @ L.T
    fine = np.linspace(taus[0], taus[-1], 257)
    for s in range(len(fine) - 1):
        h = fine[s + 1] - fine[s]

        def vel(z, tau):
            B = gd.pf_drift_matrix(tau, gd.score_matrix(tau))
            return (z - gd.mean[None, :]) @ B.T

        k1 = vel(x, fine[s])
        k2 = vel(x + 0.5 * h * k1, fine[s] + 0.5 * h)
        k3 = vel(x + 0.5 * h * k2, fine[s] + 0.5 * h)
        k4 = vel(x + h * k3, fine[s] + h)
        x = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


@pytest.mark.parametrize("q, slope", [(1, 0.0), (4, 0.5)])
def test_pf_marginals_match_the_allocating_loop(q, slope):
    base = default_gd(q=q, seed=4)
    gd = C.GaussianDiffusion(mean=base.mean, cov=base.cov, sigma_slope=slope)
    taus = np.linspace(0, 1, 17)
    rep = C.pf_identities(gd, taus, c=0.2, mc_size=300, seed=9)
    x = oracle_pf_samples(gd, taus, 300, 9)
    cov_T = gd.marginal_cov(taus[-1])
    mean_se = np.sqrt(np.diag(cov_T) / 300)
    cov_hat = np.cov(x.T) if q > 1 else np.array([[np.var(x[:, 0], ddof=1)]])
    cov_se = np.sqrt((np.outer(np.diag(cov_T), np.diag(cov_T)) + cov_T**2)
                     / 299)
    assert rep["mean_zmax"] == float(
        (np.abs(x.mean(axis=0) - gd.mean) / mean_se).max())
    assert rep["cov_zmax"] == float((np.abs(cov_hat - cov_T) / cov_se).max())


def test_pf_drift_identity_mc_oracle():
    # Monte Carlo evaluation of E||b_model - b*||^2 against the closed form
    gd = default_gd(q=3, seed=3)
    tau, c = 0.5, 0.2
    cov = gd.marginal_cov(tau)
    a_true = gd.score_matrix(tau)
    db = gd.pf_drift_matrix(tau, a_true + c * np.eye(3)) - gd.pf_drift_matrix(tau, a_true)
    rng = np.random.default_rng(8)
    L = np.linalg.cholesky(cov)
    x = rng.standard_normal((200_000, 3)) @ L.T
    mc = np.mean(np.sum((x @ db.T) ** 2, axis=1))
    closed = np.trace(db @ cov @ db.T)
    assert abs(mc - closed) <= 0.02 * closed


def test_gaussian_diffusion_validation():
    with pytest.raises(np.linalg.LinAlgError):
        C.GaussianDiffusion(mean=np.zeros(2), cov=-np.eye(2))
    with pytest.raises(ValueError):
        C.GaussianDiffusion(mean=np.zeros(2), cov=np.eye(2),
                            sigma0=1.0, sigma_slope=-2.0)
    with pytest.raises(ValueError):
        C.GaussianDiffusion(mean=np.zeros(3), cov=np.eye(2))
