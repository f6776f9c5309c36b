import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from lawbound import ensemble as E
from lawbound import euler as EU
from lawbound import fields as F
from lawbound import transport as T
from spectral_oracle import full_spectrum, full_synthesize

GRID = F.Grid(2, 64)


def unit_grf(seed, k_max=10, s_exp=4.0, grid=GRID):
    u = F.random_divfree(grid, s_exp, k_max, seed=seed)
    return F.GridField(grid, u.values / F.l2_norm(u))


def grf_pair_ensembles(n_members, amp, seed0=0, grid=GRID):
    a = E.Ensemble.from_fields([unit_grf(seed0 + i, grid=grid) for i in range(n_members)])
    pert = E.Ensemble.from_fields([unit_grf(seed0 + 500 + i, grid=grid) for i in range(n_members)])
    b = E.Ensemble(grid, a.values + amp * pert.values)
    return a, b


# ----------------------------------------------- per-member reference solver
# The full-complex (fft2) vorticity RK4 that marched one member at a time;
# the batched real-FFT solver must reproduce it to rounding.

def ref_arrays(n, frac=2.0 / 3.0):
    kk = F._modes(2, n)
    kd = F._deriv_modes(2, n)
    k2 = kk[0] ** 2 + kk[1] ** 2
    inv_k2 = np.where(k2 == 0, 0.0, 1.0 / np.where(k2 == 0, 1.0, k2))
    cut = frac * (n / 2.0)
    mask = (np.abs(kk[0]) <= cut) & (np.abs(kk[1]) <= cut)
    return kd, inv_k2, mask


def ref_velocity_hat(w_hat, n):
    kd, inv_k2, _ = ref_arrays(n)
    psi_hat = -w_hat * inv_k2
    return np.stack([-1j * kd[1] * psi_hat, 1j * kd[0] * psi_hat])


def ref_rhs(w_hat, n):
    kd, _, mask = ref_arrays(n)
    scale = n * n
    u = np.fft.ifft2(ref_velocity_hat(w_hat, n) * scale).real
    wx = np.fft.ifft2(1j * kd[0] * w_hat * scale).real
    wy = np.fft.ifft2(1j * kd[1] * w_hat * scale).real
    adv_hat = np.fft.fft2(u[0] * wx + u[1] * wy) / scale
    return -adv_hat * mask


def ref_evolve(u, dt, n_steps):
    n = u.grid.n
    kd = F._deriv_modes(2, n)
    uh = full_spectrum(u.values, u.grid)
    w = 1j * kd[0] * uh[1] - 1j * kd[1] * uh[0]
    for _ in range(n_steps):
        k1 = ref_rhs(w, n)
        k2 = ref_rhs(w + 0.5 * dt * k1, n)
        k3 = ref_rhs(w + 0.5 * dt * k2, n)
        k4 = ref_rhs(w + dt * k3, n)
        w = w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return full_synthesize(ref_velocity_hat(w, n), u.grid)


# ------------------------------------ allocating half-spectrum oracle
# The half-spectrum route before the solver workspace: every stage
# allocates its arrays and transforms through rfft2/irfft2.  The workspace
# march and drift must reproduce it bit for bit.

def _irfft2(spec, n):
    return np.fft.irfft2(spec, s=(n, n), norm="forward")


def _velocity_hat(w_hat, n):
    ikd, inv_k2, _ = EU._solver_arrays(n)
    psi_hat = -w_hat * inv_k2
    return np.stack([-ikd[1] * psi_hat, ikd[0] * psi_hat], axis=-3)


def _velocity(w_hat, n):
    return _irfft2(_velocity_hat(w_hat, n), n)


def _gradient_hat(w_hat, n):
    ikd = EU._solver_arrays(n)[0]
    return np.stack([ikd[0] * w_hat, ikd[1] * w_hat], axis=-3)


def _advection(w_hat, n, mask, vel=None, mean=None):
    """Advected by the Biot-Savart velocity of w_hat plus `mean` (N, 2),
    or by the velocity `vel` (N, 2, n, n) when given."""
    if vel is None:
        spec = np.concatenate([_velocity_hat(w_hat, n), _gradient_hat(w_hat, n)],
                              axis=-3)
        u, v, wx, wy = np.moveaxis(_irfft2(spec, n), -3, 0)
        if mean is not None:
            u, v = u + mean[:, 0, None, None], v + mean[:, 1, None, None]
    else:
        u, v = np.moveaxis(vel, -3, 0)
        wx, wy = np.moveaxis(_irfft2(_gradient_hat(w_hat, n), n), -3, 0)
    adv_hat = np.fft.rfft2(u * wx + v * wy, norm="forward")
    return -adv_hat * mask, (u, v)


def _vorticity_of(values, n):
    ikd = EU._solver_arrays(n)[0]
    uh = np.fft.rfft2(values, norm="forward")
    return ikd[0] * uh[..., 1, :, :] - ikd[1] * uh[..., 0, :, :]


def _tendency(w_hat, n):
    return _advection(w_hat, n, EU._solver_arrays(n)[2])


def _rhs(w_hat, n):
    return _tendency(w_hat, n)[0]


def _check_cfl(u, v, cfg):
    umax = max(np.abs(u).max(), np.abs(v).max())
    if umax > 0 and cfg.dt > EU.CFL * cfg.grid.spacing / umax:
        raise RuntimeError(
            f"CFL violation: dt={cfg.dt} > {EU.CFL * cfg.grid.spacing / umax:.3e}"
        )


def _rk4_step(w_hat, cfg):
    n, dt = cfg.grid.n, cfg.dt
    k1, (u, v) = _tendency(w_hat, n)
    _check_cfl(u, v, cfg)
    k2 = _rhs(w_hat + 0.5 * dt * k1, n)
    k3 = _rhs(w_hat + 0.5 * dt * k2, n)
    k4 = _rhs(w_hat + dt * k3, n)
    out = w_hat + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise RuntimeError("NaN detected in Euler step")
    return out


def _resolved_drift(vel, K, velocity_form=False):
    """Advected by the Biot-Savart velocity of the vorticity plus the mean
    flow, or by `vel` itself in the velocity form (equal up to roundoff for
    divergence-free input band-limited to n/3)."""
    n = vel.shape[-1]
    flow = ({"vel": vel} if velocity_form
            else {"mean": vel.mean(axis=(-2, -1))})
    adv_hat, _ = _advection(_vorticity_of(vel, n), n, EU._disk_mask(n, K),
                            **flow)
    return _velocity(adv_hat, n)


def block_rows(n):
    """Members per block of the chunked march."""
    return EU._CHUNK_BYTES // (4 * n * n * 8)


def unit_batch(grid, N, seed0=0):
    vals = np.stack([F.random_divfree(grid, 4.0, grid.n // 4, seed=seed0 + i).values
                     for i in range(N)])
    return vals / np.sqrt(grid.cell_volume
                          * (vals**2).sum(axis=(1, 2, 3), keepdims=True))


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_workspace_march_matches_allocating_oracle(threads, n, count):
    threads(count)
    grid = F.Grid(2, n)
    cfg = EU.EulerConfig(grid, dt=0.01)
    rows = block_rows(n)
    for N in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
        vals = unit_batch(grid, N, seed0=N)
        times, states = EU.evolve(E.Ensemble(grid, vals), cfg, 3 * cfg.dt,
                                  checkpoints=3)
        w = _vorticity_of(vals, n)
        for s in range(1, 4):
            w = _rk4_step(w, cfg)
            assert states[s].values.tobytes() == _velocity(w, n).tobytes(), (N, s)
        assert times[-1] == 3 * cfg.dt


@pytest.mark.parametrize("count", [1, 4])
def test_guard_trip_in_last_block_raises_oracle_message(threads, count):
    threads(count)
    base = unit_batch(GRID, 2 * block_rows(GRID.n) + 1, seed0=3)
    cfg = EU.EulerConfig(GRID, dt=0.02)
    # the last block alone trips; then the first block trips at the same
    # step but slower, so the message must take the batch-wide maximum
    for first in (1.0, 30.0):
        vals = base.copy()
        vals[0] *= first
        vals[-1] *= 60.0
        with pytest.raises(RuntimeError, match="CFL") as oracle:
            _rk4_step(_vorticity_of(vals, GRID.n), cfg)
        with pytest.raises(RuntimeError) as got:
            EU.evolve(E.Ensemble(GRID, vals), cfg, 4 * cfg.dt)
        assert str(got.value) == str(oracle.value)
    with pytest.raises(RuntimeError, match="CFL"):
        EU.step(E.Ensemble(GRID, vals[:1]), cfg)


def _scripted_rk4(trips):
    """A fake `EU._rk4` that steps nothing: member i trips at step
    trips[i][0] with k1 speeds trips[i][1] and is otherwise at rest.  A
    block trips where any of its members does, with the largest of their
    speeds, as the whole batch stepped at once would."""
    steps = {}

    def rk4(w, cfg, ws):
        first = (w.ctypes.data - w.base.ctypes.data) // w[0].nbytes
        s = steps[first] = steps.get(first, -1) + 1
        hit = [v for i, (t, v) in trips.items()
               if first <= i < first + len(w) and t == s]
        return tuple(np.max(hit, axis=0)) if hit else (0.0, 0.0), bool(hit)
    return rk4


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("trips, speed", [
    # a later block trips first; an earlier one later, and faster
    ({6: (1, (50.0, 0.0)), 1: (3, (0.0, 90.0))}, 50.0),
    # the NaN guard of a later block wins over an earlier block's CFL trip
    ({5: (0, (1.0, 1.0)), 0: (2, (70.0, 0.0))}, None),
    # two blocks trip at the same first step: the larger speed sets the limit
    ({2: (2, (40.0, 0.0)), 6: (2, (0.0, 60.0)), 0: (4, (99.0, 0.0))}, 60.0),
])
def test_blocks_tripping_at_different_steps_raise_the_one_block_message(
        threads, monkeypatch, count, trips, speed):
    # blocks of two members, each marched from its first step to its own
    # trip, raise what the same batch marched as one block raises
    grid = F.Grid(2, 16)
    cfg = EU.EulerConfig(grid, dt=0.01)
    vals = unit_batch(grid, 7, seed0=60)
    threads(count)
    messages = []
    for rows in (2, 7):
        monkeypatch.setattr(EU, "_CHUNK_BYTES", rows * 4 * grid.n**2 * 8)
        monkeypatch.setattr(EU, "_rk4", _scripted_rk4(trips))
        with pytest.raises(RuntimeError) as got:
            EU.evolve(E.Ensemble(grid, vals), cfg, 5 * cfg.dt)
        messages.append(str(got.value))
    limit = None if speed is None else EU.CFL * grid.spacing / speed
    assert messages == 2 * ["NaN detected in Euler step" if limit is None
                            else f"CFL violation: dt=0.01 > {limit:.3e}"]


def test_many_blocks_on_more_workers_than_cores(threads, monkeypatch):
    # one member per block on 8 workers, switching threads often: blocks
    # share the state, speed and trip arrays and must not disturb each other
    grid = F.Grid(2, 16)
    monkeypatch.setattr(EU, "_CHUNK_BYTES", 4 * grid.n**2 * 8)
    threads(8)
    cfg = EU.EulerConfig(grid, dt=0.02)
    vals = unit_batch(grid, 9, seed0=50)
    fast = vals.copy()
    fast[4] *= 40.0
    w = _vorticity_of(vals, grid.n)
    for _ in range(3):
        w = _rk4_step(w, cfg)
    with pytest.raises(RuntimeError, match="CFL") as oracle:
        _rk4_step(_vorticity_of(fast, grid.n), cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            out = EU.evolve(E.Ensemble(grid, vals), cfg, 3 * cfg.dt)
            assert out.values.tobytes() == _velocity(w, grid.n).tobytes()
            with pytest.raises(RuntimeError) as got:
                EU.evolve(E.Ensemble(grid, fast), cfg, 3 * cfg.dt)
            assert str(got.value) == str(oracle.value)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("t, checkpoints, name", [
    (0.04, -1, "checkpoints"), (0.0, 2, "horizon")])
def test_evolve_rejects_checkpoints_that_march_nothing(t, checkpoints, name):
    # both used to return ([0.], [u]): one state where checkpoints+1 are due
    grid = F.Grid(2, 16)
    u = F.GridField(grid, unit_batch(grid, 1)[0])
    with pytest.raises(ValueError, match=name):
        EU.evolve(u, EU.EulerConfig(grid, dt=0.02), t, checkpoints=checkpoints)


def test_workspace_drift_matches_allocating_drift():
    grid = F.Grid(2, 32)
    for N, K, seed0, flow in ((3, 8, 10, 0.0), (2, grid.n / 3.0, 20, 0.0),
                              (3, 4, 30, 0.05)):
        vals = 0.1 * unit_batch(grid, N, seed0=seed0)
        vals = np.stack([F.inverse(F.project_leq(F.forward(F.GridField(grid, v)),
                                                 grid.n / 3.0)).values
                         for v in vals])
        vals[:, 0] += flow   # a mean flow, which the vorticity cannot carry
        vals[:, 1] -= 0.5 * flow
        shared = EU._resolved_drift(vals, K)
        assert shared.tobytes() == _resolved_drift(vals, K).tobytes()
        velocity_form = _resolved_drift(vals, K, velocity_form=True)
        assert (np.abs(shared - velocity_form).max()
                <= 1e-13 * np.abs(velocity_form).max())


@pytest.mark.parametrize("lanes", [slice(None), slice(0, 2), slice(2, 4)])
def test_in_place_transforms_match_numpy_pair(lanes):
    # the complex pass runs in place on the output (forward) or on the
    # spectrum (inverse), on the whole stacked batch and on the strided
    # halves the velocity and gradient transforms use
    m, n = 3, 32
    ws = EU._Workspace(m, n)
    x = np.random.default_rng(7).standard_normal((m, 4, n, n))[:, lanes]
    got = EU._rfft2_into(x, ws.spec[:, lanes])
    want = np.fft.rfft2(x, norm="forward")
    assert got.tobytes() == want.tobytes()
    phys = ws.phys[:, lanes]
    EU._irfft2_into(ws.spec[:, lanes], phys)
    assert phys.tobytes() == np.fft.irfft2(want, s=(n, n),
                                           norm="forward").tobytes()


def test_workspace_holds_no_pass_buffer():
    # the in-place transforms need no (m, 4, n, h) pass intermediate and
    # no march writes a drift output; pin the workspace of one 16-member
    # block at n=64 at its size without either
    ws = EU._Workspace(16, 64)
    held = sum(a.nbytes for a in vars(ws).values() if isinstance(a, np.ndarray))
    assert held <= 7_521_280


def test_batched_solver_matches_member_reference():
    a, _ = grf_pair_ensembles(4, amp=0.0, seed0=90)
    cfg = EU.EulerConfig(GRID, dt=0.015625)
    pushed = EU.evolve(a, cfg, 16 * cfg.dt)
    for i in range(a.size):
        ref = ref_evolve(a.member(i), cfg.dt, 16)
        rel = np.abs(pushed.values[i] - ref).max() / np.abs(ref).max()
        assert rel <= 1e-13


def test_cfl_guard_trips_on_one_member_of_a_batch():
    a, _ = grf_pair_ensembles(3, amp=0.0, seed0=95)
    cfg = EU.EulerConfig(GRID, dt=0.05)
    for i in range(a.size):
        EU.step(a.member(i), cfg)      # each member alone is admissible
    values = a.values.copy()
    values[1] *= 50.0
    with pytest.raises(RuntimeError, match="CFL"):
        EU.evolve(E.Ensemble(GRID, values), cfg, 0.1)


# ------------------------------------------------------------------ solver

def test_zero_field_stays_zero():
    cfg = EU.EulerConfig(GRID, dt=0.01)
    z = F.GridField(GRID, np.zeros((2,) + GRID.shape))
    out = EU.step(z, cfg)
    assert np.max(np.abs(out.values)) == 0.0


def test_taylor_green_is_steady():
    # single-shell vorticity cos x + cos y: verified steady via the residual
    # of the vorticity equation at t=0, then integrated for t <= 1
    tg = EU.taylor_green(GRID)
    w_hat = EU.vorticity_hat(tg)
    rhs = _rhs(w_hat, GRID.n)
    assert np.max(np.abs(rhs)) < 1e-14
    cfg = EU.EulerConfig(GRID, dt=0.01)
    out = EU.evolve(tg, cfg, 1.0)
    rel = (F.l2_norm(F.GridField(GRID, out.values - tg.values))
           / F.l2_norm(tg))
    assert rel <= 1e-6


def test_energy_enstrophy_conservation_and_divfree():
    u0 = unit_grf(3, k_max=12)
    cfg = EU.EulerConfig(GRID, dt=0.01)
    e0, z0 = EU.energy(u0), EU.enstrophy(u0)
    out = EU.evolve(u0, cfg, 0.5)
    assert abs(EU.energy(out) - e0) <= 1e-6 * e0
    assert abs(EU.enstrophy(out) - z0) <= 1e-6 * z0
    assert F.divergence_norm(F.forward(out)) <= 1e-8


def test_cfl_guard_trips():
    u0 = F.GridField(GRID, 50.0 * unit_grf(4).values)
    cfg = EU.EulerConfig(GRID, dt=0.05)
    with pytest.raises(RuntimeError, match="CFL"):
        EU.step(u0, cfg)


def test_evolve_checkpoints_layout():
    u0 = unit_grf(5)
    cfg = EU.EulerConfig(GRID, dt=0.0125)
    times, fields = EU.evolve(u0, cfg, 0.1, checkpoints=4)
    assert np.allclose(times, [0.0, 0.025, 0.05, 0.075, 0.1])
    assert len(fields) == 5
    assert np.array_equal(fields[0].values, u0.values)


# ------------------------------------------------------------ L2 identity

def test_l2_identity_trivial_same_data():
    cfg = EU.EulerConfig(GRID, dt=0.01)
    u0 = unit_grf(6)
    rep = EU.l2_difference_identity_check(u0, u0, cfg, t=0.1, checkpoints=4)
    # both sides vanish identically; scale floor keeps the ratio finite
    assert rep["max_relative_residual"] < 1e-8 or rep["scale"] < 1e-20


def test_l2_identity_taylor_green_refinement():
    tg = EU.taylor_green(GRID)
    pert = unit_grf(7, k_max=8)
    u0 = F.GridField(GRID, tg.values + 1e-2 * pert.values)
    resid = []
    for dt in (0.02, 0.01, 0.005):
        cfg = EU.EulerConfig(GRID, dt=dt)
        rep = EU.l2_difference_identity_check(u0, tg, cfg, t=0.5, checkpoints=8)
        resid.append(rep["max_relative_residual"])
    assert all(r <= 1e-4 for r in resid)
    # at least second-order decay unless already at the floor
    floor = 1e-10
    for coarse, fine in zip(resid, resid[1:]):
        assert fine <= floor or coarse / fine >= 3.5


def oracle_l2_identity(u0, v0, cfg, t, checkpoints):
    """The step loop the identity check ran before it used the march: one
    workspace RK4 step of the pair at a time, velocities and both sides of
    the identity evaluated between steps."""
    n_steps = EU._steps_for(cfg.dt, t)
    g = cfg.grid
    ws = EU._Workspace(2, g.n)
    pair = EU.vorticity_hat(E.Ensemble(g, np.stack([u0.values, v0.values])))
    vel = np.empty((2, 2, g.n, g.n))
    half_sq = np.empty(n_steps + 1)
    rhs_vals = np.empty(n_steps + 1)
    for s in range(n_steps + 1):
        ua, vb = EU._velocity_into(pair, ws, vel)
        wdiff = ua - vb
        half_sq[s] = 0.5 * g.cell_volume * np.sum(wdiff**2)
        S = EU.strain(F.GridField(g, vb))
        wsx = wdiff[0]
        wsy = wdiff[1]
        quad = (S.tensor[0, 0] * wsx * wsx + 2 * S.tensor[0, 1] * wsx * wsy
                + S.tensor[1, 1] * wsy * wsy)
        rhs_vals[s] = -g.cell_volume * np.sum(quad)
        if s < n_steps:
            speeds, tripped = EU._rk4(pair, cfg, ws)
            if tripped:
                limit = EU._cfl_limit(speeds, cfg)
                if limit is None:
                    raise RuntimeError("NaN detected in Euler step")
                raise RuntimeError(f"CFL violation: dt={cfg.dt} > {limit:.3e}")
    idx = np.linspace(2, n_steps - 2, checkpoints).astype(int)
    deriv = (half_sq[idx - 2] - 8 * half_sq[idx - 1]
             + 8 * half_sq[idx + 1] - half_sq[idx + 2]) / (12.0 * cfg.dt)
    scale = max(np.abs(rhs_vals[idx]).max(), np.abs(deriv).max(), 1e-300)
    resid = np.abs(deriv - rhs_vals[idx]) / scale
    return {"max_relative_residual": float(resid.max()),
            "times": (idx * cfg.dt).tolist(), "scale": float(scale)}


@pytest.mark.parametrize("count", [1, 4])
def test_l2_identity_matches_step_loop_oracle(threads, monkeypatch, count):
    threads(count)
    tg = EU.taylor_green(GRID)
    u0 = F.GridField(GRID, tg.values + 1e-2 * unit_grf(7, k_max=8).values)
    for dt, t in ((0.02, 0.2), (0.01, 0.1)):
        cfg = EU.EulerConfig(GRID, dt=dt)
        assert (EU.l2_difference_identity_check(u0, tg, cfg, t, checkpoints=8)
                == oracle_l2_identity(u0, tg, cfg, t, 8))
    # one member per block: the pair marches as two blocks
    monkeypatch.setattr(EU, "_CHUNK_BYTES", 4 * GRID.n**2 * 8)
    assert (EU.l2_difference_identity_check(u0, tg, cfg, 0.1, checkpoints=4)
            == oracle_l2_identity(u0, tg, cfg, 0.1, 4))
    fast = F.GridField(GRID, 40.0 * u0.values)
    cfg = EU.EulerConfig(GRID, dt=0.025)
    with pytest.raises(RuntimeError, match="CFL") as oracle:
        oracle_l2_identity(fast, tg, cfg, 0.25, 8)
    with pytest.raises(RuntimeError) as got:
        EU.l2_difference_identity_check(fast, tg, cfg, 0.25, checkpoints=8)
    assert str(got.value) == str(oracle.value)


def test_mean_flow_is_rejected_before_any_step():
    a, _ = grf_pair_ensembles(3, amp=0.0, seed0=40)
    cfg = EU.EulerConfig(GRID, dt=0.0125)
    values = a.values.copy()
    values[2, 0] += 0.5
    moving = E.Ensemble(GRID, values)
    with pytest.raises(ValueError, match="member 2 has a mean velocity"):
        EU.evolve(moving, cfg, 4 * cfg.dt, checkpoints=2)
    with pytest.raises(ValueError, match="member 0 has a mean velocity"):
        EU.step(moving.member(2), cfg)
    with pytest.raises(ValueError, match="mean velocity"):
        EU.l2_difference_identity_check(a.member(0), moving.member(2), cfg,
                                        t=0.1, checkpoints=4)
    # a mean of roundoff size is not a mean flow
    values[2, 0] -= values[2, 0].mean()
    EU.step(E.Ensemble(GRID, values), cfg)


def test_antisymmetric_part_invisible():
    # (w x w) : grad v equals (w x w) : S(v) because w x w is symmetric
    v = unit_grf(8)
    w = unit_grf(9)
    S = EU.strain(v)
    g = GRID
    kd = F._deriv_modes(2, g.n)
    vh = full_spectrum(v.values, g)
    scale = g.n**2
    grad = np.stack([
        np.stack([np.fft.ifft2(1j * kd[0] * vh[0] * scale).real,
                  np.fft.ifft2(1j * kd[1] * vh[0] * scale).real]),
        np.stack([np.fft.ifft2(1j * kd[0] * vh[1] * scale).real,
                  np.fft.ifft2(1j * kd[1] * vh[1] * scale).real]),
    ])
    ww = np.einsum("i...,j...->ij...", w.values, w.values)
    with_full = np.sum(ww * grad)
    with_sym = np.sum(ww * S.tensor)
    assert abs(with_full - with_sym) <= 1e-10 * max(abs(with_full), 1.0)


# ------------------------------------------------------------------ strain

def test_strain_symmetric_tracefree_for_divfree():
    v = unit_grf(10)
    S = EU.strain(v)
    assert np.array_equal(S.tensor[0, 1], S.tensor[1, 0])
    tr = np.abs(S.tensor[0, 0] + S.tensor[1, 1]).max()
    assert tr <= 1e-8
    # operator norm against explicit eigenvalues at a few points
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = rng.integers(0, GRID.n, 2)
        M = np.array([[S.tensor[0, 0][i, j], S.tensor[0, 1][i, j]],
                      [S.tensor[1, 0][i, j], S.tensor[1, 1][i, j]]])
        lam = np.abs(np.linalg.eigvalsh(M)).max()
        assert abs(S.op_norm[i, j] - lam) < 1e-12


def test_lambda_zero_branches():
    u = unit_grf(11)
    zero = F.GridField(GRID, np.zeros((2,) + GRID.shape))
    assert EU.lambda_pointwise(u, u) == 0.0
    assert EU.lambda_pointwise(u, zero) == 0.0  # S(0) = 0
    # w supported where S(v) = 0: shear-free v (constant field is divergence
    # free with zero strain)
    assert EU.lambda_pointwise(zero, zero) == 0.0


def lambda_pointwise_oracle(u, v):
    """lambda_pointwise's own body before it became the one-member case of
    the coupled strain ratio."""
    w = u.values - v.values
    denom = float(u.grid.cell_volume * np.sum(w**2))
    if denom == 0.0:
        return 0.0
    s = EU.strain(v)
    wsq = (w**2).sum(axis=-3)
    return float(s.grid.cell_volume * np.sum(s.op_norm * wsq)) / denom


def test_lambda_pointwise_matches_its_old_body_bitwise():
    for k in range(10):
        u = unit_grf(100 + k)
        v = F.GridField(GRID, u.values + 0.1 * unit_grf(200 + k).values)
        assert EU.lambda_pointwise(u, v) == lambda_pointwise_oracle(u, v)
    assert EU.lambda_pointwise(u, u) == lambda_pointwise_oracle(u, u) == 0.0


def strain_stack_oracle(v):
    """The strain's own four-derivative stack before the shared gradient:
    (du/dx, du/dy, dv/dx, dv/dy) of (..., 2, n, n) velocities."""
    g = v.grid
    ikd = EU._solver_arrays(g.n)[0]
    vh = np.fft.rfftn(v.values, axes=(-2, -1), norm="forward")
    uh, wh = vh[..., 0, :, :], vh[..., 1, :, :]
    spec = np.stack([ikd[0] * uh, ikd[1] * uh, ikd[0] * wh, ikd[1] * wh],
                    axis=-3)
    return np.moveaxis(np.fft.irfftn(spec, s=g.shape, axes=(-2, -1),
                                     norm="forward"), -3, 0)


@pytest.mark.parametrize("members", [0, 1, 3, 8])
def test_strain_gradient_matches_its_old_stack_bitwise(members):
    if members:
        v, _ = grf_pair_ensembles(members, amp=0.0, seed0=80)
    else:
        v = unit_grf(80)
    dudx, dudy, dvdx, dvdy = strain_stack_oracle(v)
    s = EU.strain(v)
    t = s.tensor
    sxy = 0.5 * (dudy + dvdx)
    assert np.array_equal(t[..., 0, 0, :, :], dudx)
    assert np.array_equal(t[..., 1, 1, :, :], dvdy)
    assert np.array_equal(t[..., 0, 1, :, :], sxy)
    # the operator norm the coupled strain reads without the tensor
    op_norm = (np.abs(0.5 * (dudx + dvdy))
               + np.sqrt((0.5 * (dudx - dvdy)) ** 2 + sxy**2))
    assert s.op_norm.tobytes() == op_norm.tobytes()
    assert (EU._strain_parts(v.values, v.grid)[3].tobytes()
            == op_norm.tobytes())


def test_l2_identity_snapshots_do_not_grow_with_steps(monkeypatch):
    march = EU._march
    counts = []

    def counted(values, cfg, n_steps, snaps):
        counts.append(len(snaps))
        return march(values, cfg, n_steps, snaps)

    monkeypatch.setattr(EU, "_march", counted)
    tg = EU.taylor_green(GRID)
    u0 = F.GridField(GRID, tg.values + 1e-2 * unit_grf(7, k_max=8).values)
    for dt in (0.005, 0.0025):
        EU.l2_difference_identity_check(u0, tg, EU.EulerConfig(GRID, dt=dt),
                                        0.2, checkpoints=4)
    assert counts[0] == counts[1] <= 5 * 4


def test_pointwise_stability_exponent_bound():
    # ||w(t)|| <= exp(int lambda) ||w(0)|| (1 + 1e-3) along evolved pairs
    cfg = EU.EulerConfig(GRID, dt=0.015625)
    u0 = unit_grf(12)
    v0 = F.GridField(GRID, u0.values + 0.05 * unit_grf(13).values)
    times, fu = EU.evolve(u0, cfg, 0.25, checkpoints=8)
    _, fv = EU.evolve(v0, cfg, 0.25, checkpoints=8)
    lam = [EU.lambda_pointwise(a, b) for a, b in zip(fu, fv)]
    integral = np.trapezoid(lam, times)
    w0 = F.l2_norm(F.GridField(GRID, u0.values - v0.values))
    wt = F.l2_norm(F.GridField(GRID, fu[-1].values - fv[-1].values))
    assert wt <= np.exp(integral) * w0 * (1 + 1e-3)


def test_w2_strain_bound_check_pairs():
    a, b = grf_pair_ensembles(6, amp=0.05, seed0=40)
    cfg = EU.EulerConfig(GRID, dt=0.015625)
    rep = EU.w2_strain_bound_check(a, b, cfg, t=0.25, checkpoints=8)
    assert rep["w2_ok"] and rep["moment_ok"] and rep["avg_below_sup"]


def test_w2_strain_bound_identical_and_t0():
    a, _ = grf_pair_ensembles(3, amp=0.0, seed0=60)
    cfg = EU.EulerConfig(GRID, dt=0.0125)
    rep = EU.w2_strain_bound_check(a, a, cfg, t=0.05, checkpoints=4)
    assert rep["w2_0"] < 1e-12 and rep["w2_t"] < 1e-10
    assert rep["w2_ok"] and rep["moment_ok"]


def test_evolve_ensemble_matches_member_loop():
    a, _ = grf_pair_ensembles(3, amp=0.0, seed0=70)
    cfg = EU.EulerConfig(GRID, dt=0.0125)
    pushed = EU.evolve(a, cfg, 0.05)
    for i in range(a.size):
        direct = EU.evolve(a.member(i), cfg, 0.05)
        assert np.array_equal(pushed.values[i], direct.values)


def test_only_euler_names_the_vorticity_workspace():
    # the workspace's buffer layout and the transforms into it are the
    # solver's; other modules drive the vorticity core through its marches
    owned = {"_Workspace", "_advection", "_rfft2_into", "_irfft2_into",
             "_velocity_into", "_velocity_hat_into"}
    named = {}
    for path in sorted(Path(EU.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if names & owned:
            named[path.name] = sorted(names & owned)
    assert list(named) == ["euler.py"], named
