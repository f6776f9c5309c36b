"""Pseudo-spectral 2D incompressible Euler and the strain stability checks.

Vorticity-streamfunction formulation: the state is the spectral vorticity,
velocities are recovered through the streamfunction, the nonlinear term is
evaluated pseudo-spectrally with a 2/3 dealiasing mask, and time stepping
is RK4 with a CFL guard.  Velocities built this way are divergence-free by
construction.

The solver is member-batched: a whole ensemble is one real-FFT
(rfft2/irfft2, half-spectrum) state of shape (N, n, n//2+1), and a single
field is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensemble import Ensemble
from .fields import Grid, GridField, l2_norm
from .runtime import parallel_map

__all__ = [
    "EulerConfig",
    "StrainField",
    "step",
    "evolve",
    "evolve_ensemble",
    "reference_step_map",
    "energy",
    "enstrophy",
    "strain",
    "lambda_pointwise",
    "lambda_coupled",
    "l2_difference_identity_check",
    "w2_strain_bound_check",
    "taylor_green",
]


@dataclass(frozen=True)
class EulerConfig:
    grid: Grid
    dt: float
    dealias_fraction: float = 2.0 / 3.0
    cfl: float = 0.5
    k_init: float = None

    def __post_init__(self):
        if self.grid.d != 2:
            raise ValueError("Euler solver is 2D only")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def _half_modes(n: int):
    """Wavevector components on the half-spectrum (rfft2) layout."""
    return np.meshgrid(np.fft.fftfreq(n, d=1.0 / n),
                       np.fft.rfftfreq(n, d=1.0 / n), indexing="ij")


@lru_cache(maxsize=None)
def _solver_arrays(n: int, dealias_fraction: float = 2.0 / 3.0):
    """Half-spectrum (rfft2 layout, shape (n, n//2+1)) operators: i*k for
    odd derivatives with the Nyquist rows zeroed, 1/|k|^2 (0 at k=0) and
    the dealiasing mask."""
    kx, ky = _half_modes(n)
    k2 = kx**2 + ky**2
    inv_k2 = np.where(k2 == 0, 0.0, 1.0 / np.where(k2 == 0, 1.0, k2))
    cut = dealias_fraction * (n / 2.0)
    mask = (np.abs(kx) <= cut) & (np.abs(ky) <= cut)
    ikd = 1j * np.stack([np.where(np.abs(kx) == n // 2, 0.0, kx),
                         np.where(ky == n // 2, 0.0, ky)])
    for arr in (ikd, inv_k2, mask):
        arr.setflags(write=False)
    return ikd, inv_k2, mask


# Every solver array carries arbitrary leading (member) axes: velocities
# (..., 2, n, n), half-spectrum vorticities (..., n, n//2+1).  numpy
# transforms each line independently, so a member's result does not depend
# on the batch it travels in.

def _irfft2(spec: np.ndarray, n: int) -> np.ndarray:
    return np.fft.irfft2(spec, s=(n, n), norm="forward")


def _velocity_hat(w_hat: np.ndarray, n: int) -> np.ndarray:
    ikd, inv_k2, _ = _solver_arrays(n)
    psi_hat = -w_hat * inv_k2
    return np.stack([-ikd[1] * psi_hat, ikd[0] * psi_hat], axis=-3)


def _velocity(w_hat: np.ndarray, n: int) -> np.ndarray:
    return _irfft2(_velocity_hat(w_hat, n), n)


def _gradient_hat(w_hat: np.ndarray, n: int) -> np.ndarray:
    ikd = _solver_arrays(n)[0]
    return np.stack([ikd[0] * w_hat, ikd[1] * w_hat], axis=-3)


def _advection(w_hat: np.ndarray, n: int, mask: np.ndarray, vel=None):
    """Masked -u.grad(w) (half spectrum) and the physical velocity (u, v).

    The advecting velocity is `vel` (..., 2, n, n) when given, otherwise the
    Biot-Savart velocity of `w_hat`, inverse-transformed together with the
    vorticity gradient in one stacked call.  This is the package's one
    pseudo-spectral Euler nonlinearity."""
    # The gradient spectrum is a temporary of the concatenation: keeping it
    # alive beside `spec` measurably raised the solver's peak RSS.
    if vel is None:
        spec = np.concatenate([_velocity_hat(w_hat, n), _gradient_hat(w_hat, n)],
                              axis=-3)
        u, v, wx, wy = np.moveaxis(_irfft2(spec, n), -3, 0)
    else:
        u, v = np.moveaxis(vel, -3, 0)
        wx, wy = np.moveaxis(_irfft2(_gradient_hat(w_hat, n), n), -3, 0)
    adv_hat = np.fft.rfft2(u * wx + v * wy, norm="forward")
    return -adv_hat * mask, (u, v)


def _tendency(w_hat: np.ndarray, n: int, dealias_fraction: float):
    """Dealiased -u.grad(w) and the physical velocity components (u, v)."""
    return _advection(w_hat, n, _solver_arrays(n, dealias_fraction)[2])


def _rhs(w_hat: np.ndarray, n: int, dealias_fraction: float) -> np.ndarray:
    """Vorticity tendency dw_hat/dt of a half-spectrum vorticity."""
    return _tendency(w_hat, n, dealias_fraction)[0]


def _vorticity_of(values: np.ndarray, n: int) -> np.ndarray:
    ikd = _solver_arrays(n)[0]
    uh = np.fft.rfft2(values, norm="forward")
    return ikd[0] * uh[..., 1, :, :] - ikd[1] * uh[..., 0, :, :]


def vorticity_hat(u) -> np.ndarray:
    """Spectral vorticity dv/dx - du/dy of a velocity field, rfft2 layout
    (n, n//2+1) with the 1/n^2 normalization of `fields.forward`.

    For an Ensemble the result carries the leading member axis."""
    if u.m != 2 or u.grid.d != 2:
        raise ValueError("vorticity needs a 2D velocity field")
    return _vorticity_of(u.values, u.grid.n)


@lru_cache(maxsize=None)
def _disk_mask(n: int, K: float) -> np.ndarray:
    kx, ky = _half_modes(n)
    mask = np.sqrt(kx**2 + ky**2) <= min(K, n / 3.0)
    mask.setflags(write=False)
    return mask


def _resolved_drift(vel: np.ndarray, K: float) -> np.ndarray:
    """Resolved Euler tendency P_{<=K} Leray(-div(u x u)) of velocities
    (..., 2, n, n), divergence-free and band-limited to n/3.

    In 2D the curl of -div(u x u) is -u.grad(w) and both are mean-free, so
    the drift is the Biot-Savart velocity of the vorticity tendency, masked
    to the disk |k| <= min(K, n/3) where the quadratic product is
    alias-free.  The advecting velocity is `vel` itself: one rebuilt from
    w would drop a mean flow."""
    n = vel.shape[-1]
    adv_hat, _ = _advection(_vorticity_of(vel, n), n, _disk_mask(n, K),
                            vel=vel)
    return _velocity(adv_hat, n)


def velocity_from_vorticity(grid: Grid, w_hat: np.ndarray) -> GridField:
    """Velocity of a half-spectrum vorticity (the inverse of vorticity_hat)."""
    return GridField(grid, _velocity(w_hat, grid.n))


def _check_cfl(u: np.ndarray, v: np.ndarray, cfg: EulerConfig):
    umax = max(np.abs(u).max(), np.abs(v).max())
    if umax > 0 and cfg.dt > cfg.cfl * cfg.grid.spacing / umax:
        raise RuntimeError(
            f"CFL violation: dt={cfg.dt} > {cfg.cfl * cfg.grid.spacing / umax:.3e}"
        )


def _rk4_step(w_hat, cfg: EulerConfig):
    """One RK4 step of a vorticity batch; the CFL guard trips when any
    member violates it at the step's start."""
    n, frac, dt = cfg.grid.n, cfg.dealias_fraction, cfg.dt
    k1, (u, v) = _tendency(w_hat, n, frac)
    _check_cfl(u, v, cfg)
    k2 = _rhs(w_hat + 0.5 * dt * k1, n, frac)
    k3 = _rhs(w_hat + 0.5 * dt * k2, n, frac)
    k4 = _rhs(w_hat + dt * k3, n, frac)
    out = w_hat + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise RuntimeError("NaN detected in Euler step")
    return out


def step(u, cfg: EulerConfig):
    """One RK4 step of 2D Euler applied to a divergence-free velocity field
    (a GridField, or every member of an Ensemble)."""
    w_hat = _rk4_step(vorticity_hat(u), cfg)
    return type(u)(u.grid, _velocity(w_hat, cfg.grid.n))


def _steps_for(cfg: EulerConfig, t: float) -> int:
    n_steps = int(round(t / cfg.dt))
    if abs(n_steps * cfg.dt - t) > 1e-9 * max(t, cfg.dt):
        raise ValueError(f"horizon {t} is not a multiple of dt={cfg.dt}")
    return n_steps


def evolve(u, cfg: EulerConfig, t: float, checkpoints: int = 0):
    """Evolve over [0, t].

    `u` is a GridField or an Ensemble; an ensemble is marched as one
    member-batched state and a GridField is the batch of one.  With
    checkpoints == 0 returns the final state (same type as `u`); otherwise
    returns (times, states) at `checkpoints`+1 equispaced times including
    both ends, states[0] being `u` itself.
    """
    n_steps = _steps_for(cfg, t)
    if checkpoints:
        if n_steps % checkpoints != 0:
            raise ValueError("checkpoints must divide the step count")
        stride = n_steps // checkpoints
    n = cfg.grid.n
    state = type(u)
    w_hat = vorticity_hat(u)
    out_times, out_states = [0.0], [u]
    for s in range(n_steps):
        w_hat = _rk4_step(w_hat, cfg)
        if checkpoints and (s + 1) % stride == 0:
            out_times.append((s + 1) * cfg.dt)
            out_states.append(state(u.grid, _velocity(w_hat, n)))
    if checkpoints:
        return np.array(out_times), out_states
    return state(u.grid, _velocity(w_hat, n))


def evolve_ensemble(e: Ensemble, cfg: EulerConfig, t: float) -> Ensemble:
    """Pushforward of an empirical law through the flow."""
    return evolve(e, cfg, t)


def reference_step_map(cfg: EulerConfig, dt_phys: float):
    """The one-step reference map S_{dt_phys} as a plain callable."""
    def apply(u: GridField) -> GridField:
        return evolve(u, cfg, dt_phys)
    return apply


def energy(u: GridField) -> float:
    return l2_norm(u) ** 2


def enstrophy(u):
    """int w^2 dx of a GridField (float) or of every Ensemble member (array)."""
    g = u.grid
    w = _irfft2(vorticity_hat(u), g.n)
    z = g.cell_volume * np.sum(w**2, axis=(-2, -1))
    return float(z) if isinstance(u, GridField) else z


@dataclass
class StrainField:
    """Symmetric rate-of-strain tensor of a 2D velocity field, or of every
    member of an ensemble (then both arrays carry a leading member axis)."""

    grid: Grid
    tensor: np.ndarray     # (..., 2, 2, n, n)
    op_norm: np.ndarray    # (..., n, n) pointwise spectral norm

    @property
    def max_norm(self) -> float:
        return float(self.op_norm.max())


def strain(v) -> StrainField:
    """S(v) = (grad v + grad v^T)/2 with its pointwise operator norm.

    `v` is a GridField or an Ensemble.  For a symmetric 2x2 matrix
    [[a, b], [b, c]] the eigenvalues are (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2),
    so the operator norm is |(a+c)/2| + sqrt(((a-c)/2)^2 + b^2)."""
    g = v.grid
    if g.d != 2 or v.m != 2:
        raise ValueError("strain needs a 2D velocity field")
    ikd = _solver_arrays(g.n)[0]
    vh = np.fft.rfft2(v.values, norm="forward")
    uh, wh = vh[..., 0, :, :], vh[..., 1, :, :]
    spec = np.stack([ikd[0] * uh, ikd[1] * uh, ikd[0] * wh, ikd[1] * wh],
                    axis=-3)
    dudx, dudy, dvdx, dvdy = np.moveaxis(_irfft2(spec, g.n), -3, 0)
    sxy = 0.5 * (dudy + dvdx)
    tensor = np.stack([np.stack([dudx, sxy], axis=-3),
                       np.stack([sxy, dvdy], axis=-3)], axis=-4)
    mean = 0.5 * (dudx + dvdy)
    radius = np.sqrt((0.5 * (dudx - dvdy)) ** 2 + sxy**2)
    return StrainField(g, tensor, np.abs(mean) + radius)


def _weighted_strain_integral(w_values: np.ndarray, s: StrainField) -> float:
    """integral |S(v)| |w|^2 dx on the grid, summed over any member axis."""
    wsq = (w_values**2).sum(axis=-3)
    return float(s.grid.cell_volume * np.sum(s.op_norm * wsq))


def lambda_pointwise(u: GridField, v: GridField) -> float:
    """Distance-weighted strain ratio for one pair; zero when u == v."""
    w = u.values - v.values
    denom = float(u.grid.cell_volume * np.sum(w**2))
    if denom == 0.0:
        return 0.0
    return _weighted_strain_integral(w, strain(v)) / denom


def _coupled_strain(pairs_u: Ensemble, pairs_v: Ensemble):
    """lambda, max_x |S(v_i)| over members, and the per-member squared
    distances ||u_i - v_i||^2 of an aligned coupling, from one strain
    evaluation of the whole ensemble."""
    s = strain(pairs_v)
    w = pairs_u.values - pairs_v.values
    sq = pairs_u.grid.cell_volume * np.sum(w**2, axis=tuple(range(1, w.ndim)))
    den = float(np.sum(sq))
    lam = _weighted_strain_integral(w, s) / den if den != 0.0 else 0.0
    return lam, s.max_norm, sq


def lambda_coupled(pairs_u: Ensemble, pairs_v: Ensemble) -> float:
    """Distance-weighted average strain over an aligned coupling.

    Members of pairs_u and pairs_v are matched index to index (the coupling
    must already be applied); returns sum_i int |S(v_i)| |u_i - v_i|^2 dx
    divided by sum_i ||u_i - v_i||^2, or zero when the denominator vanishes.
    """
    if pairs_u.size != pairs_v.size:
        raise ValueError("coupled ensembles must have equal size")
    return _coupled_strain(pairs_u, pairs_v)[0]


def taylor_green(grid: Grid) -> GridField:
    """Steady single-shell state: vorticity cos(x) + cos(y)."""
    xy = grid.coordinates()
    w = np.cos(xy[0]) + np.cos(xy[1])
    return velocity_from_vorticity(grid, np.fft.rfft2(w, norm="forward"))


def l2_difference_identity_check(u0: GridField, v0: GridField, cfg: EulerConfig,
                                 t: float, checkpoints: int = 16) -> dict:
    """Compare d/dt (1/2)||w||^2 with -int (w x w) : S(v) along two solutions.

    The time derivative uses a 4th order central stencil on ||w||^2 stored at
    every solver step; the comparison is made at `checkpoints` interior
    times.  Returns the max relative residual and the curves.
    """
    n_steps = _steps_for(cfg, t)
    g = cfg.grid
    pair = vorticity_hat(Ensemble(g, np.stack([u0.values, v0.values])))
    half_sq = np.empty(n_steps + 1)
    rhs_vals = np.empty(n_steps + 1)
    for s in range(n_steps + 1):
        ua, vb = _velocity(pair, g.n)
        wdiff = ua - vb
        half_sq[s] = 0.5 * g.cell_volume * np.sum(wdiff**2)
        S = strain(GridField(g, vb))
        wsx = wdiff[0]
        wsy = wdiff[1]
        quad = (S.tensor[0, 0] * wsx * wsx + 2 * S.tensor[0, 1] * wsx * wsy
                + S.tensor[1, 1] * wsy * wsy)
        rhs_vals[s] = -g.cell_volume * np.sum(quad)
        if s < n_steps:
            pair = _rk4_step(pair, cfg)
    # 4th order central difference, interior nodes only
    idx = np.linspace(2, n_steps - 2, checkpoints).astype(int)
    deriv = (half_sq[idx - 2] - 8 * half_sq[idx - 1]
             + 8 * half_sq[idx + 1] - half_sq[idx + 2]) / (12.0 * cfg.dt)
    scale = max(np.abs(rhs_vals[idx]).max(), np.abs(deriv).max(), 1e-300)
    resid = np.abs(deriv - rhs_vals[idx]) / scale
    return {
        "max_relative_residual": float(resid.max()),
        "times": (idx * cfg.dt).tolist(),
        "scale": float(scale),
    }


def w2_strain_bound_check(a: Ensemble, b: Ensemble, cfg: EulerConfig, t: float,
                          checkpoints: int = 8, tol: float = 1e-3) -> dict:
    """Push an optimal W2 coupling through the flow and test the growth bounds.

    Checks W2(mu_t, nu_t) <= exp(int lambda) W2(mu_0, nu_0) (1+tol) and the
    coupled second moment M(t) <= exp(2 int lambda) M(0) (1+tol), where
    lambda is the distance-weighted average strain accumulated by trapezoid
    over the checkpoints.  Also reports the worst-case comparison against
    max_x |S|.
    """
    from .transport import wasserstein_exact

    w2_0, plan = wasserstein_exact(a, b, p=2)
    b_aligned = Ensemble(b.grid, b.values[plan.permutation])
    (times, path_a), (_, path_b) = parallel_map(
        lambda e: evolve(e, cfg, t, checkpoints=checkpoints), [a, b_aligned])
    lam = np.empty(checkpoints + 1)
    sup_strain = np.empty(checkpoints + 1)
    m_vals = np.empty(checkpoints + 1)
    for c, (ua, vb) in enumerate(zip(path_a, path_b)):
        lam[c], sup_strain[c], sq = _coupled_strain(ua, vb)
        m_vals[c] = np.mean(sq)
    w2_t, _ = wasserstein_exact(path_a[-1], path_b[-1], p=2)
    integral = float(np.trapezoid(lam, times))
    sup_integral = float(np.trapezoid(sup_strain, times))
    w2_bound = np.exp(integral) * w2_0
    m_bound = np.exp(2.0 * integral) * m_vals[0]
    return {
        "w2_0": w2_0,
        "w2_t": w2_t,
        "w2_bound": float(w2_bound),
        "w2_ok": bool(w2_t <= w2_bound * (1 + tol)),
        "moment_0": float(m_vals[0]),
        "moment_t": float(m_vals[-1]),
        "moment_bound": float(m_bound),
        "moment_ok": bool(m_vals[-1] <= m_bound * (1 + tol)),
        "strain_integral": integral,
        "sup_strain_integral": sup_integral,
        "avg_below_sup": bool(integral <= sup_integral * (1 + 1e-12)),
        "times": times.tolist(),
        "lambda_curve": lam.tolist(),
    }
