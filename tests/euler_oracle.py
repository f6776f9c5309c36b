"""The allocating half-spectrum Euler route, the oracle of `lawbound.euler`.

It is the solver before the workspace: every stage allocates its arrays
and transforms through rfft2/irfft2.  The workspace march must reproduce
`rk4_step` bit for bit, and `resolved_drift` is the one reference for the
certification march's resolved drift (`euler._drift_march`).
"""

import numpy as np

from lawbound import euler as EU


def _irfft2(spec, n):
    return np.fft.irfft2(spec, s=(n, n), norm="forward")


def _velocity_hat(w_hat, n):
    ikd, inv_k2, _ = EU._solver_arrays(n)
    psi_hat = -w_hat * inv_k2
    return np.stack([-ikd[1] * psi_hat, ikd[0] * psi_hat], axis=-3)


def velocity(w_hat, n):
    return _irfft2(_velocity_hat(w_hat, n), n)


def _gradient_hat(w_hat, n):
    ikd = EU._solver_arrays(n)[0]
    return np.stack([ikd[0] * w_hat, ikd[1] * w_hat], axis=-3)


def advection(w_hat, n, mask, vel=None, mean=None):
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


def vorticity_of(values, n):
    ikd = EU._solver_arrays(n)[0]
    uh = np.fft.rfft2(values, norm="forward")
    return ikd[0] * uh[..., 1, :, :] - ikd[1] * uh[..., 0, :, :]


def _tendency(w_hat, n):
    return advection(w_hat, n, EU._solver_arrays(n)[2])


def rhs(w_hat, n):
    return _tendency(w_hat, n)[0]


def _check_cfl(u, v, cfg):
    umax = max(np.abs(u).max(), np.abs(v).max())
    if umax > 0 and cfg.dt > EU.CFL * cfg.grid.spacing / umax:
        raise RuntimeError(
            f"CFL violation: dt={cfg.dt} > {EU.CFL * cfg.grid.spacing / umax:.3e}"
        )


def rk4_step(w_hat, cfg):
    n, dt = cfg.grid.n, cfg.dt
    k1, (u, v) = _tendency(w_hat, n)
    _check_cfl(u, v, cfg)
    k2 = rhs(w_hat + 0.5 * dt * k1, n)
    k3 = rhs(w_hat + 0.5 * dt * k2, n)
    k4 = rhs(w_hat + dt * k3, n)
    out = w_hat + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise RuntimeError("NaN detected in Euler step")
    return out


def resolved_drift(vel, K, velocity_form=False):
    """Resolved Euler tendency P_{<=K} Leray(-div(u x u)) of velocities
    (N, 2, n, n): the Biot-Savart velocity of the vorticity tendency,
    masked to the disk |k| <= min(K, n/3) where the product is alias-free.

    The vorticity is advected by its Biot-Savart velocity plus the mean
    flow, or by `vel` itself in the velocity form (equal up to roundoff for
    divergence-free input band-limited to n/3)."""
    n = vel.shape[-1]
    flow = ({"vel": vel} if velocity_form
            else {"mean": vel.mean(axis=(-2, -1))})
    adv_hat, _ = advection(vorticity_of(vel, n), n, EU._disk_mask(n, K),
                           **flow)
    return velocity(adv_hat, n)
