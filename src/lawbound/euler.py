"""Pseudo-spectral 2D incompressible Euler and the strain stability checks.

Vorticity-streamfunction formulation: the state is the spectral vorticity,
velocities are recovered through the streamfunction, the nonlinear term is
evaluated pseudo-spectrally with a 2/3 dealiasing mask, and time stepping
is RK4 with a CFL guard.  Velocities built this way are divergence-free by
construction.

The solver is member-batched: a whole ensemble is one real-FFT
(half-spectrum) state of shape (N, n, n//2+1), and a single field is the
batch of one.  A march runs in a caller-allocated workspace of stage
buffers, so its RK4 stages allocate nothing, and a large ensemble marches
in member blocks, one after another on each worker thread; results are
bitwise equal to the allocating route for any block split and worker count.
A march can also stop its workers together at marked steps and evaluate
there in shares, as the coupled strain (`_CoupledStrain`) does.

Certification's drift march (`_drift_march`) and its resolvability check
(`_check_resolvable`) live here too: no other module knows the workspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensemble import Ensemble
from .fields import (
    Grid,
    GridField,
    _deriv_modes,
    _gradient,
    _half,
    _half_spectrum,
    _mode_magnitude,
    _modes,
    _parseval_sq,
    _sq_norms,
    divergence_norm,
    forward,
    l2_norm,
    project_gt,
    spec_l2_norm,
)
from .runtime import parallel_map, worker_count

__all__ = [
    "EulerConfig",
    "StrainField",
    "step",
    "evolve",
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


DEALIAS_FRACTION = 2.0 / 3.0  # modes |k_x|, |k_y| <= DEALIAS_FRACTION n/2
CFL = 0.5  # the step guard's dt <= CFL h / max|u|


@dataclass(frozen=True)
class EulerConfig:
    grid: Grid
    dt: float

    def __post_init__(self):
        if self.grid.d != 2:
            raise ValueError("Euler solver is 2D only")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@lru_cache(maxsize=None)
def _solver_arrays(n: int):
    """Half-spectrum (rfft2 layout, shape (n, n//2+1)) operators: i*k for
    odd derivatives with the Nyquist rows zeroed, 1/|k|^2 (0 at k=0) and
    the dealiasing mask."""
    g = Grid(2, n)
    kx, ky = _half(_modes(2, n), g)
    k2 = kx**2 + ky**2
    inv_k2 = np.where(k2 == 0, 0.0, 1.0 / np.where(k2 == 0, 1.0, k2))
    cut = DEALIAS_FRACTION * (n / 2.0)
    mask = (np.abs(kx) <= cut) & (np.abs(ky) <= cut)
    ikd = 1j * _half(_deriv_modes(2, n), g)
    for arr in (ikd, inv_k2, mask):
        arr.setflags(write=False)
    return ikd, inv_k2, mask


# Member batches: velocities (N, 2, n, n), half-spectrum vorticities
# (N, n, n//2+1).  numpy transforms each line independently, so a member's
# result does not depend on the batch it travels in.

# Members per block of the chunked march: _CHUNK_BYTES // (4 n^2 8), the
# count whose four physical stage fields fit in about one core's L2 cache
# (16 at n=64).  An 8-step march of N=64 at n=64 (2-core Xeon, 2 MiB L2 per
# core, median of 9) took 0.25 s in blocks of 16 on two workers, against
# 0.26-0.29 s in blocks of 4, 8 or 32 and 0.47 s as one block (one worker:
# 0.42 s, against 0.38-0.43 s and 0.43 s).
_CHUNK_BYTES = 2 * 1024 * 1024


@lru_cache(maxsize=None)
def _minus_iky(n: int) -> np.ndarray:
    """-i*ky, the Biot-Savart factor of u = -d(psi)/dy."""
    arr = -_solver_arrays(n)[0][1]
    arr.setflags(write=False)
    return arr


class _Workspace:
    """Stage buffers of the nonlinearity and the RK4 for up to `members`
    members on an n x n grid.

    The caller allocates a workspace for one march and one thread; nothing
    is cached at module level.  `view(m)` gives the buffers of the first m
    members.  The 2-D transforms run their inner pass in place (on their
    output going forward, on the spectrum going back), so there is no pass
    buffer, and an inverse transform leaves `spec` overwritten: each stage
    rebuilds the spectra it reads."""

    _BUFFERS = ("spec", "phys", "prod", "k1", "k2", "k3", "k4", "stage",
                "finite")

    def __init__(self, members: int, n: int):
        h = n // 2 + 1
        self.n = n
        self.spec = np.empty((members, 4, n, h), complex)  # stacked spectra
        self.phys = np.empty((members, 4, n, n))           # u, v, wx, wy
        self.prod = np.empty((members, n, n))
        self.k1, self.k2, self.k3, self.k4, self.stage = (
            np.empty((members, n, h), complex) for _ in range(5))
        self.finite = np.empty((members, n, h), bool)

    def view(self, m: int) -> "_Workspace":
        ws = object.__new__(_Workspace)
        ws.n = self.n
        for name in self._BUFFERS:
            setattr(ws, name, getattr(self, name)[:m])
        return ws


# numpy's rfft2/irfft2 allocate their intermediate pass even when given
# `out=`; these are the same two 1-D passes, so they are bitwise equal.
# The complex pass runs in place: the forward one on `out`, the inverse one
# on `spec`, which is therefore overwritten.  Each 1-D line is read whole
# before it is written, so a pass run in place gives the same bits.

def _rfft2_into(x, out):
    np.fft.rfft(x, axis=-1, norm="forward", out=out)
    return np.fft.fft(out, axis=-2, norm="forward", out=out)


def _irfft2_into(spec, out):
    np.fft.ifft(spec, axis=-2, norm="forward", out=spec)
    return np.fft.irfft(spec, out.shape[-1], axis=-1, norm="forward", out=out)


def _velocity_hat_into(w, psi, out):
    """Biot-Savart velocity spectrum of the vorticity block w into out
    (m, 2, n, h), with the streamfunction in psi."""
    n = w.shape[-2]
    ikd, inv_k2, _ = _solver_arrays(n)
    np.multiply(np.negative(w, out=psi), inv_k2, out=psi)
    np.multiply(_minus_iky(n), psi, out=out[:, 0])
    np.multiply(ikd[0], psi, out=out[:, 1])
    return out


def _velocity_into(w, ws, out):
    """Physical velocity (m, 2, n, n) of the vorticity block w into out."""
    spec = _velocity_hat_into(w, ws.spec[:, 2], ws.spec[:, :2])
    return _irfft2_into(spec, out)


def _vorticity_into(values, ws, out):
    """Half-spectrum vorticity (m, n, h) of the velocity block values
    (m, 2, n, n) into out, which must not alias ws.spec."""
    return _curl_hat(_rfft2_into(values, ws.spec[:, :2]), out, ws.spec[:, 2])


def _curl_hat(uh, out=None, tmp=None):
    """Vorticity i*kx*vhat - i*ky*uhat of half-layout velocity spectra
    (..., 2, n, n//2+1), written into out with tmp as a work buffer when
    given (neither may alias uh), else allocated.  The package's one curl."""
    ikd = _solver_arrays(uh.shape[-2])[0]
    out = np.multiply(ikd[0], uh[..., 1, :, :], out=out)
    return np.subtract(out, np.multiply(ikd[1], uh[..., 0, :, :], out=tmp),
                       out=out)


def _advection(w, ws, mask, out, mean=None):
    """Masked -u.grad(w) of the vorticity block w (m, n, h) into out, every
    intermediate in ws; returns the physical velocity (u, v).

    The advecting velocity is the Biot-Savart velocity of w,
    inverse-transformed together with the vorticity gradient in one stacked
    pass, plus the constant flow `mean` (m, 2) when given, which w cannot
    carry.  This is the package's one pseudo-spectral Euler nonlinearity."""
    ikd = _solver_arrays(ws.n)[0]
    np.multiply(ikd[0], w, out=ws.spec[:, 2])
    np.multiply(ikd[1], w, out=ws.spec[:, 3])
    # out holds the streamfunction until the product's transform lands
    # there, so it must not alias w
    _velocity_hat_into(w, out, ws.spec[:, :2])
    u, v, wx, wy = _irfft2_into(ws.spec, ws.phys).swapaxes(0, 1)
    if mean is not None:
        np.add(ws.phys[:, :2], mean[:, :, None, None], out=ws.phys[:, :2])
    prod = np.multiply(u, wx, out=ws.prod)
    np.add(prod, np.multiply(v, wy, out=wx), out=prod)
    _rfft2_into(prod, out)
    np.multiply(np.negative(out, out=out), mask, out=out)
    return u, v


def vorticity_hat(u) -> np.ndarray:
    """Spectral vorticity dv/dx - du/dy of a velocity field, rfft2 layout
    (n, n//2+1) with the 1/n^2 normalization of `fields.forward`.

    For an Ensemble the result carries the leading member axis."""
    if u.m != 2 or u.grid.d != 2:
        raise ValueError("vorticity needs a 2D velocity field")
    return _curl_hat(_half_spectrum(u.values, u.grid))


@lru_cache(maxsize=None)
def _disk_mask(n: int, K: float) -> np.ndarray:
    mask = _half(_mode_magnitude(2, n), Grid(2, n)) <= min(K, n / 3.0)
    mask.setflags(write=False)
    return mask


def _resolved_drift(vel: np.ndarray, K: float) -> np.ndarray:
    """Resolved Euler tendency P_{<=K} Leray(-div(u x u)) of velocities
    (N, 2, n, n), divergence-free and band-limited to n/3.

    In 2D the curl of -div(u x u) is -u.grad(w) and both are mean-free, so
    the drift is the Biot-Savart velocity of the vorticity tendency, masked
    to the disk |k| <= min(K, n/3) where the quadratic product is
    alias-free.  The advecting velocity is the Biot-Savart velocity of w
    plus the mean of `vel`, which w cannot carry; for such input it equals
    `vel` up to roundoff."""
    n = vel.shape[-1]
    ws = _Workspace(len(vel), n)
    w = _vorticity_into(vel, ws, ws.stage)
    _advection(w, ws, _disk_mask(n, K), ws.k1, mean=vel.mean(axis=(2, 3)))
    return _velocity_into(ws.k1, ws, np.empty_like(vel))


def _check_resolvable(u: GridField, name: str) -> None:
    """Reject a velocity the vorticity form would misread: one with modes
    beyond n/3, where the quadratic product aliases, or a gradient part,
    which the vorticity does not see (both relative to 1e-10)."""
    uh = forward(u)
    total = spec_l2_norm(uh)
    if spec_l2_norm(project_gt(uh, u.grid.n / 3.0)) > 1e-10 * total:
        raise ValueError(f"{name} must be band-limited to n/3")
    if divergence_norm(uh) > 1e-10 * u.grid.n * total:
        raise ValueError(f"{name} must be divergence-free")


def velocity_from_vorticity(grid: Grid, w_hat: np.ndarray) -> GridField:
    """Velocity of a half-spectrum vorticity (the inverse of vorticity_hat)."""
    n = grid.n
    w = w_hat.reshape((-1, n, n // 2 + 1))
    out = np.empty((len(w), 2, n, n))
    _velocity_into(w, _Workspace(len(w), n), out)
    return GridField(grid, out.reshape(w_hat.shape[:-2] + (2, n, n)))


def _cfl_limit(speeds, cfg: EulerConfig):
    """The admissible step CFL*h/max|u| when the k1 speeds (max|u|, max|v|)
    make cfg.dt exceed it, else None."""
    umax = max(speeds)
    limit = CFL * cfg.grid.spacing
    if umax > 0 and cfg.dt > limit / umax:
        return limit / umax
    return None


def _stage(x, h, k, out):
    """x + h*k into out."""
    return np.add(x, np.multiply(h, k, out=out), out=out)


def _rk4_increment(k1, k2, k3, k4, dt):
    """(dt/6) (((k1 + 2 k2) + 2 k3) + k4) built in k1; k2 and k3 are
    overwritten."""
    np.add(k1, np.multiply(2, k2, out=k2), out=k1)
    np.add(k1, np.multiply(2, k3, out=k3), out=k1)
    np.add(k1, k4, out=k1)
    return np.multiply(dt / 6.0, k1, out=k1)


def _rk4_step(f, x, t, dt, bufs, out, k1_done=False):
    """One RK4 step of dx/dt = f(y, t, out) from x into out (x itself for an
    in-place step) on the caller's buffers bufs = (k1, k2, k3, k4, stage),
    none of which may alias x or out.  k1 is evaluated here unless k1_done
    says it already holds f(x, t).  This is the package's one RK4 tableau."""
    k1, k2, k3, k4, stage = bufs
    if not k1_done:
        f(x, t, k1)
    f(_stage(x, 0.5 * dt, k1, stage), t + 0.5 * dt, k2)
    f(_stage(x, 0.5 * dt, k2, stage), t + 0.5 * dt, k3)
    f(_stage(x, dt, k3, stage), t + dt, k4)
    return np.add(x, _rk4_increment(k1, k2, k3, k4, dt), out=out)


def _rk4(w, cfg: EulerConfig, ws):
    """One RK4 step of the vorticity block w in place, every stage in ws.

    Returns the k1 speeds (max|u|, max|v|) and whether a guard tripped:
    the CFL guard stops before k2 and leaves w as it was, the NaN guard
    checks the new state."""
    mask = _solver_arrays(cfg.grid.n)[2]
    u, v = _advection(w, ws, mask, ws.k1)
    speeds = (np.abs(u, out=ws.prod).max(), np.abs(v, out=ws.prod).max())
    if _cfl_limit(speeds, cfg) is not None:
        return speeds, True
    _rk4_step(lambda y, _, out: _advection(y, ws, mask, out), w, 0.0, cfg.dt,
              (ws.k1, ws.k2, ws.k3, ws.k4, ws.stage), w, k1_done=True)
    return speeds, not np.isfinite(w, out=ws.finite).all()


def _check_mean_free(values) -> None:
    """Reject a velocity batch (N, 2, n, n) with a member whose mean
    velocity exceeds 1e-12 of its RMS: the solver carries vorticity and
    rebuilds velocities by Biot-Savart, which drops a mean flow."""
    mean = np.abs(values.mean(axis=(2, 3))).max(axis=1)
    moving = mean > 1e-12 * np.sqrt((values**2).mean(axis=(1, 2, 3)))
    if moving.any():
        i = int(np.argmax(moving))
        raise ValueError(f"member {i} has a mean velocity of {mean[i]:.3e}; "
                         f"the Euler solver needs mean-free velocities")


def _velocity_batch(u, cfg: EulerConfig) -> np.ndarray:
    """The velocities of `u` (GridField or Ensemble) as a batch
    (N, 2, n, n) that `_march` can take."""
    if u.m != 2 or u.grid.d != 2:
        raise ValueError("vorticity needs a 2D velocity field")
    n = cfg.grid.n
    values = u.values.reshape((-1, 2, n, n))
    _check_mean_free(values)
    return values


def _march(values, cfg: EulerConfig, n_steps: int, snaps: dict,
           hook=None) -> None:
    """March the mean-free velocity batch `values` (N, 2, n, n) n_steps RK4
    steps, writing the velocity after s steps into snaps[s] (N, 2, n, n).

    The batch is cut into blocks of _CHUNK_BYTES // (4 n^2 8) members,
    dealt to the `parallel_map` workers in turn; each worker marches its
    blocks one after another through one workspace (a batch of one block
    runs inline).  Without a hook this is one pool call, in which each
    worker marches each of its blocks to the last step or to its own trip.

    With a hook, the blocks hold at most ceil(N / W) members, so each of
    the W workers marches, and the workers meet at step 0 and at every key
    of snaps, the largest of which must be n_steps: one pool call per
    meeting.  At the meeting at step s, worker k first calls
    hook.share(s, vel, k, W) on the velocities there (`values` at step 0,
    else snaps[s]), then marches its blocks on to the next key; once every
    worker is done, hook.gather(s) runs in the calling thread.  The shares
    read snaps[s] while the march writes the next key, so consecutive keys
    need distinct buffers; two that take turns are enough.

    Every buffer is allocated here, in the calling thread: buffers
    allocated in pool threads land in per-thread malloc arenas and raised
    peak RSS.  The blocks are independent, so a trip raises what the whole
    batch stepped at once would: at the first tripped step, the CFL message
    from the largest k1 speed of the blocks that tripped there (a block
    that did not trip at s is slower than any the CFL guard stopped at s),
    else the NaN guard.  Meetings keep this rule: a march with a trip stops
    at the next meeting, by which every block has reached that meeting or
    its own trip, and every later step comes after the first trip.
    """
    n = cfg.grid.n
    N = len(values)
    count = worker_count()
    rows = max(1, _CHUNK_BYTES // (4 * n * n * 8))
    if hook is not None:
        # every worker takes a share at each meeting, so each marches too
        rows = min(rows, -(-N // count))
    blocks = [slice(i, min(i + rows, N)) for i in range(0, N, rows)]
    workers = min(count, len(blocks))
    w = np.empty((N, n, n // 2 + 1), complex)
    speeds = np.empty((len(blocks), 2))   # k1 max|u|, max|v| at the trip
    trips = [None] * len(blocks)          # first tripped step

    def advance(item, start, stop):
        """Worker k's share of the meeting at `start`, then its blocks from
        step `start` to `stop`."""
        k, group, ws = item
        if hook is not None:
            hook.share(start, snaps[start] if start else values, k, workers)
        for b in group:
            blk = blocks[b]
            view = ws.view(blk.stop - blk.start)
            if start == 0:
                _vorticity_into(values[blk], view, w[blk])
                if 0 in snaps:
                    _velocity_into(w[blk], view, snaps[0][blk])
            for s in range(start, stop):
                step_speeds, tripped = _rk4(w[blk], cfg, view)
                if tripped:
                    speeds[b], trips[b] = step_speeds, s
                    break
                if s + 1 in snaps:
                    _velocity_into(w[blk], view, snaps[s + 1][blk])

    items = [(k, range(k, len(blocks), workers), _Workspace(min(rows, N), n))
             for k in range(workers)]
    meets = [0, *sorted(snaps)] if hook is not None else [0, n_steps]
    segments = list(zip(meets, meets[1:]))
    if hook is not None:
        segments.append((n_steps, n_steps))  # the last meeting only shares
    for start, stop in segments:
        if len(items) == 1:
            advance(items[0], start, stop)
        else:
            parallel_map(lambda item: advance(item, start, stop), items)
        if hook is not None:
            hook.gather(start)
        if any(s is not None for s in trips):
            break
    tripped = [s for s in trips if s is not None]
    if tripped:
        first = [b for b, s in enumerate(trips) if s == min(tripped)]
        limit = _cfl_limit(tuple(speeds[first].max(axis=0)), cfg)
        if limit is None:
            raise RuntimeError("NaN detected in Euler step")
        raise RuntimeError(f"CFL violation: dt={cfg.dt} > {limit:.3e}")


def _drift_march(e0: Ensemble, K: float, epsilon: float,
                 perturbation: GridField, horizon: float, n_steps: int):
    """The stored states of du/dt = B*_K(u) + epsilon * g from e0, one at a
    time, where g is the divergence-free `perturbation`.

    Yields (t, u, b) at the n_steps+1 equispaced times: the velocities u
    and their resolved drift b = B*_K(u), both (N, 2, n, n) views of the
    march's buffers, overwritten once the march resumes.  All members march
    as one half-spectrum vorticity (N, n, n//2+1) with the solver's RK4 in
    one workspace; the curl of epsilon*g is taken once.  The mean flow,
    which the vorticity cannot carry, moves only with the mean of epsilon*g
    and enters the advecting velocity before the product.  Each stored
    time's first RK4 stage also gives u (its inverse-transformed velocity
    plus the mean) and b (the Biot-Savart velocity of its masked tendency).

    Every member of e0 must be divergence-free and band-limited to n/3:
    the vorticity drops a gradient part, and the product aliases modes
    beyond n/3.  Non-finite values raise a
    RuntimeError at the first stored time that has them; callers march
    under np.errstate(over="ignore", invalid="ignore").
    """
    grid = e0.grid
    if grid.d != 2 or e0.m != 2:
        raise ValueError("the drift-driven curve needs 2D velocity fields")
    for i in range(e0.size):
        _check_resolvable(e0.member(i), f"member {i} of the initial ensemble")
    times = np.linspace(0.0, horizon, n_steps + 1)
    dt = horizon / n_steps
    mask = _disk_mask(grid.n, K)
    # epsilon * curl(g), which is not bitwise curl(epsilon * g)
    forcing = epsilon * vorticity_hat(perturbation)
    rate = epsilon * perturbation.values.mean(axis=(1, 2))
    mean0 = e0.values.mean(axis=(2, 3))
    ws = _Workspace(e0.size, grid.n)
    w = _vorticity_into(e0.values, ws, np.empty_like(ws.stage))
    bufs = (ws.k1, ws.k2, ws.k3, ws.k4, ws.stage)
    vel = ws.phys[:, :2]
    base = np.empty_like(e0.values)

    def tendency(y, t, out):
        _advection(y, ws, mask, out, mean=mean0 + t * rate)
        return np.add(out, forcing, out=out)

    for s, t in enumerate(times):
        _advection(w, ws, mask, ws.k1, mean=mean0 + t * rate)
        _velocity_into(ws.k1, ws, base)
        if not (np.isfinite(vel).all() and np.isfinite(base).all()):
            raise RuntimeError("NaN in drift-driven curve")
        yield t, vel, base
        if s < n_steps:
            np.add(ws.k1, forcing, out=ws.k1)
            _rk4_step(tendency, w, t, dt, bufs, w, k1_done=True)


def _push(u, cfg: EulerConfig, n_steps: int, marks) -> list:
    """Velocities of `u` (GridField or Ensemble) after each step count in
    `marks`, as arrays shaped like u.values."""
    values = _velocity_batch(u, cfg)
    snaps = {s: np.empty(values.shape) for s in marks}
    _march(values, cfg, n_steps, snaps)
    return [snaps[s].reshape(u.values.shape) for s in marks]


def step(u, cfg: EulerConfig):
    """One RK4 step of 2D Euler applied to a divergence-free velocity field
    (a GridField, or every member of an Ensemble)."""
    return type(u)(u.grid, _push(u, cfg, 1, [1])[0])


def _steps_for(dt: float, t: float) -> int:
    steps = t / dt
    if not 0.0 <= steps < np.inf:
        raise ValueError(f"horizon {t} over dt={dt} is not a "
                         f"non-negative, finite step count")
    n_steps = int(round(steps))
    if (abs(n_steps * dt - t) > 1e-9 * max(t, dt)
            or (t > 0 and n_steps == 0)):
        raise ValueError(f"horizon {t} is not a multiple of dt={dt}")
    return n_steps


def _checkpoint_marks(cfg: EulerConfig, t: float, checkpoints: int):
    """(n_steps, marks, times) of `checkpoints` >= 1 equispaced checkpoints
    over [0, t]: the step count, the step of each checkpoint and the
    checkpoints+1 times, 0 included."""
    n_steps = _steps_for(cfg.dt, t)
    if n_steps == 0:
        raise ValueError(f"horizon must be positive to checkpoint, got {t}")
    if n_steps % checkpoints != 0:
        raise ValueError("checkpoints must divide the step count")
    stride = n_steps // checkpoints
    marks = [stride * (c + 1) for c in range(checkpoints)]
    return n_steps, marks, np.array([0.0] + [s * cfg.dt for s in marks])


def evolve(u, cfg: EulerConfig, t: float, checkpoints: int = 0):
    """Evolve over [0, t].

    `u` is a GridField or an Ensemble; an ensemble is marched as a
    member batch (in blocks, see `_march`) and a GridField is the batch of
    one.  With
    checkpoints == 0 returns the final state (same type as `u`); otherwise
    returns (times, states) at `checkpoints`+1 equispaced times including
    both ends, states[0] being `u` itself, which needs a positive horizon.
    """
    if checkpoints < 0:
        raise ValueError(f"checkpoints must be non-negative, got {checkpoints}")
    if not checkpoints:
        n_steps = _steps_for(cfg.dt, t)
        return type(u)(u.grid, _push(u, cfg, n_steps, [n_steps])[0])
    n_steps, marks, times = _checkpoint_marks(cfg, t, checkpoints)
    states = _push(u, cfg, n_steps, marks)
    return times, [u] + [type(u)(u.grid, x) for x in states]


def reference_step_map(cfg: EulerConfig, dt_phys: float):
    """The one-step reference map S_{dt_phys} as a plain callable.

    It maps a GridField to a GridField and an Ensemble to the Ensemble of
    its pushed members, in one `evolve` call."""
    def apply(u):
        return evolve(u, cfg, dt_phys)
    return apply


def energy(u: GridField) -> float:
    return l2_norm(u) ** 2


def enstrophy(u):
    """int w^2 dx of a GridField (float) or of every Ensemble member (array),
    by Parseval."""
    z = _parseval_sq(vorticity_hat(u), u.grid)
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


def _strain_parts(values: np.ndarray, g: Grid):
    """(S_xx, S_xy, S_yy, |S|) of velocities (..., 2, n, n): the distinct
    entries of S(v) = (grad v + grad v^T)/2 and its pointwise operator
    norm.  For a symmetric 2x2 matrix [[a, b], [b, c]] the eigenvalues are
    (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2), so the operator norm is
    |(a+c)/2| + sqrt(((a-c)/2)^2 + b^2)."""
    (dudx, dudy), (dvdx, dvdy) = np.moveaxis(_gradient(values, g),
                                             (-4, -3), (0, 1))
    sxy = 0.5 * (dudy + dvdx)
    radius = np.sqrt((0.5 * (dudx - dvdy)) ** 2 + sxy**2)
    return dudx, sxy, dvdy, np.abs(0.5 * (dudx + dvdy)) + radius


def strain(v) -> StrainField:
    """S(v) = (grad v + grad v^T)/2 with its pointwise operator norm.

    `v` is a GridField or an Ensemble."""
    g = v.grid
    if g.d != 2 or v.m != 2:
        raise ValueError("strain needs a 2D velocity field")
    sxx, sxy, syy, op_norm = _strain_parts(v.values, g)
    tensor = np.stack([np.stack([sxx, sxy], axis=-3),
                       np.stack([sxy, syy], axis=-3)], axis=-4)
    return StrainField(g, tensor, op_norm)


def lambda_pointwise(u: GridField, v: GridField) -> float:
    """Distance-weighted strain ratio for one pair; zero when u == v."""
    return _coupled_strain(Ensemble(u.grid, u.values[None]),
                           Ensemble(v.grid, v.values[None]))[0]


class _CoupledStrain:
    """The coupled strain of aligned pairs (u_i, v_i) at each of `marks`:
    lambda = sum_i int |S(v_i)| |u_i - v_i|^2 dx / sum_i ||u_i - v_i||^2
    (zero when the denominator vanishes), max_x |S(v_i)| over members, and
    the squared distances ||u_i - v_i||^2.

    It is the hook of a march of the stacked batch (u; v) of 2N members
    that meets at the marks (see `_march`): at a mark, worker k of W
    evaluates the contiguous share [N k/W, N (k+1)/W) of the pairs into
    arrays allocated here, and `gather` takes lambda and the largest strain
    from the full arrays, so no value depends on the split."""

    def __init__(self, N: int, grid: Grid, marks):
        self.N, self.grid = N, grid
        self.index = {s: c for c, s in enumerate(marks)}
        self.rows = np.empty((N,) + grid.shape)  # |S(v_i)| |u_i - v_i|^2
        self.peaks = np.empty(N)                 # max_x |S(v_i)|
        self.sq = np.empty((len(marks), N))
        self.lam = np.empty(len(marks))
        self.sup = np.empty(len(marks))

    def share(self, s, vel, k, workers):
        N = self.N
        lo, hi = N * k // workers, N * (k + 1) // workers
        if hi > lo:
            self.pairs(s, vel[lo:hi], vel[N + lo:N + hi], slice(lo, hi))

    def pairs(self, s, u, v, at):
        """Evaluate the pairs (u, v) (m, 2, n, n) into the members `at`."""
        op_norm = _strain_parts(v, self.grid)[3]
        w = u - v
        self.sq[self.index[s], at] = _sq_norms(w, self.grid)
        np.multiply(op_norm, (w**2).sum(axis=-3), out=self.rows[at])
        self.peaks[at] = op_norm.max(axis=(-2, -1))

    def gather(self, s):
        c = self.index[s]
        den = float(np.sum(self.sq[c]))
        self.lam[c] = (float(self.grid.cell_volume * np.sum(self.rows)) / den
                       if den != 0.0 else 0.0)
        self.sup[c] = self.peaks.max()


def _coupled_strain(pairs_u: Ensemble, pairs_v: Ensemble):
    """lambda, max_x |S(v_i)| over members, and the per-member squared
    distances ||u_i - v_i||^2 of an aligned coupling, from one strain
    evaluation of the whole ensemble."""
    coupled = _CoupledStrain(pairs_u.size, pairs_u.grid, [0])
    coupled.pairs(0, pairs_u.values, pairs_v.values, slice(None))
    coupled.gather(0)
    return float(coupled.lam[0]), float(coupled.sup[0]), coupled.sq[0]


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
    return velocity_from_vorticity(grid, _half_spectrum(w, grid))


def l2_difference_identity_check(u0: GridField, v0: GridField, cfg: EulerConfig,
                                 t: float, checkpoints: int = 16) -> dict:
    """Compare d/dt (1/2)||w||^2 with -int (w x w) : S(v) along two solutions.

    The comparison is made at `checkpoints` interior times, the derivative
    by a 4th order central stencil on ||w||^2 at the five steps around each,
    the only steps kept from the march.  Returns the max relative residual
    and the curves.
    """
    n_steps = _steps_for(cfg.dt, t)
    g = cfg.grid
    pair = np.stack([u0.values, v0.values])
    idx = np.linspace(2, n_steps - 2, checkpoints).astype(int)
    marks = np.unique(idx[:, None] + np.arange(-2, 3))
    path = np.empty((len(marks),) + pair.shape)  # velocities at the marks
    _check_mean_free(pair)
    _march(pair, cfg, n_steps, dict(zip(marks.tolist(), path)))
    w = path[:, 0] - path[:, 1]
    half_sq = 0.5 * _sq_norms(w, g)
    at = np.searchsorted(marks, idx)
    S = strain(Ensemble(g, path[at, 1])).tensor
    w = w[at]
    quad = (S[:, 0, 0] * w[:, 0] * w[:, 0] + 2 * S[:, 0, 1] * w[:, 0] * w[:, 1]
            + S[:, 1, 1] * w[:, 1] * w[:, 1])
    rhs_vals = -g.cell_volume * np.sum(quad, axis=(1, 2))
    # 4th order central difference, interior nodes only
    deriv = (half_sq[at - 2] - 8 * half_sq[at - 1]
             + 8 * half_sq[at + 1] - half_sq[at + 2]) / (12.0 * cfg.dt)
    scale = max(np.abs(rhs_vals).max(), np.abs(deriv).max(), 1e-300)
    resid = np.abs(deriv - rhs_vals) / scale
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
    from .rollout import push_coupling
    from .transport import wasserstein_exact

    w2_0, plan = wasserstein_exact(a, b, p=2)
    b_aligned = Ensemble(b.grid, b.values[plan.permutation])
    times, a_t, b_t, lam, sup_strain, sq = push_coupling(
        a, b_aligned, cfg, t, checkpoints)
    m_vals = np.mean(sq, axis=1)
    w2_t, _ = wasserstein_exact(a_t, b_t, p=2)
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
