"""Toy one-step generative kernels with internal-time paths.

Each kernel maps an input field to an output law by integrating an
internal-time ODE over [0, 1]; the integrated trajectories are stored as
path bundles so that within-step regularity (expected speed, chords,
straightness, Hoelder-from-action) can be measured directly.  No kernels
are trained: the drift families are built around a supplied deterministic
reference map, which is all the law-level diagnostics need.

Seed policy: member i at physical step n draws from a stream derived from
(master_seed, i, n), so runs are reproducible and member-parallel safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensemble import Ensemble, LawCurve
from .fields import (
    Grid,
    GridField,
    _half,
    _half_spectrum,
    _half_weight,
    _mode_magnitude,
    inner,
    l2_norm,
    random_divfree,
)
from .runtime import parallel_map

__all__ = [
    "KernelSpec",
    "PathBundle",
    "RegularityReport",
    "sample_step",
    "kernel_map",
    "rollout_paths",
    "mixture_interpolation",
    "CylindricalObservable",
    "linear_observable",
    "bilinear_observable",
    "constant_observable",
    "continuity_equation_check",
    "time_regularity_report",
    "holder_from_action_check",
]

_KINDS = ("deterministic", "rectified-flow", "pf-ode", "perturbed-reference")


@dataclass(frozen=True)
class KernelSpec:
    """One-step kernel description.

    kind:
      deterministic        delta mass at the reference output
      rectified-flow       straight-line drift to the reference output, with
                           an optional solenoidal sin(2 pi tau) perturbation
      pf-ode               analytic-score probability-flow toward the
                           reference output; Gaussian endpoint law
      perturbed-reference  reference output plus band-limited noise
    init: reference law nu_0 for the internal path, "delta" (start at the
      input state) or "gaussian" (input plus noise_scale * xi).
    """

    kind: str
    internal_steps: int = 16
    noise_scale: float = 0.0
    perturbation: float = 0.0
    init: str = "delta"
    noise_exponent: float = 4.0
    noise_k_max: int = 0
    pf_sigma_max: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.internal_steps < 1:
            raise ValueError("internal_steps must be >= 1")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        if self.init not in ("delta", "gaussian"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.kind == "pf-ode" and self.noise_scale <= 0:
            raise ValueError("pf-ode kernel needs noise_scale > 0")


def _member_rng(master_seed, member: int, step: int):
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int(member), int(step)])
    )


def _noise_band(spec: KernelSpec, grid: Grid) -> int:
    return spec.noise_k_max if spec.noise_k_max else max(1, grid.n // 4)


def _expected_divfree_energy(grid: Grid, exponent: float, k_max: int) -> float:
    """E ||u||_2^2 of the divergence-free synthesis with the given spectrum."""
    mag = _mode_magnitude(grid.d, grid.n)
    band = (mag >= 1.0) & (mag <= k_max)
    return float(grid.volume * np.sum(mag[band] ** (-exponent))
                 / grid.n**grid.d)


def _unit_noise(spec: KernelSpec, grid: Grid, rng) -> np.ndarray:
    """Divergence-free Gaussian draw normalized so E ||xi||_2^2 = 1."""
    k_max = _noise_band(spec, grid)
    draw = random_divfree(grid, spec.noise_exponent, k_max, seed=rng)
    scale = np.sqrt(_expected_divfree_energy(grid, spec.noise_exponent, k_max))
    return draw.values / scale


@lru_cache(maxsize=16)
def _kernel_perturbation_field(spec: KernelSpec, grid: Grid, master_seed):
    """Fixed unit-norm solenoidal field shared by every member of a kernel;
    None for kernels whose drift does not use it.  It has its own seed
    stream, so drawing it once per kernel leaves every member stream
    untouched."""
    if spec.kind != "rectified-flow" or not spec.perturbation:
        return None
    rng = np.random.default_rng(
        np.random.SeedSequence([int(master_seed), 982451653])
    )
    draw = random_divfree(grid, spec.noise_exponent, _noise_band(spec, grid),
                          seed=rng)
    field = draw.values / l2_norm(draw)
    field.setflags(write=False)
    return field


class _KernelRealization:
    """Per-member realization: start state, drift(x, tau), analytic endpoint."""

    def __init__(self, spec, u, target, rng, pert_field):
        g = u.grid
        self.spec = spec
        self.grid = g
        y = target.values
        if spec.init == "gaussian" and spec.noise_scale > 0:
            start = u.values + spec.noise_scale * _unit_noise(spec, g, rng)
        else:
            start = u.values.copy()
        if spec.kind == "pf-ode":
            s0, sm = spec.noise_scale, spec.pf_sigma_max
            xi = _unit_noise(spec, g, rng)
            start = y + np.sqrt(s0**2 + sm**2) * xi
            self._endpoint = y + s0 * xi

            def drift(x, tau):
                sig = sm * (1.0 - tau)
                return -sm * sig / (s0**2 + sig**2) * (x - y)

        elif spec.kind == "perturbed-reference":
            out = y + spec.noise_scale * _unit_noise(spec, g, rng)
            chord = out - start
            self._endpoint = out

            def drift(x, tau):
                return chord

        else:  # deterministic / rectified-flow
            chord = y - start
            amp = spec.perturbation if spec.kind == "rectified-flow" else 0.0

            def drift(x, tau):
                v = chord
                if amp:
                    v = v + amp * np.sin(2.0 * np.pi * tau) * pert_field
                return v

            self._endpoint = y  # exact for the unperturbed straight line
        self.start = start
        self.drift = drift


def _integrate(real: _KernelRealization, tau_nodes, substeps: int) -> np.ndarray:
    x = real.start.copy()
    out = np.empty((len(tau_nodes),) + x.shape)
    out[0] = x
    for c in range(len(tau_nodes) - 1):
        h = (tau_nodes[c + 1] - tau_nodes[c]) / substeps
        tau = tau_nodes[c]
        for _ in range(substeps):
            k1 = real.drift(x, tau)
            k2 = real.drift(x + 0.5 * h * k1, tau + 0.5 * h)
            k3 = real.drift(x + 0.5 * h * k2, tau + 0.5 * h)
            k4 = real.drift(x + h * k3, tau + h)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            tau += h
        if not np.all(np.isfinite(x)):
            raise RuntimeError("NaN in sampler path integration")
        out[c + 1] = x
    return out


def sample_step(u: GridField, spec: KernelSpec, reference_map, master_seed,
                member: int = 0, step: int = 0):
    """Draw one internal-time path for one member.

    Returns (output GridField, states array (internal_steps+1, m, *shape),
    tau nodes)."""
    rng = _member_rng(master_seed, member, step)
    pert = _kernel_perturbation_field(spec, u.grid, master_seed)
    real = _KernelRealization(spec, u, reference_map(u), rng, pert)
    taus = np.linspace(0.0, 1.0, spec.internal_steps + 1)
    states = _integrate(real, taus, substeps=1)
    return GridField(u.grid, states[-1]), states, taus


def kernel_map(spec: KernelSpec, reference_map, master_seed, step: int = 0):
    """The kernel as a (field, member) -> field sampler (endpoint only)."""
    def apply(u: GridField, member: int) -> GridField:
        out, _, _ = sample_step(u, spec, reference_map, master_seed,
                                member=member, step=step)
        return out
    return apply


@dataclass
class PathBundle:
    """Stored rollout paths: states (N, C, m, *shape) at global times (C,)."""

    grid: Grid
    times: np.ndarray
    states: np.ndarray
    step_boundaries: np.ndarray
    dt_phys: float

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def hminus1_pair_norms(self):
        """Half spectra of all states and the Parseval weight of the H^-1
        norm, for H^-1 increment queries."""
        g = self.grid
        coef = _half_spectrum(self.states, g)
        mag = _half(_mode_magnitude(g.d, g.n), g)
        return coef, _half_weight(g.n) / (1.0 + mag**2)


def rollout_paths(e: Ensemble, spec: KernelSpec, reference_map, dt_phys: float,
                  n_steps: int, master_seed) -> tuple:
    """Concatenated per-member paths over n_steps physical steps.

    Requires init="delta" so segments start at the previous endpoint and the
    concatenated path is continuous (junction equality is asserted bitwise).
    Returns (PathBundle, LawCurve of the step-endpoint ensembles).
    """
    if spec.init != "delta":
        raise ValueError("rollout paths need init='delta' for junction continuity")
    S = spec.internal_steps
    C = n_steps * S + 1

    def run_member(i):
        u = e.member(i)
        chunks = [u.values[None]]
        for n in range(n_steps):
            out, states, _ = sample_step(u, spec, reference_map, master_seed,
                                         member=i, step=n)
            if not np.array_equal(states[0], u.values):
                raise RuntimeError("segment does not start at the junction state")
            chunks.append(states[1:])
            u = out
        return np.concatenate(chunks, axis=0)

    all_states = np.stack(parallel_map(run_member, range(e.size)))
    taus = np.linspace(0.0, 1.0, S + 1)
    times = np.concatenate(
        [taus[:-1] * dt_phys + n * dt_phys for n in range(n_steps)]
        + [[n_steps * dt_phys]]
    )
    boundaries = np.arange(0, C, S)
    bundle = PathBundle(e.grid, times, all_states, boundaries, dt_phys)
    endpoints = LawCurve(
        np.arange(n_steps + 1) * dt_phys,
        [Ensemble(e.grid, all_states[:, n * S]) for n in range(n_steps + 1)],
    )
    return bundle, endpoints


def mixture_interpolation(e: Ensemble, spec: KernelSpec, reference_map,
                          tau_grid, master_seed, step: int = 0,
                          substeps: int = 1) -> LawCurve:
    """Within-step law interpolation: per-tau ensembles of internal states."""
    tau_grid = np.asarray(tau_grid, dtype=np.float64)
    pert = _kernel_perturbation_field(spec, e.grid, master_seed)

    def run_member(i):
        u = e.member(i)
        rng = _member_rng(master_seed, i, step)
        real = _KernelRealization(spec, u, reference_map(u), rng, pert)
        return _integrate(real, tau_grid, substeps)

    states = np.stack(parallel_map(run_member, range(e.size)))
    return LawCurve(tau_grid,
                    [Ensemble(e.grid, states[:, c]) for c in range(len(tau_grid))])


@dataclass
class CylindricalObservable:
    """Phi(x) = fn(<x, f_1>, ..., <x, f_q>) with gradient coefficients."""

    test_fields: list
    fn: callable
    partials: callable  # pairings tuple -> tuple of d fn / d p_j

    def pairings(self, u: GridField):
        return tuple(inner(u, f) for f in self.test_fields)

    def value(self, u: GridField) -> float:
        return float(self.fn(*self.pairings(u)))

    def derivative_pairing(self, u: GridField, w: GridField) -> float:
        p = self.pairings(u)
        grads = self.partials(*p)
        return float(sum(gj * inner(w, fj)
                         for gj, fj in zip(grads, self.test_fields)))


def constant_observable(c: float) -> CylindricalObservable:
    return CylindricalObservable([], lambda: c, lambda: ())


def linear_observable(f: GridField) -> CylindricalObservable:
    return CylindricalObservable([f], lambda p: p, lambda p: (1.0,))


def bilinear_observable(f1: GridField, f2: GridField) -> CylindricalObservable:
    return CylindricalObservable([f1, f2], lambda p, q: p * q,
                                 lambda p, q: (q, p))


def continuity_equation_check(e: Ensemble, spec: KernelSpec, reference_map,
                              observable: CylindricalObservable, tau_grid,
                              master_seed, substeps: int = 4) -> dict:
    """Finite-difference d/dtau E[Phi] against E[<DPhi, v>] on the tau grid.

    The drift is the known per-member (conditional) velocity; the derivative
    uses centered differences at interior nodes, so the residual decays at
    second order in the grid spacing.
    """
    tau_grid = np.asarray(tau_grid, dtype=np.float64)
    C = len(tau_grid)
    pert = _kernel_perturbation_field(spec, e.grid, master_seed)
    vals = np.zeros(C)
    rhs = np.zeros(C)
    for i in range(e.size):
        u = e.member(i)
        rng = _member_rng(master_seed, i, 0)
        real = _KernelRealization(spec, u, reference_map(u), rng, pert)
        states = _integrate(real, tau_grid, substeps)
        for c in range(C):
            x = GridField(e.grid, states[c])
            vals[c] += observable.value(x)
            vel = GridField(e.grid, real.drift(states[c], tau_grid[c]))
            rhs[c] += observable.derivative_pairing(x, vel)
    vals /= e.size
    rhs /= e.size
    dtau = np.diff(tau_grid)
    if np.max(np.abs(dtau - dtau[0])) > 1e-12:
        raise ValueError("continuity check needs a uniform tau grid")
    h = dtau[0]
    interior = slice(1, C - 1)
    fd = (vals[2:] - vals[:-2]) / (2.0 * h)
    resid = np.abs(fd - rhs[interior])
    scale = max(np.abs(rhs).max(), np.abs(vals).max(), 1e-300)
    return {
        "residual": float(resid.max()),
        "relative_residual": float(resid.max() / scale),
        "dtau": float(h),
        "expectation_curve": vals.tolist(),
        "drift_pairing_curve": rhs.tolist(),
    }


@dataclass
class RegularityReport:
    c_spd: float
    c_ch: float
    c_str: float
    n_pairs: int
    worst_increment_gap: float   # max over pairs of mean H^-1 incr - bound
    increments_ok: bool
    chain_ok: bool

    def as_dict(self) -> dict:
        return {
            "c_spd": self.c_spd,
            "c_ch": self.c_ch,
            "c_str": self.c_str,
            "n_pairs": self.n_pairs,
            "worst_increment_gap": self.worst_increment_gap,
            "increments_ok": bool(self.increments_ok),
            "chain_ok": bool(self.chain_ok),
        }


def _l2_norms(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """Grid L2 norms along the trailing field axes."""
    axes = tuple(range(arr.ndim - grid.d - 1, arr.ndim))
    return np.sqrt(grid.cell_volume * (arr**2).sum(axis=axes))


def time_regularity_report(bundle: PathBundle, pair_samples: int, seed,
                           tol: float = 1e-2) -> RegularityReport:
    """Expected-speed, chord, and straightness constants of stored paths.

    c_spd is the max over checkpoint intervals of the member-mean
    finite-difference physical speed; the H^-1 mean increment over random
    checkpoint pairs is checked against c_spd |t - s|, and c_spd against
    (c_ch + sqrt(c_str)).
    """
    g = bundle.grid
    times = bundle.times
    states = bundle.states
    N, C = states.shape[0], states.shape[1]
    if C < 9:
        raise ValueError("need at least 8 internal checkpoints")
    dt_c = np.diff(times)
    inc = states[:, 1:] - states[:, :-1]
    speeds = _l2_norms(g, inc) / dt_c[None, :]        # (N, C-1)
    mean_speed = speeds.mean(axis=0)
    c_spd = float(mean_speed.max())

    # chords per physical step
    b = bundle.step_boundaries
    chords = states[:, b[1:]] - states[:, b[:-1]]     # (N, n_steps, ...)
    chord_norms = _l2_norms(g, chords)
    c_ch = float(chord_norms.mean(axis=0).max() / bundle.dt_phys)

    # straightness: internal FD velocity minus the chord, per internal slot
    n_steps = len(b) - 1
    S = b[1] - b[0]
    c_str = 0.0
    for n in range(n_steps):
        seg = states[:, b[n]: b[n + 1] + 1]
        dtau = (times[b[n] + 1] - times[b[n]]) / bundle.dt_phys
        V = (seg[:, 1:] - seg[:, :-1]) / dtau         # internal-time velocity
        R = V - chords[:, n][:, None]
        msq = (_l2_norms(g, R) ** 2).mean(axis=0)     # (S,)
        c_str = max(c_str, float(msq.max()) / bundle.dt_phys**2)

    chain_ok = c_spd <= (c_ch + np.sqrt(c_str)) * (1 + tol) + 1e-15

    rng = np.random.default_rng(seed)
    coef, weight = bundle.hminus1_pair_norms()
    worst = -np.inf
    for _ in range(pair_samples):
        c1, c2 = sorted(rng.choice(C, size=2, replace=False))
        diff = coef[:, c2] - coef[:, c1]
        sq = (weight * (np.abs(diff) ** 2).sum(axis=1)).sum(
            axis=tuple(range(1, 1 + g.d)))
        mean_inc = float(np.mean(np.sqrt(g.volume * sq)))
        bound = c_spd * (times[c2] - times[c1])
        worst = max(worst, mean_inc - bound * (1 + tol))
    increments_ok = worst <= 1e-15
    return RegularityReport(c_spd, c_ch, float(c_str), pair_samples,
                            float(worst), increments_ok, chain_ok)


def holder_from_action_check(bundle: PathBundle, p: float, pair_samples: int,
                             seed, tol: float = 1e-2) -> dict:
    """Pathwise Hoelder-from-action bound on sampled checkpoint pairs:

        ||gamma(t) - gamma(s)||_{H^-1}
            <= |t - s|^(1-1/p) (sum of speed^p quadrature)^(1/p)

    with the action evaluated by the same finite differences that define the
    discrete speeds."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    g = bundle.grid
    times = bundle.times
    states = bundle.states
    N, C = states.shape[0], states.shape[1]
    dt_c = np.diff(times)
    speeds = _l2_norms(g, states[:, 1:] - states[:, :-1]) / dt_c[None, :]
    coef, weight = bundle.hminus1_pair_norms()
    rng = np.random.default_rng(seed)
    worst = -np.inf
    checked = 0
    for _ in range(pair_samples):
        i = int(rng.integers(0, N))
        c1, c2 = sorted(rng.choice(C, size=2, replace=False))
        diff = coef[i, c2] - coef[i, c1]
        sq = (weight * (np.abs(diff) ** 2).sum(axis=0)).sum()
        lhs = float(np.sqrt(g.volume * sq))
        action = float(np.sum(dt_c[c1:c2] * speeds[i, c1:c2] ** p))
        rhs = (times[c2] - times[c1]) ** (1.0 - 1.0 / p) * action ** (1.0 / p)
        worst = max(worst, lhs - rhs * (1 + tol))
        checked += 1
    return {"worst_gap": float(worst), "ok": bool(worst <= 1e-15),
            "pairs": checked, "p": p}
