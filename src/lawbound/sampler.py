"""Toy one-step generative kernels with internal-time paths.

Each kernel maps an input field to an output law by integrating an
internal-time ODE over [0, 1]; the integrated trajectories are stored as
path bundles so that within-step regularity (expected speed, chords,
straightness, Hoelder-from-action) can be measured directly.  No kernels
are trained: the drift families are built around a supplied deterministic
reference map, which is all the law-level diagnostics need.

A kernel step acts on a whole ensemble: the reference map is called once
on the Ensemble, each member's start state and drift data are drawn into
one (N, m, *shape) batch, and one RK4 over internal time integrates the
batch.  `sample_step` is the batch of one.

Seed policy: member i at physical step n draws from a stream derived from
(master_seed, i, n), so runs are reproducible and do not depend on the
batch a member travels in or on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ensemble import Ensemble, LawCurve
from .euler import _rk4_step
from .fields import (
    Grid,
    GridField,
    _half,
    _half_spectrum,
    _half_weight,
    _mode_magnitude,
    _sq_norms,
    l2_norm,
    random_divfree,
)
from .runtime import parallel_map

__all__ = [
    "KernelSpec",
    "PathBundle",
    "RegularityReport",
    "sample_step",
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

    @property
    def starts_at_input(self) -> bool:
        """Whether each internal path starts at its input state; pf-ode
        starts from target + sigma * xi whatever `init` says."""
        return self.init == "delta" and self.kind != "pf-ode"


def _member_rng(master_seed, member: int, step: int):
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int(member), int(step)])
    )


def _noise_band(spec: KernelSpec, grid: Grid) -> int:
    k_max = spec.noise_k_max or max(1, grid.n // 4)
    if not 1 <= k_max <= grid.n // 2 - 1:
        raise ValueError(f"kernel: field noise_k_max must be in [1, n/2-1] = "
                         f"[1, {grid.n // 2 - 1}], got {k_max}")
    return k_max


def _expected_divfree_energy(grid: Grid, exponent: float, k_max: int) -> float:
    """E ||u||_2^2 of the divergence-free synthesis with the given spectrum."""
    mag = _mode_magnitude(grid.d, grid.n)
    band = (mag >= 1.0) & (mag <= k_max)
    return float(grid.volume * np.sum(mag[band] ** (-exponent))
                 / grid.n**grid.d)


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


class _KernelStep:
    """One kernel step on the member batch of an Ensemble: start states
    (N, m, *shape), the data of the drift, which is affine in x, and one
    internal-time RK4 for every member.

    The reference map is called once, on the whole ensemble (a GridField
    target is the batch of one).  Member i draws its init, then endpoint,
    noise from _member_rng(master_seed, members[i], step) in the calling
    thread (drawn in pool threads, the buffers raised peak RSS through
    per-thread malloc arenas); one `parallel_map` over members then writes
    each start state and chord (target, for pf-ode) into the batch."""

    def __init__(self, e: Ensemble, spec: KernelSpec, reference_map,
                 master_seed, step: int, members=None):
        grid, values = e.grid, e.values
        members = range(e.size) if members is None else members
        target = reference_map(e).values.reshape(values.shape)
        self.spec = spec
        self.start = np.empty_like(values)
        self.aux = target if spec.kind == "pf-ode" else np.empty_like(values)
        self.pert = _kernel_perturbation_field(spec, grid, master_seed)
        k_max = _noise_band(spec, grid)
        scale = np.sqrt(_expected_divfree_energy(grid, spec.noise_exponent,
                                                 k_max))
        wanted = (spec.init == "gaussian" and spec.noise_scale > 0,
                  spec.kind in ("pf-ode", "perturbed-reference"))

        def draws(i):
            """Member i's init and endpoint noise (None where the kernel has
            none), divergence-free draws normalized to E ||xi||_2^2 = 1."""
            rng = _member_rng(master_seed, members[i], step)
            return [random_divfree(grid, spec.noise_exponent, k_max,
                                   seed=rng).values / scale if w else None
                    for w in wanted]

        noise = [draws(i) for i in range(e.size)]

        def realize(i):
            (xi0, xi1), y = noise[i], target[i]
            start = values[i] if xi0 is None else (values[i]
                                                   + spec.noise_scale * xi0)
            if spec.kind == "pf-ode":
                s0, sm = spec.noise_scale, spec.pf_sigma_max
                start = y + np.sqrt(s0**2 + sm**2) * xi1
            elif spec.kind == "perturbed-reference":
                np.subtract(y + spec.noise_scale * xi1, start, out=self.aux[i])
            else:  # deterministic / rectified-flow
                np.subtract(y, start, out=self.aux[i])
            self.start[i] = start

        parallel_map(realize, range(e.size))

    def drift(self, x, tau, out):
        """The drift of the batch state x at internal time tau, into out."""
        spec = self.spec
        if spec.kind == "pf-ode":
            s0, sm = spec.noise_scale, spec.pf_sigma_max
            sig = sm * (1.0 - tau)
            return np.multiply(-sm * sig / (s0**2 + sig**2),
                               np.subtract(x, self.aux, out=out), out=out)
        amp = spec.perturbation if spec.kind == "rectified-flow" else 0.0
        if amp:
            return np.add(self.aux, amp * np.sin(2.0 * np.pi * tau) * self.pert,
                          out=out)
        np.copyto(out, self.aux)
        return out

    def march(self, tau_nodes, substeps: int = 1):
        """Yield the batch state at each tau node: one array, stepped in
        place between yields."""
        x = self.start.copy()
        bufs = [np.empty_like(x) for _ in range(5)]
        yield x
        for c in range(len(tau_nodes) - 1):
            h = (tau_nodes[c + 1] - tau_nodes[c]) / substeps
            tau = tau_nodes[c]
            for _ in range(substeps):
                _rk4_step(self.drift, x, tau, h, bufs, x)
                tau += h
            if not np.all(np.isfinite(x)):
                raise RuntimeError("NaN in sampler path integration")
            yield x

    def integrate(self, tau_nodes, substeps: int = 1, out=None) -> np.ndarray:
        """The batch state at each tau node, written into `out`
        (N, len(tau_nodes), m, *shape), a fresh array when None."""
        if out is None:
            out = np.empty((len(self.start), len(tau_nodes))
                           + self.start.shape[1:])
        for c, x in enumerate(self.march(tau_nodes, substeps)):
            out[:, c] = x
        return out


def _step_endpoints(e: Ensemble, spec: KernelSpec, reference_map, master_seed,
                    step: int) -> Ensemble:
    """The kernel's output ensemble for input e at physical step `step`;
    only the endpoint of the internal march is kept."""
    taus = np.linspace(0.0, 1.0, spec.internal_steps + 1)
    for x in _KernelStep(e, spec, reference_map, master_seed, step).march(taus):
        pass
    return Ensemble(e.grid, x)


def sample_step(u: GridField, spec: KernelSpec, reference_map, master_seed,
                member: int = 0, step: int = 0):
    """Draw one internal-time path for one member: the batch of one, on the
    stream of `member`.  `reference_map` maps u (a GridField) to its target.

    Returns (output GridField, states array (internal_steps+1, m, *shape),
    tau nodes)."""
    taus = np.linspace(0.0, 1.0, spec.internal_steps + 1)
    states = _KernelStep(Ensemble(u.grid, u.values[None]), spec,
                         lambda _: reference_map(u), master_seed, step,
                         [member]).integrate(taus)[0]
    return GridField(u.grid, states[-1]), states, taus


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

    @cached_property
    def speeds(self) -> np.ndarray:
        """Discrete speeds ||x_(c+1) - x_c||_2 / (t_(c+1) - t_c), (N, C-1)."""
        inc = self.states[:, 1:] - self.states[:, :-1]
        return np.sqrt(_sq_norms(inc, self.grid)) / np.diff(self.times)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        return _half_spectrum(self.states, self.grid)

    def hminus1_pair_norms(self):
        """Half spectra of all states, transformed once per bundle, and the
        Parseval weight of the H^-1 norm."""
        g = self.grid
        mag = _half(_mode_magnitude(g.d, g.n), g)
        return self._spectrum, _half_weight(g.n) / (1.0 + mag**2)

    def hminus1_increments(self, c1: int, c2: int, member=slice(None)):
        """||x_c2 - x_c1||_{H^-1} of every member, or of one member index."""
        coef, weight = self.hminus1_pair_norms()
        d = self.grid.d
        power = (np.abs(coef[member, c2] - coef[member, c1]) ** 2).sum(-d - 1)
        sq = (weight * power).sum(axis=tuple(range(-d, 0)))
        return np.sqrt(self.grid.volume * sq)


def rollout_paths(e: Ensemble, spec: KernelSpec, reference_map, dt_phys: float,
                  n_steps: int, master_seed) -> tuple:
    """Concatenated member paths over n_steps physical steps.

    Requires a kernel whose path starts at its input state
    (`spec.starts_at_input`), so that the concatenated path is continuous
    (junction equality is asserted bitwise).  Each physical step is one
    batched kernel step written straight into the path array.
    Returns (PathBundle, LawCurve of the step-endpoint ensembles).
    """
    if not spec.starts_at_input:
        raise ValueError("rollout paths need a kernel whose path starts at "
                         "its input state (init='delta', not pf-ode)")
    S = spec.internal_steps
    C = n_steps * S + 1
    taus = np.linspace(0.0, 1.0, S + 1)
    all_states = np.empty((e.size, C) + e.values.shape[1:])
    all_states[:, 0] = e.values
    for n in range(n_steps):
        seg = all_states[:, n * S: (n + 1) * S + 1]
        u = Ensemble(e.grid, seg[:, 0].copy())
        real = _KernelStep(u, spec, reference_map, master_seed, n)
        if not np.array_equal(real.start, u.values):
            raise RuntimeError("segment does not start at the junction state")
        real.integrate(taus, out=seg)
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
    states = _KernelStep(e, spec, reference_map, master_seed,
                         step).integrate(tau_grid, substeps)
    return LawCurve(tau_grid,
                    [Ensemble(e.grid, states[:, c]) for c in range(len(tau_grid))])


@dataclass
class CylindricalObservable:
    """Phi(x) = fn(<x, f_1>, ..., <x, f_q>) with gradient coefficients,
    evaluated on a member batch x (N, m, *shape), one value per member.

    Each pairing <x_i, f_j> is cell * sum(x_i * f_j), bitwise the
    per-member `fields.inner`."""

    test_fields: list
    fn: callable
    partials: callable  # pairings tuple -> tuple of d fn / d p_j

    def pairings(self, x: np.ndarray) -> list:
        axes = tuple(range(1, x.ndim))
        return [f.grid.cell_volume * np.sum(x * f.values, axis=axes)
                for f in self.test_fields]

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.zeros(len(x)) + self.fn(*self.pairings(x))

    def derivative_pairings(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """<DPhi(x_i), w_i> per member."""
        grads = self.partials(*self.pairings(x))
        return sum((gj * pj for gj, pj in zip(grads, self.pairings(w))),
                   np.zeros(len(x)))


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
    real = _KernelStep(e, spec, reference_map, master_seed, 0)
    states = real.integrate(tau_grid, substeps)
    vals = np.empty((C, e.size))
    rhs = np.empty((C, e.size))
    vel = np.empty_like(e.values)
    for c, tau in enumerate(tau_grid):
        x = states[:, c]
        vals[c] = observable.values(x)
        rhs[c] = observable.derivative_pairings(x, real.drift(x, tau, vel))
    # member means summed in member order (a running sum, not pairwise)
    vals = np.cumsum(vals, axis=1)[:, -1] / e.size
    rhs = np.cumsum(rhs, axis=1)[:, -1] / e.size
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
    C = states.shape[1]
    if C < 9:
        raise ValueError("need at least 8 internal checkpoints")
    c_spd = float(bundle.speeds.mean(axis=0).max())

    # chords per physical step
    b = bundle.step_boundaries
    chords = states[:, b[1:]] - states[:, b[:-1]]     # (N, n_steps, ...)
    chord_norms = np.sqrt(_sq_norms(chords, g))
    c_ch = float(chord_norms.mean(axis=0).max() / bundle.dt_phys)

    # straightness: internal FD velocity minus the chord, per internal slot
    n_steps = len(b) - 1
    c_str = 0.0
    for n in range(n_steps):
        seg = states[:, b[n]: b[n + 1] + 1]
        dtau = (times[b[n] + 1] - times[b[n]]) / bundle.dt_phys
        V = (seg[:, 1:] - seg[:, :-1]) / dtau         # internal-time velocity
        R = V - chords[:, n][:, None]
        # squaring the rounded norm, not the sum itself, keeps c_str's bits
        msq = (np.sqrt(_sq_norms(R, g)) ** 2).mean(axis=0)  # per internal slot
        c_str = max(c_str, float(msq.max()) / bundle.dt_phys**2)

    chain_ok = c_spd <= (c_ch + np.sqrt(c_str)) * (1 + tol) + 1e-15

    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(pair_samples):
        c1, c2 = sorted(rng.choice(C, size=2, replace=False))
        mean_inc = float(np.mean(bundle.hminus1_increments(c1, c2)))
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
    times = bundle.times
    N, C = bundle.states.shape[:2]
    dt_c = np.diff(times)
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(pair_samples):
        i = int(rng.integers(0, N))
        c1, c2 = sorted(rng.choice(C, size=2, replace=False))
        lhs = float(bundle.hminus1_increments(c1, c2, i))
        action = float(np.sum(dt_c[c1:c2] * bundle.speeds[i, c1:c2] ** p))
        rhs = (times[c2] - times[c1]) ** (1.0 - 1.0 / p) * action ** (1.0 / p)
        worst = max(worst, lhs - rhs * (1 + tol))
    return {"worst_gap": float(worst), "ok": bool(worst <= 1e-15),
            "pairs": pair_samples, "p": p}
