"""Empirical laws on field space.

An ensemble is a uniformly weighted finite set of fields sharing one grid;
a law curve is a time-indexed sequence of ensembles.  This module provides
moments, spectral tails, structure functions, power-law modulus fits, and
the k-point marginalization consistency check.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid,
    GridField,
    _half,
    _half_spectrum,
    _mode_magnitude,
    _modes,
    _power,
    _sq_norms,
    lattice_offsets_in_ball,
)

__all__ = [
    "Ensemble",
    "LawCurve",
    "LazyEnsembles",
    "StructureCurve",
    "moment",
    "tail",
    "tail_profile",
    "pointwise_modulus",
    "structure_function",
    "fit_power_modulus",
    "kpoint_marginal_exact",
    "kpoint_marginal_check",
]


@dataclass
class Ensemble:
    """Uniformly weighted empirical law; values shape (N, m, *grid.shape)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != self.grid.d + 2:
            raise ValueError("ensemble values must have shape (N, m, *grid.shape)")
        if self.values.shape[-self.grid.d:] != self.grid.shape:
            raise ValueError("ensemble spatial shape does not match grid")
        if self.size < 1:
            raise ValueError("ensemble needs at least one member")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("ensemble values must be finite")

    @classmethod
    def from_fields(cls, members) -> "Ensemble":
        members = list(members)
        grid = members[0].grid
        m = members[0].m
        for u in members:
            if u.grid != grid or u.m != m:
                raise ValueError("ensemble members must share grid and m")
        return cls(grid, np.stack([u.values for u in members]))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def member(self, i: int) -> GridField:
        return GridField(self.grid, self.values[i])

    def member_norms(self) -> np.ndarray:
        """Grid-quadrature L2 norm of every member."""
        return np.sqrt(_sq_norms(self.values, self.grid))

    def normalized(self) -> "Ensemble":
        """Every member scaled to unit L2 norm (a zero member stays zero);
        member i equals u_i / l2_norm(u_i) bit for bit."""
        norms = np.maximum(self.member_norms(), 1e-30)
        return Ensemble(self.grid, self.values / norms.reshape(
            (-1,) + (1,) * (self.values.ndim - 1)))


class LazyEnsembles(Sequence):
    """A read-only sequence of ensembles held elsewhere (on disk, say).

    `headers[i]` carries slice i's `grid`, `m` and `size` without its
    values; item i returns `headers[i].load()`, afresh on every access, so
    nothing is cached and a loop holds one slice at a time."""

    def __init__(self, headers):
        self.headers = tuple(headers)

    def __len__(self) -> int:
        return len(self.headers)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return LazyEnsembles(self.headers[i])
        return self.headers[i].load()


def _check_times(times, count: int) -> None:
    """The time grid of a law curve of `count` ensembles."""
    if len(times) != count or len(times) < 2:
        raise ValueError("need matching times/ensembles with at least 2 entries")
    if times[0] != 0.0:
        raise ValueError("law curve must start at t=0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")


@dataclass
class LawCurve:
    """Time-indexed ensembles on a shared grid; times[0] = 0.

    `ensembles` is a list, or a LazyEnsembles whose headers give the grid
    and component count without reading any values."""

    times: np.ndarray
    ensembles: Sequence

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        _check_times(self.times, len(self.ensembles))
        g = self.grid
        for e in self._headers:
            if e.grid != g:
                raise ValueError("law curve ensembles must share the grid")

    @property
    def _headers(self) -> Sequence:
        return getattr(self.ensembles, "headers", self.ensembles)

    @property
    def grid(self) -> Grid:
        return self._headers[0].grid

    @property
    def m(self) -> int:
        """Component count of the first ensemble."""
        return self._headers[0].m

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


@dataclass
class StructureCurve:
    """Structure values S(r) >= 0 on a set of radii."""

    radii: np.ndarray
    values: np.ndarray
    time_averaged: bool = False

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.radii.shape != self.values.shape:
            raise ValueError("radii and values must align")
        if np.any(self.values < 0):
            raise ValueError("structure values must be nonnegative")

    def is_monotone(self, slack: float = 0.05) -> bool:
        """Nondecreasing in r up to the given relative slack."""
        v = self.values
        running = np.maximum.accumulate(v)
        return bool(np.all(v >= running * (1.0 - slack)))


def moment(e: Ensemble, p: int) -> float:
    """(1/N) sum_i ||u_i||_2^p for even p."""
    if p < 2 or p % 2 != 0:
        raise ValueError(f"moment order must be a positive even integer, got {p}")
    return float(np.mean(e.member_norms() ** p))


def _tails(spec: np.ndarray, grid: Grid, Ks) -> np.ndarray:
    """RMS unresolved energy sqrt((1/N) sum ||P_{>K} u_i||^2) for each K,
    from the half spectra (N, m, *half) of the members."""
    if np.any(np.asarray(Ks) < 1):
        raise ValueError("K must be >= 1")
    power = _power(spec, grid).sum(axis=(0, 1)) / spec.shape[0]
    mag = _half(_mode_magnitude(grid.d, grid.n), grid)
    return np.sqrt([grid.volume * power[mag > K].sum() for K in Ks])


def tail(e: Ensemble, K: float) -> float:
    """RMS energy above Fourier resolution K: sqrt((1/N) sum ||P_{>K} u_i||^2)."""
    return float(tail_profile(e, [K])[0])


def tail_profile(e: Ensemble, Ks) -> np.ndarray:
    """tail(e, K) for several K from one half spectrum of the members."""
    return _tails(_half_spectrum(e.values, e.grid), e.grid, Ks)


def pointwise_modulus(e: Ensemble, radii) -> StructureCurve:
    """omega(r): RMS of spatial increments, ball-averaged over lattice offsets
    0 < |h| <= r, averaged over members (single-time structure modulus).

    Each ball average of ||u(. + h) - u||^2 comes from the spectral shift
    identity, (2pi)^d sum_k (2 - 2 cos(k.h)) |uhat(k)|^2, over one mean
    power spectrum of the members."""
    radii = np.asarray(radii, dtype=np.float64)
    if np.any(radii > np.pi):
        raise ValueError("radii must not exceed pi")
    g = e.grid
    power = _power(_half_spectrum(e.values, g), g).sum(axis=(0, 1)) / e.size
    kk = _half(_modes(g.d, g.n), g)
    vals = np.empty(len(radii))
    for i, r in enumerate(radii):
        offsets = lattice_offsets_in_ball(g, r)
        total = 0.0
        for h in offsets:
            hphys = h * g.spacing
            phase = kk[0] * hphys[0]
            for a in range(1, g.d):
                phase = phase + kk[a] * hphys[a]
            total += float(np.sum((2.0 - 2.0 * np.cos(phase)) * power))
        vals[i] = np.sqrt(g.volume * total / len(offsets))
    return StructureCurve(radii, vals, time_averaged=False)


def _moduli(curve: LawCurve, radii) -> np.ndarray:
    """omega_t(r) for every time of the curve, shape (times, radii)."""
    return np.stack([pointwise_modulus(e, radii).values
                     for e in curve.ensembles])


def _time_average(curve: LawCurve, radii, moduli) -> StructureCurve:
    integ = np.trapezoid(moduli ** 2, curve.times, axis=0)
    return StructureCurve(radii, np.sqrt(integ), time_averaged=True)


def structure_function(curve: LawCurve, radii) -> StructureCurve:
    """Time-averaged second-order structure function

        S(r) = ( integral_0^T omega_t(r)^2 dt )^(1/2)

    with trapezoidal time quadrature on the curve's grid."""
    radii = np.asarray(radii, dtype=np.float64)
    return _time_average(curve, radii, _moduli(curve, radii))


def pointwise_to_time_avg_gap(curve: LawCurve, radii) -> float:
    """Max over r of S(r) - sqrt(T) * max_t omega_t(r); <= 0 up to round-off.

    One set of per-time moduli feeds both S and the cap."""
    radii = np.asarray(radii, dtype=np.float64)
    moduli = _moduli(curve, radii)
    sf = _time_average(curve, radii, moduli).values
    cap = np.sqrt(curve.horizon) * moduli.max(axis=0)
    return float(np.max(sf - cap))


def fit_power_modulus(sc: StructureCurve, r_min: float = None, r_max: float = None):
    """Least squares fit of log omega(r)^2 = log C0 + 2 s log r.

    Returns (C0, s, rms residual of the log fit).
    """
    r, v = sc.radii, sc.values
    if r_min is not None or r_max is not None:
        lo = r_min if r_min is not None else -np.inf
        hi = r_max if r_max is not None else np.inf
        keep = (r >= lo) & (r <= hi)
        r, v = r[keep], v[keep]
    if len(r) < 3:
        raise ValueError("need at least 3 radii in the fit range")
    if np.any(v <= 0):
        raise ValueError("power-law fit needs positive structure values")
    x = np.log(r)
    y = np.log(v**2)
    A = np.stack([np.ones_like(x), x], axis=1)
    (c, slope), res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ np.array([c, slope])
    rms = float(np.sqrt(np.mean((y - pred) ** 2)))
    return float(np.exp(c)), float(slope / 2.0), rms


def default_fit_range(grid: Grid) -> tuple:
    """Radii window avoiding lattice and domain-scale contamination."""
    return 4.0 * grid.spacing, np.pi / 4.0


def _site_means(e: Ensemble, psi) -> np.ndarray:
    """<nu^1_x, psi> on every lattice site: (1/N) sum_i psi(u_i(x))."""
    vals = psi(e.values)  # psi maps (..., m, *shape) -> (..., *shape)
    if vals.shape != (e.size,) + e.grid.shape:
        raise ValueError("psi must map member values to one scalar per site")
    return vals.mean(axis=0)


def _check_kpoint(k: int, i: int) -> None:
    if not 1 <= k <= 3:
        raise ValueError("k must be in {1, 2, 3}")
    if not 0 <= i < k:
        raise ValueError("component index out of range")


def _kpoint_rhs(g, k: int, means: np.ndarray) -> float:
    """|D|^(k-1) int_D <nu^1_y, psi> dy from the per-site means."""
    return float(g.volume ** (k - 1) * g.cell_volume * means.sum())


def kpoint_marginal_exact(e: Ensemble, k: int, psi, i: int = 0):
    """Full lattice enumeration of both sides of the marginalization identity

        int_{D^k} <nu^k_x, psi(xi_i)> dx  =  |D|^(k-1) int_D <nu^1_y, psi> dy.

    Returns (lhs, rhs)."""
    _check_kpoint(k, i)
    g = e.grid
    sites = g.n**g.d
    if sites**k > 4_000_000:
        raise ValueError("enumeration too large; use the Monte Carlo check")
    means = _site_means(e, psi).ravel()
    # explicit sum over all lattice k-tuples (the i-th slot carries psi)
    tuples = np.indices((sites,) * k)
    lhs = g.cell_volume**k * means[tuples[i]].sum()
    return float(lhs), _kpoint_rhs(g, k, means)


def kpoint_marginal_check(e: Ensemble, k: int, psi, samples: int, seed, i: int = 0):
    """Monte Carlo check of the marginalization identity.

    Draws `samples` uniform lattice k-tuples, estimates the left side, and
    compares with the exactly computed right side.  Returns
    (lhs_estimate, rhs, mc_sigma)."""
    _check_kpoint(k, i)
    g = e.grid
    rng = np.random.default_rng(seed)
    means = _site_means(e, psi).ravel()
    sites = means.size
    idx = rng.integers(0, sites, size=(samples, k))
    draws = means[idx[:, i]]
    scale = g.volume**k
    lhs = scale * float(draws.mean())
    sigma = scale * float(draws.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return lhs, _kpoint_rhs(g, k, means), sigma
