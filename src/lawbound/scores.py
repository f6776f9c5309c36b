"""Distributional scores and likelihood-style certificates.

CRPS and the energy score in their population (all-pairs) energy-distance
form, their control by 2 W1, time-integrated score control for law curves
through resolved Lipschitz observables, the quadratic excess-NLL to
mean-square-error certificate, and clipped-value/tail-bound reports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import Ensemble, LawCurve
from .fields import Grid, GridField, l2_norm
from .transport import _w1_per_time

__all__ = [
    "crps",
    "crps_between",
    "w1_sorted",
    "crps_w1_check",
    "energy_score",
    "energy_between",
    "ResolvedObservable",
    "inner_product_observable",
    "mollified_point_observable",
    "crps_dT_check",
    "QuadraticCertificate",
    "excess_nll_check",
    "clip_values",
    "tail_bound_report",
]


# ------------------------------------------------------------------- CRPS

def _pair_mean_abs(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.abs(x[:, None] - y[None, :]).mean())


def crps(samples, observation: float) -> float:
    """CRPS(P, y) = E|X - y| - (1/2) E|X - X'| (population all-pairs form)."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 1:
        raise ValueError("need at least one sample")
    return float(np.abs(x - observation).mean() - 0.5 * _pair_mean_abs(x, x))


def crps_between(p_samples, q_samples) -> float:
    """CRPS(P, Q) = E|X-Y| - (1/2)E|X-X'| - (1/2)E|Y-Y'| (energy distance)."""
    x = np.asarray(p_samples, dtype=np.float64).ravel()
    y = np.asarray(q_samples, dtype=np.float64).ravel()
    if x.size < 1 or y.size < 1:
        raise ValueError("need at least one sample on each side")
    return float(_pair_mean_abs(x, y) - 0.5 * _pair_mean_abs(x, x)
                 - 0.5 * _pair_mean_abs(y, y))


def w1_sorted(p_samples, q_samples) -> float:
    """Exact 1D W1 between equal-size empirical laws via sorted samples."""
    x = np.sort(np.asarray(p_samples, dtype=np.float64).ravel())
    y = np.sort(np.asarray(q_samples, dtype=np.float64).ravel())
    if x.size != y.size:
        raise ValueError("sorted-sample W1 needs equal sizes")
    return float(np.abs(x - y).mean())


def crps_w1_check(p, q, p_alt, slack: float = 1e-12) -> dict:
    """CRPS(P,Q) <= 2 W1(P,Q) and |CRPS(P,Q)-CRPS(P',Q)| <= 2 W1(P,P')."""
    c_pq = crps_between(p, q)
    w_pq = w1_sorted(p, q)
    c_aq = crps_between(p_alt, q)
    w_pa = w1_sorted(p, p_alt)
    return {
        "crps": c_pq,
        "w1": w_pq,
        "direct_ok": bool(c_pq <= 2.0 * w_pq + slack),
        "lipschitz_ok": bool(abs(c_pq - c_aq) <= 2.0 * w_pa + slack),
    }


# ----------------------------------------------------------- energy score

def _pair_mean_norm(x: np.ndarray, y: np.ndarray) -> float:
    diff = x[:, None, :] - y[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).mean())


def energy_score(samples, observation) -> float:
    """Multivariate analogue of crps with Euclidean norms."""
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    y = np.asarray(observation, dtype=np.float64)[None, :]
    return float(_pair_mean_norm(x, y) - 0.5 * _pair_mean_norm(x, x))


def energy_between(p_samples, q_samples) -> float:
    x = np.atleast_2d(np.asarray(p_samples, dtype=np.float64))
    y = np.atleast_2d(np.asarray(q_samples, dtype=np.float64))
    return float(_pair_mean_norm(x, y) - 0.5 * _pair_mean_norm(x, x)
                 - 0.5 * _pair_mean_norm(y, y))


# ---------------------------------------------------- resolved observables

@dataclass
class ResolvedObservable:
    """Lipschitz scalar observable l(u) = <u, psi> with Lip(l) = ||psi||_2."""

    kind: str
    psi: GridField
    lipschitz: float

    def __post_init__(self):
        if self.lipschitz <= 0:
            raise ValueError("observable must have positive Lipschitz constant")

    def apply_ensemble(self, e: Ensemble) -> np.ndarray:
        """l(u) of every member, one pairing over the flattened values."""
        return e.grid.cell_volume * np.einsum(
            "nk,k->n", e.values.reshape(e.size, -1), self.psi.values.ravel())


def inner_product_observable(psi: GridField) -> ResolvedObservable:
    return ResolvedObservable("inner-product", psi, l2_norm(psi))


def mollified_point_observable(grid: Grid, location, component: int,
                               width: float, m: int = 2) -> ResolvedObservable:
    """Mollified evaluation of one component at a point.

    The representing field is a periodic (min-image) Gaussian of the given
    width, normalized to unit mass, placed in the chosen component slot;
    the Lipschitz constant is its L2 norm.
    """
    if width <= 0:
        raise ValueError("mollifier width must be positive")
    items = (list(location) if isinstance(location, (list, tuple, np.ndarray))
             else None)
    if items is None or len(items) != grid.d or not all(
            isinstance(c, numbers.Real) and not isinstance(c, bool)
            and math.isfinite(c) for c in items):
        raise ValueError(f"observable: field location must hold {grid.d} "
                         f"finite numbers, got {location!r}")
    if (isinstance(component, bool) or not isinstance(component, numbers.Integral)
            or not 0 <= component < m):
        raise ValueError(f"observable: field component must be an integer "
                         f"in [0, {m}), got {component!r}")
    x = grid.coordinates()
    loc = np.array(items, dtype=np.float64)
    dist_sq = np.zeros(grid.shape)
    for a in range(grid.d):
        d = np.abs(x[a] - loc[a])
        d = np.minimum(d, 2 * np.pi - d)
        dist_sq = dist_sq + d**2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kernel = np.exp(-dist_sq / (2.0 * np.float64(width) ** 2))
        kernel /= grid.cell_volume * kernel.sum()
    if not np.isfinite(kernel).all():
        raise ValueError(f"observable: field width {width} is too narrow "
                         f"for the grid")
    values = np.zeros((m,) + grid.shape)
    values[component] = kernel
    psi = GridField(grid, values)
    return ResolvedObservable("mollified-point", psi, l2_norm(psi))


def crps_dT_check(a: LawCurve, b: LawCurve, obs: ResolvedObservable,
                  slack: float = 1e-9) -> dict:
    """Per-time pushforward CRPS against the 2 Lip(l) W1 chain and its
    time integral against 2 Lip(l) d_T.

    One pass over time: each slice pair gives its exact field W1, as in
    `transport.time_integrated_w1`, and both pushforwards, so each slice
    of each curve is taken once; d_T and the per-time W1 are bitwise
    those of `time_integrated_w1`.  The slack is relative: each
    comparison at time t allows `slack` times the largest |l(u)| there,
    the scale of the CRPS's cancellation, and the integral allows the
    time integral of those, so no verdict depends on the units."""
    lip = obs.lipschitz
    rows, w1_t, tol_t = [], [], []
    for t, (ea, eb, w_field) in zip(a.times.tolist(), _w1_per_time(a, b)):
        pa = obs.apply_ensemble(ea)
        pb = obs.apply_ensemble(eb)
        c = crps_between(pa, pb)
        w_push = w1_sorted(pa, pb)
        tol = slack * max(np.abs(pa).max(), np.abs(pb).max())
        ok = (c <= 2.0 * w_push + tol
              and w_push <= lip * w_field + tol)
        w1_t.append(w_field)
        tol_t.append(tol)
        rows.append({"t": t, "crps": c,
                     "w1_pushforward": w_push, "w1_field": w_field,
                     "bound": 2.0 * lip * w_field, "ok": bool(ok)})
    d_t = float(np.trapezoid(np.array(w1_t), a.times))
    integral = float(np.trapezoid(np.array([r["crps"] for r in rows]),
                                  a.times))
    return {
        "rows": rows,
        "crps_integral": integral,
        "d_T": d_t,
        "lipschitz": lip,
        "integral_ok": bool(integral <= 2.0 * lip * d_t
                            + np.trapezoid(np.array(tol_t), a.times)),
        "per_time_ok": all(r["ok"] for r in rows),
    }


# ------------------------------------------------------------------- XNLL

@dataclass
class QuadraticCertificate:
    """Quadratic conditional NLL anchored at the numerical truth.

    V(a, b) = (lam/2) |b - b_true(a)|^2 pointwise; reconstruction stability
    constant c_r (identity reconstruction has c_r = 1).
    """

    lam: float
    b_true: Callable
    c_r: float = 1.0

    def __post_init__(self):
        if self.lam <= 0 or self.c_r <= 0:
            raise ValueError("lam and c_r must be positive")


def excess_nll_check(inputs: Ensemble, num_out: Ensemble, model_out: Ensemble,
                     cert: QuadraticCertificate, slack: float = 1e-12) -> dict:
    """Coupled MSE against the (2 c_r^2 / lam) E[XNLL] certificate.

    The three ensembles are coupled by index (shared inputs).  XNLL is the
    spatial integral of V(a, model) - V(a, num); with num = b_true(a) and
    c_r = 1 the bound is an identity and the equality gap is reported.
    """
    if not (inputs.size == num_out.size == model_out.size):
        raise ValueError("pipeline coupling needs aligned ensembles")
    lam = cert.lam
    mse = 0.0
    xnll = 0.0
    for i in range(inputs.size):
        truth = cert.b_true(inputs.member(i)).values
        dv = model_out.values[i] - truth
        du = num_out.values[i] - truth
        cell = inputs.grid.cell_volume
        v_model = 0.5 * lam * cell * np.sum(dv**2)
        v_num = 0.5 * lam * cell * np.sum(du**2)
        xnll += v_model - v_num
        mse += cell * np.sum((model_out.values[i] - num_out.values[i]) ** 2)
    mse /= inputs.size
    xnll /= inputs.size
    bound = 2.0 * cert.c_r**2 / lam * xnll
    gap = abs(mse - bound) / max(mse, bound, 1e-300) if max(mse, bound) > 0 else 0.0
    return {
        "mse": float(mse),
        "excess_nll": float(xnll),
        "bound": float(bound),
        "satisfied": bool(mse <= bound * (1 + slack)),
        "equality_gap": float(gap),
    }


# --------------------------------------------------------------- clipping

def clip_values(values, level: float) -> np.ndarray:
    """clip to [-level, level]; 1-Lipschitz and bounded by the level."""
    if level <= 0:
        raise ValueError("clip level must be positive")
    return np.clip(np.asarray(values, dtype=np.float64), -level, level)


def tail_bound_report(e_input: Ensemble, e_output: Ensemble, radius: float) -> dict:
    """Pointwise tail fraction P(|xi_in| + |xi_out| > R) against Chebyshev:

        P <= (2/R^2) E[|xi_in|^2 + |xi_out|^2]

    evaluated over all members and lattice sites."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if e_input.size != e_output.size or e_input.grid != e_output.grid:
        raise ValueError("ensembles must be coupled on one grid")
    amp_in = np.sqrt((e_input.values**2).sum(axis=1))
    amp_out = np.sqrt((e_output.values**2).sum(axis=1))
    exceed = float(np.mean(amp_in + amp_out > radius))
    second = float(np.mean(amp_in**2 + amp_out**2))
    bound = 2.0 * second / radius**2
    return {
        "radius": radius,
        "tail_fraction": exceed,
        "chebyshev_bound": bound,
        "satisfied": bool(exceed <= bound * (1 + 1e-9)),
    }
