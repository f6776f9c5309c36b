"""Residual certification for drift-driven law curves.

The weak-identity residual of a law curve against k-fold products of
divergence-free test fields can be computed two ways: directly from the
time derivative plus the resolved reference drift, or as the expected
pairing with the drift defect.  For curves generated by a known drift the
two routes agree up to quadrature error, the defect route is bounded by an
L2 drift-regression loss, and for Gaussian diffusions the probability-flow
construction converts score error into drift error exactly.

A drift-driven curve is marched by the Euler solver (`euler._drift_march`)
as its half-spectrum vorticity plus the members' mean flow; the solver
also decides which velocities that form can carry
(`euler._check_resolvable`).  Certification streams each stored time, its
velocities and their resolved drift, straight into one residual pass, so
no curve is held and the pass evaluates no drift of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble
from .euler import _drift_march, _rk4_step
from .fields import (
    Grid,
    GridField,
    _sq_norms,
    divergence_norm,
    forward,
    l2_norm,
    project_gt,
    random_divfree_batch,
    spec_l2_norm,
)

__all__ = [
    "TestTuple",
    "DriftSpec",
    "GaussianDiffusion",
    "random_test_tuple",
    "certification_report",
    "pf_identities",
]


# ----------------------------------------------------------- test tuples

@dataclass
class TestTuple:
    """k divergence-free band-limited space tests with temporal profile
    theta(t) = (1 - t/T)^3 (so theta(T) = 0 and theta(0) = 1)."""

    fields: list
    horizon: float

    def __post_init__(self):
        if not 1 <= len(self.fields) <= 3:
            raise ValueError("test tuple supports k in {1, 2, 3}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        for f in self.fields:
            dn = divergence_norm(forward(f))
            if dn > 1e-12 * l2_norm(f):
                raise ValueError("test fields must be divergence-free")

    @property
    def k(self) -> int:
        return len(self.fields)

    def theta(self, t: float) -> float:
        return (1.0 - t / self.horizon) ** 3

    def dtheta(self, t: float) -> float:
        return -3.0 / self.horizon * (1.0 - t / self.horizon) ** 2

    def norm_factor(self) -> float:
        """sum_i ||phi_i|| prod_{j != i} ||phi_j|| in L^inf_t L^2_x norms."""
        norms = np.array([[l2_norm(f) for f in self.fields]])
        return float(_slot_sum(norms, norms)[0])


def random_test_tuple(grid: Grid, k: int, k_test: int, horizon: float,
                      seed) -> TestTuple:
    """Unit-norm divergence-free random tests band-limited to k_test."""
    if not 1 <= k <= 3:
        raise ValueError("test tuple supports k in {1, 2, 3}")
    rng = np.random.default_rng(seed)
    tests = Ensemble(grid, random_divfree_batch(grid, 3.0, k_test,
                                                [rng] * k)).normalized()
    return TestTuple([tests.member(i) for i in range(k)], horizon)


# ------------------------------------------------------------ drift model

@dataclass
class DriftSpec:
    """Learned drift model: resolved Euler tendency plus a fixed defect.

    B(t, u) = B*_K(u) + epsilon * g with g divergence-free and band-limited
    to the resolution, so the drift maps K-band-limited fields to
    K-band-limited fields.
    """

    resolution: float
    epsilon: float
    perturbation: GridField

    def __post_init__(self):
        ph = forward(self.perturbation)
        total = spec_l2_norm(ph)
        if spec_l2_norm(project_gt(ph, self.resolution)) > 1e-12 * total:
            raise ValueError("perturbation must be band-limited to the resolution")
        if divergence_norm(ph) > 1e-10 * total:
            raise ValueError("perturbation must be divergence-free")


# -------------------------------------------------------------- residuals

def _slot_sum(th_p: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_i coeff[:, i] * prod_{j != i} th_p[:, j], vectorized over members."""
    N, k = th_p.shape
    out = np.zeros(N)
    for i in range(k):
        term = coeff[:, i].copy()
        for j in range(k):
            if j != i:
                term *= th_p[:, j]
        out += term
    return out


def _fused_certification_pass(stream, tt: TestTuple, drift: DriftSpec) -> dict:
    """One sweep over a curve's stored times gathering every residual
    integrand.

    `stream` yields (t, u, b) per stored time in order: the velocities u
    and their resolved drift b = B*_K(u), both (N, 2, n, n), read before
    the next item is drawn.  Returns the direct and defect residuals, the
    drift-regression pieces, and the magnitude of the integrands cancelled
    by the cross-route identity (used to normalize the gap)."""
    grid = tt.fields[0].grid
    cell = grid.cell_volume
    phis = np.stack([f.values for f in tt.fields])
    pert = drift.epsilon * drift.perturbation.values
    k = tt.k
    times, direct, defq, dsq, model_route = [], [], [], [], []
    m2k = 0.0
    for t, vals, base in stream:
        model = base + pert if drift.epsilon else base
        defect = base - model
        p = cell * np.einsum("ncxy,kcxy->nk", vals, phis)
        pb = cell * np.einsum("ncxy,kcxy->nk", base, phis)
        pm = cell * np.einsum("ncxy,kcxy->nk", model, phis)
        pd = pb - pm
        th, dth = tt.theta(t), tt.dtheta(t)
        th_p = th * p
        dtF = _slot_sum(th_p, dth * p)
        if not times:
            f0 = (tt.theta(0.0) ** k) * np.prod(p, axis=1)
        times.append(t)
        direct.append((dtF + _slot_sum(th_p, th * pb)).mean())
        defq.append(_slot_sum(th_p, th * pd).mean())
        model_route.append((dtF + _slot_sum(th_p, th * pm)).mean())
        dsq.append(np.mean(_sq_norms(defect, grid)))
        m2k = max(m2k, float(np.mean(_sq_norms(vals, grid)**k)))
    return {
        "direct": float(np.trapezoid(direct, times) + f0.mean()),
        "defect": float(np.trapezoid(defq, times)),
        "l_drift": float(np.trapezoid(dsq, times)),
        "m_2k": float(m2k),
        "scale": float(np.trapezoid(np.abs(model_route), times)
                       + np.abs(f0).mean()),
    }


def certification_report(grid: Grid, members: int, k: int, K: float,
                         k_test: int, epsilon: float, n_steps: int,
                         horizon: float, seed, rel_tol: float = 1e-5,
                         slack: float = 1e-9) -> dict:
    """End-to-end residual certification for one configuration.

    Builds a band-limited divergence-free initial ensemble and the
    perturbed drift, streams the drift-driven curve into the residual pass,
    and reports both residual routes, their relative gap, and the
    regression bound.
    """
    if members < 1:
        raise ValueError(f"certification needs at least one member, "
                         f"got {members}")
    n = grid.n
    if n_steps < 1:
        raise ValueError(f"certification: n_steps must be a positive "
                         f"integer, got {n_steps}")
    # the resolved drift is alias-free only up to n/3, and the initial
    # ensemble and the perturbation are band-limited to K
    if not 1 <= K <= n / 3.0:
        raise ValueError(f"certification: K must lie in [1, n/3] = "
                         f"[1, {n / 3.0:.6g}], got {K}")
    if not 1 <= k_test <= n // 2 - 1:
        raise ValueError(f"certification: k_test must lie in [1, n/2-1] = "
                         f"[1, {n // 2 - 1}], got {k_test}")
    if rel_tol < 0:
        raise ValueError(f"certification: rel_tol must be non-negative, "
                         f"got {rel_tol}")
    rng = np.random.default_rng(seed)
    e0 = Ensemble(grid, random_divfree_batch(grid, 3.5, int(K),
                                             [rng] * members)).normalized()
    tt = random_test_tuple(grid, k, k_test, horizon, seed=rng)
    g_pert = Ensemble(grid, random_divfree_batch(grid, 3.0, int(K), [rng]))
    g_pert = g_pert.normalized().member(0)
    drift = DriftSpec(resolution=K, epsilon=epsilon, perturbation=g_pert)
    with np.errstate(over="ignore", invalid="ignore"):
        sweep = _fused_certification_pass(_drift_march(
            e0, K, epsilon, g_pert, horizon, n_steps), tt, drift)
    direct, defect = sweep["direct"], sweep["defect"]
    gap = abs(direct - defect)
    rel_gap = gap / max(abs(direct), abs(defect), sweep["scale"], 1e-300)
    factor = tt.norm_factor()
    bound = float(np.sqrt(horizon)
                  * sweep["m_2k"] ** ((k - 1) / (2.0 * k)) * factor
                  * np.sqrt(sweep["l_drift"]))
    return {
        "k": k,
        "K": K,
        "epsilon": epsilon,
        "n_steps": n_steps,
        "horizon": horizon,
        "residual_direct": direct,
        "residual_defect": defect,
        "cross_route_gap": gap,
        "cross_route_scale": sweep["scale"],
        "rel_gap": float(rel_gap),
        "routes_agree": bool(rel_gap <= rel_tol),
        "l_drift": sweep["l_drift"],
        "m_2k": sweep["m_2k"],
        "norm_factor": factor,
        "bound": bound,
        "satisfied": bool(abs(defect) <= bound * (1 + slack)),
    }


# --------------------------------------------------- Gaussian diffusions

@dataclass
class GaussianDiffusion:
    """Forward diffusion dX = sigma(tau) dW with Gaussian data law.

    The marginals stay Gaussian: N(mean, cov + S(tau) I) with
    S(tau) = int_0^tau sigma^2.  The learned score is the analytic score
    plus c * (x - mean)."""

    mean: np.ndarray
    cov: np.ndarray
    sigma0: float = 1.0
    sigma_slope: float = 0.0

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        q = self.mean.shape[0]
        if self.cov.shape != (q, q):
            raise ValueError("covariance shape mismatch")
        if np.abs(self.cov - self.cov.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric")
        np.linalg.cholesky(self.cov)  # SPD or raise
        if self.sigma(0.0) <= 0 or self.sigma(1.0) <= 0:
            raise ValueError("sigma(tau) must stay positive on [0, 1]")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sigma(self, tau: float) -> float:
        return self.sigma0 + self.sigma_slope * tau

    def accumulated(self, tau: float) -> float:
        """S(tau) = int_0^tau sigma(s)^2 ds, closed form."""
        a, b = self.sigma0, self.sigma_slope
        return a * a * tau + a * b * tau * tau + b * b * tau**3 / 3.0

    def marginal_cov(self, tau: float) -> np.ndarray:
        return self.cov + self.accumulated(tau) * np.eye(self.dim)

    def score_matrix(self, tau: float) -> np.ndarray:
        """s_tau(x) = A (x - mean) with A = -Sigma_tau^{-1}."""
        return -np.linalg.inv(self.marginal_cov(tau))

    def pf_drift_matrix(self, tau: float, score_mat: np.ndarray) -> np.ndarray:
        """b(x) = B (x - mean) for drift a - (sigma^2/2) s with a = 0."""
        return -0.5 * self.sigma(tau) ** 2 * score_mat


@np.errstate(over="ignore", invalid="ignore")
def pf_identities(gd: GaussianDiffusion, taus, c: float, mc_size: int = 4096,
                  seed=0, tol: float = 1e-10) -> dict:
    """Score-to-drift identity and probability-flow marginal check.

    (i) per-tau: E||b_model - b*||^2 = (sigma^4/4) E||s_model - s||^2 with
    both sides assembled from their own affine representations;
    (ii) the tau-integrated identity by quadrature;
    (iii) PF-ODE-evolved samples match the analytic Gaussian marginals in
    mean and covariance within 3 sigma Monte Carlo error.
    """
    taus = np.asarray(taus, dtype=np.float64)
    if len(taus) < 2:
        raise ValueError(f"tau_nodes must be at least 2, got {len(taus)}")
    if mc_size < 2:
        raise ValueError(f"mc_size must be at least 2, got {mc_size}")
    lhs = np.empty(len(taus))
    rhs = np.empty(len(taus))
    for s, tau in enumerate(taus):
        cov_tau = gd.marginal_cov(tau)
        a_true = gd.score_matrix(tau)
        a_model = a_true + c * np.eye(gd.dim)
        b_true = gd.pf_drift_matrix(tau, a_true)
        b_model = gd.pf_drift_matrix(tau, a_model)
        db = b_model - b_true
        ds = a_model - a_true
        lhs[s] = np.trace(db @ cov_tau @ db.T)
        rhs[s] = 0.25 * gd.sigma(tau) ** 4 * np.trace(ds @ cov_tau @ ds.T)
    scale = max(lhs.max(), rhs.max(), 1.0)
    per_tau_gap = float(np.abs(lhs - rhs).max() / scale)
    int_lhs = float(np.trapezoid(lhs, taus))
    int_rhs = float(np.trapezoid(rhs, taus))
    int_gap = abs(int_lhs - int_rhs) / max(int_lhs, int_rhs, 1.0)

    # probability-flow marginal transport (true drift)
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(gd.cov)
    x = gd.mean[None, :] + rng.standard_normal((mc_size, gd.dim)) @ L.T
    bufs = [np.empty_like(x) for _ in range(5)]

    def vel(z, tau, out):
        B = gd.pf_drift_matrix(tau, gd.score_matrix(tau))
        return np.matmul(z - gd.mean[None, :], B.T, out=out)

    fine = np.linspace(taus[0], taus[-1], 257)
    for s in range(len(fine) - 1):
        _rk4_step(vel, x, fine[s], fine[s + 1] - fine[s], bufs, x)
    cov_T = gd.marginal_cov(taus[-1])
    mean_err = np.abs(x.mean(axis=0) - gd.mean)
    mean_se = np.sqrt(np.diag(cov_T) / mc_size)
    cov_hat = np.cov(x.T) if gd.dim > 1 else np.array([[np.var(x[:, 0], ddof=1)]])
    cov_se = np.sqrt((np.outer(np.diag(cov_T), np.diag(cov_T)) + cov_T**2)
                     / (mc_size - 1))
    mean_z = float((mean_err / mean_se).max())
    cov_z = float((np.abs(cov_hat - cov_T) / cov_se).max())
    return {
        "per_tau_gap": per_tau_gap,
        "per_tau_ok": bool(per_tau_gap <= tol),
        "integrated_lhs": int_lhs,
        "integrated_rhs": int_rhs,
        "integrated_gap": float(int_gap),
        "integrated_ok": bool(int_gap <= tol),
        "mean_zmax": mean_z,
        "cov_zmax": cov_z,
        "marginals_ok": bool(mean_z <= 3.0 and cov_z <= 3.0),
        "lhs_curve": lhs.tolist(),
        "rhs_curve": rhs.tolist(),
        "taus": taus.tolist(),
    }
