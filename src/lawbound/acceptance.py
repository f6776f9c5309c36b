"""The verify-all property battery.

Each criterion function runs one family of checks at desk scale and
returns Check rows; `run_battery` collects them all.  The quick variant
shrinks ensemble sizes and grids but keeps every stated tolerance.
"""

from __future__ import annotations

import numpy as np

from . import certify as C
from . import ensemble as E
from . import euler as EU
from . import fields as F
from . import rollout as R
from . import sampler as SA
from . import scores as SC
from . import transport as T
from .reporting import Check

__all__ = ["run_battery", "pf_ode_checks", "CRITERIA"]


def _unit_ensemble(grid, n, seed0, k_max, exponent=4.0):
    return E.Ensemble(grid, F.random_divfree_batch(
        grid, exponent, k_max, range(seed0, seed0 + n))).normalized()


def crit01_spectral(quick: bool, seed: int):
    """Transform round-trip, Parseval, dyadic partition, projector split."""
    g = F.Grid(2, 32)
    rng = np.random.default_rng(seed)
    n_fields = 20 if quick else 100
    worst_rt = worst_pars = worst_split = 0.0
    for _ in range(n_fields):
        f = F.GridField(g, rng.standard_normal((2,) + g.shape))
        Fh = F.forward(f)
        back = F.inverse(Fh)
        worst_rt = max(worst_rt, float(
            np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)))
        worst_pars = max(worst_pars, abs(F.spec_l2_norm(Fh) - F.l2_norm(f))
                         / F.l2_norm(f))
        K = float(rng.integers(1, 12))
        total = F.spec_l2_norm(Fh) ** 2
        split = (F.spec_l2_norm(F.project_leq(Fh, K)) ** 2
                 + F.spec_l2_norm(F.project_gt(Fh, K)) ** 2)
        worst_split = max(worst_split, abs(total - split) / total)
    part = F.DEFAULT_CUTOFFS.partition_values(g)
    mag = F._half(F._mode_magnitude(g.d, g.n), g)
    worst_part = float(np.max(np.abs(part[mag > 0] - 1.0)))
    return [
        Check("spectral.round_trip", worst_rt, 1e-12, worst_rt <= 1e-12, 1e-12),
        Check("spectral.parseval", worst_pars, 1e-10, worst_pars <= 1e-10, 1e-10),
        Check("spectral.dyadic_partition", worst_part, 1e-12,
              worst_part <= 1e-12, 1e-12),
        Check("spectral.projector_split", worst_split, 1e-10,
              worst_split <= 1e-10, 1e-10),
    ]


def crit02_capacity_coverage(quick: bool, seed: int):
    """Capacity/coverage inequality on random pairs, plus the band-limited
    specialization for projected model ensembles."""
    rng = np.random.default_rng(seed)
    if quick:
        pairs, N, n = 10, 8, 16
    else:
        pairs, N, n = 100, 32, 32
    g = F.Grid(2, n)
    worst = -np.inf
    worst_band = -np.inf
    for _ in range(pairs):
        a = E.Ensemble(g, rng.standard_normal((N, 2) + g.shape))
        b = E.Ensemble(g, rng.standard_normal((N, 2) + g.shape))
        K = float(rng.integers(1, n // 4))
        rep = T.capacity_coverage(a, b, K)
        worst = max(worst, rep.w2 - rep.bound)
        bp = T.capacity_coverage(a, T.project_ensemble(b, K), K)
        assert bp.band_limited_b
        worst_band = max(worst_band,
                         bp.w2 - (bp.tail_a + bp.train_k + 1e-9))
    return [
        Check("capacity.inequality", worst, 1e-9, worst <= 1e-9, 1e-9),
        Check("capacity.band_limited", worst_band, 0.0, worst_band <= 0.0, 1e-9),
    ]


def crit03_powerlaw_tails(quick: bool, seed: int):
    """Fitted slope of log Tail_K vs log K equals -s within 0.1."""
    if quick:
        n, members, targets = 256, 64, (0.5,)
    else:
        n, members, targets = 512, 128, (0.3, 0.5, 0.8)
    g = F.Grid(2, n)
    Ks = np.array([4.0, 8.0, 16.0, 32.0])
    checks = []
    for t_idx, s in enumerate(targets):
        p = F.spectrum_exponent_for_structure(s)
        acc = np.zeros(len(Ks))
        for i in range(members):
            # the tails of random_divfree's field, read off its coefficients
            coef = F._divfree_coef(g, p, g.n // 2 - 1,
                                   seed=seed + 1000 * t_idx + i)
            acc += E._tails(coef[None], g, Ks) ** 2
        tails = np.sqrt(acc / members)
        slope = float(np.polyfit(np.log(Ks), np.log(tails), 1)[0])
        err = abs(slope + s)
        checks.append(Check(f"powerlaw.slope_s{s}", slope, -s, err <= 0.1, 0.1))
    return checks


def crit04_l2_identity(quick: bool, seed: int):
    """L2 difference identity residual and its decay under dt halving."""
    g = F.Grid(2, 64)
    tg = EU.taylor_green(g)
    pert = _unit_ensemble(g, 1, seed, 8).member(0)
    u0 = F.GridField(g, tg.values + 1e-2 * pert.values)
    horizon = 0.25 if quick else 0.5
    dts = (0.025, 0.0125) if quick else (0.02, 0.01, 0.005)
    resid = []
    for dt in dts:
        cfg = EU.EulerConfig(g, dt=dt)
        rep = EU.l2_difference_identity_check(u0, tg, cfg, t=horizon,
                                              checkpoints=8)
        resid.append(rep["max_relative_residual"])
    worst = max(resid)
    floor = 1e-10
    orders_ok = all(fine <= floor or coarse / fine >= 3.5
                    for coarse, fine in zip(resid, resid[1:]))
    return [
        Check("l2_identity.residual", worst, 1e-4, worst <= 1e-4, 1e-4),
        Check("l2_identity.second_order_decay", float(orders_ok), 1.0,
              orders_ok, 0.0),
    ]


def crit05_strain_bound(quick: bool, seed: int):
    """W2 average-strain growth bound and the coupled-moment version."""
    g = F.Grid(2, 64)
    pairs = 2 if quick else 10
    N = 8 if quick else 16
    cfg = EU.EulerConfig(g, dt=0.015625)
    checks = []
    all_ok = True
    avg_below = True
    worst_margin = -np.inf
    for p in range(pairs):
        a = _unit_ensemble(g, N, seed + 100 * p, 10)
        pert = _unit_ensemble(g, N, seed + 100 * p + 50, 10)
        b = E.Ensemble(g, a.values + 0.05 * pert.values)
        rep = EU.w2_strain_bound_check(a, b, cfg, t=0.25, checkpoints=8,
                                       tol=1e-3)
        all_ok = all_ok and rep["w2_ok"] and rep["moment_ok"]
        avg_below = avg_below and rep["avg_below_sup"]
        worst_margin = max(worst_margin,
                           rep["w2_t"] / max(rep["w2_bound"], 1e-300) - 1.0)
    checks.append(Check("strain.w2_and_moment", worst_margin, 1e-3,
                        all_ok, 1e-3))
    checks.append(Check("strain.avg_below_sup", float(avg_below), 1.0,
                        avg_below, 0.0))
    return checks


def crit06_gronwall(quick: bool, seed: int):
    """Closed form vs recursion on 1000 random instances; a=0 case exact."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        d0 = rng.uniform(0, 2)
        L = rng.uniform(0, 2, 10)
        eps = rng.uniform(0, 1, 10)
        closed = R.gronwall_closed_form(d0, L, eps)
        rec = [d0]
        for Ln, en in zip(L, eps):
            rec.append(Ln * rec[-1] + en)
        rec = np.array(rec)
        worst = max(worst, float(np.max(np.abs(closed - rec)
                                        / np.maximum(rec, 1e-30))))
    d0, eb, N = 0.7, 0.05, 12
    flat = R.constant_coefficient_bound(d0, 0.0, eb, N)
    exact0 = abs(flat - (d0 + N * eb))
    return [
        Check("gronwall.closed_vs_recursion", worst, 1e-12, worst <= 1e-12, 1e-12),
        Check("gronwall.zero_rate_case", exact0, 0.0, exact0 == 0.0, 0.0),
    ]


def crit07_rollout(quick: bool, seed: int):
    """End-to-end rollout bound with a perturbed model kernel."""
    if quick:
        n, N, steps = 32, 8, 3
    else:
        n, N, steps = 64, 16, 8
    g = F.Grid(2, n)
    cfg = EU.EulerConfig(g, dt=0.00625)
    a = _unit_ensemble(g, N, seed, 8)
    pert = _unit_ensemble(g, N, seed + 500, 8)
    b = E.Ensemble(g, a.values + 0.02 * pert.values)
    spec = SA.KernelSpec("perturbed-reference", internal_steps=4,
                         noise_scale=2e-3)
    ledger, rep = R.run_rollout_experiment(a, b, cfg, spec, n_steps=steps,
                                           dt_phys=0.05, master_seed=seed)
    margin = rep["delta_final"] / max(rep["bound_final"], 1e-300) - 1.0
    return [
        Check("rollout.final_bound", margin, 5e-2, rep["final_ok"], 5e-2),
        Check("rollout.per_step", float(rep["per_step_ok"]), 1.0,
              rep["per_step_ok"], 5e-2),
        Check("rollout.horizon_complete", float(rep["horizon_complete"]), 1.0,
              rep["horizon_complete"], 0.0),
    ]


def crit08_time_regularity(quick: bool, seed: int):
    """Expected-speed increments, chord/straightness chain, Hoelder bound."""
    g = F.Grid(2, 32)
    N = 8 if quick else 16
    pairs = 50 if quick else 200
    cfg = EU.EulerConfig(g, dt=0.00625)
    ref = EU.reference_step_map(cfg, 0.05)
    e = _unit_ensemble(g, N, seed, 8)
    spec = SA.KernelSpec("rectified-flow", internal_steps=16, perturbation=0.3)
    bundle, _ = SA.rollout_paths(e, spec, ref, 0.05, 4 if quick else 8,
                                 master_seed=seed)
    rep = SA.time_regularity_report(bundle, pairs, seed=seed + 1, tol=1e-2)
    hol = SA.holder_from_action_check(bundle, 2.0, pairs, seed=seed + 2,
                                      tol=1e-2)
    return [
        Check("timereg.increments", rep.worst_increment_gap, 0.0,
              rep.increments_ok, 1e-2),
        Check("timereg.chain", rep.c_spd,
              (rep.c_ch + np.sqrt(rep.c_str)) * (1 + 1e-2), rep.chain_ok, 1e-2),
        Check("timereg.holder_p2", hol["worst_gap"], 0.0, hol["ok"], 1e-2),
    ]


def crit09_continuity(quick: bool, seed: int):
    """Second-order decay of the continuity-equation residual."""
    g = F.Grid(2, 32)
    cfg = EU.EulerConfig(g, dt=0.00625)
    ref = EU.reference_step_map(cfg, 0.05)
    e = _unit_ensemble(g, 4, seed, 8)
    spec = SA.KernelSpec("rectified-flow", internal_steps=16, perturbation=0.5,
                         init="gaussian", noise_scale=0.2)
    phis = _unit_ensemble(g, 2, seed + 10, 6)
    phi1, phi2 = phis.member(0), phis.member(1)
    checks = []
    for name, obs in (("linear", SA.linear_observable(phi1)),
                      ("bilinear", SA.bilinear_observable(phi1, phi2))):
        resid = []
        for nodes in (17, 33) if quick else (17, 33, 65):
            rep = SA.continuity_equation_check(e, spec, ref, obs,
                                               np.linspace(0, 1, nodes),
                                               master_seed=seed)
            resid.append(rep["residual"])
        ratios = [c / f for c, f in zip(resid, resid[1:])]
        ok = all(3.5 <= r <= 4.5 for r in ratios)
        checks.append(Check(f"continuity.{name}_refinement",
                            min(ratios), 3.5, ok, 0.0))
    return checks


def crit10_certification(quick: bool, seed: int):
    """Cross-route residual agreement, regression bound, epsilon linearity."""
    g = F.Grid(2, 32)
    members = 4 if quick else 6
    n_steps = 256 if quick else 512
    ks = (1,) if quick else (1, 2)
    checks = []
    sweeps = {}
    for k in ks:
        for eps in (0.0, 1e-3, 1e-2):
            rep = C.certification_report(g, members=members, k=k, K=8,
                                         k_test=4, epsilon=eps,
                                         n_steps=n_steps, horizon=0.5,
                                         seed=seed, rel_tol=1e-5)
            sweeps[(k, eps)] = rep
            checks.append(Check(
                f"certify.routes_k{k}_eps{eps}", rep["rel_gap"], 1e-5,
                rep["routes_agree"], 1e-5))
            checks.append(Check(
                f"certify.bound_k{k}_eps{eps}",
                abs(rep["residual_defect"]), rep["bound"],
                rep["satisfied"], 1e-9))
    for k in ks:
        rs = [sweeps[(k, e)]["residual_defect"] for e in (0.0, 1e-3, 1e-2)]
        es = np.array([0.0, 1e-3, 1e-2])
        A = np.stack([np.ones(3), es], axis=1)
        coef, res, _, _ = np.linalg.lstsq(A, np.array(rs), rcond=None)
        ss = np.sum((rs - np.mean(rs)) ** 2)
        r2 = 1.0 - (float(res[0]) if len(res) else 0.0) / max(ss, 1e-300)
        checks.append(Check(f"certify.linearity_k{k}", r2, 0.999,
                            r2 > 0.999, 0.001))
    return checks


def pf_ode_checks(seed: int, dim: int = 4, c: float = 0.2,
                  tau_nodes: int = 33, mc_size: int = 4096,
                  sigma0: float = 1.0, sigma_slope: float = 0.0):
    """(pf_identities report, Check rows) of a Gaussian diffusion drawn from
    `seed`: the `pfode` command at its config, crit11 at the defaults (the
    `pfode` table's)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) * 0.3
    gd = C.GaussianDiffusion(mean=rng.standard_normal(dim),
                             cov=A @ A.T + np.eye(dim), sigma0=sigma0,
                             sigma_slope=sigma_slope)
    rep = C.pf_identities(gd, np.linspace(0, 1, tau_nodes), c=c,
                          mc_size=mc_size, seed=seed + 1)
    return rep, [
        Check("pfode.identity", rep["per_tau_gap"], 1e-10,
              rep["per_tau_ok"], 1e-10),
        Check("pfode.integrated", rep["integrated_gap"], 1e-10,
              rep["integrated_ok"], 1e-10),
        Check("pfode.marginals", max(rep["mean_zmax"], rep["cov_zmax"]), 3.0,
              rep["marginals_ok"], 0.0),
    ]


def crit11_pf_ode(quick: bool, seed: int):
    """Score-to-drift identity and probability-flow marginal agreement."""
    return pf_ode_checks(seed)[1]


def crit12_scores(quick: bool, seed: int):
    """CRPS/W1 controls, d_T control, energy-score consistency, XNLL."""
    rng = np.random.default_rng(seed)
    triples = 50 if quick else 200
    ok_w1 = True
    for _ in range(triples):
        p = rng.standard_normal(64) * rng.uniform(0.5, 2)
        q = rng.standard_normal(64) + rng.uniform(-1, 1)
        p2 = rng.standard_normal(64)
        rep = SC.crps_w1_check(p, q, p2, slack=1e-12)
        ok_w1 = ok_w1 and rep["direct_ok"] and rep["lipschitz_ok"]
    # m = 1 energy score agrees with CRPS
    x = rng.standard_normal((32, 1))
    y = rng.standard_normal((32, 1))
    es_gap = abs(SC.energy_between(x, y) - SC.crps_between(x[:, 0], y[:, 0]))
    # d_T control on random law curves
    g = F.Grid(2, 16)
    N = 8 if quick else 32
    times = [0.0, 0.3, 0.7, 1.0]
    ca = E.LawCurve(times, [E.Ensemble(g, rng.standard_normal((N, 2) + g.shape))
                            for _ in times])
    cb = E.LawCurve(times, [E.Ensemble(g, rng.standard_normal((N, 2) + g.shape))
                            for _ in times])
    obs = SC.inner_product_observable(F.random_divfree(g, 3.0, 4, seed=seed))
    drep = SC.crps_dT_check(ca, cb, obs)
    # quadratic XNLL equality
    inputs = E.Ensemble(g, rng.standard_normal((8, 2) + g.shape))
    truth = lambda u: F.GridField(u.grid, 1.5 * u.values)
    num = E.Ensemble(g, np.stack([truth(inputs.member(i)).values
                                  for i in range(8)]))
    model = E.Ensemble(g, num.values + 0.1 * rng.standard_normal(num.values.shape))
    xrep = SC.excess_nll_check(inputs, num, model,
                               SC.QuadraticCertificate(lam=1.7, b_true=truth))
    return [
        Check("scores.crps_w1", float(ok_w1), 1.0, ok_w1, 1e-12),
        Check("scores.energy_is_crps_1d", es_gap, 1e-12, es_gap <= 1e-12, 1e-12),
        Check("scores.crps_dT", float(drep["integral_ok"] and drep["per_time_ok"]),
              1.0, drep["integral_ok"] and drep["per_time_ok"], 1e-9),
        Check("scores.xnll_gap", xrep["equality_gap"], 1e-10,
              xrep["equality_gap"] <= 1e-10 and xrep["satisfied"], 1e-10),
    ]


def crit13_marginalization(quick: bool, seed: int):
    """k=2 enumeration exact; Monte Carlo within 3 sigma."""
    g = F.Grid(2, 16)
    rng = np.random.default_rng(seed)
    e = E.Ensemble(g, rng.standard_normal((8, 2) + g.shape))
    psi = lambda v: (v**2).sum(axis=1)
    lhs, rhs = E.kpoint_marginal_exact(e, 2, psi)
    exact_gap = abs(lhs - rhs) / abs(rhs)
    mc_lhs, mc_rhs, sigma = E.kpoint_marginal_check(
        e, 2, psi, samples=2000 if quick else 8000, seed=seed + 1)
    mc_ok = abs(mc_lhs - mc_rhs) <= 3.0 * sigma
    return [
        Check("marginal.enumeration", exact_gap, 1e-12, exact_gap <= 1e-12, 1e-12),
        Check("marginal.monte_carlo", abs(mc_lhs - mc_rhs), 3.0 * sigma,
              mc_ok, 0.0),
    ]


CRITERIA = [
    ("01_spectral", crit01_spectral),
    ("02_capacity_coverage", crit02_capacity_coverage),
    ("03_powerlaw_tails", crit03_powerlaw_tails),
    ("04_l2_identity", crit04_l2_identity),
    ("05_strain_bound", crit05_strain_bound),
    ("06_gronwall", crit06_gronwall),
    ("07_rollout", crit07_rollout),
    ("08_time_regularity", crit08_time_regularity),
    ("09_continuity", crit09_continuity),
    ("10_certification", crit10_certification),
    ("11_pf_ode", crit11_pf_ode),
    ("12_scores", crit12_scores),
    ("13_marginalization", crit13_marginalization),
]


def run_battery(quick: bool, seed: int, log=None):
    """Run all criteria; returns the flat Check list."""
    checks = []
    for name, fn in CRITERIA:
        rows = fn(quick, seed)
        checks.extend(rows)
        if log is not None:
            for c in rows:
                status = "PASS" if c.satisfied else "FAIL"
                log(f"[{status}] {c.name}: value={c.value:.6g} "
                    f"bound={c.bound:.6g} tol={c.tolerance:g}")
    return checks
