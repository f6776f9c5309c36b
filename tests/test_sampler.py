import numpy as np
import pytest

from lawbound import ensemble as E
from lawbound import euler as EU
from lawbound import fields as F
from lawbound import sampler as SA

GRID = F.Grid(2, 32)
CFG = EU.EulerConfig(GRID, dt=0.00625)
DT = 0.05
REF = EU.reference_step_map(CFG, DT)
IDENT = lambda u: u


def unit_members(n, seed0=0, grid=GRID, k_max=8):
    out = []
    for i in range(n):
        u = F.random_divfree(grid, 4.0, k_max, seed=seed0 + i)
        out.append(F.GridField(grid, u.values / F.l2_norm(u)))
    return E.Ensemble.from_fields(out)


ENS = unit_members(4)


# ------------------------------------------------------------- sample_step

def test_straight_drift_hits_reference_exactly():
    spec = SA.KernelSpec("rectified-flow", internal_steps=8)
    out, states, taus = SA.sample_step(ENS.member(0), spec, REF, 7)
    target = REF(ENS.member(0))
    assert np.max(np.abs(out.values - target.values)) < 1e-13
    assert np.array_equal(states[0], ENS.member(0).values)


def test_internal_step_count_irrelevant_for_constant_drift():
    u = ENS.member(1)
    outs = {}
    for steps in (1, 64):
        spec = SA.KernelSpec("rectified-flow", internal_steps=steps)
        outs[steps], _, _ = SA.sample_step(u, spec, REF, 7)
    assert np.max(np.abs(outs[1].values - outs[64].values)) < 1e-12


def test_gaussian_endpoint_mean_mc_oracle():
    # pf-ode kernel: endpoint law is target + noise_scale * xi, mean target
    g = F.Grid(2, 16)
    cfg = EU.EulerConfig(g, dt=0.00625)
    u = unit_members(1, seed0=50, grid=g, k_max=4).member(0)
    spec = SA.KernelSpec("pf-ode", internal_steps=4, noise_scale=0.3)
    target = EU.reference_step_map(cfg, DT)(u)
    ref = lambda v: target  # frozen reference output; kernel draws still vary
    draws = 10_000
    acc = np.zeros_like(u.values)
    acc_sq = 0.0
    for j in range(draws):
        out, _, _ = SA.sample_step(u, spec, ref, 123, member=j, step=0)
        acc += out.values
        acc_sq += F.l2_norm(F.GridField(g, out.values - target.values)) ** 2
    mean = acc / draws
    sigma = np.sqrt(acc_sq / draws / draws)  # L2 scale of the mean estimator
    gap = F.l2_norm(F.GridField(g, mean - target.values))
    assert gap <= 3.0 * sigma


def test_pf_ode_endpoint_matches_closed_form():
    spec = SA.KernelSpec("pf-ode", internal_steps=64, noise_scale=0.25,
                         pf_sigma_max=1.0)
    u = ENS.member(2)
    target = REF(u)
    out, states, _ = SA.sample_step(u, spec, REF, 31)
    s0, sm = spec.noise_scale, spec.pf_sigma_max
    shrink = s0 / np.sqrt(s0**2 + sm**2)
    predicted = target.values + (states[0] - target.values) * shrink
    rel = np.abs(out.values - predicted).max() / np.abs(predicted).max()
    assert rel < 1e-6


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        SA.KernelSpec("unknown")
    with pytest.raises(ValueError):
        SA.KernelSpec("rectified-flow", internal_steps=0)
    with pytest.raises(ValueError):
        SA.KernelSpec("pf-ode", noise_scale=0.0)
    with pytest.raises(ValueError):
        SA.KernelSpec("rectified-flow", noise_scale=-1.0)


# ----------------------------------------------------------------- mixture

def test_mixture_endpoints_and_midpoint():
    spec = SA.KernelSpec("rectified-flow", internal_steps=16)
    tau = np.linspace(0.0, 1.0, 17)
    mix = SA.mixture_interpolation(ENS, spec, REF, tau, master_seed=9)
    assert np.array_equal(mix.ensembles[0].values, ENS.values)
    for i in range(ENS.size):
        out, _, _ = SA.sample_step(ENS.member(i), spec, REF, 9, member=i, step=0)
        assert np.array_equal(mix.ensembles[-1].values[i], out.values)
        target = REF(ENS.member(i))
        midpoint = 0.5 * (ENS.values[i] + target.values)
        assert np.max(np.abs(mix.ensembles[8].values[i] - midpoint)) < 1e-12


def test_rollout_equals_chained_mixture_bitwise():
    spec = SA.KernelSpec("rectified-flow", internal_steps=8, perturbation=0.2)
    bundle, endpoints = SA.rollout_paths(ENS, spec, REF, DT, n_steps=2,
                                         master_seed=13)
    tau = np.linspace(0.0, 1.0, 9)
    cur = ENS
    for n in range(2):
        mix = SA.mixture_interpolation(cur, spec, REF, tau, master_seed=13,
                                       step=n)
        cur = mix.ensembles[-1]
        assert np.array_equal(cur.values, endpoints.ensembles[n + 1].values)


def test_rollout_requires_delta_init():
    spec = SA.KernelSpec("rectified-flow", init="gaussian", noise_scale=0.1)
    with pytest.raises(ValueError):
        SA.rollout_paths(ENS, spec, REF, DT, 2, master_seed=1)


def test_rollout_deterministic_across_workers(threads):
    spec = SA.KernelSpec("perturbed-reference", internal_steps=8,
                         noise_scale=0.05)
    threads(1)
    b1, _ = SA.rollout_paths(ENS, spec, REF, DT, 2, master_seed=21)
    threads(4)
    b4, _ = SA.rollout_paths(ENS, spec, REF, DT, 2, master_seed=21)
    assert np.array_equal(b1.states, b4.states)


# ------------------------------------------------------- continuity checks

def test_ce_constant_observable_zero():
    spec = SA.KernelSpec("rectified-flow", internal_steps=16, perturbation=0.5,
                         init="gaussian", noise_scale=0.2)
    rep = SA.continuity_equation_check(ENS, spec, REF,
                                       SA.constant_observable(2.0),
                                       np.linspace(0, 1, 17), master_seed=5)
    assert rep["residual"] == 0.0


def test_ce_linear_straight_drift_exact():
    spec = SA.KernelSpec("rectified-flow", internal_steps=16)
    phi = F.random_divfree(GRID, 4.0, 6, seed=100)
    rep = SA.continuity_equation_check(ENS, spec, REF,
                                       SA.linear_observable(phi),
                                       np.linspace(0, 1, 17), master_seed=5)
    assert rep["residual"] < 1e-12


@pytest.mark.parametrize("kind", ["linear", "bilinear"])
def test_ce_residual_second_order(kind):
    spec = SA.KernelSpec("rectified-flow", internal_steps=16, perturbation=0.5,
                         init="gaussian", noise_scale=0.2)
    phi1 = F.random_divfree(GRID, 4.0, 6, seed=100)
    phi2 = F.random_divfree(GRID, 4.0, 6, seed=101)
    obs = (SA.linear_observable(phi1) if kind == "linear"
           else SA.bilinear_observable(phi1, phi2))
    resid = []
    for nodes in (17, 33, 65):
        rep = SA.continuity_equation_check(ENS, spec, REF, obs,
                                           np.linspace(0, 1, nodes),
                                           master_seed=5)
        resid.append(rep["residual"])
    for coarse, fine in zip(resid, resid[1:]):
        assert 3.5 <= coarse / fine <= 4.5


# ---------------------------------------------------------- regularity

def make_bundle(spec, n_steps=4, seed=11, ens=None):
    return SA.rollout_paths(ens if ens is not None else ENS, spec, REF, DT,
                            n_steps, master_seed=seed)[0]


def test_constant_paths_zero_constants():
    spec = SA.KernelSpec("deterministic", internal_steps=8)
    bundle = make_bundle(spec.__class__("deterministic", internal_steps=8),
                         n_steps=2)
    # identity reference map gives genuinely constant paths
    b2, _ = SA.rollout_paths(ENS, SA.KernelSpec("deterministic", internal_steps=8),
                             IDENT, DT, 2, master_seed=1)
    rep = SA.time_regularity_report(b2, 50, seed=2)
    assert rep.c_spd == 0.0 and rep.c_ch == 0.0 and rep.c_str == 0.0
    assert rep.increments_ok and rep.chain_ok


def test_straight_segments_speed_equals_chord():
    spec = SA.KernelSpec("rectified-flow", internal_steps=8)
    bundle = make_bundle(spec)
    rep = SA.time_regularity_report(bundle, 100, seed=3)
    assert rep.c_str < 1e-20
    assert abs(rep.c_spd - rep.c_ch) <= 1e-9 * max(rep.c_spd, 1e-30)
    assert rep.increments_ok and rep.chain_ok


def test_curved_paths_inequality_chain():
    spec = SA.KernelSpec("rectified-flow", internal_steps=16, perturbation=0.3)
    bundle = make_bundle(spec)
    rep = SA.time_regularity_report(bundle, 200, seed=4)
    assert rep.c_str > 0
    assert rep.increments_ok and rep.chain_ok


def test_holder_from_action():
    spec = SA.KernelSpec("rectified-flow", internal_steps=16, perturbation=0.3)
    bundle = make_bundle(spec)
    for p in (1.5, 2.0, 4.0):
        rep = SA.holder_from_action_check(bundle, p, 200, seed=5)
        assert rep["ok"]
    with pytest.raises(ValueError):
        SA.holder_from_action_check(bundle, 1.0, 10, seed=5)


def test_holder_straight_path_tightness():
    # constant-speed straight path: the L2 version of the bound is an equality
    spec = SA.KernelSpec("rectified-flow", internal_steps=8)
    bundle = make_bundle(spec, n_steps=1)
    g = bundle.grid
    i, c1, c2 = 0, 0, bundle.states.shape[1] - 1
    lhs_l2 = np.sqrt(g.cell_volume
                     * ((bundle.states[i, c2] - bundle.states[i, c1]) ** 2).sum())
    dt_c = np.diff(bundle.times)
    speeds = np.sqrt(F._sq_norms(bundle.states[i, 1:] - bundle.states[i, :-1],
                                 g)) / dt_c
    action = np.sum(dt_c * speeds**2)
    rhs = (bundle.times[c2] - bundle.times[c1]) ** 0.5 * np.sqrt(action)
    assert abs(lhs_l2 - rhs) <= 1e-9 * rhs


def test_pipeline_mse_controls_w1_every_step():
    # shared-input coupling: W1 <= W2 <= coupled root-mean-square distance
    from lawbound import transport as T

    spec = SA.KernelSpec("perturbed-reference", internal_steps=4,
                         noise_scale=0.05)
    _, curve = SA.rollout_paths(ENS, spec, REF, DT, n_steps=3, master_seed=17)
    ref_curve = [ENS]
    for n in range(3):
        ref_curve.append(E.Ensemble.from_fields(
            [REF(ref_curve[-1].member(i)) for i in range(ENS.size)]))
    for n in range(1, 4):
        a, b = ref_curve[n], curve.ensembles[n]
        w1 = T.wasserstein_exact(a, b, p=1)[0]
        w2 = T.wasserstein_exact(a, b, p=2)[0]
        rms = np.sqrt(np.mean([
            F.l2_norm(F.GridField(GRID, a.values[i] - b.values[i])) ** 2
            for i in range(a.size)
        ]))
        assert w1 <= w2 + 1e-12
        assert w2 <= rms + 1e-12


def full_hminus1_pair_norms(bundle):
    """The full-complex route that the half-spectrum H^-1 norms replaced."""
    g = bundle.grid
    axes = tuple(range(3, 3 + g.d))
    coef = np.fft.fftn(bundle.states, axes=axes) / (g.n**g.d)
    return coef, 1.0 / (1.0 + F._mode_magnitude(g.d, g.n) ** 2)


def test_hminus1_pair_norms_match_full_complex_oracle():
    spec = SA.KernelSpec("rectified-flow", internal_steps=4, perturbation=0.3)
    bundle = make_bundle(spec, n_steps=1)
    g = bundle.grid
    coef, weight = bundle.hminus1_pair_norms()
    assert coef.shape[-1] == g.n // 2 + 1
    full_coef, full_weight = full_hminus1_pair_norms(bundle)
    C = bundle.states.shape[1]
    for c1, c2 in ((0, C - 1), (1, 2), (0, 1)):
        half = (weight * (np.abs(coef[:, c2] - coef[:, c1]) ** 2).sum(axis=1)
                ).sum(axis=(1, 2))
        full = (full_weight * (np.abs(full_coef[:, c2] - full_coef[:, c1]) ** 2
                               ).sum(axis=1)).sum(axis=(1, 2))
        assert np.all(np.abs(half - full) <= 1e-13 * full)


def time_regularity_loop(bundle, pair_samples, seed, tol=1e-2):
    """The per-report route the bundle's shared speeds and spectrum
    replaced: c_spd and the increment loop of time_regularity_report."""
    g, times, states = bundle.grid, bundle.times, bundle.states
    C = states.shape[1]
    speeds = np.sqrt(F._sq_norms(states[:, 1:] - states[:, :-1],
                                 g)) / np.diff(times)
    c_spd = float(speeds.mean(axis=0).max())
    rng = np.random.default_rng(seed)
    coef = np.fft.rfftn(states, axes=(-2, -1), norm="forward")
    weight = F._half_weight(g.n) / (
        1.0 + F._half(F._mode_magnitude(g.d, g.n), g) ** 2)
    worst = -np.inf
    for _ in range(pair_samples):
        c1, c2 = sorted(rng.choice(C, size=2, replace=False))
        diff = coef[:, c2] - coef[:, c1]
        sq = (weight * (np.abs(diff) ** 2).sum(axis=1)).sum(axis=(1, 2))
        mean_inc = float(np.mean(np.sqrt(g.volume * sq)))
        bound = c_spd * (times[c2] - times[c1])
        worst = max(worst, mean_inc - bound * (1 + tol))
    return c_spd, worst


def holder_loop(bundle, p, pair_samples, seed, tol=1e-2):
    """The per-report route of holder_from_action_check's worst gap."""
    g, times, states = bundle.grid, bundle.times, bundle.states
    N, C = states.shape[:2]
    dt_c = np.diff(times)
    speeds = np.sqrt(F._sq_norms(states[:, 1:] - states[:, :-1],
                                 g)) / dt_c[None, :]
    coef = np.fft.rfftn(states, axes=(-2, -1), norm="forward")
    weight = F._half_weight(g.n) / (
        1.0 + F._half(F._mode_magnitude(g.d, g.n), g) ** 2)
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(pair_samples):
        i = int(rng.integers(0, N))
        c1, c2 = sorted(rng.choice(C, size=2, replace=False))
        diff = coef[i, c2] - coef[i, c1]
        sq = (weight * (np.abs(diff) ** 2).sum(axis=0)).sum()
        lhs = float(np.sqrt(g.volume * sq))
        action = float(np.sum(dt_c[c1:c2] * speeds[i, c1:c2] ** p))
        rhs = (times[c2] - times[c1]) ** (1.0 - 1.0 / p) * action ** (1.0 / p)
        worst = max(worst, lhs - rhs * (1 + tol))
    return worst


@pytest.mark.parametrize("spec", [
    SA.KernelSpec("rectified-flow", internal_steps=8, perturbation=0.3),
    SA.KernelSpec("perturbed-reference", internal_steps=8, noise_scale=0.01),
])
def test_path_reports_match_their_per_report_loops_bitwise(spec):
    bundle = make_bundle(spec, n_steps=2)
    rep = SA.time_regularity_report(bundle, 40, seed=3)
    assert (rep.c_spd, rep.worst_increment_gap) == time_regularity_loop(
        bundle, 40, seed=3)
    for p in (2.0, 3.0):
        gap = SA.holder_from_action_check(bundle, p, 40, seed=4)["worst_gap"]
        assert gap == holder_loop(bundle, p, 40, seed=4)


def test_path_reports_transform_the_bundle_once(monkeypatch):
    calls = []
    half_spectrum = SA._half_spectrum

    def counted(values, grid):
        calls.append(values.shape)
        return half_spectrum(values, grid)

    monkeypatch.setattr(SA, "_half_spectrum", counted)
    spec = SA.KernelSpec("rectified-flow", internal_steps=8, perturbation=0.3)
    bundle = make_bundle(spec, n_steps=1)
    SA.time_regularity_report(bundle, 20, seed=1)
    for p in (2.0, 3.0):
        SA.holder_from_action_check(bundle, p, 20, seed=2)
    assert calls == [bundle.states.shape]


# ------------------------------------------- per-member oracle of the batch

class MemberRealization:
    """The per-member route the batched kernel step replaced: start state
    and drift(x, tau) of one member, drawn from its own stream."""

    def __init__(self, spec, u, target, rng, pert_field):
        g = u.grid
        k_max = SA._noise_band(spec, g)

        def unit_noise():
            draw = F.random_divfree(g, spec.noise_exponent, k_max, seed=rng)
            return draw.values / np.sqrt(SA._expected_divfree_energy(
                g, spec.noise_exponent, k_max))

        y = target.values
        if spec.init == "gaussian" and spec.noise_scale > 0:
            start = u.values + spec.noise_scale * unit_noise()
        else:
            start = u.values.copy()
        if spec.kind == "pf-ode":
            s0, sm = spec.noise_scale, spec.pf_sigma_max
            start = y + np.sqrt(s0**2 + sm**2) * unit_noise()

            def drift(x, tau):
                sig = sm * (1.0 - tau)
                return -sm * sig / (s0**2 + sig**2) * (x - y)

        elif spec.kind == "perturbed-reference":
            chord = y + spec.noise_scale * unit_noise() - start

            def drift(x, tau):
                return chord

        else:
            chord = y - start
            amp = spec.perturbation if spec.kind == "rectified-flow" else 0.0

            def drift(x, tau):
                v = chord
                if amp:
                    v = v + amp * np.sin(2.0 * np.pi * tau) * pert_field
                return v

        self.start = start
        self.drift = drift


def member_integrate(real, tau_nodes, substeps):
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
        out[c + 1] = x
    return out


def member_route(e, spec, ref, tau_nodes, seed, step=0, substeps=1):
    """Per-member realizations and their paths (N, C, m, *shape)."""
    pert = SA._kernel_perturbation_field(spec, e.grid, seed)
    reals = [MemberRealization(spec, e.member(i), ref(e.member(i)),
                               SA._member_rng(seed, i, step), pert)
             for i in range(e.size)]
    return reals, np.stack([member_integrate(r, tau_nodes, substeps)
                            for r in reals])


def oracle_rollout_states(e, spec, ref, n_steps, seed):
    taus = np.linspace(0.0, 1.0, spec.internal_steps + 1)
    chunks = [e.values[:, None]]
    for n in range(n_steps):
        _, states = member_route(e, spec, ref, taus, seed, step=n)
        chunks.append(states[:, 1:])
        e = E.Ensemble(e.grid, states[:, -1])
    return np.concatenate(chunks, axis=1)


def oracle_continuity_curves(e, spec, ref, obs, tau_grid, seed, substeps):
    """Per-member realizations, each state and drift paired with the test
    fields through `fields.inner`, one member at a time."""
    reals, states = member_route(e, spec, ref, tau_grid, seed,
                                 substeps=substeps)
    vals = np.zeros(len(tau_grid))
    rhs = np.zeros(len(tau_grid))
    for i, real in enumerate(reals):
        for c, tau in enumerate(tau_grid):
            x = F.GridField(e.grid, states[i, c])
            w = F.GridField(e.grid, real.drift(states[i, c], tau))
            p = [F.inner(x, f) for f in obs.test_fields]
            vals[c] += float(obs.fn(*p))
            rhs[c] += float(sum(gj * F.inner(w, fj) for gj, fj
                                in zip(obs.partials(*p), obs.test_fields)))
    return vals / e.size, rhs / e.size


def oracle_spec(kind, init):
    return SA.KernelSpec(kind, internal_steps=8, perturbation=0.3,
                         noise_scale=0.1, init=init)


SPECS = [(kind, init) for kind in SA._KINDS for init in ("delta", "gaussian")]
PATH_SPECS = [(k, i) for k, i in SPECS if oracle_spec(k, i).starts_at_input]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("kind,init", PATH_SPECS)
def test_rollout_paths_match_member_oracle(kind, init, workers, threads):
    threads(workers)
    spec = oracle_spec(kind, init)
    bundle, endpoints = SA.rollout_paths(ENS, spec, REF, DT, 2, master_seed=3)
    expected = oracle_rollout_states(ENS, spec, REF, 2, 3)
    assert bundle.states.tobytes() == expected.tobytes()
    for n, ens in enumerate(endpoints.ensembles):
        assert ens.values.tobytes() == expected[:, 8 * n].tobytes()


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("kind,init", SPECS)
def test_mixture_matches_member_oracle(kind, init, workers, threads):
    threads(workers)
    spec = oracle_spec(kind, init)
    tau = np.linspace(0.0, 1.0, 6)
    mix = SA.mixture_interpolation(ENS, spec, REF, tau, master_seed=8, step=2,
                                   substeps=2)
    _, expected = member_route(ENS, spec, REF, tau, 8, step=2, substeps=2)
    for c, ens in enumerate(mix.ensembles):
        assert ens.values.tobytes() == expected[:, c].tobytes()


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("kind,init", SPECS)
def test_continuity_check_matches_member_oracle(kind, init, workers, threads):
    threads(workers)
    spec = oracle_spec(kind, init)
    obs = SA.bilinear_observable(F.random_divfree(GRID, 4.0, 6, seed=100),
                                 F.random_divfree(GRID, 4.0, 6, seed=101))
    tau = np.linspace(0.0, 1.0, 9)
    rep = SA.continuity_equation_check(ENS, spec, REF, obs, tau,
                                       master_seed=5, substeps=2)
    vals, rhs = oracle_continuity_curves(ENS, spec, REF, obs, tau, 5, 2)
    assert np.array(rep["expectation_curve"]).tobytes() == vals.tobytes()
    assert np.array(rep["drift_pairing_curve"]).tobytes() == rhs.tobytes()


@pytest.mark.parametrize("kind,init", SPECS)
def test_sample_step_is_the_batch_of_one(kind, init):
    spec = oracle_spec(kind, init)
    taus = np.linspace(0.0, 1.0, 9)
    _, expected = member_route(ENS, spec, REF, taus, 4, step=1)
    out, states, _ = SA.sample_step(ENS.member(2), spec, REF, 4, member=2,
                                    step=1)
    assert states.tobytes() == expected[2].tobytes()
    assert out.values.tobytes() == expected[2, -1].tobytes()


def test_rollout_paths_reject_pf_ode_before_any_work():
    calls = []

    def ref(e):
        calls.append(e)
        return e

    spec = SA.KernelSpec("pf-ode", noise_scale=0.1)
    assert spec.init == "delta" and not spec.starts_at_input
    with pytest.raises(ValueError, match="starts at its input"):
        SA.rollout_paths(ENS, spec, ref, DT, 2, master_seed=1)
    assert calls == []


def test_rollout_paths_make_one_evolve_call_per_step(monkeypatch):
    calls = []
    evolve = EU.evolve

    def counted(u, *args, **kw):
        calls.append(u.values.shape[0])
        return evolve(u, *args, **kw)

    monkeypatch.setattr(EU, "evolve", counted)
    spec = SA.KernelSpec("rectified-flow", internal_steps=4, perturbation=0.3)
    SA.rollout_paths(ENS, spec, EU.reference_step_map(CFG, DT), DT, 3,
                     master_seed=2)
    assert calls == [ENS.size] * 3


@pytest.mark.parametrize("kind,init", SPECS)
def test_step_endpoints_equal_the_integrated_endpoint(kind, init):
    # the route that integrated every internal state and kept the last
    spec = oracle_spec(kind, init)
    taus = np.linspace(0.0, 1.0, spec.internal_steps + 1)
    expected = SA._KernelStep(ENS, spec, REF, 6, 3).integrate(taus)[:, -1]
    out = SA._step_endpoints(ENS, spec, REF, 6, 3)
    assert out.values.tobytes() == expected.tobytes()


def test_step_endpoints_memory_does_not_grow_with_internal_steps():
    import tracemalloc
    e = unit_members(16)
    ens_bytes = e.values.nbytes
    ident = lambda u: u  # noqa: E731  (no Euler workspace in the peak)
    peaks = {}
    for steps in (2, 4, 32):
        spec = SA.KernelSpec("perturbed-reference", internal_steps=steps,
                             noise_scale=0.1)
        SA._step_endpoints(e, spec, ident, 1, 0)  # warm the caches
        tracemalloc.start()
        SA._step_endpoints(e, spec, ident, 1, 0)
        peaks[steps] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # start, chord, state and the five RK4 stage buffers, not one state
    # per internal step
    assert max(peaks.values()) < 10 * ens_bytes
    assert abs(peaks[32] - peaks[4]) < ens_bytes
