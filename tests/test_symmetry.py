"""Symmetries of the periodic square that need no oracle.

Incompressible Euler on the torus commutes with grid translations and with
the eight symmetries of the square, which act on positions and velocity
components together: u'(x) = R u(R^T x).  So the solver, the strain and
the resolved drift must be equivariant, and every law-level value built
from them (W2, the tails, the structure moduli, the strain-growth report,
the CRPS rows and d_T with the observable moved along, and the
certification residuals with the test tuple and the perturbation moved
alike) invariant.  Unlike the
spectral oracles, this check shares no axis convention with the package: a
kx/ky swap or a sign error in one table breaks it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from lawbound import certify as C
from lawbound import ensemble as E
from lawbound import euler as EU
from lawbound import fields as F
from lawbound import scores as SC
from lawbound import transport as T

GRID = F.Grid(2, 16)
CFG = EU.EulerConfig(GRID, dt=1.0 / 32)
REL = 1e-13

# (R, index map): the orthogonal map of the velocity components and the
# grid point (i, j) that R^T x lands on, for x = (i h, j h)
_n = GRID.n
_i, _j = np.meshgrid(np.arange(_n), np.arange(_n), indexing="ij")
_POINT = {
    "rot90": (np.array([[0.0, -1.0], [1.0, 0.0]]), (_j, -_i % _n)),
    "rot180": (-np.eye(2), (-_i % _n, -_j % _n)),
    "rot270": (np.array([[0.0, 1.0], [-1.0, 0.0]]), (-_j % _n, _i)),
    "flip_x": (np.diag([-1.0, 1.0]), (-_i % _n, _j)),
    "flip_y": (np.diag([1.0, -1.0]), (_i, -_j % _n)),
    "swap": (np.array([[0.0, 1.0], [1.0, 0.0]]), (_j, _i)),
    "antiswap": (np.array([[0.0, -1.0], [-1.0, 0.0]]), (-_j % _n, -_i % _n)),
}


def group_element():
    shifts = st.tuples(st.integers(0, _n - 1), st.integers(0, _n - 1)).map(
        lambda s: ("shift", s))
    return shifts | st.sampled_from(sorted(_POINT)).map(lambda k: (k, None))


def act(g, values):
    """u'(x) = R u(R^T x) on velocities (..., 2, n, n)."""
    kind, shift = g
    if kind == "shift":
        return np.roll(values, shift, axis=(-2, -1))
    R, (pi, pj) = _POINT[kind]
    return np.einsum("ab,...bij->...aij", R, values[..., pi, pj])


def act_tensor(g, tensor):
    """S'(x) = R S(R^T x) R^T on tensors (..., 2, 2, n, n)."""
    kind, shift = g
    if kind == "shift":
        return np.roll(tensor, shift, axis=(-2, -1))
    R, (pi, pj) = _POINT[kind]
    return np.einsum("ab,...bcij,dc->...adij", R, tensor[..., pi, pj], R)


def act_scalar(g, values):
    kind, shift = g
    if kind == "shift":
        return np.roll(values, shift, axis=(-2, -1))
    _, (pi, pj) = _POINT[kind]
    return values[..., pi, pj]


def members(seed, N=4, k_max=5):
    """N divergence-free members band-limited to n/3, RMS speed near 1."""
    rng = np.random.default_rng(seed)
    vals = np.stack([F.random_divfree(GRID, 3.0, k_max, seed=rng).values
                     for _ in range(N)])
    rms = np.sqrt(np.mean(vals**2, axis=(1, 2, 3), keepdims=True))
    return E.Ensemble(GRID, vals / rms)


def march_drift(e):
    """The resolved drift at the end of a short certification march."""
    zero = F.GridField(GRID, np.zeros((2,) + GRID.shape))
    return [b.copy() for _, _, b in EU._drift_march(e, 4.0, 0.0, zero,
                                                     0.25, 4)][-1]


def assert_close(got, want, what):
    """max|got - want| within REL of max|want|."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    gap = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)
    assert gap <= REL, f"{what}: relative gap {gap:.3g}"


@settings(max_examples=12, deadline=None, derandomize=True)
@given(group_element(), st.integers(0, 2**16))
def test_euler_and_law_values_respect_the_square_symmetries(g, seed):
    a = members(seed)
    b = E.Ensemble(GRID, a.values + 0.3 * members(seed + 1).values)
    ga, gb = (E.Ensemble(GRID, act(g, e.values)) for e in (a, b))

    # equivariance of the solver, the strain and the resolved drift
    pushed = EU.evolve(a, CFG, 0.25).values
    assert_close(EU.evolve(ga, CFG, 0.25).values, act(g, pushed), "evolve")
    s, gs = EU.strain(a), EU.strain(ga)
    assert_close(gs.tensor, act_tensor(g, s.tensor), "strain tensor")
    assert_close(gs.op_norm, act_scalar(g, s.op_norm), "strain norm")
    assert_close(march_drift(ga), act(g, march_drift(a)), "drift")

    # invariance of the law-level values
    assert_close(T.wasserstein_exact(ga, gb, p=2)[0],
                 T.wasserstein_exact(a, b, p=2)[0], "W2")
    Ks = [1.0, 2.0, 4.0]
    assert_close(E.tail_profile(ga, Ks), E.tail_profile(a, Ks), "tails")
    radii = [0.5, 1.0, 2.0]
    assert_close(E.pointwise_modulus(ga, radii).values,
                 E.pointwise_modulus(a, radii).values, "structure moduli")
    rep = EU.w2_strain_bound_check(a, b, CFG, t=0.25, checkpoints=4)
    grep = EU.w2_strain_bound_check(ga, gb, CFG, t=0.25, checkpoints=4)
    for key, value in rep.items():
        if isinstance(value, bool):
            assert grep[key] == value, key
        else:
            assert_close(grep[key], value, key)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(group_element(), st.integers(0, 2**16))
def test_crps_and_d_T_are_invariant_with_the_observable_moved(g, seed):
    # l(u) = <u, psi> is unchanged when u and psi are moved alike, and the
    # field W1 is a law-level value, so every CRPS row and d_T is too
    a = members(seed)
    b = E.Ensemble(GRID, a.values + 0.3 * members(seed + 1).values)
    ga, gb = (E.Ensemble(GRID, act(g, e.values)) for e in (a, b))
    obs = SC.mollified_point_observable(GRID, [1.0, 2.0], 0, 0.5)
    moved = SC.ResolvedObservable(obs.kind, F.GridField(
        GRID, act(g, obs.psi.values)), obs.lipschitz)

    def crps(x, y, observable):
        return SC.crps_dT_check(*(E.LawCurve(*EU.evolve(
            e, CFG, 0.25, checkpoints=2)) for e in (x, y)), observable)

    rep, grep = crps(a, b, obs), crps(ga, gb, moved)
    for row, grow in zip(rep.pop("rows"), grep.pop("rows")):
        for key, value in row.items():
            assert_close(grow[key], value, f"t={row['t']} {key}")
    for key, value in rep.items():
        assert_close(grep[key], value, key)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(group_element(), st.integers(0, 2**16))
def test_certification_residuals_are_invariant_with_tests_moved(g, seed):
    # every residual integrand pairs the curve with the test fields, and
    # the drift defect is the perturbation: moving the initial ensemble,
    # the test tuple and the perturbation alike changes no residual
    e0 = members(seed)
    tt = C.random_test_tuple(GRID, 2, 4, 0.25, seed=seed)
    pert = members(seed + 1, N=1).member(0)

    def residuals(e, fields, perturbation):
        drift = C.DriftSpec(5.0, 0.05, perturbation)
        march = EU._drift_march(e, 5.0, 0.05, perturbation, 0.25, 4)
        return C._fused_certification_pass(march, C.TestTuple(fields, 0.25),
                                           drift)

    rep = residuals(e0, tt.fields, pert)
    grep = residuals(E.Ensemble(GRID, act(g, e0.values)),
                     [F.GridField(GRID, act(g, f.values)) for f in tt.fields],
                     F.GridField(GRID, act(g, pert.values)))
    for key, value in rep.items():
        assert_close(grep[key], value, key)
