"""Wasserstein distances and couplings between field ensembles.

Exact distances between equal-size uniformly weighted ensembles reduce to a
linear assignment problem over the pairwise L2 cost matrix; the solver is a
shortest-augmenting-path method that carries dual potentials, so optimality
is certified by dual feasibility rather than trusted.  An exact solve reads
its costs from one matrix product and proves its permutation optimal on the
explicit-difference costs (`_exact_pair`).  The explicit-difference matrix
(`pairwise_distances`) is built only where every entry is read: by the
entropic Sinkhorn surrogate, and by an exact solve whose product route
finds a cheaper cycle, fails its certificate or leaves the float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import Ensemble, LawCurve, _tails
from .fields import _half_spectrum, _leq_coef

__all__ = [
    "TransportPlan",
    "MetricReport",
    "pairwise_distances",
    "solve_assignment",
    "wasserstein_exact",
    "sinkhorn",
    "time_integrated_w1",
    "capacity_coverage",
    "capacity_sweep",
    "pair_costs",
    "one_step_defect",
    "project_ensemble",
]


# Largest marginal error of a dense plan: Sinkhorn iterates until it is met
# and TransportPlan rejects any plan that misses it.
MARGINAL_TOL = 1e-9

# Work buffer of the distance kernel, which holds one tile of rows of b.
# Of 64 KiB .. 1 MiB, 256 and 512 KiB ran fastest at N=64, n=64 (2-core
# Xeon, 2 MiB L2 per core, one thread), about half the unblocked row loop.
_TILE_BYTES = 256 * 1024


@dataclass
class TransportPlan:
    """Coupling between two equal-size ensembles.

    Either a permutation (uniform weights) or a dense plan matrix whose rows
    and columns sum to the uniform marginals.
    """

    order: int
    cost: float
    permutation: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None
    dual_row: Optional[np.ndarray] = None
    dual_col: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.permutation is None) == (self.matrix is None):
            raise ValueError("plan must be either a permutation or a dense matrix")
        if self.cost < 0:
            raise ValueError("plan cost must be nonnegative")
        if self.permutation is not None:
            perm = np.asarray(self.permutation)
            n = len(perm)
            if sorted(perm.tolist()) != list(range(n)):
                raise ValueError("permutation must be a bijection")
        if self.matrix is not None:
            if _marginal_error(self.matrix) > MARGINAL_TOL:
                raise ValueError("dense plan marginals violate uniform weights")


@dataclass
class MetricReport:
    """Distances and capacity/coverage components for one ensemble pair."""

    w2: float
    tail_a: float
    tail_b: float
    train_k: float
    bound: float
    satisfied: bool
    K: float
    w1: Optional[float] = None
    band_limited_b: bool = False

    def as_dict(self) -> dict:
        return {
            "K": self.K,
            "w1": self.w1,
            "w2": self.w2,
            "tail_a": self.tail_a,
            "tail_b": self.tail_b,
            "train_k": self.train_k,
            "bound": self.bound,
            "satisfied": bool(self.satisfied),
            "band_limited_b": bool(self.band_limited_b),
        }


def _members(a: Ensemble, b: Ensemble):
    """The members of a pair as rows of two matrices."""
    if a.grid != b.grid or a.m != b.m:
        raise ValueError("ensembles must share grid and component count")
    return a.values.reshape(a.size, -1), b.values.reshape(b.size, -1)


def pairwise_distances(a: Ensemble, b: Ensemble) -> np.ndarray:
    """Matrix of grid-quadrature L2 distances ||a_i - b_j||_2.

    Computed from explicit differences, so each entry carries a rounding
    error relative to its own size.  The Gram expansion
    ||x||^2 + ||y||^2 - 2<x, y> errs relative to the norms instead, which
    cancellation makes large on nearly identical members even after
    centring the pair (6e-4 to 1e-3 relative on the matched entries of
    b = a + 1e-6 noise, 8 standard-normal members of 512 values), so exact
    solves use it only to choose the permutation and to bound the costs
    they do not recompute by explicit differences (`_exact_pair`).

    In the calling thread, members of b are taken in tiles of _TILE_BYTES
    that stay in cache while every member of a is differenced against them
    in one work buffer; each row sum is the same contiguous reduction as
    over the whole of b, so the result does not depend on the tile size.
    Squares beyond the float range become inf without a warning; the exact
    and entropic solvers reject them.
    """
    X, Y = _members(a, b)
    rows = max(1, _TILE_BYTES // Y[0].nbytes)
    sq = np.empty((X.shape[0], Y.shape[0]))
    work = np.empty((min(rows, Y.shape[0]), Y.shape[1]))
    with np.errstate(over="ignore"):
        for j in range(0, Y.shape[0], rows):
            tile = Y[j:j + rows]
            d = work[:len(tile)]
            for i in range(X.shape[0]):
                np.subtract(tile, X[i], out=d)
                np.multiply(d, d, out=d)
                d.sum(axis=1, out=sq[i, j:j + len(tile)])
    return np.sqrt(a.grid.cell_volume * sq)


def solve_assignment(cost: np.ndarray):
    """Minimum-cost assignment by shortest augmenting paths with potentials.

    Returns (row_to_col, u, v) where u, v are feasible dual potentials with
    u_i + v_j <= c_ij and equality on assigned pairs.  Ties are broken toward
    the lowest column index for reproducibility.  A row's search raises a
    RuntimeError at a non-finite reduced cost or after n+1 column scans.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n != m:
        raise ValueError("assignment needs a square cost matrix")
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.full(n + 1, n, dtype=np.int64)     # p[j]: row assigned to column j
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(n):
        p[n] = i
        j0 = n
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        for _ in range(n + 1):
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0, :] - u[i0] - v[:n]
            better = ~used[:n] & (cur < minv[:n])
            minv[:n] = np.where(better, cur, minv[:n])
            way[:n] = np.where(better, j0, way[:n])
            free = np.where(~used[:n])[0]
            if len(free) == 0:
                j1 = n
                delta = 0.0
            else:
                j1 = free[np.argmin(minv[free])]
                delta = minv[j1]
            if not delta < INF:
                break
            upd = used[: n + 1]
            u[p[upd]] += delta
            v[upd] -= delta
            minv[:n][~used[:n]] -= delta
            j0 = j1
            if p[j0] == n:
                break
        if p[j0] != n:
            raise RuntimeError(f"assignment search for row {i} found no "
                               f"finite augmenting path")
        while j0 != n:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = np.empty(n, dtype=np.int64)
    for j in range(n):
        row_to_col[p[j]] = j
    return row_to_col, u[:n].copy(), v[:n].copy()


def _certify_duals(cost, perm, u, v, tol=1e-8):
    scale = max(np.abs(cost).max(), 1.0)
    slack = cost - u[:, None] - v[None, :]
    if slack.min() < -tol * scale:
        raise RuntimeError("assignment dual infeasible: solver bug")
    tight = np.abs(cost[np.arange(len(perm)), perm] - u - v[perm]).max()
    if tight > tol * scale:
        raise RuntimeError("assignment complementary slackness violated")


def wasserstein_exact(a: Ensemble, b: Ensemble, p: int = 2):
    """Exact W_p between equal-size uniform ensembles; optimality certified.

    Returns (value, TransportPlan); value = ((1/N) sum cost_i,perm(i))^(1/p).
    """
    _check_exact(p, a.size, b.size)
    return _exact_pair(a, b, (p,))[0]


def _check_exact(p, n_a, n_b):
    if p not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if n_a != n_b:
        raise ValueError("exact solver needs equal member counts")
    if n_a > 1024:
        raise ValueError("exact solver capped at N <= 1024")


# Unit roundoff and the smallest subnormal of float64.
_U = 2.0**-53
_ETA = 2.0**-1074


def _product_sq(X: np.ndarray, Y: np.ndarray, cell_volume: float):
    """Squared sums ||x_i - y_j||^2 from one product X Y^T and the squared
    row norms, clipped at 0, and the per-entry bound beta_ij on their
    rounding and on that of the explicit kernel (see `_exact_pair`).

    Both ensembles are first centred on the midpoint m of their member
    means.  Differences do not change, while the norms, and with them the
    product's rounding, follow the pair's spread rather than its mean.

    Returns (sq, beta), or None when a cost of the pair could leave the
    float range: then (||x_i - m|| + ||y_j - m||)^2, which bounds every
    explicit squared sum, is not safely finite.
    """
    D = X.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        m = 0.5 * (X.mean(axis=0) + Y.mean(axis=0))
        X, Y = X - m, Y - m
        nx = np.einsum("ij,ij->i", X, X)
        ny = np.einsum("ij,ij->i", Y, Y)
        rx, ry = np.sqrt(nx), np.sqrt(ny)
        top = 2.0 * max(cell_volume, 1.0) * (rx.max() + ry.max())**2
    if not np.isfinite(top):
        return None
    sq = nx[:, None] + ny[None, :] - 2.0 * (X @ Y.T)
    np.maximum(sq, 0.0, out=sq)
    gamma = (D + 8) * _U / (1.0 - (D + 8) * _U)
    beta = (4.0 * gamma) * (rx[:, None] + ry[None, :])**2
    beta += 4.0 * (D + 1) * _ETA / min(cell_volume, 1.0)
    return sq, beta


def _explicit_sq(X: np.ndarray, Y: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
    """||x_rows[k] - y_cols[k]||^2 for every k, each summed as the explicit
    kernel of `pairwise_distances` sums its entry, so bitwise equal to it."""
    tile = max(1, _TILE_BYTES // Y[0].nbytes)
    sq = np.empty(len(rows))
    work = np.empty((min(tile, len(rows)), X.shape[1]))
    for k in range(0, len(rows), tile):
        d = work[:min(tile, len(rows) - k)]
        np.take(Y, cols[k:k + len(d)], axis=0, out=d)
        np.subtract(d, X[rows[k:k + len(d)]], out=d)
        np.multiply(d, d, out=d)
        d.sum(axis=1, out=sq[k:k + len(d)])
    return sq


def _exact_pair(a: Ensemble, b: Ensemble, orders):
    """[wasserstein_exact(a, b, p) for p in orders] from one product.

    Let C be the cost matrix of the explicit route, _exact_from_distances
    on pairwise_distances: C_ij = fl(sqrt(fl(h s_ij))) for p=1 and its
    rounded square for p=2, where h is the cell volume and s_ij the
    explicit sum of squared differences.  Each order here
      1. solves the assignment on the product costs of the centred members
         (`_product_sq`), h sq for p=2 and their square roots for p=1,
         giving sigma and duals (u, v);
      2. forms the matrix H that is L (`_lower_costs`: h max(sq - beta, 0)
         for p=2, its square root for p=1) except on the set R of entries
         with L_ij <= u_i + v_j, whose explicit costs could undercut those
         duals, and on sigma; there H is C, computed bitwise with the
         explicit kernel (`_explicit_sq`) and shared between the orders;
      3. derives duals on H for sigma by Bellman-Ford from 0
         (`_column_potentials`), with u_i = H_{i,sigma(i)} - v_sigma(i);
         where it does not settle, a cycle lowers sigma's cost on H;
      4. certifies (u, v) with `_certify_duals` and its tolerance on H, and
         reports ((1/N) sum_i C_{i,sigma(i)})^(1/p), so the value is the
         explicit route's bitwise whenever sigma is.

    Claim: H <= C entrywise with equality on sigma.  Then passing step 4
    proves that _certify_duals(C, sigma, u, v) passes, which is what a
    certificate on the explicit matrix proves.  And step 3 shows sigma
    optimal on H, so for every permutation pi,
    C(pi) >= H(pi) >= H(sigma) = C(sigma): sigma is optimal on the
    explicit costs, to the rounding of potentials that are at most N times
    the largest matched cost.  The certificate alone would not show that:
    its tolerance is relative to the largest cost of the pair, which can
    hide the matched costs, and the product's errors, relative to the
    members' norms, can be far larger than those.

    Proof that L <= C.  Write u for the unit roundoff,
    gamma_k = ku/(1-ku), D for the values per member, m for the centre,
    x = fl(x_i - m) and y = fl(y_j - m) for the stored centred members,
    S = ||x_i - y_j||^2 and T = (||x|| + ||y||)^2 in exact arithmetic.
    By Higham 2002 (Accuracy and Stability of Numerical Algorithms, 3.1;
    IEEE arithmetic, any summation order, with or without FMA):
      - centring rounds each component once, exactly where the result is
        subnormal, so x - y = x_i - y_j + r with ||r|| <= gamma_1 sqrt(T),
        and ||x - y||^2 is within 3 gamma_1 T of S; also S <= (1+gamma_3) T;
      - the product gives |sq_ij - ||x - y||^2| <= gamma_{D+2} T: each
        squared norm carries a relative error of gamma_D, the dot product
        |fl(x.y) - x.y| <= gamma_D |x|.|y| <= gamma_D ||x|| ||y||, and two
        roundings combine them; the clip at 0 only moves sq_ij toward the
        exact value; so |sq_ij - S| <= gamma_{D+5} T;
      - the explicit kernel gives s_ij >= S (1 - gamma_{D+2}), and the
        product with h, the root and the square lower C by at most three
        more roundings, so C >= h S (1 - gamma_{D+6}) >= h (S -
        gamma_{D+9} T);
      - beta_ij = 4 gamma_{D+8} (fl||x|| + fl||y||)^2, as rounded, is at
        least 3 gamma_{D+8} T while gamma_{D+8} <= 0.01 (D below 10^13).
        That exceeds (gamma_{D+5} + gamma_{D+9} + gamma_3) T, which covers
        both errors and the roundings in forming L, so the p=2 entry of L
        is at most h (S - gamma_{D+9} T), below C; the rounded root is
        monotone, so the p=1 entry is at most C too;
      - with gradual underflow, each rounded product adds an absolute
        error below eta = 2^-1074, at most (3D + 2) eta / min(h, 1) over
        both routes, which beta's term 4 (D + 1) eta / min(h, 1) covers.
    Entries of R and sigma are C itself.  _certify_duals evaluates
    (cost - u) - v with rounding that is monotone in cost, so every slack
    on C is at least the one on H; the tight entries are equal, and its
    scale max(|C|, 1) is at least max(|H|, 1).  QED.

    Where step 3 or 4 fails or `_product_sq` returns None, that solve runs
    on the explicit matrix instead, computed at most once per call, which
    keeps every error message of the explicit route.
    """
    X, Y = _members(a, b)
    h = a.grid.cell_volume
    product = _product_sq(X, Y, h)
    if product is not None:
        known = np.full(product[0].shape, np.nan)   # explicit sums so far
    results, explicit = [], None
    for p in orders:
        solved = None if product is None else _solve_on_product(
            X, Y, h, *product, known, p)
        if solved is None:
            if explicit is None:
                explicit = pairwise_distances(a, b)
            solved = _exact_from_distances(explicit, p)
        results.append(solved)
    return results


def _lower_costs(sq, beta, h, p):
    """`_exact_pair`'s L, each entry at most the explicit route's cost."""
    lower = h * np.maximum(sq - beta, 0.0)
    return np.sqrt(lower) if p == 1 else lower


def _column_potentials(cost, perm):
    """Column duals v <= 0 with v_j <= v_k + cost[r, j] - cost[r, k] for
    every column k and its row r (perm[r] = k), by Bellman-Ford from 0, so
    that (cost[i, perm[i]] - v[perm[i]], v) is feasible and tight on perm.
    Each v_j is the cheapest change of rows from an alternating path ending
    at j, so it is bounded by the costs perm overpays and not by the large
    costs.  None where n + 1 passes do not settle: a cycle lowers the cost
    of perm.
    """
    n = len(perm)
    owner = np.empty(n, dtype=np.int64)
    owner[perm] = np.arange(n)
    step = cost[owner] - cost[owner, np.arange(n)][:, None]
    v = np.zeros(n)
    for _ in range(n + 1):
        reach = (v[:, None] + step).min(axis=0)
        if np.all(reach >= v):
            return v
        v = np.minimum(v, reach)
    return None


def _solve_on_product(X, Y, h, sq, beta, known, p):
    """Steps 1-4 of `_exact_pair` for one order; None where step 3 or 4
    fails.  `known` holds the explicit sums computed so far (NaN
    elsewhere) and gains those of this order's R."""
    n = len(X)
    cost = h * sq
    perm, u, v = solve_assignment(np.sqrt(cost) if p == 1 else cost)
    H = _lower_costs(sq, beta, h, p)
    refine = H <= u[:, None] + v[None, :]
    refine[np.arange(n), perm] = True
    rows, cols = np.nonzero(refine)
    new = np.isnan(known[rows, cols])
    known[rows[new], cols[new]] = _explicit_sq(X, Y, rows[new], cols[new])
    dist = np.sqrt(h * known[rows, cols])
    H[rows, cols] = dist if p == 1 else dist**2
    v = _column_potentials(H, perm)
    if v is None:
        return None
    matched = H[np.arange(n), perm]
    u = matched - v[perm]
    try:
        _certify_duals(H, perm, u, v)
    except RuntimeError:
        return None
    total = matched.mean()
    value = float(total) if p == 1 else float(np.sqrt(total))
    return value, TransportPlan(order=p, cost=value, permutation=perm,
                                dual_row=u, dual_col=v)


def _exact_from_distances(dist: np.ndarray, p: int):
    """wasserstein_exact on a precomputed distance matrix."""
    _check_exact(p, *dist.shape)
    n = dist.shape[0]
    with np.errstate(over="ignore"):
        cost = dist if p == 1 else dist**2
    if not np.isfinite(cost).all():
        raise ValueError("transport costs overflow the float range")
    perm, u, v = solve_assignment(cost)
    _certify_duals(cost, perm, u, v)
    total = cost[np.arange(n), perm].mean()
    value = float(total) if p == 1 else float(np.sqrt(total))
    return value, TransportPlan(order=p, cost=value, permutation=perm,
                                dual_row=u, dual_col=v)


def sinkhorn(a: Ensemble, b: Ensemble, epsilon: float, max_iter: int = 5000):
    """Entropic transport surrogate for p=2 (log-domain, no debiasing).

    Returns (value, TransportPlan) where value is the transport cost of the
    entropic plan.  Iterates until the marginal error is at most MARGINAL_TOL;
    raises on non-convergence of the marginals.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter}")
    with np.errstate(over="ignore"):
        C = pairwise_distances(a, b) ** 2
    return _sinkhorn_from_cost(C, epsilon, max_iter)


def _sinkhorn_from_cost(C: np.ndarray, epsilon: float, max_iter: int):
    """sinkhorn (p=2) on a precomputed squared-distance matrix."""
    if not np.isfinite(C).all():
        raise ValueError("transport costs overflow the float range")
    n, m = C.shape
    log_mu = -np.log(n)
    log_nu = -np.log(m)
    f = np.zeros(n)
    g = np.zeros(m)
    for _ in range(max_iter):
        Mf = (f[:, None] + g[None, :] - C) / epsilon
        f = f + epsilon * (log_mu - _logsumexp_rows(Mf))
        Mg = (f[:, None] + g[None, :] - C) / epsilon
        g = g + epsilon * (log_nu - _logsumexp_rows(Mg.T))
        P = np.exp((f[:, None] + g[None, :] - C) / epsilon)
        if _marginal_error(P) <= MARGINAL_TOL:
            value = float(np.sqrt(np.sum(P * C)))
            return value, TransportPlan(order=2, cost=value, matrix=P)
    raise RuntimeError(f"sinkhorn did not converge in {max_iter} iterations")


def pair_costs(a: Ensemble, b: Ensemble, epsilon: float = 0.0,
               max_iter: int = 5000):
    """Exact W1 and W2 of one ensemble pair and, for epsilon > 0, the cost
    of its entropic plan.  W1 and W2 share one product (`_exact_pair`);
    for epsilon > 0, Sinkhorn reads every entry of the explicit distance
    matrix, so all three are solved on that one matrix instead.

    Returns (w1, w2, sinkhorn value or None).
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter}")
    _check_exact(1, a.size, b.size)
    if epsilon == 0:
        (w1, _), (w2, _) = _exact_pair(a, b, (1, 2))
        return w1, w2, None
    dist = pairwise_distances(a, b)
    w1, _ = _exact_from_distances(dist, 1)
    w2, _ = _exact_from_distances(dist, 2)
    entropic, _ = _sinkhorn_from_cost(dist**2, epsilon, max_iter)
    return w1, w2, entropic


def _marginal_error(P: np.ndarray) -> float:
    """Largest deviation of a dense plan's row and column sums from the
    uniform marginals."""
    n, m = P.shape
    return max(np.abs(P.sum(axis=1) - 1.0 / n).max(),
               np.abs(P.sum(axis=0) - 1.0 / m).max())


def _logsumexp_rows(M):
    mx = M.max(axis=1)
    return mx + np.log(np.exp(M - mx[:, None]).sum(axis=1))


def _w1_per_time(a: LawCurve, b: LawCurve):
    """Yield (a_t, b_t, exact W1(a_t, b_t)) for each time of two curves on
    one time grid, taking each slice of each curve once, in time order."""
    if len(a.times) != len(b.times) or np.max(np.abs(a.times - b.times)) > 0:
        raise ValueError("law curves must share the time grid")
    for ea, eb in zip(a.ensembles, b.ensembles):
        yield ea, eb, wasserstein_exact(ea, eb, p=1)[0]


def time_integrated_w1(a: LawCurve, b: LawCurve):
    """Trapezoidal time integral of the per-time exact W1 distance.

    Returns (value, per_time_w1)."""
    w1s = np.array([w for _, _, w in _w1_per_time(a, b)])
    return float(np.trapezoid(w1s, a.times)), w1s


def _projections(spec: np.ndarray, grid, Ks) -> list:
    """P_{<=K} of an ensemble for every K in Ks from the half spectra of its
    members, synthesized by one inverse transform of the stacked
    projections (numpy transforms each line alone, so a projection does
    not depend on the stack it travels in).

    The transform is irfftn's own passes, its complex ones in place, so the
    stack is the only complex buffer."""
    coef = np.empty((len(Ks),) + spec.shape, complex)
    for k, K in enumerate(Ks):
        coef[k] = _leq_coef(spec, grid, K)
    for axis in range(-grid.d, -1):
        np.fft.ifft(coef, axis=axis, norm="forward", out=coef)
    values = np.fft.irfft(coef, grid.n, axis=-1, norm="forward")
    return [Ensemble(grid, v) for v in values]


def project_ensemble(e: Ensemble, K: float) -> Ensemble:
    """Pushforward of the empirical law under the sharp projector P_{<=K},
    one spectral projection of the whole member batch."""
    return _projections(_half_spectrum(e.values, e.grid), e.grid, [K])[0]


def capacity_sweep(a: Ensemble, b: Ensemble, Ks,
                   slack: float = 1e-9) -> list:
    """capacity_coverage at every K in Ks, solving the unprojected pair once.

    W2(a,b) and W1(a,b) come from one matrix product.  Each ensemble is
    transformed once; its tails and its projections at every K come from
    that spectrum, and each K adds the projected mismatch Train_K.
    """
    Ks = list(Ks)
    w1, w2, _ = pair_costs(a, b)
    spec_a = _half_spectrum(a.values, a.grid)
    spec_b = _half_spectrum(b.values, b.grid)
    tails_a, tails_b = _tails(spec_a, a.grid, Ks), _tails(spec_b, b.grid, Ks)
    reports = []
    for K, ta, tb, pa, pb in zip(Ks, tails_a.tolist(), tails_b.tolist(),
                                 _projections(spec_a, a.grid, Ks),
                                 _projections(spec_b, b.grid, Ks)):
        train, _ = wasserstein_exact(pa, pb, p=2)
        bound = ta + train + tb
        reports.append(MetricReport(
            w2=w2, w1=w1, tail_a=ta, tail_b=tb, train_k=train, bound=bound,
            satisfied=bool(w2 <= bound * (1 + slack)), K=K,
            band_limited_b=bool(tb < 1e-12),
        ))
    return reports


def capacity_coverage(a: Ensemble, b: Ensemble, K: float,
                      slack: float = 1e-9) -> MetricReport:
    """Capacity/coverage decomposition at resolution K.

    Computes W2(a,b), the two coverage tails, the projected mismatch
    Train_K = W2(P_{<=K}a, P_{<=K}b), and checks
    W2 <= Tail_K(a) + Train_K + Tail_K(b) within the relative slack.
    """
    return capacity_sweep(a, b, [K], slack)[0]


def one_step_defect(rho: Ensemble, reference_map, model_kernel) -> float:
    """W2 between the reference pushforward and the model kernel output.

    Both maps take the Ensemble rho to an Ensemble of its pushed members:
    reference_map deterministically, model_kernel one sample per member.
    """
    value, _ = wasserstein_exact(reference_map(rho), model_kernel(rho), p=2)
    return value
