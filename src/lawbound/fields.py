"""Spectral algebra on periodic grids.

Everything here lives on the flat torus [0, 2pi)^d sampled on a uniform
lattice with n points per dimension.  Transforms use the convention

    u(x) = sum_k uhat(k) exp(i k.x),        uhat(k) = (1/n^d) * FFT(u)[k],

so Parseval reads ||u||_2^2 = (2pi)^d * sum_k |uhat(k)|^2 and the grid
quadrature L2 norm is ||u||_2^2 = (2pi/n)^d * sum_x |u(x)|^2.

Every spectrum, of a single field (`SpecField`, `forward`, `inverse`) or
of an ensemble, carries the half layout of `numpy.fft.rfftn` (last axis
n//2+1), where every Parseval sum weights each coefficient by
`_half_weight`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "GridField",
    "SpecField",
    "DyadicCutoffs",
    "DEFAULT_CUTOFFS",
    "forward",
    "inverse",
    "l2_norm",
    "inner",
    "spec_l2_norm",
    "project_leq",
    "project_gt",
    "dyadic_block",
    "increment",
    "lattice_offsets_in_ball",
    "sobolev_norm",
    "grad_sup",
    "bernstein_ratio",
    "leray_project",
    "divergence_norm",
    "random_divfree",
    "random_divfree_batch",
    "spectrum_exponent_for_structure",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on the d-torus with side length 2pi."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.n < 8 or self.n & (self.n - 1) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.d

    @property
    def volume(self) -> float:
        return (2.0 * np.pi) ** self.d

    def coordinates(self):
        """Arrays of physical coordinates, shape (d, *shape)."""
        x1 = np.arange(self.n) * self.spacing
        return np.stack(np.meshgrid(*[x1] * self.d, indexing="ij"))


@lru_cache(maxsize=None)
def _modes(d: int, n: int):
    """Integer wavevectors, shape (d, *shape), numpy FFT layout."""
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    kk = np.stack(np.meshgrid(*[k1] * d, indexing="ij"))
    kk.setflags(write=False)
    return kk


@lru_cache(maxsize=None)
def _mode_magnitude(d: int, n: int):
    mag = np.sqrt((_modes(d, n) ** 2).sum(axis=0))
    mag.setflags(write=False)
    return mag


@lru_cache(maxsize=None)
def _deriv_modes(d: int, n: int):
    """Wavevectors for odd-order derivatives: Nyquist rows zeroed so that
    ik-multipliers preserve Hermitian symmetry on even grids."""
    kk = np.array(_modes(d, n))
    for axis in range(d):
        sl = [slice(None)] * (d + 1)
        sl[0] = axis
        sl[axis + 1] = n // 2
        kk[tuple(sl)] = 0.0
    kk.setflags(write=False)
    return kk


@dataclass
class GridField:
    """Real field sampled on a periodic lattice; values shape (m, *grid.shape)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.values.shape[0],) + self.grid.shape
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} incompatible with grid {self.grid}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "GridField":
        return GridField(self.grid, self.values.copy())


@dataclass
class SpecField:
    """Fourier coefficients of a real field, half layout: coef has shape
    (m, *grid.shape[:-1], n//2+1)."""

    grid: Grid
    coef: np.ndarray

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=np.complex128)
        expected = ((self.coef.shape[0],) + self.grid.shape[:-1]
                    + (self.grid.n // 2 + 1,))
        if self.coef.shape != expected:
            raise ValueError(
                f"coef shape {self.coef.shape} incompatible with grid {self.grid}"
            )

    @property
    def m(self) -> int:
        return self.coef.shape[0]

    def copy(self) -> "SpecField":
        return SpecField(self.grid, self.coef.copy())


# The array-level transforms act on the trailing d (spatial) axes, so any
# leading component or member axes ride along in one call.

def _half_spectrum(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-layout coefficients of real fields, trailing d axes."""
    axes = tuple(range(-grid.d, 0))
    return np.fft.rfftn(values, axes=axes, norm="forward")


def _half_synthesize(coef: np.ndarray, grid: Grid) -> np.ndarray:
    axes = tuple(range(-grid.d, 0))
    return np.fft.irfftn(coef, s=grid.shape, axes=axes, norm="forward")


def _half(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-layout view of a full-layout mode array (last axis n//2+1),
    the one place where the layout is decided.

    Column n/2 holds the wavenumber -n/2 of the full layout; magnitudes,
    cosines, k k^T, divergence norms and the Nyquist-zeroed derivative
    modes do not see the sign."""
    return arr[..., : grid.n // 2 + 1]


@lru_cache(maxsize=None)
def _half_weight(n: int) -> np.ndarray:
    """Parseval weight of the half layout along its last axis: 1 on the
    self-conjugate columns 0 and n/2, 2 on the others."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    w.setflags(write=False)
    return w


def _power(coef: np.ndarray, grid: Grid) -> np.ndarray:
    """Parseval-weighted |coef|^2 of half-layout coefficients."""
    return _half_weight(grid.n) * (coef.real**2 + coef.imag**2)


def _parseval_sq(coef: np.ndarray, grid: Grid) -> np.ndarray:
    """Squared L2 norms (2pi)^d sum_k |coef|^2 over the trailing d axes."""
    space = tuple(range(-grid.d, 0))
    return grid.volume * _power(coef, grid).sum(axis=space)


def _leq_coef(coef: np.ndarray, grid: Grid, K: float) -> np.ndarray:
    """P_{<=K} of half-layout coefficients."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    mag = _half(_mode_magnitude(grid.d, grid.n), grid)
    return np.where(mag <= K, coef, 0.0)


def forward(f: GridField) -> SpecField:
    return SpecField(f.grid, _half_spectrum(f.values, f.grid))


def inverse(F: SpecField) -> GridField:
    return GridField(F.grid, _half_synthesize(F.coef, F.grid))


def _sq_norms(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid-quadrature squared L2 norms cell_volume * sum |u|^2 over the
    trailing component and d spatial axes, one per leading index."""
    axes = tuple(range(values.ndim - grid.d - 1, values.ndim))
    return grid.cell_volume * (values**2).sum(axis=axes)


def l2_norm(f: GridField) -> float:
    return float(np.sqrt(f.grid.cell_volume * np.sum(f.values**2)))


def inner(f: GridField, g: GridField) -> float:
    if f.grid != g.grid:
        raise ValueError("inner product requires matching grids")
    return float(f.grid.cell_volume * np.sum(f.values * g.values))


def spec_l2_norm(F: SpecField) -> float:
    return float(np.sqrt(F.grid.volume * np.sum(_power(F.coef, F.grid))))


def project_leq(F: SpecField, K: float) -> SpecField:
    """Sharp Fourier projector onto Euclidean modes |k| <= K."""
    return SpecField(F.grid, _leq_coef(F.coef, F.grid, K))


def project_gt(F: SpecField, K: float) -> SpecField:
    """Complement of project_leq: modes with |k| > K."""
    return SpecField(F.grid, F.coef - _leq_coef(F.coef, F.grid, K))


def _smoothstep5(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


class DyadicCutoffs:
    """Smooth radial Littlewood-Paley cutoffs.

    chi is 1 on |xi|<=1, 0 on |xi|>=2, quintic-smoothstep in between (C^2 at
    the endpoints); phi(xi) = chi(xi) - chi(2 xi) is supported in
    {1/2 <= |xi| <= 2} and sums to 1 over dyadic dilations on every nonzero
    integer mode.
    """

    def chi(self, xi):
        xi = np.abs(np.asarray(xi, dtype=np.float64))
        return 1.0 - _smoothstep5(xi - 1.0)

    def phi(self, xi):
        xi = np.asarray(xi, dtype=np.float64)
        return self.chi(xi) - self.chi(2.0 * xi)

    def max_block_index(self, grid: Grid) -> int:
        """Largest j whose block can touch a lattice mode of the grid."""
        kmax = np.sqrt(grid.d) * (grid.n / 2)
        # support of phi(2^-j .) is 2^(j-1) <= |k| <= 2^(j+1)
        return int(np.floor(np.log2(kmax))) + 1

    def block_multiplier(self, grid: Grid, j: int) -> np.ndarray:
        mag = _half(_mode_magnitude(grid.d, grid.n), grid)
        if j == -1:
            # low block: remainder of the dyadic partition; on the integer
            # lattice this is exactly the mean mode
            return self.chi(2.0 * mag)
        if j < -1:
            raise ValueError(f"block index must be >= -1, got {j}")
        return self.phi(mag / 2.0**j)

    def _block_sum(self, grid: Grid, power: int) -> np.ndarray:
        """sum_{j>=0} phi(2^-j k)^power on every half-layout lattice mode."""
        return sum(self.block_multiplier(grid, j) ** power
                   for j in range(self.max_block_index(grid) + 1))

    def partition_values(self, grid: Grid) -> np.ndarray:
        """sum_{j>=0} phi(2^-j k) on every half-layout lattice mode (1
        except at k=0)."""
        return self._block_sum(grid, 1)

    def overlap_constants(self, grid: Grid) -> tuple:
        """(c*, C*): min and max of sum_j phi(2^-j k)^2 over lattice k != 0."""
        mag = _half(_mode_magnitude(grid.d, grid.n), grid)
        nz = self._block_sum(grid, 2)[mag > 0]
        return float(nz.min()), float(nz.max())


DEFAULT_CUTOFFS = DyadicCutoffs()


def dyadic_block(F: SpecField, j: int, cutoffs: DyadicCutoffs = DEFAULT_CUTOFFS) -> SpecField:
    mult = cutoffs.block_multiplier(F.grid, j)
    return SpecField(F.grid, F.coef * mult)


def lattice_offsets_in_ball(grid: Grid, r: float) -> np.ndarray:
    """Integer min-image offsets h != 0 with |h * spacing| <= r, shape (count, d)."""
    if r < grid.spacing:
        raise ValueError(
            f"radius {r} below lattice spacing {grid.spacing}: empty offset set"
        )
    jmax = int(np.floor(r / grid.spacing))
    half = grid.n // 2
    lo, hi = -half + 1, min(jmax, half)
    rng = np.arange(lo, hi + 1)
    rng = rng[np.abs(rng) <= jmax]
    offs = np.stack([a.ravel() for a in
                     np.meshgrid(*[rng] * grid.d, indexing="ij")], axis=1)
    norms = np.sqrt((offs**2).sum(axis=1)) * grid.spacing
    keep = (norms > 0) & (norms <= r)
    return offs[keep]


def increment(f: GridField, h) -> GridField:
    """delta_h u(x) = u(x + h) - u(x) for a lattice offset h (physical units)."""
    g = f.grid
    h = np.atleast_1d(np.asarray(h, dtype=np.float64))
    if h.shape != (g.d,):
        raise ValueError(f"offset must have {g.d} components")
    steps = h / g.spacing
    rounded = np.rint(steps)
    if np.max(np.abs(steps - rounded)) > 1e-9:
        raise ValueError(f"offset {h} is not a lattice offset for spacing {g.spacing}")
    shifted = f.values
    for axis, s in enumerate(rounded.astype(int)):
        # u(x + h): sample index i picks up value at i + s
        shifted = np.roll(shifted, -s, axis=axis + 1)
    return GridField(g, shifted - f.values)


def sobolev_norm(f: GridField, s: float) -> float:
    """((2pi)^d sum (1+|k|^2)^s |uhat(k)|^2)^(1/2); s=-1 gives the H^-1 norm."""
    g = f.grid
    coef = _half_spectrum(f.values, g)
    mag2 = _half(_mode_magnitude(g.d, g.n), g) ** 2
    return float(np.sqrt(g.volume * np.sum((1.0 + mag2) ** s
                                           * _power(coef, g))))


def _gradient(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Physical partial derivatives (..., m, d, *shape) of real fields
    (..., m, *shape): one half spectrum and one stacked synthesis, entry
    [c, a] being the synthesis of i k_a times the spectrum of component c."""
    ik = 1j * _half(_deriv_modes(grid.d, grid.n), grid)
    coef = np.expand_dims(_half_spectrum(values, grid), -grid.d - 1)
    return _half_synthesize(coef * ik, grid)


def grad_sup(f: GridField) -> float:
    """sup_x of the Frobenius norm of the Jacobian, evaluated on the lattice."""
    jac = _gradient(f.values, f.grid)
    pointwise = np.sqrt((jac**2).sum(axis=(0, 1)))
    return float(pointwise.max())


def bernstein_ratio(f: GridField, K: float) -> float:
    """||grad f||_inf / (K^(1+d/2) ||f||_2) for a field band-limited to K."""
    F = forward(f)
    high = project_gt(F, K)
    total = spec_l2_norm(F)
    if total == 0.0:
        return 0.0
    if spec_l2_norm(high) > 1e-10 * total:
        raise ValueError(f"field is not band-limited to K={K}")
    denom = K ** (1.0 + f.grid.d / 2.0) * l2_norm(f)
    return grad_sup(f) / denom


def leray_project(F: SpecField) -> SpecField:
    """Remove the gradient part: uhat(k) <- (I - k k^T/|k|^2) uhat(k), k != 0."""
    g = F.grid
    if F.m != g.d:
        raise ValueError(f"Leray projection needs m == d, got m={F.m}, d={g.d}")
    kk = _half(_modes(g.d, g.n), g)
    mag2 = (kk**2).sum(axis=0)
    safe = np.where(mag2 == 0, 1.0, mag2)
    kdotu = sum(kk[a] * F.coef[a] for a in range(g.d))
    coef = F.coef - kk * (kdotu / safe)[None]
    # k = 0 column untouched by construction (kk = 0 there)
    return SpecField(g, coef)


def _divergence_norms(coef: np.ndarray, grid: Grid) -> np.ndarray:
    """L2 norms of the spectral divergence of half-layout velocity
    coefficients (..., d, *shape[:-1], n//2+1), one per leading index."""
    kk = _half(_modes(grid.d, grid.n), grid)
    div = 1j * np.sum(kk * coef, axis=-grid.d - 1)
    return np.sqrt(_parseval_sq(div, grid))


def divergence_norm(F: SpecField) -> float:
    """L2 norm of the spectral divergence of a velocity field."""
    if F.m != F.grid.d:
        raise ValueError("divergence needs m == d")
    return float(_divergence_norms(F.coef, F.grid))


def spectrum_exponent_for_structure(s: float) -> float:
    """Velocity coefficient decay exponent giving structure exponent s in 2D."""
    return 2.0 * s + 2.0


def _divfree_coef(grid: Grid, spectrum_exponent: float, k_max: int,
                  seed) -> np.ndarray:
    """Half-layout velocity coefficients (2, n, n//2+1) of `random_divfree`."""
    if grid.d != 2:
        raise ValueError("divergence-free synthesis requires d=2 "
                         "(1D divergence-free fields are constants)")
    if not 1 <= k_max <= grid.n // 2 - 1:
        raise ValueError(f"k_max must be in [1, n/2-1], got {k_max}")
    rng = np.random.default_rng(seed)
    psi_hat = _half_spectrum(rng.standard_normal(grid.shape), grid)
    mag = _half(_mode_magnitude(grid.d, grid.n), grid)
    amp = np.zeros_like(mag)
    band = (mag >= 1.0) & (mag <= k_max)
    amp[band] = mag[band] ** (-(spectrum_exponent + 2.0) / 2.0)
    psi_hat *= amp
    kx, ky = _half(_deriv_modes(grid.d, grid.n), grid)
    # u = (-d_y psi, d_x psi)
    return np.stack([-1j * ky * psi_hat, 1j * kx * psi_hat])


def random_divfree_batch(grid: Grid, spectrum_exponent: float, k_max: int,
                         seeds) -> np.ndarray:
    """Velocities (N, 2, n, n) of `random_divfree`, one per entry of `seeds`.

    Each seed's coefficients are drawn in order (a Generator listed twice
    draws twice) and all are synthesized by one irfftn; member i equals
    random_divfree(grid, spectrum_exponent, k_max, seeds[i]) bit for bit."""
    coef = np.stack([_divfree_coef(grid, spectrum_exponent, k_max, seed)
                     for seed in seeds])
    return _half_synthesize(coef, grid)


def random_divfree(grid: Grid, spectrum_exponent: float, k_max: int, seed) -> GridField:
    """Divergence-free Gaussian field with E|uhat(k)|^2 ~ |k|^(-p), 1<=|k|<=k_max.

    Built as the perpendicular gradient of a Gaussian stream function with
    E|psihat(k)|^2 ~ |k|^(-p-2).  Deterministic for a fixed seed.  The
    batch of one of `random_divfree_batch`.
    """
    return GridField(grid, random_divfree_batch(grid, spectrum_exponent,
                                                k_max, [seed])[0])
