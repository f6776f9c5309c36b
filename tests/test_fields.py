import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lawbound import fields as F
from lawbound.cli import main
from spectral_oracle import (count_full_complex_transforms,
                             full_divergence_norms, full_parseval_sq,
                             full_spectrum, full_synthesize)


def random_field(grid, m, rng):
    return F.GridField(grid, rng.standard_normal((m,) + grid.shape))


# ---------------------------------------------------------------- transforms

def test_forward_single_mode_1d():
    g = F.Grid(1, 16)
    x = g.coordinates()[0]
    f = F.GridField(g, np.cos(3 * x)[None])
    coef = F.forward(f).coef[0]
    assert coef.shape == (9,)  # modes 0..8; -k is the conjugate of k
    assert abs(coef[3] - 0.5) < 1e-14
    mask = np.ones(9, dtype=bool)
    mask[3] = False
    assert np.max(np.abs(coef[mask])) < 1e-14


def test_forward_constant():
    g = F.Grid(2, 16)
    f = F.GridField(g, np.full((1,) + g.shape, 2.5))
    coef = F.forward(f).coef[0]
    assert abs(coef[0, 0] - 2.5) < 1e-13
    coef[0, 0] = 0.0
    assert np.max(np.abs(coef)) < 1e-13


def test_naive_dft_oracle_and_parseval_n16():
    # O(n^2) DFT sum oracle, d=1, n=16
    g = F.Grid(1, 16)
    rng = np.random.default_rng(7)
    f = random_field(g, 1, rng)
    x = g.coordinates()[0]
    coef = F.forward(f).coef[0]
    for k in range(-8, 8):
        naive = np.sum(f.values[0] * np.exp(-1j * k * x)) / g.n
        held = coef[k] if k >= 0 else np.conj(coef[-k])
        assert abs(held - naive) < 1e-12
    # Parseval equals the grid-quadrature L2 norm
    assert abs(F.spec_l2_norm(F.forward(f)) - F.l2_norm(f)) < 1e-10


@pytest.mark.parametrize("d", [1, 2])
def test_round_trip(d):
    g = F.Grid(d, 32)
    rng = np.random.default_rng(d)
    f = random_field(g, 2, rng)
    back = F.inverse(F.forward(f))
    rel = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
    assert rel < 1e-12


def test_bad_grid_rejected():
    with pytest.raises(ValueError):
        F.Grid(1, 24)
    with pytest.raises(ValueError):
        F.Grid(3, 16)
    with pytest.raises(ValueError):
        F.Grid(1, 4)


# ---------------------------------------------------------------- projectors

def test_project_single_modes():
    g = F.Grid(1, 32)
    x = g.coordinates()[0]
    low = F.forward(F.GridField(g, np.cos(3 * x)[None]))
    high = F.forward(F.GridField(g, np.cos(5 * x)[None]))
    assert np.allclose(F.project_leq(low, 4).coef, low.coef)
    assert np.max(np.abs(F.project_leq(high, 4).coef)) < 1e-14


def test_projection_energy_split_mode_enumeration():
    g = F.Grid(2, 16)
    rng = np.random.default_rng(3)
    f = random_field(g, 1, rng)
    Fhat = F.forward(f)
    K = 3
    # enumerate modes directly; half-layout columns 1..n/2-1 also stand for
    # their conjugates
    k1 = np.fft.fftfreq(g.n, 1.0 / g.n)
    low = high = 0.0
    for i in range(g.n):
        for j in range(g.n // 2 + 1):
            e = (1 if j in (0, g.n // 2) else 2) * abs(Fhat.coef[0, i, j]) ** 2
            if np.hypot(k1[i], k1[j]) <= K:
                low += e
            else:
                high += e
    assert abs(F.spec_l2_norm(F.project_leq(Fhat, K)) ** 2 - g.volume * low) < 1e-10
    assert abs(F.spec_l2_norm(F.project_gt(Fhat, K)) ** 2 - g.volume * high) < 1e-10


def test_projector_orthogonality_100_fields():
    g = F.Grid(2, 16)
    rng = np.random.default_rng(11)
    for _ in range(100):
        f = random_field(g, 2, rng)
        Fhat = F.forward(f)
        K = rng.integers(1, 8)
        total = F.spec_l2_norm(Fhat) ** 2
        split = (F.spec_l2_norm(F.project_leq(Fhat, K)) ** 2
                 + F.spec_l2_norm(F.project_gt(Fhat, K)) ** 2)
        assert abs(total - split) <= 1e-10 * max(total, 1.0)


# ------------------------------------------------------------- dyadic blocks

def test_cutoff_partition_every_lattice_mode():
    cuts = F.DEFAULT_CUTOFFS
    for d in (1, 2):
        g = F.Grid(d, 64)
        total = cuts.partition_values(g)
        mag = F._half(F._mode_magnitude(d, g.n), g)
        assert np.max(np.abs(total[mag > 0] - 1.0)) < 1e-12
        assert abs(total.flat[0]) < 1e-12  # k = 0 carries no j >= 0 block


def test_block_partition_reconstructs_field():
    g = F.Grid(2, 32)
    rng = np.random.default_rng(5)
    f = random_field(g, 1, rng)
    Fhat = F.forward(f)
    acc = np.zeros_like(Fhat.coef)
    for j in range(-1, F.DEFAULT_CUTOFFS.max_block_index(g) + 1):
        acc += F.dyadic_block(Fhat, j).coef
    rel = np.abs(acc - Fhat.coef).max() / np.abs(Fhat.coef).max()
    assert rel < 1e-10


def test_block_support_single_mode():
    g = F.Grid(1, 32)
    x = g.coordinates()[0]
    Fhat = F.forward(F.GridField(g, np.cos(3 * x)[None]))
    for j in range(-1, 6):
        e = F.spec_l2_norm(F.dyadic_block(Fhat, j))
        if 2 ** (j - 1) <= 3 <= 2 ** (j + 1) and j >= 0:
            assert e > 0
        else:
            assert e < 1e-14


def test_constant_field_only_low_block():
    g = F.Grid(2, 16)
    Fhat = F.forward(F.GridField(g, np.full((1,) + g.shape, 1.7)))
    assert abs(F.spec_l2_norm(F.dyadic_block(Fhat, -1)) - F.spec_l2_norm(Fhat)) < 1e-13
    for j in range(0, 6):
        assert F.spec_l2_norm(F.dyadic_block(Fhat, j)) < 1e-14


def test_block_energy_overlap_constants():
    g = F.Grid(2, 32)
    cuts = F.DEFAULT_CUTOFFS
    c_star, C_star = cuts.overlap_constants(g)
    assert 0 < c_star <= C_star
    rng = np.random.default_rng(9)
    f = random_field(g, 1, rng)
    Fhat = F.forward(f)
    nonzero = Fhat.coef.copy()
    nonzero[0, 0, 0] = 0.0
    base = g.volume * np.sum(F._half_weight(g.n) * np.abs(nonzero) ** 2)
    total = sum(F.spec_l2_norm(F.dyadic_block(Fhat, j)) ** 2
                for j in range(0, cuts.max_block_index(g) + 1))
    assert c_star * base * (1 - 1e-12) <= total <= C_star * base * (1 + 1e-12)


def test_increment_controls_dyadic_blocks():
    # empirical constant in the block-vs-increment bound is stable across j;
    # increments evaluated through the (independently tested) spectral identity
    g = F.Grid(2, 256)
    c = np.pi / 4.0
    cuts = F.DEFAULT_CUTOFFS
    power = 0.0
    for s in range(32):
        u = F.random_divfree(g, F.spectrum_exponent_for_structure(0.5), 100, seed=s)
        power = power + F._power(F.forward(u).coef, g)
    power /= 32.0
    mag = F._half(F._mode_magnitude(g.d, g.n), g)
    kk = F._half(F._modes(g.d, g.n), g)
    ratios = []
    for j in (1, 2, 3):
        radius = c * 2.0 ** (-j)
        block = g.volume * np.sum(cuts.phi(mag / 2.0**j) ** 2 * power)
        integral = 0.0
        for h in F.lattice_offsets_in_ball(g, radius):
            hphys = h * g.spacing
            phase = np.exp(1j * (kk[0] * hphys[0] + kk[1] * hphys[1]))
            inc_sq = g.volume * np.sum(np.abs(phase - 1.0) ** 2 * power)
            integral += inc_sq / (hphys @ hphys) ** (g.d / 2) * g.cell_volume
        ratios.append(block / integral)
    mean = np.mean(ratios)
    assert np.all(np.abs(np.array(ratios) - mean) <= 0.2 * mean)


# -------------------------------------------------------------- increments

def test_increment_zero_offset():
    g = F.Grid(1, 16)
    rng = np.random.default_rng(2)
    f = random_field(g, 1, rng)
    assert np.max(np.abs(F.increment(f, [0.0]).values)) == 0.0


def test_increment_antipodal_shift():
    g = F.Grid(1, 32)
    x = g.coordinates()[0]
    f = F.GridField(g, np.cos(x)[None])
    df = F.increment(f, [np.pi])
    assert np.allclose(df.values, -2 * np.cos(x)[None], atol=1e-12)
    assert abs(F.l2_norm(df) ** 2 - 4 * F.l2_norm(f) ** 2) < 1e-10


def test_increment_spectral_identity():
    g = F.Grid(2, 32)
    rng = np.random.default_rng(4)
    f = random_field(g, 2, rng)
    Fhat = F.forward(f)
    kk = F._half(F._modes(g.d, g.n), g)
    for h in ([g.spacing, 0.0], [3 * g.spacing, -2 * g.spacing]):
        direct = F.l2_norm(F.increment(f, h)) ** 2
        phase = np.exp(1j * (kk[0] * h[0] + kk[1] * h[1]))
        spectral = g.volume * np.sum(np.abs(phase - 1.0) ** 2
                                     * F._power(Fhat.coef, g))
        assert abs(direct - spectral) <= 1e-8 * max(direct, 1e-30)


def test_increment_rejects_non_lattice_offset():
    g = F.Grid(1, 16)
    f = F.GridField(g, np.zeros((1, 16)))
    with pytest.raises(ValueError):
        F.increment(f, [0.3 * g.spacing])


# ------------------------------------------------------------ Sobolev norms

def test_sobolev_constant():
    g = F.Grid(2, 16)
    f = F.GridField(g, np.full((1,) + g.shape, -3.0))
    for s in (-2.0, -1.0, 0.0, 1.5):
        assert abs(F.sobolev_norm(f, s) - 3.0 * (2 * np.pi)) < 1e-10


def test_sobolev_single_mode_hminus1():
    g = F.Grid(1, 64)
    x = g.coordinates()[0]
    N = 5
    f = F.GridField(g, np.cos(N * x)[None])
    assert abs(F.sobolev_norm(f, -1.0) - F.l2_norm(f) / np.sqrt(1 + N**2)) < 1e-10


def test_hminus1_below_l2():
    g = F.Grid(2, 32)
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = random_field(g, 2, rng)
        assert F.sobolev_norm(f, -1.0) <= F.l2_norm(f) * (1 + 1e-12)


# ---------------------------------------------------------------- Bernstein

def test_grad_sup_single_mode():
    g = F.Grid(1, 64)
    x = g.coordinates()[0]
    K = 4
    f = F.GridField(g, np.cos(K * x)[None])
    assert abs(F.grad_sup(f) - K) < 1e-10  # K * ||f||_inf with ||f||_inf = 1


def spectral_jacobian(f):
    """The full-layout route grad_sup used before the half-layout gradient:
    physical-space partial derivatives (m, d, *shape), one synthesis per
    direction."""
    g = f.grid
    kk = F._deriv_modes(g.d, g.n)
    coef = full_spectrum(f.values, g)
    return np.stack([full_synthesize(1j * kk[a] * coef, g)
                     for a in range(g.d)], axis=1)


@pytest.mark.parametrize("d,m", [(1, 1), (2, 1), (2, 2)])
def test_grad_sup_matches_full_layout_oracle(d, m):
    g = F.Grid(d, 32)
    rng = np.random.default_rng(20 + d + m)
    for _ in range(5):
        f = random_field(g, m, rng)
        jac = spectral_jacobian(f)
        want = float(np.sqrt((jac**2).sum(axis=(0, 1))).max())
        assert abs(F.grad_sup(f) - want) <= 1e-13 * want


def test_bernstein_constant_field_zero():
    g = F.Grid(2, 32)
    f = F.GridField(g, np.ones((1,) + g.shape))
    assert F.bernstein_ratio(f, 4) == 0.0


def test_bernstein_ratio_trend():
    g = F.Grid(2, 128)
    rng = np.random.default_rng(12)
    maxima = {}
    for K in (4, 8, 16, 32):
        vals = []
        for _ in range(50):
            f = random_field(g, 1, rng)
            bl = F.inverse(F.project_leq(F.forward(f), K))
            vals.append(F.bernstein_ratio(bl, K))
        maxima[K] = max(vals)
    for K in (8, 16, 32):
        assert maxima[K] <= maxima[K // 2] * 1.10


def test_bernstein_rejects_unbanded():
    g = F.Grid(1, 32)
    x = g.coordinates()[0]
    f = F.GridField(g, np.cos(9 * x)[None])
    with pytest.raises(ValueError):
        F.bernstein_ratio(f, 4)


# ------------------------------------------------------------------- Leray

def test_leray_kills_gradients():
    g = F.Grid(2, 32)
    rng = np.random.default_rng(8)
    scalar = random_field(g, 1, rng)
    Shat = F.project_leq(F.forward(scalar), g.n // 3)  # keep Nyquist rows empty
    Shat.coef[0, 0, 0] = 0.0
    kk = F._half(F._deriv_modes(g.d, g.n), g)
    grad = F.SpecField(g, np.stack([1j * kk[0] * Shat.coef[0],
                                    1j * kk[1] * Shat.coef[0]]))
    out = F.leray_project(grad)
    assert F.spec_l2_norm(out) < 1e-12 * max(F.spec_l2_norm(grad), 1.0)


def test_leray_idempotent_and_divfree():
    g = F.Grid(2, 32)
    rng = np.random.default_rng(10)
    f = random_field(g, 2, rng)
    once = F.leray_project(F.forward(f))
    twice = F.leray_project(once)
    assert np.max(np.abs(once.coef - twice.coef)) < 1e-13
    assert F.divergence_norm(once) < 1e-12 * F.spec_l2_norm(once)
    df = F.random_divfree(g, 3.0, 10, seed=0)
    Dhat = F.forward(df)
    assert np.max(np.abs(F.leray_project(Dhat).coef - Dhat.coef)) < 1e-14


# --------------------------------------------------------------- synthesis

def test_random_divfree_shells_and_divergence():
    g = F.Grid(2, 32)
    u = F.random_divfree(g, 3.0, 1, seed=42)
    Fhat = F.forward(u)
    mag = F._half(F._mode_magnitude(g.d, g.n), g)
    outside = np.abs(Fhat.coef[:, mag > 1.0]).max()
    assert outside < 1e-14
    assert np.abs(Fhat.coef[:, mag == 1.0]).max() > 0
    assert F.divergence_norm(Fhat) < 1e-12
    # deterministic for a fixed seed
    v = F.random_divfree(g, 3.0, 1, seed=42)
    assert np.array_equal(u.values, v.values)


def test_random_divfree_rejects_1d():
    with pytest.raises(ValueError):
        F.random_divfree(F.Grid(1, 16), 3.0, 4, seed=0)


# ------------------------------------------------- half-spectrum layout
# The full-complex routes that the half-spectrum (rfftn) layout replaced
# stay here as oracles.

def full_random_divfree(grid, spectrum_exponent, k_max, seed):
    """The full-complex synthesis: fftn of the white noise, ifftn back."""
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(grid.shape)
    psi_hat = np.fft.fftn(white) / (grid.n**grid.d)
    mag = F._mode_magnitude(grid.d, grid.n)
    amp = np.zeros_like(mag)
    band = (mag >= 1.0) & (mag <= k_max)
    amp[band] = mag[band] ** (-(spectrum_exponent + 2.0) / 2.0)
    psi_hat = psi_hat * amp
    kk = F._deriv_modes(grid.d, grid.n)
    u_hat = np.stack([-1j * kk[1] * psi_hat, 1j * kk[0] * psi_hat])
    return u_hat, full_synthesize(u_hat, grid)


def rel_max(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("n, p, k_max", [(16, 3.0, 7), (64, 3.0, 20),
                                         (256, 3.0, 127)])
def test_random_divfree_matches_full_complex_oracle(n, p, k_max):
    g = F.Grid(2, n)
    full_coef, full = full_random_divfree(g, p, k_max, seed=n)
    u = F.random_divfree(g, p, k_max, seed=n)
    assert rel_max(u.values, full) <= 1e-13
    coef = F._divfree_coef(g, p, k_max, seed=n)
    assert coef.shape == (2, n, n // 2 + 1)
    assert rel_max(coef, F._half(full_coef, g)) <= 1e-13


def test_half_layout_helpers():
    g = F.Grid(2, 16)
    assert F._half(F._modes(2, 16), g).shape == (2, 16, 9)
    # views of the cached full-layout arrays, no copies
    assert F._half(F._mode_magnitude(2, 16), g).base is not None
    w = F._half_weight(16)
    assert w.shape == (9,) and w[0] == w[-1] == 1.0 and np.all(w[1:-1] == 2.0)
    assert np.all(F._power(np.ones((3, 16, 9), complex), g) == w)


@pytest.mark.parametrize("d", [1, 2])
def test_parseval_sums_agree_across_layouts(d):
    g = F.Grid(d, 32)
    rng = np.random.default_rng(20 + d)
    values = rng.standard_normal((3, 2) + g.shape)
    full = full_parseval_sq(full_spectrum(values, g), g)
    half = F._parseval_sq(F._half_spectrum(values, g), g)
    grid_sq = g.cell_volume * (values**2).sum(axis=tuple(range(2, 2 + d)))
    assert np.all(np.abs(half - full) <= 1e-13 * full)
    assert np.all(np.abs(half - grid_sq) <= 1e-13 * grid_sq)
    back = F._half_synthesize(F._half_spectrum(values, g), g)
    assert rel_max(back, values) <= 1e-14


def test_divergence_norms_half_matches_full():
    g = F.Grid(2, 32)
    rng = np.random.default_rng(23)
    # On the Nyquist rows the full layout's multiplier -n/2 is not odd, so
    # the oracle agrees on fields without Nyquist content: every field the
    # package differentiates (synthesis and the dealiased solver).
    values = F._half_synthesize(F._leq_coef(
        F._half_spectrum(rng.standard_normal((4, 2) + g.shape), g), g,
        g.n // 2 - 1), g)
    full = full_divergence_norms(full_spectrum(values, g), g)
    half = F._divergence_norms(F._half_spectrum(values, g), g)
    assert np.all(np.abs(half - full) <= 1e-13 * full)
    # a divergence-free ensemble reads roundoff in both layouts
    u = np.stack([F.random_divfree(g, 3.0, 10, seed=s).values
                  for s in range(4)])
    norm = np.sqrt(g.cell_volume * (u**2).sum())
    full = full_divergence_norms(full_spectrum(u, g), g)
    half = F._divergence_norms(F._half_spectrum(u, g), g)
    assert np.all(np.abs(half - full) <= 1e-15 * norm)


def test_sobolev_norm_matches_full_complex_oracle():
    g = F.Grid(2, 32)
    rng = np.random.default_rng(24)
    f = random_field(g, 2, rng)
    mag2 = F._mode_magnitude(g.d, g.n) ** 2
    power = np.abs(full_spectrum(f.values, g)) ** 2
    for s in (-1.0, 0.5, 2.0):
        oracle = np.sqrt(g.volume * np.sum((1.0 + mag2) ** s * power))
        assert abs(F.sobolev_norm(f, s) - oracle) <= 1e-13 * oracle


# ------------------------------------------------------ one spectral layout

def full_leray(coef, grid):
    """The full-layout Leray projection (I - k k^T/|k|^2) uhat."""
    kk = F._modes(grid.d, grid.n)
    mag2 = (kk**2).sum(axis=0)
    kdotu = sum(kk[a] * coef[a] for a in range(grid.d))
    return coef - kk * (kdotu / np.where(mag2 == 0, 1.0, mag2))[None]


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), log2n=st.integers(3, 6),
       m=st.integers(1, 2), exponent=st.integers(-150, 150),
       K=st.floats(1.0, 48.0), seed=st.integers(0, 2**32 - 1))
def test_half_layout_specfield_matches_full_complex_oracle(d, log2n, m,
                                                           exponent, K, seed):
    g = F.Grid(d, 2**log2n)
    scale = 10.0**exponent
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((m,) + g.shape)
    values[0] += (-1.0) ** np.arange(g.n)  # Nyquist content on the last axis
    values *= scale
    f = F.GridField(g, values)
    full = full_spectrum(values, g)
    Fh = F.forward(f)
    assert Fh.coef.shape == (m,) + g.shape[:-1] + (g.n // 2 + 1,)
    assert rel_max(Fh.coef, F._half(full, g)) <= 1e-13
    # round trip and Parseval, against the grid and the oracle's plain sum
    assert rel_max(F.inverse(Fh).values, values) <= 1e-13
    total = F.spec_l2_norm(Fh)
    assert abs(total - F.l2_norm(f)) <= 1e-13 * total
    assert abs(total - np.sqrt(full_parseval_sq(full, g).sum())) <= 1e-13 * total
    # projector split, each part against the oracle's masked sum
    low, high = F.project_leq(Fh, K), F.project_gt(Fh, K)
    mask = F._mode_magnitude(d, g.n) <= K
    for part, keep in ((low, mask), (high, ~mask)):
        want = np.sqrt(full_parseval_sq(np.where(keep, full, 0.0), g).sum())
        assert abs(F.spec_l2_norm(part) - want) <= 1e-13 * total
    split = F.spec_l2_norm(low) ** 2 + F.spec_l2_norm(high) ** 2
    assert abs(split - total**2) <= 1e-12 * total**2
    # dyadic partition
    blocks = sum(F.dyadic_block(Fh, j).coef
                 for j in range(-1, F.DEFAULT_CUTOFFS.max_block_index(g) + 1))
    assert rel_max(blocks, Fh.coef) <= 1e-12
    if d == 2 and m == 2:
        once = F.leray_project(Fh)
        assert rel_max(once.coef, F._half(full_leray(full, g), g)) <= 1e-13
        twice = F.leray_project(once)
        assert np.abs(twice.coef - once.coef).max() \
            <= 1e-13 * np.abs(once.coef).max()
        assert F.divergence_norm(once) <= 1e-13 * F.spec_l2_norm(once)


def test_no_full_complex_transform_in_battery_or_certify(tmp_path,
                                                          monkeypatch,
                                                          quick_battery):
    # every spectrum in the package has the half layout: neither the quick
    # battery nor a certification run calls a full complex n-d transform
    code, _, battery_calls = quick_battery
    assert code == 0 and battery_calls == []
    calls = count_full_complex_transforms(monkeypatch)
    assert main(["certify", "--seed", "11",
                 "--out", str(tmp_path / "certify")]) == 0
    assert calls == []
