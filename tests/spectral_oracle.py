"""The full complex (fftn) spectral layout, kept for the tests as an oracle
of the package's half-spectrum (rfftn) layout.  Same convention as
`lawbound.fields`: uhat(k) = (1/n^d) FFT(u)[k] over the trailing d axes."""

import numpy as np

from lawbound import fields as F


def full_spectrum(values, grid):
    """Full-layout coefficients of real fields (..., *grid.shape)."""
    return np.fft.fftn(values, axes=tuple(range(-grid.d, 0)), norm="forward")


def full_synthesize(coef, grid):
    """Real fields of full-layout coefficients (..., *grid.shape)."""
    return np.fft.ifftn(coef, axes=tuple(range(-grid.d, 0)),
                        norm="forward").real


def full_parseval_sq(coef, grid):
    """(2pi)^d sum_k |coef|^2 over the trailing d axes, unweighted."""
    space = tuple(range(-grid.d, 0))
    return grid.volume * (np.abs(coef) ** 2).sum(axis=space)


def full_divergence_norms(coef, grid):
    """L2 norms of i k . uhat of full-layout velocity coefficients
    (..., d, *grid.shape), one per leading index."""
    div = 1j * np.sum(F._modes(grid.d, grid.n) * coef, axis=-grid.d - 1)
    return np.sqrt(full_parseval_sq(div, grid))
