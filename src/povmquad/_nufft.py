"""Type-1 non-uniform FFT on the 2-torus, for the double-Fourier-sphere sums.

type1_sums returns H[p, m] = sum_k w_k e^{i (p theta_k + m phi_k)} for
|p| <= L and 0 <= m <= L. Each point is spread onto an oversampled n x n
periodic grid (n >= SIGMA (2L + 1)) with the exponential-of-semicircle
kernel exp(BETA (sqrt(1 - z^2) - 1)), |z| <= 1, WIDTH grid points wide
(Barnett, Magland & af Klinteberg 2019, SIAM J. Sci. Comput., FINUFFT); a
real 2-D FFT of the grid gives every m >= 0, and dividing by the kernel's
Fourier transform at p and m, a Gauss-Legendre integral, undoes the
spreading. With WIDTH = 16 and SIGMA = 2 each point's term is off by about
1e-14 |w_k| (against mpmath: the kernel's own aliasing error is 1.6e-14
relative, and dividing by its transform near |p| = L amplifies rounding
eightfold per axis); on spread-out sets the errors average to about
1e-15 sum |w_k|. These are measured figures, not a bound.

Points are spread in blocks of at most _SPREAD_ELEMS stencil values (1 MB
of indices, 1 MB of values), sorted by theta so each block adds into a
band of grid rows only.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .orthopoly import gauss_legendre_rule

WIDTH = 16
SIGMA = 2
BETA = 2.3 * WIDTH
_HALF = WIDTH // 2
# Stencil values (WIDTH^2 per point) formed at once while spreading.
_SPREAD_ELEMS = 1 << 17
# Gauss-Legendre nodes for the kernel's Fourier transform (64 left an error
# floor of 2e-14 relative).
_TRANSFORM_NODES = 128


def grid_size(l_max: int) -> int:
    """Even 5-smooth grid side n >= SIGMA (2 l_max + 1) and >= 2 WIDTH."""
    n = max(SIGMA * (2 * l_max + 1), 2 * WIDTH)
    while True:
        m = n
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1 and n % 2 == 0:
            return n
        n += 1


def work_bytes(l_max: int) -> int:
    """Bytes type1_sums holds at once: padded real grid, its real FFT, one stencil block."""
    n = grid_size(l_max)
    return 8 * (n + WIDTH) * n + 16 * n * (n // 2 + 1) + 3 * 8 * _SPREAD_ELEMS


def _kernel(z):
    # BETA (sqrt(1 - z^2) - 1) without the cancellation near z = 0, which
    # would cost BETA rounding units in every large kernel value
    z2 = z * z
    return np.exp(-BETA * z2 / (1.0 + np.sqrt(np.maximum(1.0 - z2, 0.0))))


@functools.cache
def _transform_rule():
    rule = gauss_legendre_rule(_TRANSFORM_NODES)
    return rule.nodes, rule.weights * _kernel(rule.nodes)


def _kernel_transform(k: np.ndarray, n: int) -> np.ndarray:
    """Fourier transform of the grid-scaled kernel at integer frequencies k."""
    z, wz = _transform_rule()
    return _HALF * (np.cos(np.outer(k, z) * (math.pi * WIDTH / n)) @ wz)


def _stencil(x: np.ndarray, n: int):
    """First grid index and the WIDTH kernel values of each x in [0, 2 pi].

    x is scaled through x / pi, so the float pi lands exactly on grid point
    n / 2: a pole read as theta = arccos(-1) is the pole, as it is for the
    ring kernel, where cos(theta) is exactly -1.
    """
    u = (x / math.pi) * (0.5 * n)
    first = np.ceil(u - _HALF)
    z = (first[:, None] + np.arange(WIDTH) - u[:, None]) * (1.0 / _HALF)
    return first.astype(np.int64), _kernel(z)


def type1_sums(l_max: int, theta, phi, weights) -> np.ndarray:
    """H[p + l_max, m] = sum_k w_k e^{i (p theta_k + m phi_k)}, |p| <= l_max, 0 <= m <= l_max."""
    n = grid_size(l_max)
    x = np.mod(theta, 2.0 * math.pi)
    order = np.argsort(x, kind="stable")
    x = x[order]
    y = np.mod(np.asarray(phi, dtype=float)[order], 2.0 * math.pi)
    w = np.asarray(weights, dtype=float)[order]
    # rows (theta) padded by _HALF on each side and folded after spreading;
    # columns (phi) wrap as they are spread
    grid = np.zeros((n + WIDTH, n))
    offsets = np.arange(WIDTH)
    block = max(1, _SPREAD_ELEMS // WIDTH**2)
    for k0 in range(0, x.size, block):
        k1 = min(x.size, k0 + block)
        row, row_kernel = _stencil(x[k0:k1], n)
        col, col_kernel = _stencil(y[k0:k1], n)
        top = int(row[0])  # rows ascend with the sorted theta
        band = int(row[-1]) + WIDTH - top
        flat = ((row - top)[:, None] + offsets)[:, :, None] * n + (
            (col[:, None] + offsets) % n
        )[:, None, :]
        values = (w[k0:k1, None] * row_kernel)[:, :, None] * col_kernel[:, None, :]
        grid[top + _HALF : top + _HALF + band] += np.bincount(
            flat.ravel(), values.ravel(), minlength=band * n
        ).reshape(band, n)
    grid[n : n + _HALF] += grid[:_HALF]
    grid[_HALF:WIDTH] += grid[n + _HALF :]
    # the 2-D real FFT in two passes, so that the pass over theta runs on
    # the l_max + 1 columns m needs, after the grid is freed
    spectrum = np.fft.rfft(grid[_HALF : _HALF + n], axis=1)[:, : l_max + 1]
    del grid
    p = np.arange(-l_max, l_max + 1)
    h = np.conjugate(np.fft.fft(spectrum, axis=0)[p % n])
    h /= _kernel_transform(p, n)[:, None] * _kernel_transform(np.arange(l_max + 1), n)
    return h
