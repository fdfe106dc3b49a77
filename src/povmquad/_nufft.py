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
band of grid rows only. The grid holds only the rows (theta) between the
first and the last sorted stencil, padded rows past either edge folded
onto the rows they wrap to: for polar angles in [0, pi] that is n / 2 +
WIDTH of the n rows (FINUFFT spreads only where the kernel lands). Its real
FFT over phi runs in blocks of rows straight into the (n, l_max + 1)
spectrum that m <= l_max needs, zero on rows no stencil touches; the FFT
over theta then runs in blocks of columns straight into H. Each sum keeps
the operations and order of a transform of the whole padded grid, so H is
that transform's to the bit.
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
    """An upper bound on the bytes type1_sums holds at once beyond 40 per
    point (the sorted copies of its inputs): the whole padded real grid, its
    real FFT and one stencil block, more than the band of rows, the
    (n, l_max + 1) spectrum and H it holds."""
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
    # rows (theta) lo..hi, the band the first and last sorted stencils bound
    # (none without points), folded after spreading; columns (phi) wrap as
    # they are spread
    lo, hi = 0, -1
    if x.size:
        lo = int(_stencil(x[:1], n)[0][0])
        hi = int(_stencil(x[-1:], n)[0][0]) + WIDTH - 1
    grid = np.zeros((hi - lo + 1, n))
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
        grid[top - lo : top - lo + band] += np.bincount(
            flat.ravel(), values.ravel(), minlength=band * n
        ).reshape(band, n)
    # rows r < 0 and r >= n wrap onto r + n and r - n: added to that row
    # where the band holds it (the row first, then the wrapped one), else
    # transformed in its place
    below = max(0, min(0, hi + 1 - n) - lo)  # rows lo..lo + below - 1
    grid[n : n + below] += grid[:below]
    first = max(0, -lo)  # band index of row 0
    above = max(0, hi + 1 - n - max(lo, 0))  # the last `above` rows
    grid[first : first + above] += grid[first + n :]
    # the 2-D real FFT in two passes, each in blocks: over phi into the
    # (n, l_max + 1) spectrum, band rows that are grid rows only; then over
    # theta, after the grid is freed, a block of columns at a time
    spectrum = np.zeros((n, l_max + 1), dtype=complex)
    step = max(1, _SPREAD_ELEMS // n)
    for b0 in range(below, grid.shape[0] - above, step):
        b1 = min(grid.shape[0] - above, b0 + step)
        spectrum[np.arange(lo + b0, lo + b1) % n] = np.fft.rfft(grid[b0:b1], axis=1)[:, : l_max + 1]
    del grid
    p = np.arange(-l_max, l_max + 1)
    take = p % n
    h = np.empty((p.size, l_max + 1), dtype=complex)
    step = max(1, _SPREAD_ELEMS // (4 * n))
    for c0 in range(0, l_max + 1, step):
        c1 = min(l_max + 1, c0 + step)
        np.conjugate(np.fft.fft(spectrum[:, c0:c1], axis=0)[take], out=h[:, c0:c1])
    del spectrum
    h /= _kernel_transform(p, n)[:, None] * _kernel_transform(np.arange(l_max + 1), n)
    return h
