"""Orthonormal complex spherical harmonics.

Convention: solid-angle normalization with the Condon-Shortley phase,

    integral over 4*pi steradians of Y_l^m conj(Y_l'^m') = delta delta,
    Y_0^0 = 1/sqrt(4*pi),
    Y_l^{-m} = (-1)^m conj(Y_l^m),

matching the common physics tabulations (and scipy's sph_harm_y). All
exactness checks downstream test the vanishing of weighted sums of these
values, so they are insensitive to the phase choice; the normalization is
what ties quadrature weights to POVM coefficients.

`ylm` runs one associated-Legendre column per order m, the independent
reference the tests hold the ring kernel to. Everything else goes through
`weighted_harmonic_sums`, which separates variables: azimuthal sums per
latitude ring first, then one recurrence in l for all m at once over the
R distinct latitudes, O(R l_max^2 + n l_max); `harmonic_row` is its
one-point, unit-weight case.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .orthopoly import _norm_coeffs, assoc_legendre_column
from .sphere import Direction

# Legendre values per working array of weighted_harmonic_sums: (l_max + 1)
# rows times the rings of one block; small enough to stay in cache.
_BLOCK_ELEMS = 1 << 16


class HarmonicIndex(NamedTuple):
    """Degree/order pair (l, m) with |m| <= l."""

    l: int
    m: int


def _check_index(l: int, m: int):
    if l < 0 or abs(m) > l:
        raise DomainError(f"invalid harmonic index l={l}, m={m}")


def ylm(idx, d: Direction) -> complex:
    """Value of the orthonormal spherical harmonic Y_l^m at a direction.

    `idx` is a :class:`HarmonicIndex` or plain (l, m) pair.
    """
    l, m = idx
    _check_index(l, m)
    am = abs(m)
    p = float(assoc_legendre_column(l, am, math.cos(d.theta))[-1])
    if m >= 0:
        return (-1.0) ** m * p * complex(math.cos(m * d.phi), math.sin(m * d.phi))
    # Y_l^{-|m|} = (-1)^|m| conj(Y_l^|m|)
    return p * complex(math.cos(m * d.phi), math.sin(m * d.phi))


def harmonic_row(l_max: int, d: Direction) -> list[np.ndarray]:
    """All Y_l^m(d) for l = 0..l_max in one O(l_max^2) recurrence pass.

    Returns a ragged list where row l is a complex array of length 2l + 1
    indexed by m + l (m runs from -l to l). The m >= 0 half is
    weighted_harmonic_sums of the single point d with weight 1; the rest
    is the mirror Y_l^{-m} = (-1)^m conj(Y_l^m).
    """
    if l_max < 0:
        raise DomainError(f"l_max must be >= 0, got {l_max}")
    y = weighted_harmonic_sums(l_max, [d.theta], [d.phi], [1.0])
    mirror = y.conj()
    mirror[:, 1::2] *= -1.0
    return [np.concatenate((mirror[l, l:0:-1], y[l, : l + 1])) for l in range(l_max + 1)]


def weighted_harmonic_sums(l_max: int, theta, phi, weights) -> np.ndarray:
    """Sums S[l, m] = sum_k w_k Y_l^m(theta_k, phi_k) for 0 <= m <= l <= l_max.

    The certification workhorse. Points are grouped into latitude rings of
    exactly equal cos(theta) and their weighted azimuthal phases reduced per
    ring, W[m, r] = sum_{k in r} w_k e^{i m phi_k}; one normalized
    associated-Legendre recurrence then steps l once for all orders m at
    once over the R distinct latitudes, accumulating S[l, m] as it goes.
    Cost is O(R * l_max^2 + n * l_max): product rules and Lebedev orbits
    repeat latitudes, and a set without repeats is simply R = n. Rings are
    processed in blocks of at most _BLOCK_ELEMS Legendre values, so working
    memory beyond the O(n) inputs does not grow with n. Only m >= 0 is
    returned; for real weights |S[l, -m]| = |S[l, m]|. A polar angle
    outside [0, pi] counts as the point it names: where sin(theta) < 0 that
    is (arccos(cos theta), phi + pi).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    w = np.asarray(weights, dtype=float)
    x = np.cos(theta)
    eiphi = np.exp(1j * phi)
    # the recurrence takes sin(theta) = sqrt(1 - x^2) >= 0
    eiphi[np.sin(theta) < 0.0] *= -1.0
    order = np.argsort(x, kind="stable")
    x, eiphi, w = x[order], eiphi[order], w[order]
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    bounds = np.append(starts, x.size)
    rows = l_max + 1
    amm, a, b = _norm_coeffs(l_max)
    sums = np.zeros((rows, rows, 2))
    block = max(1, _BLOCK_ELEMS // rows)
    for r0 in range(0, starts.size, block):
        r1 = min(starts.size, r0 + block)
        k0, k1 = bounds[r0], bounds[r1]
        ring_starts = starts[r0:r1] - k0
        xr = x[starts[r0:r1]]
        # ring phases W[m, (re, im), r]
        ring_phase = np.empty((rows, 2, r1 - r0))
        wphase = w[k0:k1].astype(complex)
        for m in range(rows):
            if m:
                wphase *= eiphi[k0:k1]
            s = np.add.reduceat(wphase, ring_starts)
            ring_phase[m, 0] = s.real
            ring_phase[m, 1] = s.imag
        s2 = np.maximum((1.0 - xr) * (1.0 + xr), 0.0)
        # Row m of prev/cur is zero until step l = m writes it, so the first
        # step of an order, P~_{m+1}^m = a x P~_m^m, needs no special case
        # (b[m + 1, m] = 0 multiplies a zero row).
        prev = np.zeros((rows, r1 - r0))
        cur = np.zeros((rows, r1 - r0))
        tmp = np.empty((rows, r1 - r0))
        for l in range(rows):
            # prev holds P~_{l-1}^m; cur holds P~_{l-2}^m and becomes P~_l^m
            if l:
                t = tmp[:l]
                np.multiply(a[l, :l, None], xr, out=t)
                t *= prev[:l]
                c = cur[:l]
                c *= b[l, :l, None]
                c += t
            cur[l] = amm[l] * s2 ** (0.5 * l) if l else amm[0]
            sums[l, : l + 1] += np.matmul(ring_phase[: l + 1], cur[: l + 1, :, None])[..., 0]
            prev, cur = cur, prev
    out = sums[..., 0] + 1j * sums[..., 1]
    out[:, 1::2] *= -1.0
    return out
