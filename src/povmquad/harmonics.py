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
the ring kernel, in two steps: `_ring_phases`, the azimuthal sums
W[m, r] per latitude ring, and `_ring_recurrence`, one recurrence in l for
all m at once over the rings. `weighted_harmonic_sums` feeds it the R
distinct latitudes of the points, O(R l_max^2 + n l_max), and is exact up
to rounding; `harmonic_row` is its one-point, unit-weight case.
`_dfs_harmonic_sums` feeds it l_max + 2 virtual rings from a type-1 NUFFT
(the double Fourier sphere), O(n w^2 + l_max^2 log l_max + l_max^3)
whatever R, and is approximate: certify chooses between the two and adds
an allowance for the transform (see quadrature).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _nufft
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


def _ring_phases(rows: int, eiphi, w, ring_starts) -> np.ndarray:
    """W[m, (re, im), r] = sum_{k in ring r} w_k e^{i m phi_k} for 0 <= m < rows.

    Points are grouped by ring, ring r starting at index ring_starts[r].
    """
    phase = np.empty((rows, ring_starts.size), dtype=complex)
    wphase = w.astype(complex)
    for m in range(rows):
        if m:
            wphase *= eiphi
        np.add.reduceat(wphase, ring_starts, out=phase[m])
    # a view: W[m, :, r] is the (re, im) pair phase[m, r] holds
    return phase.view(float).reshape(rows, -1, 2).transpose(0, 2, 1)


def _ring_recurrence(ring_phase: np.ndarray, xr, s2r, sums: np.ndarray):
    """Add sum_r P~_l^m(xr_r) W[m, :, r] to sums[l, m, :] for 0 <= m <= l < rows.

    One normalized associated-Legendre recurrence steps l once for all
    orders m at once, over blocks of at most _BLOCK_ELEMS Legendre values.
    Ring r lies at cos(theta) = xr[r] and sin(theta)^2 = s2r[r] (>= 0).
    No Condon-Shortley phase.
    """
    rows = ring_phase.shape[0]
    amm, a, b = _norm_coeffs(rows - 1)
    block = max(1, _BLOCK_ELEMS // rows)
    for r0 in range(0, xr.size, block):
        r1 = min(xr.size, r0 + block)
        x = xr[r0:r1]
        s2 = s2r[r0:r1]
        phase = np.ascontiguousarray(ring_phase[:, :, r0:r1])
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
                np.multiply(a[l, :l, None], x, out=t)
                t *= prev[:l]
                c = cur[:l]
                c *= b[l, :l, None]
                c += t
            cur[l] = amm[l] * s2 ** (0.5 * l) if l else amm[0]
            sums[l, : l + 1] += np.matmul(phase[: l + 1], cur[: l + 1, :, None])[..., 0]
            prev, cur = cur, prev


def _signed_sums(sums: np.ndarray) -> np.ndarray:
    """Complex S[l, m] from the (re, im) accumulator, with the Condon-Shortley phase."""
    out = sums[..., 0] + 1j * sums[..., 1]
    out[:, 1::2] *= -1.0
    return out


def _ring_count(theta) -> int:
    """Distinct latitudes R: the number of distinct cos(theta) values."""
    x = np.sort(np.cos(np.asarray(theta, dtype=float)))
    return int(np.count_nonzero(x[1:] != x[:-1])) + 1 if x.size else 0


def weighted_harmonic_sums(l_max: int, theta, phi, weights) -> np.ndarray:
    """Sums S[l, m] = sum_k w_k Y_l^m(theta_k, phi_k) for 0 <= m <= l <= l_max.

    The exact certification kernel. Points are grouped into latitude rings
    of exactly equal cos(theta) and their weighted azimuthal phases reduced
    per ring, W[m, r] = sum_{k in r} w_k e^{i m phi_k} (_ring_phases); one
    normalized associated-Legendre recurrence then steps l once for all
    orders m at once over the R distinct latitudes, accumulating S[l, m] as
    it goes (_ring_recurrence). Cost is O(R * l_max^2 + n * l_max): product
    rules and Lebedev orbits repeat latitudes, and a set without repeats is
    simply R = n. Rings are processed in blocks of at most _BLOCK_ELEMS
    Legendre values, so working memory beyond the O(n) inputs does not grow
    with n. Only m >= 0 is returned; for real weights |S[l, -m]| = |S[l, m]|.
    A polar angle outside [0, pi] counts as the point it names: where
    sin(theta) < 0 that is (arccos(cos theta), phi + pi).
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
    sums = np.zeros((rows, rows, 2))
    block = max(1, _BLOCK_ELEMS // rows)
    for r0 in range(0, starts.size, block):
        r1 = min(starts.size, r0 + block)
        k0, k1 = bounds[r0], bounds[r1]
        ring_phase = _ring_phases(rows, eiphi[k0:k1], w[k0:k1], starts[r0:r1] - k0)
        xr = x[starts[r0:r1]]
        # sin(theta)^2 from x, so sin(theta) = sqrt(1 - x^2) >= 0
        _ring_recurrence(ring_phase, xr, np.maximum((1.0 - xr) * (1.0 + xr), 0.0), sums)
    return _signed_sums(sums)


def _dfs_harmonic_sums(l_max: int, theta, phi, weights) -> np.ndarray:
    """weighted_harmonic_sums through the double Fourier sphere, in
    O(n WIDTH^2 + l_max^2 log l_max + l_max^3) instead of O(R l_max^2).

    With sin^m(theta) signed, Y_l^m is a trigonometric polynomial of degree
    <= l in theta on [0, 2 pi) (Merilees 1973; Townsend, Wilber & Wright
    2016). So S[l, m] = sum_j F(theta_j) G[j, m] exactly, where
    G[j, m] = (1/M) sum_p H[p, m] e^{-i p theta_j} on M = 2 l_max + 2
    equispaced theta_j and H[p, m] = sum_k w_k e^{i (p theta_k + m phi_k)}
    for |p| <= l_max is a type-1 NUFFT (_nufft). Folding theta_j > pi onto
    2 pi - theta_j with the factor (-1)^m leaves l_max + 2 virtual rings at
    theta = pi j / (l_max + 1), fed to the same ring recurrence, with
    sin(theta_j) taken from theta_j. Only the NUFFT is approximate, with no
    rigorous bound: about 1e-14 |w_k| per point, 1e-15 sum |w| once many
    points' errors average out (_nufft). Callers that certify must allow for
    it (quadrature.certify). Any finite theta is accepted and names the same
    point as in weighted_harmonic_sums.
    """
    rows = l_max + 1
    h = _nufft.type1_sums(l_max, theta, phi, weights)
    size = 2 * rows
    spectrum = np.zeros((size, rows), dtype=complex)
    spectrum[:rows] = h[l_max:]  # p = 0..l_max
    spectrum[size - l_max :] = h[:l_max]  # p = -l_max..-1
    g = np.fft.fft(spectrum, axis=0)
    g /= size
    ring = g[: rows + 1]  # theta_j = pi j / rows for j = 0..rows
    # theta_{size - j} = 2 pi - theta_j: sin^m changes sign with m
    mirror = g[size - 1 : rows : -1]
    mirror[:, 1::2] *= -1.0
    ring[1:rows] += mirror
    # no cancellation in 1 - x^2 near the poles
    theta_j = np.pi * np.arange(rows + 1) / rows
    sin_j = np.sin(theta_j)
    sin_j[-1] = 0.0
    sums = np.zeros((rows, rows, 2))
    phases = np.stack((ring.real.T, ring.imag.T), axis=1)
    _ring_recurrence(phases, np.cos(theta_j), sin_j * sin_j, sums)
    return _signed_sums(sums)
