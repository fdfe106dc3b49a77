"""Orthonormal complex spherical harmonics.

Convention: solid-angle normalization with the Condon-Shortley phase,

    integral over 4*pi steradians of Y_l^m conj(Y_l'^m') = delta delta,
    Y_0^0 = 1/sqrt(4*pi),
    Y_l^{-m} = (-1)^m conj(Y_l^m),

matching the common physics tabulations (and scipy's sph_harm_y). All
exactness checks downstream test the vanishing of weighted sums of these
values, so they are insensitive to the phase choice; the normalization is
what ties quadrature weights to POVM coefficients.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .orthopoly import assoc_legendre_column
from .sphere import Direction


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
    indexed by m + l (m runs from -l to l).
    """
    if l_max < 0:
        raise DomainError(f"l_max must be >= 0, got {l_max}")
    x = math.cos(d.theta)
    rows = [np.zeros(2 * l + 1, dtype=complex) for l in range(l_max + 1)]
    for m in range(l_max + 1):
        col = assoc_legendre_column(l_max, m, x)
        phase = complex(math.cos(m * d.phi), math.sin(m * d.phi))
        sign = -1.0 if m % 2 else 1.0
        for i, l in enumerate(range(m, l_max + 1)):
            v = sign * col[i] * phase
            rows[l][l + m] = v
            if m:
                rows[l][l - m] = sign * v.conjugate()
    return rows


def weighted_harmonic_sums(l_max: int, theta, phi, weights) -> np.ndarray:
    """Sums S[l, m] = sum_k w_k Y_l^m(theta_k, phi_k) for 0 <= m <= l <= l_max.

    The certification workhorse: one associated-Legendre recurrence pass
    per order m, followed by real matrix-vector products against the
    weighted azimuthal phases, O(n_points * l_max^2) total. Only m >= 0 is
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
    wphase = w.astype(complex)
    out = np.zeros((l_max + 1, l_max + 1), dtype=complex)
    for m in range(l_max + 1):
        if m:
            wphase = wphase * eiphi
        cols = assoc_legendre_column(l_max, m, x)
        s = cols @ wphase.real + 1j * (cols @ wphase.imag)
        out[m:, m] = -s if m % 2 else s
    return out
