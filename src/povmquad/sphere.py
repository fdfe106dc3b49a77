"""Bloch-sphere geometry: directions, overlaps and uniform sampling.

A pure qubit state corresponds to a point on the unit 2-sphere, described
by the polar angle theta (measured from the +z axis) and the azimuth phi.
The squared overlap of two such states depends only on the central angle
gamma between their directions,

    |<a|b>|^2 = (1 + cos gamma) / 2,

which this module computes from Cartesian dot products (stable near
gamma = 0 and gamma = pi, where half-angle formulas lose digits).

Randomness uses numpy's Philox counter-based generator keyed by a 64-bit
seed, so draws are reproducible across platforms and independent
substreams can be derived per (seed, stream index).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ZeroVector

TWO_PI = 2.0 * math.pi

_THETA_SLACK = 1e-12
# Elements per block of every blocked loop, 512 KiB of doubles (L2-sized):
# Legendre values, overlaps, Gram values; 1/16 in file rows, 1/2 in
# ring-search points, 1/4 in _norm_coeffs entries, 2x in NUFFT stencil values.
_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class Direction:
    """Point on the unit sphere: polar angle theta, azimuth phi (radians).

    On construction theta is required to lie in [0, pi] (up to 1e-12 slack,
    which is clamped) and phi is reduced to [0, 2*pi). At the poles the
    azimuth is meaningless and is stored as 0 so that equality is well
    defined.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta = float(self.theta)
        phi = float(self.phi)
        if not math.isfinite(theta) or not math.isfinite(phi):
            raise DomainError(f"non-finite direction ({theta}, {phi})")
        if theta < -_THETA_SLACK or theta > math.pi + _THETA_SLACK:
            raise DomainError(f"polar angle {theta} outside [0, pi]")
        theta = min(max(theta, 0.0), math.pi)
        if theta == 0.0 or theta == math.pi:
            phi = 0.0
        else:
            phi = math.fmod(phi, TWO_PI)
            if phi < 0.0:
                phi += TWO_PI
            if phi == TWO_PI:  # fmod may round up
                phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class UnitVector:
    """Cartesian components of a direction; unit norm up to rounding."""

    x: float
    y: float
    z: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


def to_cartesian(d: Direction) -> UnitVector:
    """Map (theta, phi) to (sin t cos p, sin t sin p, cos t)."""
    st = math.sin(d.theta)
    return UnitVector(st * math.cos(d.phi), st * math.sin(d.phi), math.cos(d.theta))


def from_cartesian(v) -> Direction:
    """Inverse of :func:`to_cartesian`, up to the phi-at-poles convention.

    Accepts a :class:`UnitVector` or any 3-sequence. The input is
    renormalized if its norm is within 1e-6 of 1; norms below 1e-9 raise
    :class:`~povmquad.errors.ZeroVector`, other deviations raise
    :class:`~povmquad.errors.DomainError`.
    """
    if isinstance(v, UnitVector):
        x, y, z = v.x, v.y, v.z
    else:
        x, y, z = (float(c) for c in v)
    n = math.sqrt(x * x + y * y + z * z)
    if n < 1e-9:
        raise ZeroVector(f"vector norm {n:.3e} is too small to define a direction")
    if abs(n - 1.0) > 1e-6:
        raise DomainError(f"vector norm {n!r} deviates from 1 by more than 1e-6")
    z /= n
    theta = math.acos(min(1.0, max(-1.0, z)))
    phi = math.atan2(y, x)
    return Direction(theta, phi)


def antipode(d: Direction) -> Direction:
    return Direction(math.pi - d.theta, d.phi + math.pi)


def cos_central_angle(a: Direction, b: Direction) -> float:
    """cos(gamma) for the central angle gamma between two directions."""
    va = to_cartesian(a)
    vb = to_cartesian(b)
    dot = va.x * vb.x + va.y * vb.y + va.z * vb.z
    return min(1.0, max(-1.0, dot))


def overlap_sq(a: Direction, b: Direction) -> float:
    """Single-qubit fidelity |<a|b>|^2 = (1 + cos gamma)/2, clamped to [0, 1]."""
    return min(1.0, max(0.0, 0.5 * (1.0 + cos_central_angle(a, b))))


def default_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed (counter-based, splittable)."""
    return np.random.Generator(np.random.Philox(key=seed))


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent Philox substream number `index` of the given seed.

    Substream 0 is :func:`default_rng`; higher indices are jumped ahead by
    ``index * 2**128`` states, so distinct indices never overlap.
    """
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def sample_uniform(rng: np.random.Generator) -> Direction:
    """Draw one direction from the uniform measure on the sphere.

    cos(theta) is uniform on [-1, 1] and phi uniform on [0, 2*pi); the two
    doubles are consumed in that order, so a fixed seed and draw index
    always yield the same Direction.
    """
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, TWO_PI)
    return Direction(math.acos(min(1.0, max(-1.0, z))), phi)


def sample_uniform_angles(rng: np.random.Generator, n: int):
    """Vectorized uniform sampling; returns (theta, phi) arrays of length n.

    Consumes the stream as one block of n cos-theta draws followed by one
    block of n phi draws (a different stream layout than n scalar
    :func:`sample_uniform` calls, but equally deterministic).
    """
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, TWO_PI, n)
    return np.arccos(np.clip(z, -1.0, 1.0)), phi


def angles_to_xyz(theta, phi) -> np.ndarray:
    """Stack (theta, phi) arrays into an (..., 3) array of unit vectors."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack((st * np.cos(phi), st * np.sin(phi), np.cos(theta)), axis=-1)


def overlap_matrix(dxyz: np.ndarray, exyz: np.ndarray, out=None) -> np.ndarray:
    """Fidelities (1 + d.e)/2 for every row pair, clamped to [0, 1].

    Shape (len(dxyz), len(exyz)); written into `out` when given.
    """
    ov = np.matmul(dxyz, exyz.T, out=out)
    ov += 1.0
    ov *= 0.5
    return np.clip(ov, 0.0, 1.0, out=ov)
