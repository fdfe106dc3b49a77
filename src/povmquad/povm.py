"""Finite optimal POVMs for N-copy pure-qubit state estimation.

A finite POVM here is a weighted set of N-fold coherent-state projectors
{c_k |Omega_k><Omega_k|^(x)N}. Completeness sum_k c_k |..| = identity on
the symmetric subspace is equivalent to the scalar condition

    sum_k c_k |<Omega_k|Omega>|^(2N) = 1   for every Omega,

which in turn is a Gauss-quadrature exactness statement for spherical
harmonics up to order N with lambda_k = 4*pi c_k / (N + 1). Any such
POVM achieves the optimal average estimation score (N+1)/(N+2).

The module builds POVMs from certified quadratures, verifies completeness
both scalar-wise and operator-wise (in the Dicke basis), evaluates the
rotation-average moment identity, extends the check to every total-spin
subspace of the full N-qubit space, and counts elements for the
mixed-state construction.

The default scalar and per-spin residuals are certified sup-norm bounds
from the harmonic residuals r_l = max_m |sum_k lambda_k Y_l^m(Omega_k)|
of certify. Funk-Hecke and the addition theorem expand
((1 + t)/2)^N = sum_l f_l P_l(t) with f_l = (2l+1) N!^2/((N-l)!(N+l+1)!)
and sum_l f_l = 1, so for every Omega, with W = sum_k lambda_k,

    |sum_k c_k |<Omega_k|Omega>|^(2N) - 1|
        <= |W/4pi - 1| + (N+1)/sqrt(4pi) * sum_{l=1..N} f_l r_l.

Passing ``directions=`` (e.g. :func:`completeness_test_angles`) gives the
sampled maximum over those probes instead.

A POVM built by :func:`povm_from_quadrature` carries the certificate of
its own weights (FinitePovm.certificate), so the bound costs nothing
more; any other FinitePovm (read from a file, built by hand or by
dataclasses.replace) has none and is certified when asked.

The operator and moment checks build no n x (N+1) Dicke matrix. The
Gram matrix of the weights w_k (c_k, or lambda_k/4pi) is summed as one
GEMM of Dicke rows per block of points, O(n N^2), with the magnitudes
taken from the half-angles and the phases as running products of
e^{i phi_k} (no Legendre recurrence, so the check stays independent of the
scalar bound). Dicke magnitudes depend on theta only and phases on phi
only, so on a ring of points at one polar angle theta_r

    G[j, j'] = sum_r mag_j(theta_r) mag_j'(theta_r) W_r[j - j'],
    W_r[d] = sum_{k : theta_k = theta_r} w_k e^{i d phi_k}.

From N = harmonics._ROUTE_MIN_ROWS - 1 on, a ring of s > N equal weights
at equispaced azimuths and one polar angle (harmonics._latitude_rings, as
certify finds them) has W_r[d] = 0 up to its deviations at every offset
1 <= d <= N, so it adds to the diagonal alone and an allowance of
d max_j sum_r deviation_r mag_j(theta_r)^2 is added at offset d
(_ring_gram_residual): the residual stays an upper bound. A product rule,
s = N + 1, is all such rings: O(n + R N), about 2e-12 of allowance at
N = 1000. Beyond sorted copies of the inputs and the (N+1) x (N+1)
result, each working array holds at most _BLOCK_ELEMS values, the
package's one working-set budget (sphere), whatever n and N.
"""
from __future__ import annotations

import functools
import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    CapExceeded,
    DomainError,
    InsufficientStrength,
    MissingCount,
    NotNormalized,
    ParseError,
    WeightError,
)
from .harmonics import _ROUTE_MIN_ROWS, _latitude_rings
from .quadrature import (
    DEFAULT_TOL,
    FOUR_PI,
    _MIN_ROW_BYTES,
    CertificationReport,
    SphericalQuadrature,
    _fmt,
    _format_rows,
    _line_blocks,
    certify,
)
from .sphere import _BLOCK_ELEMS, Direction, angles_to_xyz, overlap_matrix, sample_uniform_angles, substream

OPERATOR_CHECK_CAP = 300

# Fixed stream for default verification directions: libraries and CLI must
# be deterministic without a user-provided seed.
_TEST_DIRECTION_SEED = 0x9E3779B97F4A7C15
_TINY = 1e-300


@dataclass(frozen=True)
class FinitePovm:
    """Weighted coherent-state projectors for N copies.

    `certificate` is the CertificationReport of the POVM's own weights
    4*pi c_k/(N+1) to order N, set only by :func:`povm_from_quadrature`,
    which has just certified them; scalar_completeness_residual (and so
    run_game's choice of sampler) trusts it instead of certifying again.
    It is not a constructor argument, so no caller can hand one in, and
    dataclasses.replace drops it: a POVM built any other way, read from a
    file or derived from a certified one has none and is certified when
    asked.
    """

    copies: int
    c: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    label: str = ""
    certificate: CertificationReport | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.copies < 1:
            raise DomainError(f"copies must be >= 1, got {self.copies}")
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        if not (c.shape == theta.shape == phi.shape) or c.ndim != 1 or c.size == 0:
            raise DomainError("c, theta and phi must be 1-D, equal length, non-empty")
        for arr, name in ((c, "c"), (theta, "theta"), (phi, "phi")):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"non-finite {name} entries")
            arr.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return self.c.size

    def __len__(self) -> int:
        return self.c.size

    def validate(self, tol: float = 1e-10):
        """Check c_k > 0 and sum c_k = N + 1 within `tol` (absolute)."""
        if np.any(self.c <= 0.0):
            raise WeightError(f"{self.label or 'povm'}: non-positive element weight")
        with np.errstate(over="ignore"):  # a sum past the largest double is inf
            total = float(self.c.sum())
        if abs(total - (self.copies + 1)) > tol:
            raise NotNormalized(
                f"{self.label or 'povm'}: element weights sum to {total!r}, "
                f"expected {self.copies + 1}"
            )


@dataclass(frozen=True)
class DickeVector:
    """State of N qubits in the symmetric basis, indexed by excitation j."""

    copies: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.copies + 1,):
            raise DomainError(
                f"expected {self.copies + 1} amplitudes, got shape {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def _pow_int(a: np.ndarray, n: int) -> np.ndarray:
    """a**n in place for integer n >= 0 and a >= 0; returns `a`.

    Repeated squaring up to n = 64, with at most one extra buffer, which
    the last multiplication writes back into `a`; above 64, exp(n log a),
    where log 0 = -inf maps cleanly to 0.
    """
    if n > 64:
        with np.errstate(divide="ignore"):
            np.log(a, out=a)
        a *= n
        return np.exp(a, out=a)
    if n == 0:
        a.fill(1.0)
        return a
    result = None
    while n > 1:
        if n & 1:
            result = a.copy() if result is None else np.multiply(result, a, out=result)
        n >>= 1
        a *= a
    return a if result is None else np.multiply(result, a, out=a)


@functools.lru_cache(maxsize=16)
def _half_log_binomials(n: int) -> np.ndarray:
    """0.5 log C(n, j) for j = 0..n, read-only (callers share it)."""
    lf = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    out = 0.5 * (lf[-1] - lf - lf[::-1])
    out.setflags(write=False)
    return out


def _require_strength(q: SphericalQuadrature, copies: int, tol: float) -> CertificationReport:
    """Certificate of q to order N; InsufficientStrength if it is not exact that far."""
    if copies < 1:
        raise DomainError(f"copies must be >= 1, got {copies}")
    report = certify(q, copies, tol)
    if report.strength < copies:
        raise InsufficientStrength(report.strength, copies)
    return report


def _funk_hecke_coeffs(power: int) -> np.ndarray:
    """h_l = M!^2 / ((M-l)! (M+l+1)!) for l = 0..M, M = `power`.

    ((1 + t)/2)^M = sum_l (2l+1) h_l P_l(t), so by the addition theorem
    overlap(Omega_k, Omega)^M = 4pi sum_l h_l sum_m Y_l^m(Omega_k) conj(Y_l^m(Omega)).
    Formed as h_0 = 1/(M+1) times the ratios (M-l+1)/(M+l+1), so h_l
    carries about l rounding errors; a difference of log-factorials, each
    about M log M in size, is off by 4e-13 relative at M = 132.
    """
    l = np.arange(1, power + 1)
    return np.cumprod(np.concatenate(([1.0 / (power + 1)], (power - l + 1) / (power + l + 1))))


def _completeness_bound(residual_per_l, weight_sum_residual: float, copies: int) -> float:
    """Bound of the module docstring on |sum_k c_k overlap^N - 1|, c = (N+1) lambda/4pi.

    `residual_per_l` holds r_l for l = 1..N (or more); N = 0 leaves the
    weight-sum term |W/4pi - 1|.
    """
    l = np.arange(1, copies + 1)
    f = (2 * l + 1) * _funk_hecke_coeffs(copies)[1:]
    harmonic = float(f @ residual_per_l[:copies])
    return weight_sum_residual + (copies + 1) / math.sqrt(FOUR_PI) * harmonic


def _certify_povm(p: FinitePovm, tol: float = DEFAULT_TOL) -> CertificationReport:
    """Certificate of the POVM's own weights lambda_k = 4pi c_k/(N+1) to order N."""
    lam = FOUR_PI / (p.copies + 1) * p.c
    return certify(SphericalQuadrature(p.theta, p.phi, lam, label=p.label), p.copies, tol,
                   allow_signed=True)


def povm_from_quadrature(q: SphericalQuadrature, copies: int, tol: float = DEFAULT_TOL) -> FinitePovm:
    """Turn a quadrature of strength >= N into an optimal N-copy POVM.

    c_k = (N + 1) * lambda_k / (4*pi). Raises InsufficientStrength when
    the certified strength falls short of N (and WeightError for signed
    rules, which can never be POVMs). The one certification, of the
    POVM's own weights 4*pi c_k/(N+1), rides on the result as its
    `certificate`.
    """
    c = (copies + 1) / FOUR_PI * q.weights
    label = f"{q.label or 'quadrature'} as povm N={copies}"
    p = FinitePovm(copies=copies, c=c, theta=q.theta, phi=q.phi, label=label)
    if not q.all_weights_positive:
        raise WeightError(
            f"{q.label or 'quadrature'} has a non-positive weight "
            f"(min {q.weights.min()!r})"
        )
    report = _certify_povm(p, tol)
    if report.strength < copies:
        raise InsufficientStrength(report.strength, copies)
    object.__setattr__(p, "certificate", report)
    return p


def exact_score(p: FinitePovm) -> float:
    """Average estimation score sum_k c_k / (N + 2) of a complete POVM.

    Equals (N+1)/(N+2), the N-copy optimum, whenever sum c_k = N + 1.
    """
    return float(p.c.sum()) / (p.copies + 2)


def optimal_score(copies: int) -> float:
    """The N-copy optimum (N+1)/(N+2)."""
    if copies < 0:
        raise DomainError(f"copies must be >= 0, got {copies}")
    return (copies + 1) / (copies + 2)


def _direction_angles(directions):
    """(theta, phi) arrays from a (theta, phi) pair or Direction iterable."""
    if (
        isinstance(directions, tuple)
        and len(directions) == 2
        and not isinstance(directions[0], Direction)
    ):
        theta = np.atleast_1d(np.asarray(directions[0], dtype=float))
        phi = np.atleast_1d(np.asarray(directions[1], dtype=float))
        if theta.shape != phi.shape:
            raise DomainError("theta and phi arrays must have the same shape")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
            raise DomainError("non-finite direction angles")
        return theta, phi
    ds = list(directions)
    if not ds:
        raise DomainError("empty direction set")
    return (
        np.array([d.theta for d in ds]),
        np.array([d.phi for d in ds]),
    )


def _overlap_blocks(theta, phi, directions):
    """Overlaps of each (theta, phi) pair in `directions` with every element.

    Yields (start, stop, ov), ov the overlap rows start:stop against the
    elements (theta, phi), in blocks of at most _BLOCK_ELEMS entries (one
    row when a row alone is longer). Each block overwrites the one buffer
    of the last, so a caller may work in ov in place but is done with it
    when it asks for the next block. Every row is formed on its own, so no
    result depends on where the blocks fall.
    """
    exyz = angles_to_xyz(theta, phi)
    dxyz = angles_to_xyz(*directions)
    block = max(1, _BLOCK_ELEMS // exyz.shape[0])
    buf = np.empty((min(block, dxyz.shape[0]), exyz.shape[0]))
    for start in range(0, dxyz.shape[0], block):
        stop = min(dxyz.shape[0], start + block)
        yield start, stop, overlap_matrix(dxyz[start:stop], exyz, out=buf[: stop - start])


def _power_sums(theta, phi, c, directions, power: int) -> np.ndarray:
    """sum_k c_k overlap(Omega_k, Omega)^power per (theta, phi) pair in `directions`."""
    sums = np.empty(np.size(directions[0]))
    for start, stop, ov in _overlap_blocks(theta, phi, directions):
        # einsum reduces each row on its own (BLAS gemv groups rows), so
        # the sums do not depend on where the blocks fall
        np.einsum("ij,j->i", _pow_int(ov, power), c, out=sums[start:stop])
    return sums


def completeness_test_angles(p: FinitePovm, count: int | None = None):
    """Dense probe set for a sampled scalar-completeness maximum.

    10 * (N+1)^2 uniform directions from a fixed stream, plus the POVM's
    own outcome directions and both poles; pass it as ``directions=`` to
    :func:`scalar_completeness_residual`.
    """
    if count is None:
        count = 10 * (p.copies + 1) ** 2
    rng = substream(_TEST_DIRECTION_SEED, p.copies)
    theta, phi = sample_uniform_angles(rng, count)
    theta = np.concatenate((theta, p.theta, [0.0, math.pi]))
    phi = np.concatenate((phi, p.phi, [0.0, 0.0]))
    return theta, phi


def scalar_completeness_residual(p: FinitePovm, directions=None) -> float:
    """sup over Omega of |sum_k c_k |<Omega_k|Omega>|^(2N) - 1|.

    By default a certified upper bound from the harmonic residuals of the
    POVM's own weights 4*pi c_k/(N+1) (module docstring), read from the
    carried `certificate` when there is one and certified here otherwise;
    with `directions` the maximum over those probes.
    """
    if directions is None:
        report = p.certificate if p.certificate is not None else _certify_povm(p)
        return _completeness_bound(report.residual_per_l, report.weight_sum_residual, p.copies)
    sums = _power_sums(p.theta, p.phi, p.c, _direction_angles(directions), p.copies)
    return float(np.max(np.abs(sums - 1.0)))


def _dicke_magnitudes(copies: int, theta) -> np.ndarray:
    """Signed sqrt(C(N, j)) cos^(N-j)(theta/2) sin^j(theta/2); shape (n, N+1).

    Formed in log space from |cos(theta/2)| and |sin(theta/2)|, so no
    binomial or power overflows; the clipped logs are only ever multiplied
    by zero exactly where cos/sin vanish, and exact poles get exact zeros.
    The signs (-1)^(N-j) and (-1)^j of negative cos/sin are applied
    afterwards, so any finite polar angle is exact. The half-angles keep
    full relative accuracy near the poles, where anything formed from
    cos(theta) loses eps/theta^2.
    """
    half = 0.5 * np.atleast_1d(np.asarray(theta, dtype=float))
    j = np.arange(copies + 1.0)
    ch = np.cos(half)[:, None]
    sh = np.sin(half)[:, None]
    lc, ls = (np.log(np.maximum(np.abs(t), _TINY)) for t in (ch, sh))
    # (N - j) lc + j ls as N big + k (small - big): big the log nearer 0, k
    # the other's power (j or N - j). Nothing large cancels at a pole, and
    # logmag is the one (n, N+1) array
    big = np.maximum(lc, ls)
    logmag = np.empty((half.size, copies + 1))
    np.multiply(np.minimum(lc, ls) - big, j, out=logmag, where=lc >= ls)
    np.multiply(np.minimum(lc, ls) - big, copies - j, out=logmag, where=lc < ls)
    logmag += copies * big
    logmag += _half_log_binomials(copies)
    mag = np.exp(logmag, out=logmag)
    # the masks and signs touch only poles and theta outside [0, pi]
    cmin, smin = ch.min(), sh.min()
    if smin <= 0.0:
        mag[sh[:, 0] == 0.0, 1:] = 0.0
    if cmin <= 0.0:
        mag[ch[:, 0] == 0.0, :copies] = 0.0
    if min(cmin, smin) < 0.0:
        mag[((copies - j) * (ch < 0.0) + j * (sh < 0.0)) % 2 == 1] *= -1.0
    return mag


def dicke_amplitudes(copies: int, d: Direction) -> DickeVector:
    """Expand |Omega>^(x)N in the symmetric basis.

    amplitude_j = sqrt(C(N, j)) cos^(N-j)(theta/2) (e^{i phi} sin(theta/2))^j.
    """
    if copies < 1:
        raise DomainError(f"copies must be >= 1, got {copies}")
    amps = _dicke_magnitudes(copies, [d.theta])[0] * np.exp(1j * d.phi * np.arange(copies + 1))
    return DickeVector(copies=copies, amplitudes=amps)


def _ring_gram_residual(copies: int, theta, phi, w, diag: float) -> float:
    """max entry of |sum_k w_k v_k v_k^dag - diag * I| for the Dicke rows v_k.

    Two paths, each in working arrays of at most _BLOCK_ELEMS values:

    * from N + 1 = harmonics._ROUTE_MIN_ROWS on, an equispaced ring of
      period s > N (harmonics._latitude_rings, as certify finds them; a
      ring with a point past a pole has none) whose points share theta_r,
      not only its cosine, adds W_r[0] mag_j(theta_r)^2 to the diagonal
      alone. At an offset d = 1..N, which s does not divide, |W_r[d]| <=
      d deviation_r and mag_{j+d} mag_j <= (mag_{j+d}^2 + mag_j^2)/2, so
      these rings add at most d max_j f(j) with
      f(j) = sum_r deviation_r mag_j(theta_r)^2. That allowance is added to
      every entry at offset d, so the result stays an upper bound; for a
      complete POVM f is about the mean |delta|;
    * every other point (all of them below that N) adds w v v^dag through
      one GEMM of Dicke rows per block (_point_gram).
    """
    rows = copies + 1
    diagonal = spread = 0.0  # the rings' diagonal and max_j f(j)
    if rows >= _ROUTE_MIN_ROWS:
        rings = _latitude_rings(theta, phi, w)
        theta, phi, w, starts = rings.theta, rings.phi, rings.w, rings.bounds[:-1]
        # distinct polar angles can share a cosine (1e-9 and 1e-8 both give
        # 1) but not their Dicke magnitudes
        ring = rings.period > copies
        ring &= np.minimum.reduceat(theta, starts) == np.maximum.reduceat(theta, starts)
        if ring.any():
            weight = np.add.reduceat(w, starts)[ring]
            polar = theta[starts[ring]]
            deviation = rings.deviation[ring]
            diagonal, f = np.zeros(rows), np.zeros(rows)
            block = max(1, _BLOCK_ELEMS // rows)
            for r0 in range(0, polar.size, block):
                square = np.square(_dicke_magnitudes(copies, polar[r0 : r0 + block]))
                diagonal += weight[r0 : r0 + block] @ square
                f += deviation[r0 : r0 + block] @ square
            spread = f.max()
            rest = np.repeat(~ring, np.diff(rings.bounds))
            theta, phi, w = theta[rest], phi[rest], w[rest]
    if not theta.size:  # every point on the diagonal: the other entries are 0
        return float(max(np.abs(diagonal - diag).max(), copies * spread))
    gram = _point_gram(rows, theta, phi, w)
    on = np.diag_indices(rows)
    gram.real[on] += diagonal
    gram.real[on] -= diag
    lower, col = np.tril_indices(rows)
    return float((np.abs(gram[lower, col]) + (lower - col) * spread).max())


def _point_gram(rows: int, theta, phi, w) -> np.ndarray:
    """sum_k w_k v_k v_k^dag, (N+1) x (N+1), one GEMM of Dicke rows per
    block of at most _BLOCK_ELEMS values."""
    gram = np.zeros((rows, rows), dtype=complex)
    block = max(1, _BLOCK_ELEMS // rows)
    for k0 in range(0, theta.size, block):
        k1 = min(theta.size, k0 + block)
        # v[k, j] = mag_j e^{i j phi_k}, the phases as running products
        v = np.empty((k1 - k0, rows), dtype=complex)
        v[:, 0] = 1.0
        v[:, 1:] = np.exp(1j * phi[k0:k1])[:, None]
        np.cumprod(v, axis=1, out=v)
        v *= _dicke_magnitudes(rows - 1, theta[k0:k1])
        # w conj(v) scaled in place; u and v go before the next block's rows
        u = v.conj()
        u *= w[k0:k1, None]
        gram += v.T @ u
        del v, u
    return gram


def operator_completeness_residual(p: FinitePovm, cap: int = OPERATOR_CHECK_CAP) -> float:
    """max entry of |sum_k c_k v_k v_k^dag - I| in the Dicke basis.

    Stronger than the scalar check (tests every matrix entry, not just
    diagonal expectation values over coherent states), and independent of
    it: Dicke magnitudes from the half-angles and phases from the azimuths,
    no harmonic sums. Costs O(n N^2), one GEMM of Dicke rows per block of
    at most _BLOCK_ELEMS values (module docstring); from N = 15 on,
    the equispaced rings of period s > N of a product-rule POVM add to the
    diagonal alone, so it costs O(n + R N) for R rings, with an allowance
    for the offsets they cancel: about 1 ms at N = 131, 5 ms at N = 300
    and 0.03 s at N = 1000 (one BLAS thread).
    Capped at `cap` (default OPERATOR_CHECK_CAP = 300) to keep misuse
    obvious: any other set costs O(n N^2). construct, whose product rules
    are O(n + R N), lifts it.
    """
    if p.copies > cap:
        raise CapExceeded(f"operator check capped at N = {cap}, got {p.copies}")
    return _ring_gram_residual(p.copies, p.theta, p.phi, p.c, 1.0)


def schur_moment_residual(q: SphericalQuadrature, copies: int, tol: float = DEFAULT_TOL) -> float:
    """Deviation of sum_k (lambda_k/4pi) v_k v_k^dag from I/(N+1).

    The rotation average of |Omega><Omega|^(x)N is I/(N+1) on the
    symmetric subspace; a quadrature of strength >= N reproduces it
    exactly, entry by entry.
    """
    _require_strength(q, copies, tol)
    return _ring_gram_residual(copies, q.theta, q.phi, q.weights / FOUR_PI, 1.0 / (copies + 1))


def spin_subspaces(copies: int) -> list[int]:
    """Doubled total spins 2s of the N-qubit rotation blocks, ascending.

    s runs from 0 (even N) or 1/2 (odd N) up to N/2; doubling keeps the
    values exact integers.
    """
    if copies < 1:
        raise DomainError(f"copies must be >= 1, got {copies}")
    start = 0 if copies % 2 == 0 else 1
    return list(range(start, copies + 1, 2))


def subspace_completeness_residuals(
    q: SphericalQuadrature,
    copies: int,
    directions=None,
    tol: float = DEFAULT_TOL,
) -> dict[int, float]:
    """Covariant-extension check: completeness on every total-spin block.

    For each doubled spin 2s the weights c_k^(s) = (2s+1) lambda_k/(4*pi)
    must satisfy the 2s-copy scalar condition
    sum_k c_k^(s) overlap(Omega_k, Omega)^(2s) = 1 for all Omega. Each
    integrand is band-limited at order 2s <= N, so one strength-N
    quadrature serves every block at once. Returns {2s: residual}: by
    default the certified bound of the module docstring at order 2s
    (block 0 is the weight-sum residual), with `directions` the maximum
    over those probes.
    """
    report = _require_strength(q, copies, tol)
    if directions is None:
        return {
            two_s: _completeness_bound(report.residual_per_l, report.weight_sum_residual, two_s)
            for two_s in spin_subspaces(copies)
        }
    angles = _direction_angles(directions)
    wnorm = q.weights / FOUR_PI
    out: dict[int, float] = {}
    for two_s in spin_subspaces(copies):
        sums = _power_sums(q.theta, q.phi, (two_s + 1) * wnorm, angles, two_s)
        out[two_s] = float(np.max(np.abs(sums - 1.0)))
    return out


def mixed_min_elements(copies: int, pure_counts) -> int:
    """Element count of the mixed-state POVM assembled per spin block.

    `pure_counts` maps doubled spin 2s (> 0) to the pure-state POVM size
    n(2s); the trivial spin-0 block contributes a single element for even
    N. Raises MissingCount if a required block has no entry.
    """
    total = 0
    for two_s in spin_subspaces(copies):
        if two_s == 0:
            total += 1
            continue
        try:
            count = pure_counts[two_s]
        except (KeyError, IndexError):
            raise MissingCount(
                f"no pure-state count supplied for doubled spin {two_s}"
            ) from None
        total += int(count)
    return total


def legendre_pure_counts(copies: int) -> dict[int, int]:
    """Product-rule sizes (2s+1)*ceil((2s+1)/2) for every required spin."""
    return {
        two_s: (two_s + 1) * ((two_s + 2) // 2)
        for two_s in spin_subspaces(copies)
        if two_s > 0
    }


def mixed_legendre_bound(copies: int) -> float:
    """Closed-form size of the product-rule mixed-state construction.

    N^3/12 + 5N^2/8 + 17N/12 + 1 for even N and
    N^3/12 + N^2/2 + 11N/12 + 1/2 for odd N; evaluated in exact rational
    arithmetic (the value is an integer for every N), then returned as a
    float.
    """
    if copies < 1:
        raise DomainError(f"copies must be >= 1, got {copies}")
    n = copies
    if n % 2 == 0:
        value = Fraction(n**3, 12) + Fraction(5 * n * n, 8) + Fraction(17 * n, 12) + 1
    else:
        value = Fraction(n**3, 12) + Fraction(n * n, 2) + Fraction(11 * n, 12) + Fraction(1, 2)
    return float(value)


def _povm_pieces(p: FinitePovm, csv: bool = False):
    """The text of povm_to_json (povm_to_csv if `csv`) in pieces.

    The header, the rows in blocks of _BLOCK_ELEMS // 16, then the trailer;
    a writer that takes one piece at a time holds one block's text. One %
    over a repeated template formats every row of a block in a single call
    (quadrature._format_rows). DomainError before the first piece when the
    score is not finite (sum c past the largest double), which neither
    reader would take back.
    """
    score = exact_score(p)
    if not math.isfinite(score):
        raise DomainError(f"score_exact is {score}: the sum of c overflows a double")
    score = _fmt(score)
    if csv:
        yield f"# N={p.copies}\n# n={p.n}\n# score_exact={score}\nc,theta,phi\n"
        template, sep, trailer = "%.17g,%.17g,%.17g\n", "", ""
    else:
        yield f'{{\n  "N": {p.copies},\n  "n": {p.n},\n  "elements": [\n    '
        template, sep = '{"c": %.17g, "theta": %.17g, "phi": %.17g}', ",\n    "
        trailer = f'\n  ],\n  "score_exact": {score}\n}}\n'
    step = max(1, _BLOCK_ELEMS // 16)
    for start in range(0, p.n, step):
        rows = slice(start, start + step)
        text = _format_rows(template, sep, p.c[rows], p.theta[rows], p.phi[rows])
        yield text if start == 0 else sep + text
    yield trailer


def povm_to_json(p: FinitePovm) -> str:
    """Serialize with 17-significant-digit decimals (exact round trip)."""
    return "".join(_povm_pieces(p))


# The layout _povm_pieces writes, as bytes patterns, compiled on first use
# (about 1.5 ms, which every import would pay). A number is JSON's number
# grammar less the integer -0, which json.loads reads as the int 0, so as
# +0.0, where numpy reads -0.0: a file holding one goes to json.loads.
_NUMBER = rb"(?:-(?:[1-9][0-9]*+|0(?=[.eE]))|0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][-+]?+[0-9]++)?+"
_ROW = rb'    \{"c": %s, "theta": %s, "phi": %s\}' % (_NUMBER, _NUMBER, _NUMBER)
_HEAD = rb'\{\n  "N": ([1-9][0-9]{0,17}),\n  "n": ([1-9][0-9]{0,17}),\n  "elements": \[\n'
_ROWS = rb"(?:%s,\n)*+" % _ROW  # rows that another row follows
_TAIL = rb'(%s\n)  \],\n  "score_exact": %s\n\}\n' % (_ROW, _NUMBER)
# A bound on the bytes a block may leave over, above the writer's longest
# last row and trailer (154 bytes, with 24-character numbers)
_MAX_REST = 256
# The translation that blanks the keys and punctuation of a row, leaving
# c, the 'e' of "theta", theta and phi as four fields
_KEYS_TO_SPACES = bytes.maketrans(b'{}":,thapic', b" " * 11)


def _read_povm(fh, size: int, label: str = "") -> FinitePovm | None:
    """The POVM in the binary file `fh` of `size` bytes, if it holds exactly
    the layout _povm_pieces writes; None for any other bytes.

    Takes the file in the blocks of whole lines of quadrature._line_blocks
    (a block holds at most the writer's block of rows; a read without a line
    end comes uncut, and fails the layout); checks each block's rows by one
    regular expression of the layout and parses them in one numpy call into
    the three preallocated arrays; what a block leaves over, at most
    _MAX_REST bytes of the last row and trailer, goes before the next. So
    neither the whole text nor a JSON object tree is ever held. Every number
    is checked against JSON's grammar, so where this returns a POVM,
    json.loads reads the same doubles from the same bytes.
    """
    head_re, rows_re, tail_re = (re.compile(p) for p in (_HEAD, _ROWS, _TAIL))  # re caches them
    blocks = _line_blocks(fh, grow=False)
    buf = next(blocks, b"")
    head = head_re.match(buf)
    # a file of `size` bytes holds at most size / 36 rows
    if head is None or int(head[2]) > size // _MIN_ROW_BYTES:
        return None
    copies, n = int(head[1]), int(head[2])
    columns = np.empty(n), np.empty(n), np.empty(n)
    done, pos = 0, head.end()
    while True:
        end = rows_re.match(buf, pos).end()
        more = next(blocks, None)
        # a longer rest could hold an integer past json.loads' digit limit
        tail = tail_re.fullmatch(buf, end) if more is None and len(buf) - end <= _MAX_REST else None
        if tail is not None:
            end = tail.end(1)
        rows = buf.count(b"\n", pos, end)
        if done + rows > n:
            return None
        if rows:
            text = io.BytesIO(buf[pos:end].translate(_KEYS_TO_SPACES))
            values = np.loadtxt(text, usecols=(0, 2, 3), ndmin=2)
            # json.loads reads such a number as inf too, or fails on it
            if not np.isfinite(values).all():
                return None
            for column, value in zip(columns, values.T):
                column[done : done + rows] = value
            done += rows
        if tail is not None:
            break
        rest = buf[end:]
        if more is None or len(rest) > _MAX_REST:
            return None
        buf, pos = rest + more, 0
    if done != n:
        return None
    return FinitePovm(copies=copies, c=columns[0], theta=columns[1], phi=columns[2], label=label)


def povm_from_json(text: str, label: str = "") -> FinitePovm:
    """Parse the POVM JSON schema; schema violations raise ParseError.

    Text in the layout povm_to_json writes is read block by block
    (_read_povm); any other text through json.loads (_povm_from_tree), with
    the same doubles either way.
    """
    data = text.encode("utf-8", "surrogatepass")
    p = _read_povm(io.BytesIO(data), len(data), label)
    return p if p is not None else _povm_from_tree(text, label)


def _povm_from_tree(text: str, label: str = "") -> FinitePovm:
    """povm_from_json through one json.loads of the whole text."""
    try:
        obj = json.loads(text)
    # ValueError: a JSONDecodeError or an integer past the digit limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("POVM JSON must be an object")
    try:
        elements = obj["elements"]
        copies, declared = obj["N"], obj.get("n", len(elements))
        if type(copies) is not int or type(declared) is not int:
            raise ParseError(f"N and n must be integers, got {copies!r} and {declared!r}")
        if declared != len(elements):
            raise ParseError(f"declared n={declared} but found {len(elements)} elements")
        c = np.array([float(e["c"]) for e in elements])
        theta = np.array([float(e["theta"]) for e in elements])
        phi = np.array([float(e["phi"]) for e in elements])
        return FinitePovm(copies=copies, c=c, theta=theta, phi=phi, label=label)
    except (KeyError, TypeError, ValueError, OverflowError, DomainError) as exc:
        raise ParseError(f"bad POVM schema: {exc}") from None


def povm_to_csv(p: FinitePovm) -> str:
    """CSV with '.' decimals and '#' metadata lines; columns c, theta, phi."""
    return "".join(_povm_pieces(p, csv=True))
