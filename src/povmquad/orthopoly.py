"""Legendre polynomials, normalized associated Legendre functions, and
Gauss-Legendre rules on [-1, 1].

Legendre values come from the three-term recurrence

    (k+1) P_{k+1}(x) = (2k+1) x P_k(x) - k P_{k-1}(x),

differentiated once to carry P' alongside P (valid at x = +-1, unlike the
(x^2-1) quotient form). Associated Legendre functions are returned
pre-normalized so that P~_l^m(cos t) e^{i m p} is an orthonormal spherical
harmonic over the full solid angle; the normalization is fused into the
recurrence coefficients to avoid the overflow of raw P_l^m near l ~ 150.
One column stepper, in the arithmetic of the ring kernel's all-orders
recurrence, serves assoc_legendre, ylm and the ring sums of one or two
orders. No Condon-Shortley phase is applied here (the harmonics module
owns it).

Gauss-Legendre nodes are the roots of P_n, found by Newton iteration from
Tricomi's asymptotic nodes (Hale & Townsend 2013), which leave two or
three sweeps of the value-only recurrence; only the non-negative half is
iterated and the rest mirrored, for O(n^2) total cost. Weights use the
classical closed form lambda_k = 2 / ((1 - x_k^2) P_n'(x_k)^2) with the
carried derivative, corrected to first order for the offset of the root
from its double.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

_X_SLACK = 1e-12
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def _check_x(x):
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0 + _X_SLACK):
        raise DomainError("argument outside [-1, 1]")
    return np.clip(xa, -1.0, 1.0)


def legendre_eval(l: int, x):
    """Evaluate (P_l(x), P_l'(x)) by the three-term recurrence.

    Parameters
    ----------
    l : int
        Degree, l >= 0.
    x : float or ndarray
        Points in [-1, 1] (a 1e-12 slack is clamped).

    Returns
    -------
    (value, derivative)
        Scalars for scalar input, ndarrays otherwise.
    """
    if l < 0:
        raise DomainError(f"negative Legendre degree {l}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = _check_x(x)
    p = np.ones_like(xa)
    dp = np.zeros_like(xa)
    if l > 0:
        p_prev, dp_prev = p, dp
        p, dp = xa.copy(), np.ones_like(xa)
        for k in range(1, l):
            p_next = ((2 * k + 1) * xa * p - k * p_prev) / (k + 1)
            dp_next = ((2 * k + 1) * (p + xa * dp) - k * dp_prev) / (k + 1)
            p_prev, dp_prev = p, dp
            p, dp = p_next, dp_next
    if scalar:
        return float(p), float(dp)
    return p, dp


# One coefficient table (amm, a, b, tri) for every cap up to _SHARED_ORDER:
# entries depend on (l, m) only, so it grows by appending rows to the
# largest such l_max asked for, and callers get read-only leading views. a
# and b are packed lower triangles, row l at offset tri[l] = l (l + 1) / 2
# holding m = 0..l. At 512 it holds 2.1 MB and covers the caps bench/run.py
# times (up to 402). Past it, a table extended from it serves one kernel
# call (L = 602 / 1002 / 2000: 2 / 11 / 50 ms, 3 / 8 / 32 MB).
_SHARED_ORDER = 512
_NORM_TABLE = (np.empty(0), np.empty(0), np.empty(0), np.zeros(1, dtype=np.intp))


def _row_offsets(rows: int) -> np.ndarray:
    """l (l + 1) / 2 for l = 0..rows, where row l of a packed lower triangle
    starts: a view of the shared table's when it holds that many."""
    tri = _NORM_TABLE[3]
    if tri.size <= rows:
        tri = np.arange(rows + 1)
        tri = tri * (tri + 1) // 2
    return tri[: rows + 1]


def _norm_coeffs(l_max: int):
    """Recurrence coefficients for orthonormal associated Legendre values.

    Returns (amm, a, b, tri). amm[m] starts the diagonal: P~_m^m =
    amm[m] (1-x^2)^{m/2}; a and b step up in l, P~_l^m = a x P~_{l-1}^m +
    b P~_{l-2}^m, with the coefficients of (l, m) at a[tri[l] + m] and
    b[tri[l] + m] (0 at m = l), tri[l] = l (l + 1) / 2 for l = 0..l_max + 1.
    Returns read-only leading views of the table (see _SHARED_ORDER),
    first extended by the missing rows when l_max exceeds its size.
    """
    global _NORM_TABLE
    amm, a, b, tri = _NORM_TABLE
    have, size = amm.size, l_max + 1
    if size > have:
        amm = np.concatenate((amm, np.empty(size - have)))
        if have == 0:
            amm[0] = math.sqrt(1.0 / (4.0 * math.pi))
        for m in range(max(have, 1), size):
            amm[m] = amm[m - 1] * math.sqrt((2 * m + 1) / (2.0 * m))
        tri = _row_offsets(size)
        grown = np.zeros((2, tri[size]))
        grown[0, : a.size], grown[1, : b.size] = a, b
        a, b = grown
        # the new rows' entries (l, m), have <= l < size and m < l, in blocks
        # of at most 2^14 entries (or one row), so that the index and formula
        # temporaries stay small beside the table
        step = max(1, (1 << 14) // size)
        for l0 in range(have, size, step):
            rows = np.arange(l0, min(size, l0 + step))
            l = np.repeat(rows, rows)
            m = np.arange(l.size) - np.repeat(np.cumsum(rows) - rows, rows)
            at = tri[l] + m
            lf, mf = l.astype(float), m.astype(float)
            a[at] = np.sqrt((4.0 * lf * lf - 1.0) / (lf * lf - mf * mf))
            b[at] = -np.sqrt(
                (2.0 * lf + 1.0)
                * ((lf - 1.0) * (lf - 1.0) - mf * mf)
                / ((2.0 * lf - 3.0) * (lf * lf - mf * mf))
            )
        for arr in (amm, a, b, tri):
            arr.setflags(write=False)
        if l_max <= _SHARED_ORDER:
            _NORM_TABLE = amm, a, b, tri
    end = tri[size]
    return amm[:size], a[:end], b[:end], tri[: size + 1]


def _legendre_column(coeffs, l_max: int, m: int, x: np.ndarray) -> np.ndarray:
    """P~_l^m(x) for l = m..l_max on a 1-D x in [-1, 1], row i holding l = m + i,
    with coeffs = _norm_coeffs(l_max or more). Each step is the arithmetic of
    harmonics._ring_recurrence operation for operation, (a x) P~_{l-1}^m +
    b P~_{l-2}^m, so a column equals that kernel's values bit for bit."""
    amm, a, b, tri = coeffs
    out = np.empty((l_max - m + 1, x.size))
    out[0] = amm[m] * np.maximum((1.0 - x) * (1.0 + x), 0.0) ** (0.5 * m)
    # (l, m) for l = m + 1..l_max
    at = tri[m + 1 : l_max + 1] + m
    ax = a[at, None] * x
    bm = b[at]
    for i in range(1, l_max - m + 1):
        np.multiply(ax[i - 1], out[i - 1], out=out[i])
        if i > 1:
            out[i] += bm[i - 1] * out[i - 2]
    return out


def assoc_legendre_column(l_max: int, m: int, x) -> np.ndarray:
    """All normalized values P~_l^m(x) for l = m..l_max in one upward pass.

    The result has shape (l_max - m + 1,) + shape(x); row i holds l = m + i.
    Its O(l_max - m) stepper also sums the rings of one or two orders in
    harmonics; the certification sums step all other orders m at once.
    """
    if m < 0 or m > l_max:
        raise DomainError(f"order m={m} outside 0..l_max={l_max}")
    xa = _check_x(x)
    col = _legendre_column(_norm_coeffs(l_max), l_max, m, xa.ravel())
    return col.reshape((l_max - m + 1,) + xa.shape)


def assoc_legendre(l: int, m: int, x):
    """Orthonormality-normalized associated Legendre value P~_l^m(x).

    Normalized so that 2*pi * integral_{-1}^{1} P~_l^m(x)^2 dx = 1, i.e.
    P~_l^m(cos t) e^{i m p} integrates to 1 against its conjugate over the
    full 4*pi solid angle. No Condon-Shortley phase. Requires 0 <= m <= l
    and |x| <= 1.
    """
    if l < 0 or m < 0 or m > l:
        raise DomainError(f"invalid associated Legendre indices l={l}, m={m}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    col = assoc_legendre_column(l, m, x)
    return float(col[-1]) if scalar else col[-1]


@dataclass(frozen=True)
class GaussLegendreRule:
    """Nodes and weights exact for polynomials of degree <= 2n - 1."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _legendre_pair(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)) for n >= 1 by the three-term recurrence, values only."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, p_prev


def gauss_legendre_rule(n: int) -> GaussLegendreRule:
    """Build the n-point Gauss-Legendre rule on [-1, 1].

    Roots of P_n are found by Newton iteration started from Tricomi's
    asymptotic nodes (1 - (n-1)/(8 n^3)) cos(pi (k - 1/4) / (n + 1/2)),
    as in Hale & Townsend (2013), which are within O(n^-4) of the roots
    and leave two or three sweeps. A sweep runs the value-only recurrence
    and takes P_n' = n (x P_n - P_{n-1}) / (x^2 - 1), valid because every
    root is interior. Only the positive half is iterated (the middle root
    of odd n is exactly 0) and the negative half mirrored, so nodes and
    weights are symmetric to the last bit. Iteration stops when every
    |dx| < 1e-15; more than 100 sweeps raises ConvergenceError naming the
    first stuck root. Weights 2 / ((1 - x^2) P_n'(x)^2) take P_n' from one
    final pass that carries the derivative (:func:`legendre_eval`); that
    pass also gives the root's offset p/P_n' below the spacing of doubles,
    and the weight is corrected for it to first order. A one-spacing node
    error near x = 1 would otherwise move the weight by about
    2x/(1 - x^2) spacings (1.4e-13 relative at n = 100).
    """
    if n < 1:
        raise DomainError(f"rule size must be >= 1, got {n}")
    half = n // 2
    k = np.arange(1, half + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        p, p_prev = _legendre_pair(n, x)
        dx = p * (x * x - 1.0) / (n * (x * p - p_prev))
        x -= dx
        if np.all(np.abs(dx) < _NEWTON_TOL):
            break
    else:
        bad = int(np.argmax(np.abs(dx) >= _NEWTON_TOL))
        raise ConvergenceError(
            f"Newton did not converge for root {bad} of P_{n} "
            f"within {_NEWTON_MAX_ITER} iterations",
            index=bad,
        )
    # the positive roots, descending, then the exact middle root 0 of odd n
    x = np.append(x, np.zeros(n % 2))
    p, dp = legendre_eval(n, x)
    # the root lies at x - p/dp and d(log w)/dx = -2x/(1 - x^2) there
    w = 2.0 / ((1.0 - x * x) * dp * dp) * (1.0 + 2.0 * x * (p / dp) / (1.0 - x * x))
    nodes = np.concatenate((-x[:half], x[::-1]))
    weights = np.concatenate((w[:half], w[::-1]))
    return GaussLegendreRule(n=n, nodes=nodes, weights=weights)
