"""Orthonormal complex spherical harmonics.

Convention: solid-angle normalization with the Condon-Shortley phase,

    integral over 4*pi steradians of Y_l^m conj(Y_l'^m') = delta delta,
    Y_0^0 = 1/sqrt(4*pi),
    Y_l^{-m} = (-1)^m conj(Y_l^m),

matching the common physics tabulations (and scipy's sph_harm_y). All
exactness checks downstream test the vanishing of weighted sums of these
values, so they are insensitive to the phase choice; the normalization is
what ties quadrature weights to POVM coefficients.

`ylm` runs one associated-Legendre column of order |m| through
orthopoly._legendre_column, the column stepper of the ring kernel's one-
or two-order path; scipy and the tests' oracles are the independent
references. Everything else goes through the ring kernel, in two steps:
`_ring_phases`, the azimuthal sums W[m, r] per latitude ring, and
`_ring_recurrence`, one recurrence in l for all m at once over the rings.
`weighted_harmonic_sums` feeds it the R distinct latitudes of the points,
O(R l_max^2 + n l_max), and is exact up to rounding; `harmonic_row` is its
one-point, unit-weight case.
The kernel holds every (l, m) array as its packed lower triangle, row l at
offset l (l + 1) / 2 holding m = 0..l: the recurrence coefficients
(orthopoly._norm_coeffs) and the (re, im) accumulator of S[l, m], half the
memory of square arrays. The Condon-Shortley phase (-1)^m is carried on the
phases W[m, r] before the recurrence, which leaves each sum's operations and
their order as they were: rounding to nearest commutes with negation. The
public functions unpack the triangle into the square arrays they return
(`_dense`). Its loops hold at most _BLOCK_ELEMS values per working array, the
package's one working-set budget (sphere).
`_dfs_harmonic_sums` feeds it l_max + 2 virtual rings from the Fourier
coefficients of the points on the torus (the double Fourier sphere), summed
directly up to l_max = _DIRECT_MAX_L, O(n l_max^2) in small real GEMMs,
and by type-1 NUFFT above, O(n w^2 + l_max^2 log l_max); plus O(l_max^3)
whatever R. quadrature._bounded_sums chooses between the two kernels by
their modelled costs (_ring_cost, _dfs_cost) and adds an allowance for the
transform.

Equispaced rings (Driscoll & Healy 1994; Healy, Rockmore, Kostelec &
Moore 2003). On a ring of s equal weights at azimuths phi_0 + 2 pi j / s,
sum_j w e^{i m phi_j} vanishes unless s divides m. `_ring_periods` finds
such rings in O(n) after the sort by cos(theta), and measures each point's
deviation delta_j from its ideal azimuth against 2 pi / s carried as a
double-double. `_ring_sums` then steps the recurrence for those rings only
at the orders m = 0, s, 2s, ..., one recurrence per period: a product rule
costs O(n + R l_max) instead of O(R l_max^2), plus an FFT of the
deviations, O(n log s). The orders a ring cancels are returned as exact
zeros; what its deviations add there is bounded by the allowance a_l of
`_ring_sums`, from the first-order expansion of e^{i m delta_j} and
|P~_l^m|^2 <= (2l+1)/8pi: max_m |exact S[l, m]| <= max(max_m |S[l, m]|, a_l).
For construct's product rules a_l is 1.5e-14 at N = 15 and 4.2e-12 at
N = 1000. A caller that must not let a_l decide a verdict passes a ceiling
(quadrature._bounded_sums: tol / 2): above it every ring takes the
all-orders path. Sets with no equispaced ring, and sums below order
_ROUTE_MIN_ROWS - 1, run the all-orders path bit for bit as before.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _nufft
from .errors import DomainError
from .orthopoly import _legendre_column, _norm_coeffs, _row_offsets, assoc_legendre_column
from .sphere import _BLOCK_ELEMS, TWO_PI, Direction

# A ring's azimuths count as equispaced when each is within this many
# radians of phi_0 + 2 pi j / s: 16 units in the last place of 2 pi.
# Azimuths formed as 2 pi j / s, or read back through atan2, are within a
# few.
_RING_SLACK = 16 * math.ulp(TWO_PI)
_EPS = float(np.finfo(float).eps)
# 2 pi - fl(2 pi), the low half of 2 pi as a double-double
_TWO_PI_LO = 2.4492935982947064e-16
# Bound on |delta - computed delta| in _ring_periods, for |phi| <= 4 pi and
# |delta| <= _RING_SLACK: eps/2 |delta| for the last addition plus about
# 10.5 pi eps^2 for the low-order terms, with a factor 2 to spare.
_DELTA_ERR = _EPS * _RING_SLACK + 24.0 * math.pi * _EPS * _EPS
# Rings are routed on their period only from this many orders (l_max + 1)
# on: below it, finding them and bounding what they cancel cost about as
# much as the all-orders recurrence over a few rings. On product rules (one
# BLAS thread) routing starts to pay at l_max + 1 = 8 for sums without the
# allowance, 12 with it, and 16 with it and two orders per period, where it
# is 145 against 146 us. The operator check of povm routes its rings from
# N + 1 = 16 on as well.
_ROUTE_MIN_ROWS = 16
# The double-Fourier-sphere route forms its Fourier coefficients H by the
# direct sum up to this order and by NUFFT above it (_dfs_harmonic_sums).
# On rotated product rules at one BLAS thread the direct sum takes 0.46 /
# 0.70 / 0.91 / 1.09 of the NUFFT's time at l_max = 56 / 64 / 70 / 72; a
# host with a GEMM 30 % slower still gains up to here.
_DIRECT_MAX_L = 64
# Cost of the direct sum per point and per (p, m) term in quadrature's cost
# model, whose NUFFT costs 1 per kernel value (WIDTH^2 per point). Per term
# the direct sum runs about 23 times faster than the NUFFT per kernel value
# from l_max = 36 on, but fixed costs weigh on small sets: this value puts
# the ring/DFS tie where it is measured, between rotated rules of orders 20
# (the ring kernel 5 % faster) and 25 (the route 10-15 % faster).
_DIRECT_TERM_COST = 0.1


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


def _ring_recurrence(ring_phase: np.ndarray, xr, s2r, sums: np.ndarray, coeffs, step: int = 1):
    """Add sum_r P~_l^m(xr_r) W[k, :, r] to S[l, m] for m = k step <= l < rows.

    S is the packed (re, im) accumulator `sums`, (l, m) in its row
    l (l + 1) / 2 + m, and coeffs = orthopoly._norm_coeffs(rows - 1). One
    normalized associated-Legendre recurrence steps l once for the orders
    m = 0, step, 2 step, ... at once, over blocks of at most _BLOCK_ELEMS
    Legendre values; row k of ring_phase holds order k step. Ring r lies at
    cos(theta) = xr[r] and sin(theta)^2 = s2r[r] (>= 0). No Condon-Shortley
    phase: the callers put it on the phases.
    """
    amm, a, b, _ = coeffs
    rows = amm.size
    orders = ring_phase.shape[0]
    block = max(1, _BLOCK_ELEMS // orders)
    for r0 in range(0, xr.size, block):
        r1 = min(xr.size, r0 + block)
        x = xr[r0:r1]
        s2 = s2r[r0:r1]
        phase = np.ascontiguousarray(ring_phase[:, :, r0:r1])
        # Row k of prev/cur is zero until step l = k step writes it, so the
        # first step of an order, P~_{m+1}^m = a x P~_m^m, needs no special
        # case (b[m + 1, m] = 0 multiplies a zero row).
        prev = np.zeros((orders, r1 - r0))
        cur = np.zeros((orders, r1 - r0))
        tmp = np.empty((orders, r1 - r0))
        row = 0  # l (l + 1) / 2, where row l of the triangles starts
        for l in range(rows):
            # prev holds P~_{l-1}^m; cur holds P~_{l-2}^m and becomes P~_l^m
            started = -(-l // step)  # orders m < l
            if started:
                t = tmp[:started]
                np.multiply(a[row : row + l : step, None], x, out=t)
                t *= prev[:started]
                c = cur[:started]
                c *= b[row : row + l : step, None]
                c += t
            k, off = divmod(l, step)
            if not off:
                cur[k] = amm[l] * s2 ** (0.5 * l) if l else amm[0]
            acc = sums[row : row + l + 1 : step]
            acc += np.matmul(phase[: k + 1], cur[: k + 1, :, None])[..., 0]
            prev, cur = cur, prev
            row += l + 1


def _dense(packed: np.ndarray) -> np.ndarray:
    """The square array of a packed lower triangle, (l, m) from its row
    l (l + 1) / 2 + m (np.tril_indices order), zeros above the diagonal."""
    rows = (math.isqrt(8 * packed.shape[0] + 1) - 1) // 2
    out = np.zeros((rows, rows) + packed.shape[1:], dtype=packed.dtype)
    out[np.tril_indices(rows)] = packed
    return out


def _row_max(sums: np.ndarray, rows: int, first: int = 0, orders=None) -> np.ndarray:
    """max_m |S[l, m]| for l = first..rows - 1 of a packed triangle S, taken
    in blocks of rows with no |S| of the whole table; with `orders`, a
    boolean mask over m, only where it is set (0 for a row with none)."""
    tri = _row_offsets(rows)
    step = max(1, _BLOCK_ELEMS // rows)
    blocks = []
    for l0 in range(first, rows, step):
        l1 = min(rows, l0 + step)
        base = l0 * (l0 + 1) // 2
        mag = np.abs(sums[base : l1 * (l1 + 1) // 2])
        starts = tri[l0:l1] - base
        if orders is not None:
            mag[~orders[np.arange(mag.size) - np.repeat(starts, np.arange(l0 + 1, l1 + 1))]] = 0.0
        blocks.append(np.maximum.reduceat(mag, starts))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _split(a):
    """Veltkamp's split a = hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _ring_periods(phi, w, bounds):
    """Find the equispaced rings among points grouped by `bounds`, in O(n).

    Ring r holds points bounds[r]:bounds[r + 1]. It qualifies when its
    s >= 2 weights are exactly equal and its azimuths, in any order, are
    phi_0 + 2 pi j / s + delta_j for j = 0..s-1, phi_0 the smallest, with
    every |phi| <= 4 pi and every |delta_j| <= _RING_SLACK. Returns
    (period, deviation, delta): per ring, period[r] = s for a qualifying
    ring, else 0, and deviation[r] >= |w| sum_j |delta_j|; and delta in j
    order, delta[bounds[r] + j] = delta_j of a qualifying ring (other
    entries are unspecified). delta is measured against 2 pi / s carried
    as a double-double, j 2 pi / s formed exactly from halves of 26 bits
    (Dekker's product): off the exact value by at most _DELTA_ERR, which
    the deviation includes. The weights and latitude
    of a ring are its own, so its phases need its deviations in no other
    order.

    For every order m that s does not divide, the ring's phases cancel
    exactly at the ideal azimuths, and |e^{ia} - e^{ib}| <= |a - b| leaves
    |sum_j w_j e^{i m phi_j}| <= m deviation[r].
    """
    counts = bounds[1:] - bounds[:-1]
    period = np.zeros(counts.size, dtype=np.intp)
    deviation = np.zeros(counts.size)
    delta = np.empty(phi.size + 1)  # a spare slot at the end
    candidate = (counts >= 2) & (counts < 1 << 26)
    if not candidate.any():
        return period, deviation, delta[:-1]
    # blocks of whole rings, at most _BLOCK_ELEMS // 2 points each (or one
    # ring), keep the two dozen temporaries of a block in cache
    r0 = 0
    while r0 < counts.size:
        r1 = int(np.searchsorted(bounds, bounds[r0] + _BLOCK_ELEMS // 2, "right")) - 1
        r1 = max(r0 + 1, r1)
        k0, k1 = bounds[r0], bounds[r1]
        _block_periods(phi[k0:k1], w[k0:k1], bounds[r0 : r1 + 1] - k0, candidate[r0:r1],
                       period[r0:r1], deviation[r0:r1], delta[k0 : k1 + 1])
        r0 = r1
    return period, deviation, delta[:-1]


def _spacing(s):
    """2 pi / s = h + h_lo as a double-double, with h = h1 + h2 in halves of
    at most 26 bits: for s < 2^26, s h1 and s h2 are exact, and so are both
    differences below. Scalar or array s."""
    h = TWO_PI / s
    h1, h2 = _split(h)
    return h, h1, h2, ((TWO_PI - s * h1) - s * h2 + _TWO_PI_LO) / s


def _block_periods(phi, w, bounds, candidate, period, deviation, ordered):
    """_ring_periods on one block of whole rings, written into its outputs;
    `ordered` has one spare slot past the block."""
    starts = bounds[:-1]
    counts = bounds[1:] - starts
    if counts.min() == counts.max():  # one size: the constants are scalars
        s = float(counts[0])
        h, h1, h2, h_lo = _spacing(s)
    else:
        s = counts.astype(float)
        h, h1, h2, h_lo = (np.repeat(v, counts) for v in _spacing(s))
        s = np.repeat(s, counts)
    phi0 = np.minimum.reduceat(phi, starts)
    # per point: delta = (d + d_lo) - (p + e) - j h_lo, where d + d_lo is
    # phi - phi_0 and p + e is j h, both exactly; d - p is exact wherever
    # |delta| is small (Sterbenz), the only points kept
    if phi0.any():
        d, d_lo = _two_sum(phi, -np.repeat(phi0, counts))
    else:  # every ring starts at 0
        d, d_lo = phi, 0.0
    j = np.rint(d / h)
    p = j * h
    e = j * h1 - p
    e += j * h2
    delta = (d - p) + ((d_lo - e) - j * h_lo)
    size = np.abs(delta)
    good = size <= _RING_SLACK
    good &= w == np.repeat(w[starts], counts)
    good &= j < s
    if np.abs(phi).max() > 2.0 * TWO_PI:
        good &= np.abs(phi) <= 2.0 * TWO_PI
    # s good points with 0 <= j < s fill the s slots of their ring once each
    slot = np.repeat(starts.astype(float), counts) + j
    slot[~good] = phi.size  # the spare slot
    slot = slot.astype(np.intp)
    ordered[slot] = delta
    filled = np.zeros(phi.size + 1, dtype=bool)
    filled[slot] = True
    ok = np.logical_and.reduceat(filled[:-1], starts)
    ok &= candidate
    if ok.any():
        size += _DELTA_ERR
        np.copyto(period, counts, where=ok)
        np.copyto(deviation, np.add.reduceat(size, starts) * np.abs(w[starts]), where=ok)


def _ring_spin(s: int, phi, delta, bounds):
    """e^{i s phi_k} for the points of equispaced rings of period s.

    Formed as e^{i s phi_0} e^{i s delta_j}, which is s phi_j less 2 pi j:
    no rounding of s phi_j, and the second factor from its Taylor series
    (|s delta_j| < 1e-6, so the terms left out are below 1e-25). Each ring's
    values come in j order (delta of _ring_periods).
    """
    counts = bounds[1:] - bounds[:-1]
    y = s * delta
    y2 = y * y
    spin = np.exp(1j * s * np.minimum.reduceat(phi, bounds[:-1])).repeat(counts)
    spin *= (1.0 - 0.5 * y2) + 1j * (y - y * y2 / 6.0)
    return spin


class _Rings(NamedTuple):
    """Points sorted by cos(theta) and grouped into latitude rings."""

    theta: np.ndarray  # as given, in the order of x
    x: np.ndarray  # cos(theta), ascending
    phi: np.ndarray
    w: np.ndarray
    flip: np.ndarray  # sin(theta) < 0: the point is (arccos x, phi + pi)
    bounds: np.ndarray  # ring r holds points bounds[r]:bounds[r + 1]
    period: np.ndarray  # per ring: s if routed on its period (_ring_periods), else 0; or None
    deviation: np.ndarray
    delta: np.ndarray  # in j order within each routed ring (_ring_periods)


def _latitude_rings(theta, phi, weights, detect: bool = True) -> _Rings:
    """Group points into rings of exactly equal cos(theta) and, if `detect`,
    find the equispaced ones (_ring_periods). A ring with a point past a
    pole (sin(theta) < 0) is never routed on its period. Points already in
    cos(theta) order, as product_rule and construct's files give them, are
    kept as views: a stable sort would leave them as they are."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    w = np.asarray(weights, dtype=float)
    x = np.cos(theta)
    # sin(theta) >= 0 on [0, pi] in floating point too
    flip = None
    if theta.size and (theta.min() < 0.0 or theta.max() > math.pi):
        flip = np.sin(theta) < 0.0
    if not np.all(x[1:] >= x[:-1]):  # NaN sorts as well
        order = np.argsort(x, kind="stable")
        theta, x, phi, w = theta[order], x[order], phi[order], w[order]
        if flip is not None:
            flip = flip[order]
    edge = np.ones(x.size + 1, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    period = deviation = delta = None
    if detect:
        period, deviation, delta = _ring_periods(phi, w, bounds)
        if flip is not None:
            period[np.logical_or.reduceat(flip, bounds[:-1])] = 0
    return _Rings(theta, x, phi, w, flip, bounds, period, deviation, delta)


def _subset(bounds, take):
    """(points, bounds) of the rings where `take` is set, in their order."""
    if take.all():
        return slice(None), bounds
    counts = bounds[1:] - bounds[:-1]
    return np.repeat(take, counts), np.concatenate(([0], np.cumsum(counts[take])))


def _routed_periods(rings: _Rings, rows: int):
    """Per ring, the period _ring_sums sums it on, or 0 for the all-orders
    path (None if the rings were not looked for). Where some ring takes the
    all-orders path anyway, only periods s that leave at most two orders
    below `rows` (2 s >= rows, the column path of _add_columns) are routed:
    a strided recurrence next to the all-orders one is bound by the same
    per-step numpy calls and saves little. On the bundled grids, whose
    period-2 and period-4 rings sit next to unrouted ones, certify at caps
    400 and 600 takes about a quarter less time this way (one BLAS
    thread)."""
    period = rings.period
    if period is None or period.all():
        return period
    return np.where(2 * period >= rows, period, 0)


def _ring_cost(l_max: int, rings: _Rings) -> float:
    """Ring-kernel cost of _ring_sums(l_max, ..., rings=rings) in units of
    l_max^2: one per ring on the all-orders path, ceil((l_max + 1) / s) /
    (l_max + 1) per ring routed on its period s."""
    rows = l_max + 1
    period = _routed_periods(rings, rows)
    count = rings.bounds.size - 1
    if period is None:
        return float(count)
    routed = period[period > 0]
    return (count - routed.size) + float(np.sum(-(-rows // routed))) / rows


def _add_columns(sums: np.ndarray, step: int, xr, ring_phase, coeffs):
    """_ring_recurrence for one or two orders: one Legendre column each
    (orthopoly._legendre_column, three numpy calls per step in l, the same
    values bit for bit) and one product with the phases at the end, where
    the batched recurrence takes about eight calls and a product per step.
    On product rules (one BLAS thread) three kernel calls on product_rule(40)
    take 0.9 ms this way and 1.5 ms through _ring_recurrence, and
    certify(product_rule(1000), 1002) 115-125 ms against 150-185 ms."""
    rows, tri = coeffs[0].size, coeffs[3]
    for k, m in enumerate(range(0, rows, step)):
        # column m of the packed accumulator: (l, m) at tri[l] + m, l >= m
        sums[tri[m:-1] + m] += _legendre_column(coeffs, rows - 1, m, xr) @ ring_phase[k].T


def _add_rings(sums: np.ndarray, step: int, x, phi, w, bounds, coeffs, delta=None, flip=None):
    """Add the rings bounds[r]:bounds[r + 1] of sorted points to the packed
    (re, im) accumulator, at the orders m = 0, step, 2 step, ... only. Each
    block of rings forms its own e^{i step phi}, row k of its ring phases
    being order k step: for step 1 as e^{i phi}, negated where `flip` is
    set; for rings of period step from their deviations `delta`
    (_ring_spin), and from the weights alone, order 0, when step > l_max."""
    rows = coeffs[0].size
    orders = -(-rows // step)
    starts = bounds[:-1]
    # one or two orders go column by column (_add_columns), whose working
    # arrays hold rows values per ring; more, in one batched recurrence
    columns = orders <= 2
    block = max(1, _BLOCK_ELEMS // (rows if columns else orders))
    for r0 in range(0, starts.size, block):
        r1 = min(starts.size, r0 + block)
        k0, k1 = bounds[r0], bounds[r1]
        if delta is None:
            eiphi = np.exp(1j * phi[k0:k1])
            if flip is not None:
                # the recurrence takes sin(theta) = sqrt(1 - x^2) >= 0
                eiphi[flip[k0:k1]] *= -1.0
        elif step < rows:
            eiphi = _ring_spin(step, phi[k0:k1], delta[k0:k1], bounds[r0 : r1 + 1] - k0)
        else:  # period past l_max: order 0 only
            eiphi = None
        if eiphi is None:
            ring_phase = np.zeros((1, 2, r1 - r0))
            ring_phase[0, 0] = np.add.reduceat(w[k0:k1], starts[r0:r1] - k0)
        else:
            ring_phase = _ring_phases(orders, eiphi, w[k0:k1], starts[r0:r1] - k0)
            if step % 2:
                # the Condon-Shortley phase (-1)^m: m = k step is odd at odd k
                ring_phase[1::2] *= -1.0
        xr = x[starts[r0:r1]]
        if columns:
            _add_columns(sums, step, xr, ring_phase, coeffs)
        else:
            # sin(theta)^2 from x, so sin(theta) = sqrt(1 - x^2) >= 0
            s2r = np.maximum((1.0 - xr) * (1.0 + xr), 0.0)
            _ring_recurrence(ring_phase, xr, s2r, sums, coeffs, step)


def _cancelled_phases(rings: _Rings, s: int, rows: int) -> np.ndarray:
    """G[m] >= sum_r |W_r[m]| over the rings of period s, for 0 <= m < rows.

    With phi_j = phi_0 + 2 pi j / s + delta_j and s not dividing m,
    W_r[m] = w e^{i m phi_0} sum_j e^{2 pi i m j / s} (e^{i m delta_j} - 1),
    and |e^{ix} - 1 - ix| <= x^2 / 2 <= |x| rows (_RING_SLACK + _DELTA_ERR) / 2,
    so |W_r[m]| <= m |w| (|F_r(m mod s)| + rows (_RING_SLACK + _DELTA_ERR) / 2
    sum_j |delta_j|), F_r the discrete Fourier transform of the ring's
    deviations in j order,
    taken by FFT in blocks of rings. |F_r| also allows for _DELTA_ERR per
    point and for the FFT's rounding, counted as 2^-30 sum_j |delta_j|
    (a stable FFT of length s is off by O(eps sqrt(s) log s) of that).
    G[m] = 0 where s divides m.
    """
    take = rings.period == s
    points, _ = _subset(rings.bounds, take)
    # each ring's s deviations in j order, one ring per row
    delta = rings.delta[points].reshape(-1, s)
    aw = np.abs(rings.w[rings.bounds[:-1][take]])
    spectrum = np.zeros(s)
    block = max(1, _BLOCK_ELEMS // s)
    for r0 in range(0, aw.size, block):
        spectrum += aw[r0 : r0 + block] @ np.abs(np.fft.fft(delta[r0 : r0 + block], axis=1))
    # the deviations of _ring_periods, which hold sum_j |w| (|delta_j| + _DELTA_ERR)
    spectrum += rings.deviation[take].sum() * (2.0**-30 + rows * (_RING_SLACK + _DELTA_ERR) / 2)
    spectrum += s * _DELTA_ERR * aw.sum()
    spectrum[0] = 0.0
    m = np.arange(rows)
    return m * spectrum[m % s]


def _ring_sums(l_max: int, theta, phi, weights, max_allowance: float | None = math.inf,
               rings: _Rings | None = None):
    """(S, a): the sums of weighted_harmonic_sums, as a packed triangle
    (_dense unpacks it), and a per-order allowance.

    Rings of s >= 2 equal weights at equispaced azimuths (_ring_periods)
    feed only the orders m = 0, s, 2s, ..., one recurrence per period s
    over the rings that share it: O(n + R l_max ceil((l_max + 1) / s)),
    plus an FFT of each ring's deviations, O(n log s). At every other
    order m their phases are taken as exactly zero; there the rings of
    period s add at most sqrt((2l+1)/8pi) G_s[m] to |S[l, m]|
    (_cancelled_phases), since |P~_l^m|^2 <= (2l+1)/8pi for m >= 1 by the
    addition theorem. a_l bounds that for every m <= l, so that

        max_m |exact S[l, m]| <= max(max_m |S[l, m]|, a_l).

    Where routed rings share a set with other periods or with rings on the
    all-orders path, a_l also carries the largest |S[l, m]| at the orders
    they cancel. The rings are routed only if a_l <= max_allowance at
    every order (0 routes none), and only from order _ROUTE_MIN_ROWS - 1
    on; otherwise every ring takes the all-orders path and a = 0, so a set
    with no qualifying ring gets exactly the all-orders sums. Beside rings
    on the all-orders path, only periods that leave one or two orders are
    routed (_routed_periods). With max_allowance None the rings are routed
    and a is not formed (None).
    `rings`, if given, is _latitude_rings(theta, phi, weights, detect=
    l_max + 1 >= _ROUTE_MIN_ROWS), found once by a caller that needs it too.
    """
    rows = l_max + 1
    if rings is None:
        rings = _latitude_rings(theta, phi, weights, detect=rows >= _ROUTE_MIN_ROWS)
    period = _routed_periods(rings, rows)
    periods = [] if period is None else sorted(set(period[period > 0].tolist()))
    allowance = None if max_allowance is None else np.zeros(rows)
    if periods and max_allowance is not None:
        cancelled = sum(_cancelled_phases(rings, s, rows) for s in periods)
        m = np.arange(rows)
        allowance = np.sqrt((2 * m + 1) / (8.0 * math.pi)) * np.maximum.accumulate(cancelled)
        if allowance.max() > max_allowance:
            periods = []
            allowance[:] = 0.0
    coeffs = _norm_coeffs(l_max)
    sums = np.zeros((coeffs[3][-1], 2))
    other = period == 0 if periods else np.ones(rings.bounds.size - 1, dtype=bool)
    if other.any():
        points, bounds = _subset(rings.bounds, other)
        flip = None if rings.flip is None else rings.flip[points]
        _add_rings(sums, 1, rings.x[points], rings.phi[points], rings.w[points], bounds, coeffs,
                   flip=flip)
    for s in periods:
        points, bounds = _subset(rings.bounds, period == s)
        _add_rings(sums, s, rings.x[points], rings.phi[points], rings.w[points], bounds, coeffs,
                   delta=rings.delta[points])
    out = sums.view(complex)[:, 0]
    if allowance is not None and (len(periods) > 1 or (periods and other.any())):
        # orders that other rings may feed as well
        shared = cancelled > 0
        if shared.any():
            allowance += _row_max(out, rows, orders=shared)
    return out, allowance


def weighted_harmonic_sums(l_max: int, theta, phi, weights) -> np.ndarray:
    """Sums S[l, m] = sum_k w_k Y_l^m(theta_k, phi_k) for 0 <= m <= l <= l_max.

    The certification kernel. Points are grouped into latitude rings
    of exactly equal cos(theta) and their weighted azimuthal phases reduced
    per ring, W[m, r] = sum_{k in r} w_k e^{i m phi_k} (_ring_phases); one
    normalized associated-Legendre recurrence then steps l once for all
    orders m at once over the R distinct latitudes, accumulating S[l, m] as
    it goes (_ring_recurrence) in a packed triangle, unpacked on return.
    Cost is O(R * l_max^2 + n * l_max): product rules and Lebedev orbits
    repeat latitudes, and a set without repeats is simply R = n. From order
    _ROUTE_MIN_ROWS - 1 on, a ring of s equal weights at equispaced azimuths
    only feeds the orders m = 0, s, 2s, ..., so a product rule costs
    O(n + R l_max). Its other orders are returned
    as exactly 0, although the ring's deviations of a few ulps from the
    ideal azimuths leave up to about 4e-12 there at l_max = 1000. This
    function does not report that allowance, so a residual taken from
    these sums alone is not an upper bound: certify, and so every
    completeness bound, takes them from quadrature._bounded_sums, which
    adds it. Rings are processed in blocks of at most _BLOCK_ELEMS Legendre
    values, so working memory beyond the O(n) inputs does not grow with n.
    Only m >= 0 is returned; for real weights |S[l, -m]| = |S[l, m]|. A
    polar angle outside [0, pi] counts as the point it names: where
    sin(theta) < 0 that is (arccos(cos theta), phi + pi).
    """
    return _dense(_ring_sums(l_max, theta, phi, weights, None)[0])


def _dfs_cost(n: int, l_max: int) -> float:
    """Model cost of _dfs_harmonic_sums of n points, in the units of
    quadrature's cost model: the transform it runs, n (l_max + 1)^2
    _DIRECT_TERM_COST for the direct sum or n WIDTH^2 for the NUFFT, plus
    l_max^3 for the recurrence over the virtual rings."""
    if l_max <= _DIRECT_MAX_L:
        per_point = (l_max + 1) ** 2 * _DIRECT_TERM_COST
    else:
        per_point = _nufft.WIDTH**2
    return n * per_point + float(l_max) ** 3


def _dfs_harmonic_sums(l_max: int, theta, phi, weights) -> np.ndarray:
    """weighted_harmonic_sums through the double Fourier sphere, in
    O(n min(WIDTH^2, l_max^2) + l_max^2 log l_max + l_max^3) instead of
    O(R l_max^2), returned as the packed triangle of _ring_sums.

    With sin^m(theta) signed, Y_l^m is a trigonometric polynomial of degree
    <= l in theta on [0, 2 pi) (Merilees 1973; Townsend, Wilber & Wright
    2016). So S[l, m] = sum_j F(theta_j) G[j, m] exactly, where
    G[j, m] = (1/M) sum_p H[p, m] e^{-i p theta_j} on M = 2 l_max + 2
    equispaced theta_j and H[p, m] = sum_k w_k e^{i (p theta_k + m phi_k)}
    for |p| <= l_max. Folding theta_j > pi onto 2 pi - theta_j with the
    factor (-1)^m leaves l_max + 2 virtual rings at theta = pi j / (l_max + 1),
    fed to the same ring recurrence, with sin(theta_j) taken from theta_j.
    H is summed term by term (_nufft.direct_sums, 4 (l_max + 1)^2
    multiply-adds per point) up to l_max = _DIRECT_MAX_L and by type-1 NUFFT
    (_nufft.type1_sums, WIDTH^2 kernel values per point) above it. The NUFFT
    carries an error with no rigorous bound: about 1e-14 |w_k| per point,
    1e-15 sum |w| once many points' errors average out (_nufft). The direct
    sum is exact up to rounding, within 2e-14 of mpmath at sum |w| = 4 pi on
    the tests' adversarial sets, but callers that certify keep the same
    allowance on both transforms (quadrature.certify). Any finite theta is
    accepted and names the same point as in weighted_harmonic_sums.
    """
    rows = l_max + 1
    transform = _nufft.direct_sums if l_max <= _DIRECT_MAX_L else _nufft.type1_sums
    h = transform(l_max, theta, phi, weights)
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
    phases = np.stack((ring.real.T, ring.imag.T), axis=1)
    phases[1::2] *= -1.0  # the Condon-Shortley phase
    coeffs = _norm_coeffs(l_max)
    sums = np.zeros((coeffs[3][-1], 2))
    _ring_recurrence(phases, np.cos(theta_j), sin_j * sin_j, sums, coeffs)
    return sums.view(complex)[:, 0]
