"""Independent oracles for cross-checking povmquad's own numerics.

Everything here deliberately avoids the package's harmonic/Legendre code
paths: spherical harmonics come from scipy, Gauss-Legendre references from
numpy.polynomial, Dicke amplitudes from a brute-force 2^N tensor product,
close point pairs from an all-pairs scan, quadrature-averaged scores from
the overlap matrix raised to the power N+1, Dicke-basis Gram residuals
from the dense n x (N+1) matrix of Dicke rows, POVM files from one
`format` call per value, and game outcomes from the rejection sampler
(alias proposals k ~ c_k, accepted with probability overlap^N) that the
outcome-first sampler replaced. Two references are the package's own
earlier code: the all-orders ring kernel, which steps every order m over
every latitude ring, for the kernel that sums only the orders an
equispaced ring lets through; and the all-offsets ring Gram, which sums
every offset of the Dicke Gram over every ring, for the Gram that adds
the rings of period s > N to its diagonal alone; and the full-grid type-1
NUFFT, which spreads onto and transforms every row of the padded periodic
grid, for the one that holds only the rows its stencils touch. The dense
Dicke matrix
takes the package's magnitudes (povm._dicke_magnitudes, checked against
the tensor product and mpmath) times the phases e^{i j phi}.
"""
import cmath
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import sph_harm_y

from povmquad import _nufft
from povmquad.harmonics import _dense
from povmquad.orthopoly import _norm_coeffs
from povmquad.povm import _dicke_magnitudes
from povmquad.simulate import _alias_table
from povmquad.sphere import angles_to_xyz


def scipy_harmonic_residuals(theta, phi, weights, l_max):
    """max_m |sum_k w_k Y_l^m| for l = 1..l_max via scipy harmonics."""
    theta = np.asarray(theta, float)
    phi = np.asarray(phi, float)
    weights = np.asarray(weights, float)
    out = np.zeros(l_max)
    for l in range(1, l_max + 1):
        worst = 0.0
        for m in range(-l, l + 1):
            s = np.sum(weights * sph_harm_y(l, m, theta, phi))
            worst = max(worst, abs(s))
        out[l - 1] = worst
    return out


def scipy_harmonic_sums(l_max, theta, phi, weights):
    """S[l, m] = sum_k w_k Y_l^m for 0 <= m <= l <= l_max via scipy harmonics.

    A polar angle outside [0, pi] names the point (theta mod 2 pi, phi) if
    that lies in [0, pi], else (2 pi - theta mod 2 pi, phi + pi), without
    passing through cos(theta), so points near the poles keep their accuracy.
    """
    theta = np.mod(np.asarray(theta, float), 2 * math.pi)
    flip = theta > math.pi
    theta = np.where(flip, 2 * math.pi - theta, theta)
    phi = np.asarray(phi, float) + math.pi * flip
    l, m = np.tril_indices(l_max + 1)
    out = np.zeros((l_max + 1, l_max + 1), dtype=complex)
    out[l, m] = sph_harm_y(l[:, None], m[:, None], theta, phi) @ np.asarray(weights, float)
    return out


def all_orders_ring_sums(l_max, theta, phi, weights, block_elems=1 << 16):
    """S[l, m] = sum_k w_k Y_l^m for 0 <= m <= l <= l_max on the all-orders
    ring kernel: points grouped into rings of equal cos(theta), every order's
    phases reduced per ring, and one associated-Legendre recurrence in l for
    all orders at once. The same operations in the same order as the
    package's kernel on sets with no equispaced ring, so equal to the bit."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    w = np.asarray(weights, dtype=float)
    x = np.cos(theta)
    eiphi = np.exp(1j * phi)
    eiphi[np.sin(theta) < 0.0] *= -1.0
    order = np.argsort(x, kind="stable")
    x, eiphi, w = x[order], eiphi[order], w[order]
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    bounds = np.append(starts, x.size)
    rows = l_max + 1
    amm, a, b, _ = _norm_coeffs(l_max)
    a, b = _dense(a), _dense(b)
    sums = np.zeros((rows, rows, 2))
    block = max(1, block_elems // rows)
    for r0 in range(0, starts.size, block):
        r1 = min(starts.size, r0 + block)
        k0, k1 = bounds[r0], bounds[r1]
        ring_starts = starts[r0:r1] - k0
        phase = np.empty((rows, ring_starts.size), dtype=complex)
        wphase = w[k0:k1].astype(complex)
        for m in range(rows):
            if m:
                wphase *= eiphi[k0:k1]
            np.add.reduceat(wphase, ring_starts, out=phase[m])
        phase = np.ascontiguousarray(phase.view(float).reshape(rows, -1, 2).transpose(0, 2, 1))
        xr = x[starts[r0:r1]]
        s2 = np.maximum((1.0 - xr) * (1.0 + xr), 0.0)
        prev = np.zeros((rows, r1 - r0))
        cur = np.zeros((rows, r1 - r0))
        tmp = np.empty((rows, r1 - r0))
        for l in range(rows):
            if l:
                t = tmp[:l]
                np.multiply(a[l, :l, None], xr, out=t)
                t *= prev[:l]
                c = cur[:l]
                c *= b[l, :l, None]
                c += t
            cur[l] = amm[l] * s2 ** (0.5 * l) if l else amm[0]
            sums[l, : l + 1] += np.matmul(phase[: l + 1], cur[: l + 1, :, None])[..., 0]
            prev, cur = cur, prev
    out = sums[..., 0] + 1j * sums[..., 1]
    out[:, 1::2] *= -1.0
    return out


def full_grid_type1_sums(l_max, theta, phi, weights):
    """_nufft.type1_sums on the whole padded grid: every point spread onto
    n + WIDTH rows, the WIDTH / 2 rows past each edge folded onto the rows
    they wrap to, and one real FFT over phi and one FFT over theta of all n
    rows. The same operations in the same order as the package's transform
    on every row a stencil touches, so equal to the bit."""
    n = _nufft.grid_size(l_max)
    half, width = _nufft._HALF, _nufft.WIDTH
    x = np.mod(theta, 2.0 * math.pi)
    order = np.argsort(x, kind="stable")
    x = x[order]
    y = np.mod(np.asarray(phi, dtype=float)[order], 2.0 * math.pi)
    w = np.asarray(weights, dtype=float)[order]
    grid = np.zeros((n + width, n))
    offsets = np.arange(width)
    block = max(1, _nufft._SPREAD_ELEMS // width**2)
    for k0 in range(0, x.size, block):
        k1 = min(x.size, k0 + block)
        row, row_kernel = _nufft._stencil(x[k0:k1], n)
        col, col_kernel = _nufft._stencil(y[k0:k1], n)
        top = int(row[0])
        band = int(row[-1]) + width - top
        flat = ((row - top)[:, None] + offsets)[:, :, None] * n + (
            (col[:, None] + offsets) % n
        )[:, None, :]
        values = (w[k0:k1, None] * row_kernel)[:, :, None] * col_kernel[:, None, :]
        grid[top + half : top + half + band] += np.bincount(
            flat.ravel(), values.ravel(), minlength=band * n
        ).reshape(band, n)
    grid[n : n + half] += grid[:half]
    grid[half:width] += grid[n + half :]
    spectrum = np.fft.rfft(grid[half : half + n], axis=1)[:, : l_max + 1]
    p = np.arange(-l_max, l_max + 1)
    h = np.conjugate(np.fft.fft(spectrum, axis=0)[p % n])
    h /= (_nufft._kernel_transform(p, n)[:, None]
          * _nufft._kernel_transform(np.arange(l_max + 1), n))
    return h


def scipy_strength(theta, phi, weights, cap, tol=1e-10):
    res = scipy_harmonic_residuals(theta, phi, weights, cap)
    failing = np.nonzero(res > tol)[0]
    return cap if failing.size == 0 else int(failing[0])


def tensor_dicke(copies, theta, phi):
    """Symmetric-basis amplitudes of |Omega>^(x)N from the full 2^N vector."""
    single = np.array(
        [math.cos(0.5 * theta), cmath.exp(1j * phi) * math.sin(0.5 * theta)]
    )
    full = single
    for _ in range(copies - 1):
        full = np.kron(full, single)
    amps = np.zeros(copies + 1, dtype=complex)
    for idx in range(2**copies):
        amps[bin(idx).count("1")] += full[idx]
    norm = np.sqrt([math.comb(copies, j) for j in range(copies + 1)])
    return amps / norm


def dicke_matrix(copies, theta, phi):
    """Rows of symmetric-basis amplitudes for each direction; shape (n, N+1)."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    j = np.arange(copies + 1)
    return _dicke_magnitudes(copies, theta) * np.exp(1j * phi[:, None] * j)


def all_offsets_gram_residual(copies, theta, phi, w, diag, block_elems=1 << 16):
    """max entry of |sum_k w_k v_k v_k^dag - diag * I| summed ring by ring:
    points grouped by equal polar angle, entry (j + d, j) of the Gram is
    sum_r mag_{j+d}(theta_r) mag_j(theta_r) W_r[d] with
    W_r[d] = sum_{k in r} w_k e^{i d phi_k}, over every offset d. Rings go
    in blocks of block_elems // (N + 1), and the offsets of a block in
    chunks, so each working array holds at most block_elems values."""
    theta = np.asarray(theta, dtype=float)
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    eiphi = np.exp(1j * np.asarray(phi, dtype=float)[order])
    w = np.asarray(w, dtype=float)[order]
    starts = np.flatnonzero(np.concatenate(([True], theta[1:] != theta[:-1])))
    bounds = np.append(starts, theta.size)
    rows = copies + 1
    gram = np.zeros((rows, rows, 2))  # gram[d, j, (re, im)] = G[j + d, j]
    block = max(1, block_elems // rows)
    for r0 in range(0, starts.size, block):
        r1 = min(starts.size, r0 + block)
        k0, k1 = bounds[r0], bounds[r1]
        phase = np.empty((rows, r1 - r0), dtype=complex)
        wphase = w[k0:k1].astype(complex)
        for d in range(rows):
            if d:
                wphase *= eiphi[k0:k1]
            np.add.reduceat(wphase, starts[r0:r1] - k0, out=phase[d])
        # ring_phase[d, r, (re, im)] = W_r[d]
        ring_phase = phase.view(float).reshape(rows, -1, 2)
        # magnitudes by column, padded with zeros past j = N, and
        # shifted[d, j, r] = mag_{j + d}(theta_r): each offset is one slab
        mag = np.zeros((2 * rows - 1, r1 - r0))
        mag[:rows] = _dicke_magnitudes(copies, theta[starts[r0:r1]]).T
        s_j, s_r = mag.strides
        shifted = as_strided(mag, (rows, rows, r1 - r0), (s_j, s_j, s_r), writeable=False)
        chunk = max(1, block_elems // ((r1 - r0) * rows))
        prod = np.empty((min(chunk, rows), rows, r1 - r0))
        for c0 in range(0, rows, chunk):
            c1 = min(rows, c0 + chunk)
            np.multiply(shifted[c0:c1], mag[:rows], out=prod[: c1 - c0])
            gram[c0:c1] += prod[: c1 - c0] @ ring_phase[c0:c1]
    gram[0, :, 0] -= diag
    return float(np.hypot(gram[..., 0], gram[..., 1]).max())


def dense_gram_residual(v, w, diag):
    """max entry of |sum_k w_k v_k v_k^dag - diag * I| for Dicke rows v (n x (N+1))."""
    gram = v.T @ (np.asarray(w, float)[:, None] * v.conj())
    gram[np.diag_indices_from(gram)] -= diag
    return float(np.max(np.abs(gram)))


def _fmt17(x):
    return format(float(x), ".17g")


def povm_to_json_reference(p):
    """POVM JSON written one format call per value."""
    elements = ",\n    ".join(
        f'{{"c": {_fmt17(c)}, "theta": {_fmt17(t)}, "phi": {_fmt17(f)}}}'
        for c, t, f in zip(p.c, p.theta, p.phi)
    )
    score = _fmt17(float(p.c.sum()) / (p.copies + 2))
    return (
        "{\n"
        f'  "N": {p.copies},\n'
        f'  "n": {p.n},\n'
        f'  "elements": [\n    {elements}\n  ],\n'
        f'  "score_exact": {score}\n'
        "}\n"
    )


def povm_to_csv_reference(p):
    """POVM CSV written one format call per value."""
    lines = [
        f"# N={p.copies}",
        f"# n={p.n}",
        f"# score_exact={_fmt17(float(p.c.sum()) / (p.copies + 2))}",
        "c,theta,phi",
    ]
    lines += [f"{_fmt17(c)},{_fmt17(t)},{_fmt17(f)}" for c, t, f in zip(p.c, p.theta, p.phi)]
    return "\n".join(lines) + "\n"


def rotation_matrix(axis, angle):
    """Rodrigues rotation about a (not necessarily unit) axis."""
    ax = np.asarray(axis, float)
    ax = ax / np.linalg.norm(ax)
    k = np.array(
        [[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]], [-ax[1], ax[0], 0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def rotate_angles(theta, phi, rot):
    """Apply a rotation matrix to directions given as angle arrays."""
    xyz = angles_to_xyz(theta, phi) @ rot.T
    z = np.clip(xyz[:, 2], -1.0, 1.0)
    return np.arccos(z), np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), 2 * math.pi)


def first_close_pair(xyz, chord_tol, block=32):
    """Lowest (i, j), then lowest j, with i < j and chord <= chord_tol, or None.

    Brute force over all pairs i < j, in blocks of rows. Each pair is
    screened by its squared chord in Gram form, |x_i|^2 + |x_j|^2 -
    2 x_i . x_j, with a margin of 128 eps max |x|^2, far above the rounding
    error of that form; the pairs that pass are decided on the squared
    chord summed as in ingest.
    """
    xyz = np.asarray(xyz, float)
    sq = np.einsum("ij,ij->i", xyz, xyz)
    floor = sq - chord_tol * chord_tol - 128 * np.finfo(float).eps * sq.max()
    for start in range(0, len(xyz), block):
        rows = slice(start, start + block)
        # 2 x_i . x_j - |x_j|^2 >= |x_i|^2 - chord_tol^2 - margin
        gram = (2.0 * xyz[rows]) @ xyz[start:].T
        gram -= sq[start:]
        i, j = np.divmod(np.flatnonzero(gram >= floor[rows, None]), gram.shape[1])
        i, j = i[i < j] + start, j[i < j] + start  # ordered by i, then j
        diff = xyz[i] - xyz[j]
        close = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= chord_tol * chord_tol)
        if close.size:
            return int(i[close[0]]), int(j[close[0]])
    return None


def direct_averaged_score(p, q, block=512):
    """sum_j (w_j/4pi) sum_k c_k overlap(Omega_k, Omega_j)^(N+1), term by term.

    The overlap matrix of POVM p against rule q is formed in row blocks of
    q and raised to the power N+1 directly.
    """
    exyz = angles_to_xyz(p.theta, p.phi)
    dxyz = angles_to_xyz(q.theta, q.phi)
    wnorm = np.asarray(q.weights, float) / (4.0 * math.pi)
    total = 0.0
    for start in range(0, dxyz.shape[0], block):
        ov = np.clip(0.5 * (1.0 + dxyz[start:start + block] @ exyz.T), 0.0, 1.0)
        total += float(wnorm[start:start + block] @ (ov ** (p.copies + 1) @ p.c))
    return total


def _proposal_table(p):
    """Alias proposals k ~ c_k as (prob, outcome, e) over 2n columns.

    Column 2j is outcome j and column 2j+1 its alias (outcome[i] names
    the outcome of column i, e[:, i] is its unit vector), so the alias
    coin of column j only picks column 2j or 2j+1.
    """
    prob, alias = _alias_table(p.c)
    outcome = np.column_stack((np.arange(p.n), alias)).ravel()
    e = np.ascontiguousarray(angles_to_xyz(p.theta[outcome], p.phi[outcome]).T)
    return prob, outcome, e


def _pair_overlaps(d, e: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(1 + d_i . e_{cols_i})/2, where d is three coordinate rows of length P."""
    ov = d[0] * e[0].take(cols)
    ov += d[1] * e[1].take(cols)
    ov += d[2] * e[2].take(cols)
    ov += 1.0
    ov *= 0.5
    return ov


def _rejection_columns(rng, d, prob, e, copies: int) -> np.ndarray:
    """Accepted proposal column per true direction (d: three rows of length m).

    Each round draws a (2, P) uniform block for the P pending trials:
    row 0 proposes a column from the alias table, row 1 accepts with
    probability overlap^N. Pending trials are compacted after each round.
    """
    n = prob.size
    chosen = np.empty(d.shape[1], dtype=np.intp)
    pending = np.arange(d.shape[1])
    while pending.size:
        u = rng.random((2, pending.size))
        u[0] *= n
        col = u[0].astype(np.intp)
        cols = col << 1
        cols += u[0] - col >= prob.take(col)
        ov = _pair_overlaps(d, e, cols)
        # ov < 0 (rounding) gives nan and ov = 0 gives -inf: never accepted
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ov = np.log(ov)
            log_ov *= copies
            accept = np.log(u[1]) < log_ov
        hit = np.flatnonzero(accept)
        if hit.size:
            chosen[pending.take(hit)] = cols.take(hit)
            keep = ~accept
            pending = pending[keep]
            d = [row[keep] for row in d]
    return chosen
