import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import sph_harm_y

from povmquad import harmonics, orthopoly
from povmquad.cli import _load_pointset, default_grid_dir
from povmquad.errors import DomainError
from povmquad.harmonics import HarmonicIndex, harmonic_row, weighted_harmonic_sums, ylm
from povmquad.orthopoly import assoc_legendre, assoc_legendre_column
from povmquad.quadrature import DEFAULT_TOL, _dfs_allowance, certify, ingest_pointset, product_rule
from povmquad.sphere import (
    Direction,
    angles_to_xyz,
    default_rng,
    sample_uniform,
    sample_uniform_angles,
)

from _oracles import all_orders_ring_sums, rotate_angles, rotation_matrix, scipy_harmonic_sums

INV_SQRT_4PI = 1.0 / math.sqrt(4.0 * math.pi)


def test_y00_is_constant():
    for d in (Direction(0, 0), Direction(1.1, 2.2), Direction(math.pi, 0)):
        assert ylm((0, 0), d) == complex(INV_SQRT_4PI)


def test_y10_vanishes_on_equator():
    assert abs(ylm(HarmonicIndex(1, 0), Direction(math.pi / 2, 0.3))) < 1e-15


def test_mean_square_amplitude_over_sphere():
    # orthonormality under the solid-angle measure: 4*pi * E|Y_3^2|^2 = 1
    rng = default_rng(8)
    theta, _ = sample_uniform_angles(rng, 1_000_000)
    vals = assoc_legendre(3, 2, np.cos(theta))  # |Y_3^2| = |P~_3^2|
    assert 4.0 * math.pi * np.mean(vals**2) == pytest.approx(1.0, abs=0.005)


def test_harmonic_row_single_entry():
    row = harmonic_row(0, Direction(0.4, 0.9))
    assert len(row) == 1
    assert row[0][0] == complex(INV_SQRT_4PI)


def test_harmonic_row_north_pole_kills_nonzero_m():
    for d in (Direction(0.0, 0.0), Direction(math.pi, 0.0)):
        rows = harmonic_row(12, d)
        for l in range(13):
            for m in range(-l, l + 1):
                if m != 0:
                    assert rows[l][l + m] == 0.0


def test_harmonic_row_consistent_with_ylm():
    rng = default_rng(17)
    worst = 0.0
    for _ in range(100):
        d = sample_uniform(rng)
        rows = harmonic_row(50, d)
        for l in (0, 1, 2, 7, 23, 50):
            for m in (-l, -1 if l else 0, 0, 1 if l else 0, l):
                worst = max(worst, abs(rows[l][l + m] - ylm((l, m), d)))
    assert worst < 1e-13


def test_conjugation_symmetry_exact():
    rng = default_rng(23)
    for _ in range(50):
        d = sample_uniform(rng)
        for l in (1, 3, 8):
            for m in range(1, l + 1):
                lhs = ylm((l, -m), d)
                rhs = (-1) ** m * ylm((l, m), d).conjugate()
                assert lhs == rhs


def test_addition_theorem():
    # sum_m |Y_l^m|^2 = (2l+1)/(4*pi), independent of direction
    rng = default_rng(40)
    for d in [sample_uniform(rng) for _ in range(5)]:
        rows = harmonic_row(60, d)
        for l in range(61):
            total = float(np.sum(np.abs(rows[l]) ** 2))
            expected = (2 * l + 1) / (4 * math.pi)
            assert abs(total - expected) < 1e-12 * expected


def test_matches_scipy_convention():
    rng = default_rng(3)
    worst = 0.0
    for _ in range(20):
        d = sample_uniform(rng)
        for l in range(11):
            for m in range(-l, l + 1):
                ref = complex(sph_harm_y(l, m, d.theta, d.phi))
                worst = max(worst, abs(ylm((l, m), d) - ref))
    assert worst < 1e-12


def test_discrete_orthonormality_under_product_rule():
    l_max = 8
    q = product_rule(2 * l_max)
    rows = [harmonic_row(l_max, Direction(t, p)) for t, p in zip(q.theta, q.phi)]
    flat = np.array(
        [
            [rows[k][l][l + m] for l in range(l_max + 1) for m in range(-l, l + 1)]
            for k in range(q.n)
        ]
    )
    gram = flat.conj().T @ (q.weights[:, None] * flat)
    assert np.max(np.abs(gram - np.eye(flat.shape[1]))) < 1e-10


def test_weighted_sums_match_direct_loop():
    rng = default_rng(12)
    theta, phi = sample_uniform_angles(rng, 37)
    w = rng.uniform(0.1, 1.0, 37)
    sums = weighted_harmonic_sums(6, theta, phi, w)
    for l in range(7):
        for m in range(l + 1):
            direct = sum(
                wk * ylm((l, m), Direction(t, p)) for wk, t, p in zip(w, theta, phi)
            )
            assert abs(sums[l, m] - direct) < 1e-13


def test_index_validation():
    with pytest.raises(DomainError):
        ylm((2, 3), Direction(1.0, 1.0))
    with pytest.raises(DomainError):
        ylm((-1, 0), Direction(1.0, 1.0))
    with pytest.raises(DomainError):
        harmonic_row(-1, Direction(1.0, 1.0))


def per_m_sums(l_max, theta, phi, weights):
    """Reference: one associated-Legendre column per order m over all points."""
    x = np.cos(theta)
    eiphi = np.exp(1j * np.asarray(phi, dtype=float))
    eiphi[np.sin(theta) < 0.0] *= -1.0
    wphase = np.asarray(weights, dtype=float).astype(complex)
    out = np.zeros((l_max + 1, l_max + 1), dtype=complex)
    for m in range(l_max + 1):
        if m:
            wphase = wphase * eiphi
        cols = assoc_legendre_column(l_max, m, x)
        s = cols @ wphase.real + 1j * (cols @ wphase.imag)
        out[m:, m] = -s if m % 2 else s
    return out


def _kernel_cases():
    rot = rotation_matrix([0.3, -1.1, 0.7], 0.9)
    for order in (36, 80, 131):
        q = product_rule(order)
        yield f"plain-{order}", order + 2, q.theta, q.phi, q.weights
        theta, phi = rotate_angles(q.theta, q.phi, rot)
        yield f"rotated-{order}", order + 2, theta, phi, q.weights
    with open(default_grid_dir() / "lebedev_0086.txt") as fh:
        q = ingest_pointset(fh, "explicit")
    for cap in (400, 600):
        yield f"lebedev-86-cap-{cap}", cap, q.theta, q.phi, q.weights
    rng = default_rng(44)
    q = product_rule(44)
    yield (
        "jittered-44", 46,
        q.theta + rng.normal(0.0, 1e-3, q.n), q.phi + rng.normal(0.0, 1e-3, q.n), q.weights,
    )


@pytest.mark.parametrize("case", list(_kernel_cases()), ids=lambda c: c[0])
def test_ring_kernel_matches_per_m_reference(case):
    _, l_max, theta, phi, w = case
    diff = weighted_harmonic_sums(l_max, theta, phi, w) - per_m_sums(l_max, theta, phi, w)
    assert np.max(np.abs(diff)) < 1e-13


@pytest.mark.parametrize("rings_per_block", [1, 7])
def test_ring_kernel_does_not_depend_on_block_budget(rings_per_block, monkeypatch):
    rot = rotation_matrix([1.0, 0.2, -0.4], 2.1)
    q = product_rule(20)
    theta, phi = rotate_angles(q.theta, q.phi, rot)
    for t, p in ((q.theta, q.phi), (theta, phi)):
        whole = weighted_harmonic_sums(22, t, p, q.weights)
        monkeypatch.setattr(harmonics, "_BLOCK_ELEMS", 23 * rings_per_block)
        blocked = weighted_harmonic_sums(22, t, p, q.weights)
        monkeypatch.undo()
        assert np.max(np.abs(blocked - whole)) <= 1e-14


# The double-Fourier-sphere route: a type-1 NUFFT onto virtual rings, then
# the same ring recurrence. quadrature.certify adds the allowance a_l to
# every residual it takes from this route.


def _bench_jitter(order, seed):
    """A product rule with every unit vector moved by N(0, 1e-3) noise, as the
    certify benchmark builds its jittered sets."""
    q = product_rule(order)
    rng = default_rng(seed)
    xyz = angles_to_xyz(q.theta, q.phi) + rng.normal(scale=1e-3, size=(q.n, 3))
    xyz /= np.linalg.norm(xyz, axis=1)[:, None]
    theta = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
    return theta, np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), 2 * math.pi), q.weights


def _dfs_cases():
    rot = rotation_matrix([0.3, -1.1, 0.7], 0.9)
    for order in (36, 80, 131):
        q = product_rule(order)
        theta, phi = rotate_angles(q.theta, q.phi, rot)
        yield f"rotated-{order}", order + 2, theta, phi, q.weights
    for order, seed in ((20, 5), (44, 6)):
        yield (f"jittered-{order}", order + 2) + _bench_jitter(order, seed)
    # the same rotated rule with every third polar angle outside [0, pi]:
    # -theta, 2 pi - theta and theta + 2 pi, azimuths turned to keep the point
    q = product_rule(30)
    theta, phi = rotate_angles(q.theta, q.phi, rotation_matrix([1.0, 0.5, 0.2], 1.3))
    theta, phi = theta.copy(), phi.copy()
    theta[0::3], phi[0::3] = -theta[0::3], phi[0::3] + math.pi
    theta[1::3], phi[1::3] = 2 * math.pi - theta[1::3], phi[1::3] + math.pi
    theta[2::3] += 2 * math.pi
    yield "theta-outside", 32, theta, phi, q.weights


@pytest.mark.parametrize("case", list(_dfs_cases()), ids=lambda c: c[0])
def test_dfs_sums_match_ring_kernel(case):
    _, l_max, theta, phi, w = case
    diff = np.abs(harmonics._dense(harmonics._dfs_harmonic_sums(l_max, theta, phi, w))
                  - weighted_harmonic_sums(l_max, theta, phi, w))
    assert diff.max() <= 1e-13
    assert np.all(diff.max(axis=1) <= _dfs_allowance(l_max, w) / 10)


def _bundled_grids():
    for path in sorted(default_grid_dir().glob("*.txt")):
        yield path.name, _load_pointset(path, "auto")


@pytest.mark.parametrize("cap", [400, 600])
def test_dfs_sums_on_bundled_grids(cap):
    # A few heavy points at orders 400-600, where 1e-13 is below what any of
    # the kernels resolves: the ring kernel and scipy's harmonics differ by
    # up to 1.1e-12 on these grids at cap 600, moving every angle by one unit
    # in the last place moves the ring kernel's sums by up to 3e-12, and on
    # the polar pair (design_0002) the ring kernel is 1.1e-11 off the closed
    # form. The measured gap is 2e-13 to 1.1e-12, at most 0.26 a_l. These
    # sets share latitudes (R <= 20), so certify never routes them here.
    for name, q in _bundled_grids():
        ring = weighted_harmonic_sums(cap, q.theta, q.phi, q.weights)
        diff = np.abs(harmonics._dense(harmonics._dfs_harmonic_sums(cap, q.theta, q.phi, q.weights))
                      - ring)
        assert diff.max() <= 2e-12, name
        assert np.all(diff.max(axis=1) <= _dfs_allowance(cap, q.weights) / 3), name


# weights scale the sums and the allowance alike; magnitudes below 1e-3
# would only test underflow in products with the kernel's 1e-16 tails
_WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
_ANGLES = st.floats(-7.0, 7.0)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 1500).flatmap(
        lambda n: st.tuples(*(
            hnp.arrays(np.float64, n, elements=e) for e in (_ANGLES, _ANGLES, _WEIGHTS)
        ))
    ),
)
def test_dfs_sums_stay_within_the_allowance(l_max, points):
    # Against scipy's harmonics, which take sin(theta) from theta: the ring
    # kernel forms it as sqrt((1 - x)(1 + x)) and loses eps / theta^2 near the
    # poles (4e-10 at theta = 1e-6), so it is no reference there. A single
    # heavy point near a pole is the worst case measured: 0.34 a_l at L = 31.
    theta, phi, w = points
    diff = np.abs(harmonics._dense(harmonics._dfs_harmonic_sums(l_max, theta, phi, w))
                  - scipy_harmonic_sums(l_max, theta, phi, w))
    assert np.all(diff.max(axis=1) <= _dfs_allowance(l_max, w))


# Rings of s equal weights at equispaced azimuths feed only the orders
# m = 0, s, 2s, ...; the other orders are exact zeros, with the allowance a_l
# of _ring_sums for what the rings' deviations from the ideal azimuths add.
# The reference is the all-orders ring kernel, kept in the oracles.


def _strength(sums, allowance, tol=DEFAULT_TOL):
    residual = np.abs(sums[1:]).max(axis=1)
    if allowance is not None:
        residual = np.maximum(residual, allowance[1:])
    failing = np.flatnonzero(residual > tol)
    return sums.shape[0] - 1 if failing.size == 0 else int(failing[0])


def _turned_about_z(q, angle):
    return q.theta, np.mod(q.phi + angle, 2 * math.pi)


def _routed_cases():
    rot = rotation_matrix([0.3, -1.1, 0.7], 0.9)
    for order in list(range(1, 132)) + [300]:
        q = product_rule(order)
        l_max = order + 2
        yield f"plain-{order}", l_max, q.theta, q.phi, q.weights
        if order <= 131:
            # the reference steps e^{i m phi} by m products, m eps off: past
            # order 131 that alone exceeds the 1e-13 compared here
            yield (f"about-z-{order}", l_max) + _turned_about_z(q, 0.1 + order / 7.0) + (q.weights,)
        if order % 10 == 1:
            # no shared latitudes (R = n): the all-orders path, 16 s at order 300
            theta, phi = rotate_angles(q.theta, q.phi, rot)
            yield f"rotated-{order}", l_max, theta, phi, q.weights


@pytest.mark.parametrize("case", list(_routed_cases()), ids=lambda c: c[0])
def test_routed_sums_match_the_all_orders_kernel(case):
    _, l_max, theta, phi, w = case
    sums, allowance = harmonics._ring_sums(l_max, theta, phi, w)
    sums = harmonics._dense(sums)
    reference = all_orders_ring_sums(l_max, theta, phi, w)
    assert np.max(np.abs(sums - reference)) <= 1e-13
    # the reference's own residuals, which carry no allowance, decide alike
    assert _strength(sums, allowance) == _strength(reference, None)
    assert np.array_equal(weighted_harmonic_sums(l_max, theta, phi, w), sums)


@pytest.mark.parametrize("order", [15, 131])
def test_routed_columns_in_blocks_of_rings_agree(order, monkeypatch):
    # one or two orders per period go column by column in blocks of
    # _BLOCK_ELEMS // (l_max + 1) rings; product_rule(1000) takes eight
    q = product_rule(order)
    l_max = order + 2
    whole, allowance = harmonics._ring_sums(l_max, q.theta, q.phi, q.weights)
    whole = harmonics._dense(whole)
    reference = all_orders_ring_sums(l_max, q.theta, q.phi, q.weights)
    for rings in (1, 7):
        monkeypatch.setattr(harmonics, "_BLOCK_ELEMS", rings * (l_max + 1))
        sums, blocked = harmonics._ring_sums(l_max, q.theta, q.phi, q.weights)
        sums = harmonics._dense(sums)
        assert np.max(np.abs(sums - whole)) <= 1e-15
        assert np.max(np.abs(sums - reference)) <= 1e-13
        assert np.allclose(blocked, allowance, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("cap, agree", [(16, 1e-13), (400, 5e-13), (600, 5e-13)])
def test_routed_sums_on_bundled_grids(cap, agree):
    # At orders 400-600 the two kernels each differ from scipy's harmonics by
    # up to 1.1e-12 on these few heavy points (the reference steps e^{i m phi}
    # by m products); they differ from each other by up to 3.8e-13.
    for path in sorted(default_grid_dir().glob("*.txt")):
        q = _load_pointset(path, "auto")
        sums, allowance = harmonics._ring_sums(cap, q.theta, q.phi, q.weights)
        sums = harmonics._dense(sums)
        reference = all_orders_ring_sums(cap, q.theta, q.phi, q.weights)
        assert np.max(np.abs(sums - reference)) <= agree, path.name
        assert _strength(sums, allowance) == _strength(reference, None), path.name
        assert np.all(allowance <= DEFAULT_TOL / 2), path.name


def test_product_rules_route_every_ring():
    for order in (15, 40, 131):
        q = product_rule(order)
        rings = harmonics._latitude_rings(q.theta, q.phi, q.weights)
        assert np.all(rings.period == order + 1)
        # the measured deviations: a few ulps of 2 pi per point
        assert rings.deviation.sum() < 4 * np.spacing(2 * math.pi) * q.weights.sum()


def _no_ring_cases():
    rot = rotation_matrix([1.0, 0.2, -0.4], 2.1)
    for order in (15, 36, 80):
        q = product_rule(order)
        yield (f"rotated-{order}", order + 2) + rotate_angles(q.theta, q.phi, rot) + (q.weights,)
    rng = default_rng(12)
    q = product_rule(30)
    yield "jittered-30", 32, q.theta + rng.normal(0, 1e-3, q.n), q.phi, q.weights
    yield "one-point", 20, [0.7], [1.3], [2.0]
    theta, phi = sample_uniform_angles(default_rng(5), 300)
    yield "random", 25, theta, phi, np.ones(300)
    # rings of periods 2 and 4 next to rings of no period: at cap 400 they
    # leave too many orders to be routed
    for name in ("lebedev_0050", "design_0012"):
        q = _load_pointset(default_grid_dir() / f"{name}.txt", "auto")
        yield f"{name}-400", 400, q.theta, q.phi, q.weights


@pytest.mark.parametrize("case", list(_no_ring_cases()), ids=lambda c: c[0])
def test_sets_with_no_equispaced_ring_keep_the_all_orders_bits(case):
    _, l_max, theta, phi, w = case
    sums, allowance = harmonics._ring_sums(l_max, theta, phi, w)
    assert np.array_equal(harmonics._dense(sums), all_orders_ring_sums(l_max, theta, phi, w))
    assert not allowance.any()


def _ring(s, theta, phi0=0.0, weight=1.0):
    return (np.full(s, theta), phi0 + 2 * math.pi * np.arange(s) / s, np.full(s, weight))


def _join(*rings):
    return tuple(np.concatenate(parts) for parts in zip(*rings))


def _periods(theta, phi, w):
    rings = harmonics._latitude_rings(theta, phi, w)
    return dict(zip(np.cos(np.asarray(theta))[np.argsort(np.cos(theta), kind="stable")][rings.bounds[:-1]],
                    rings.period))


def test_ring_detection_edge_cases():
    l_max = 24
    cases = {}
    # azimuths in any order, and phi_0 anywhere: still routed
    theta, phi, w = _ring(7, 1.1, phi0=2.5)
    perm = default_rng(3).permutation(7)
    cases["unsorted"] = (theta[perm], np.mod(phi[perm], 2 * math.pi), w, 7)
    # unequal weights, a point moved by 1e-12, a point repeated: not routed
    theta, phi, w = _ring(9, 0.8)
    cases["unequal weights"] = (theta, phi, w * (1 + 1e-15 * np.arange(9)), 0)
    cases["moved 1e-12"] = (theta, phi + np.eye(9)[4] * 1e-12, w, 0)
    cases["repeated"] = (theta, np.where(np.arange(9) == 8, phi[0], phi), w, 0)
    # both poles, and polar angles outside [0, pi]: theta + 2 pi keeps the
    # ring, -theta names the ring at (theta, phi + pi) and is not routed
    theta, phi, w = _ring(6, 0.0)
    cases["north pole"] = (theta, phi, w, 6)
    cases["south pole"] = (theta + math.pi, phi, w, 6)
    theta, phi, w = _ring(8, 1.3)
    cases["theta + 2 pi"] = (theta + 2 * math.pi, phi, w, 8)
    cases["-theta"] = (-theta, phi, w, 0)
    for name, (theta, phi, w, expect) in cases.items():
        assert list(_periods(theta, phi, w).values()) == [expect], name
        sums, allowance = harmonics._ring_sums(l_max, theta, phi, w)
        sums = harmonics._dense(sums)
        reference = all_orders_ring_sums(l_max, theta, phi, w)
        assert np.max(np.abs(sums - reference)) <= 1e-14, name
    # a set of several rings and periods, and rings that are not routed
    mixed = _join(_ring(5, 0.4), _ring(7, 1.0, weight=0.5), _ring(5, 2.0, phi0=0.3),
                  (np.full(3, 2.5), np.array([0.1, 1.0, 4.0]), np.ones(3)))
    assert sorted(_periods(*mixed).values()) == [0, 5, 5, 7]
    sums, allowance = harmonics._ring_sums(l_max, *mixed)
    sums = harmonics._dense(sums)
    reference = all_orders_ring_sums(l_max, *mixed)
    assert np.max(np.abs(sums - reference)) <= 1e-14
    assert np.all(np.abs(reference).max(axis=1)
                  <= np.maximum(np.abs(sums).max(axis=1), allowance) + 1e-14)


@pytest.mark.parametrize("l_max", [16, 130, 600])
def test_columns_step_the_all_orders_arithmetic(l_max):
    # the one- or two-order path (orders 0 and ceil((l_max + 1) / 2)) and the
    # all-orders recurrence give one ring at unit phase the same bits
    rows = l_max + 1
    step = -(-rows // 2)
    coeffs = orthopoly._norm_coeffs(l_max)
    unit = np.zeros((rows, 2, 1))
    unit[:, 0] = 1.0
    for x in (1.0, -1.0, math.cos(1e-6), math.cos(1e-3), 0.0, 0.3, -0.77):
        xr = np.array([x])
        columns = np.zeros((coeffs[3][-1], 2))
        harmonics._add_columns(columns, step, xr, unit[:2], coeffs)
        batched = np.zeros((coeffs[3][-1], 2))
        harmonics._ring_recurrence(unit, xr, np.maximum((1.0 - xr) * (1.0 + xr), 0.0),
                                   batched, coeffs)
        columns, batched = harmonics._dense(columns), harmonics._dense(batched)
        for m in (0, step):
            assert np.array_equal(columns[:, m], batched[:, m]), (x, m)


@pytest.mark.parametrize("l_max, bound", [(120, 6e-14), (400, 2e-13)])
def test_routed_rings_at_the_poles_match_the_closed_form(l_max, bound):
    # P~_l^0(+-1) = (+-1)^l sqrt((2l + 1) / 4 pi); a ring of l_max unit
    # weights at a pole is routed on its period, so S[l, 0] comes from the
    # column path
    l = np.arange(l_max + 1)
    for theta, sign in ((0.0, 1.0), (math.pi, -1.0)):
        ring = _ring(l_max, theta)
        assert list(_periods(*ring).values()) == [l_max]
        sums, _ = harmonics._ring_sums(l_max, *ring)
        sums = harmonics._dense(sums)
        exact = l_max * sign**l * np.sqrt((2 * l + 1) / (4 * math.pi))
        assert np.max(np.abs(sums[:, 0] - exact) / np.abs(exact)) <= bound, theta


def test_allowance_bounds_the_exact_sums_at_cancelled_orders():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = default_rng(21)
    eps = np.spacing(1.0)
    l_max = harmonics._ROUTE_MIN_ROWS
    # three rings of period 7, then rings of periods 5 and 7 in one set; every
    # azimuth pushed off its ideal value by up to 8 ulps
    pure = _join(_ring(7, 0.5), _ring(7, 1.2, weight=0.3), _ring(7, 2.3, phi0=1.0))
    mixed = _join(_ring(5, 0.5), _ring(7, 1.2), _ring(5, 2.3, phi0=1.0))
    for (theta, phi, w), periods in ((pure, (7,)), (mixed, (5, 7))):
        phi = phi + rng.integers(-8, 9, phi.size) * eps * np.maximum(phi, 1.0)
        rings = harmonics._latitude_rings(theta, phi, w)
        assert set(rings.period.tolist()) == set(periods)
        sums, allowance = harmonics._ring_sums(l_max, theta, phi, w)
        sums = harmonics._dense(sums)
        points = [tuple(mpmath.mpf(float(v)) for v in p) for p in zip(theta, phi, w)]
        exact = np.zeros((l_max + 1, l_max + 1))
        for l in range(l_max + 1):
            for m in range(l + 1):
                exact[l, m] = abs(mpmath.fsum(v * mpmath.spherharm(l, m, t, p) for t, p, v in points))
        cancelled = np.array([all(m % s for s in periods) for m in range(l_max + 1)])
        # orders that every ring cancels come back as exact zeros, bounded by a_l
        assert not sums[:, cancelled].any()
        assert np.all(exact[:, cancelled] <= allowance[:, None])
        # elsewhere only the rings that cancel the order are left out
        gap = np.abs(exact[:, ~cancelled] - np.abs(sums[:, ~cancelled]))
        assert np.all(gap <= (allowance[:, None] if len(periods) > 1 else 0.0) + 1e-14)
        # up to the rounding of the orders summed, as on the all-orders kernel
        assert np.all(exact.max(axis=1) <= np.maximum(np.abs(sums).max(axis=1), allowance) + 1e-14)
        if periods == (7,):
            # a few ulps of deviation: an allowance far below any tolerance
            assert 0 < allowance.max() < 1e-11


def test_allowance_is_measured_per_point():
    # the allowance of construct 1000 leaves certify's tolerance alone
    q = product_rule(1000)
    sums, allowance = harmonics._ring_sums(1000, q.theta, q.phi, q.weights, DEFAULT_TOL / 2)
    assert 0 < allowance[-1] < DEFAULT_TOL / 10
    assert certify(q, 1002).strength == 1000
