import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from povmquad import harmonics
from povmquad import povm as povm_module
from povmquad.cli import default_grid_dir
from povmquad.errors import (
    CapExceeded,
    DomainError,
    InsufficientStrength,
    MissingCount,
    NotNormalized,
    ParseError,
    WeightError,
)
from povmquad.povm import (
    DickeVector,
    _pow_int,
    FinitePovm,
    completeness_test_angles,
    dicke_amplitudes,
    exact_score,
    legendre_pure_counts,
    mixed_legendre_bound,
    mixed_min_elements,
    operator_completeness_residual,
    optimal_score,
    povm_from_json,
    povm_from_quadrature,
    povm_to_csv,
    povm_to_json,
    scalar_completeness_residual,
    schur_moment_residual,
    spin_subspaces,
    subspace_completeness_residuals,
)
from povmquad.quadrature import FOUR_PI, SphericalQuadrature, ingest_pointset, product_rule
from povmquad.simulate import _dense_scores
from povmquad.sphere import Direction, default_rng, overlap_sq, sample_uniform

from _oracles import (
    all_offsets_gram_residual,
    dense_gram_residual,
    dicke_matrix,
    povm_to_csv_reference,
    povm_to_json_reference,
    rotate_angles,
    rotation_matrix,
    tensor_dicke,
)

MIXED_PRODUCT_RULE_COUNTS = [2, 7, 10, 22, 28, 50, 60, 95, 110, 161, 182, 252, 280, 372, 408]


def antipodal_povm():
    return FinitePovm(
        copies=1,
        c=np.array([1.0, 1.0]),
        theta=np.array([0.0, math.pi]),
        phi=np.array([0.0, 0.0]),
        label="antipodal N=1",
    )


def product_povm(copies):
    return povm_from_quadrature(product_rule(copies), copies)


def random_angles(count, seed):
    rng = default_rng(seed)
    theta = np.arccos(rng.uniform(-1, 1, count))
    phi = rng.uniform(0, 2 * math.pi, count)
    return theta, phi


def test_povm_from_quadrature_basic():
    p = product_povm(1)
    assert p.n == 2
    assert abs(p.c.sum() - 2.0) < 1e-12
    p.validate()
    assert p.c == pytest.approx([1.0, 1.0])


def test_povm_from_quadrature_insufficient_strength():
    with pytest.raises(InsufficientStrength) as err:
        povm_from_quadrature(product_rule(2), 3)
    assert err.value.found == 2
    assert err.value.required == 3


def test_povm_rejects_signed_quadratures():
    signed = SphericalQuadrature(
        [0.1, 2.0, 2.5], [0.0, 1.0, 4.0], [8.0, -1.0, FOUR_PI - 7.0]
    )
    with pytest.raises(WeightError):
        povm_from_quadrature(signed, 1)


def test_exact_score_reference_values():
    assert exact_score(antipodal_povm()) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert exact_score(product_povm(2)) == pytest.approx(3.0 / 4.0, abs=1e-12)
    assert exact_score(product_povm(10)) == pytest.approx(11.0 / 12.0, abs=1e-12)
    assert optimal_score(10) == 11.0 / 12.0


def test_exact_score_sweep_1_to_30():
    for copies in range(1, 31):
        p = product_povm(copies)
        assert abs(exact_score(p) - optimal_score(copies)) < 1e-12


def test_scalar_completeness_antipodal_identity():
    # c1 cos^2(t/2) + c2 sin^2(t/2) = 1 for every direction
    residual = scalar_completeness_residual(antipodal_povm(), random_angles(100, 1))
    assert residual < 1e-14


def test_scalar_completeness_product_rule_seven():
    p = product_povm(7)
    residual = scalar_completeness_residual(p, random_angles(1000, 2))
    assert residual < 1e-10


def test_scalar_completeness_detects_perturbation():
    p = product_povm(3)
    c = p.c.copy()
    c[0] *= 1.01
    bad = FinitePovm(copies=3, c=c, theta=p.theta, phi=p.phi)
    assert scalar_completeness_residual(bad) > 1e-3


def test_default_probe_set_is_deterministic():
    p = product_povm(2)
    a = completeness_test_angles(p)
    b = completeness_test_angles(p)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[0].size == 10 * 9 + p.n + 2
    assert scalar_completeness_residual(p) == scalar_completeness_residual(p)


def test_dicke_amplitudes_reference_values():
    v = dicke_amplitudes(2, Direction(0.0, 0.0))
    assert np.allclose(v.amplitudes, [1.0, 0.0, 0.0], atol=1e-15)
    v = dicke_amplitudes(1, Direction(math.pi / 2, 0.0))
    assert np.allclose(v.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)
    assert abs(v.norm - 1.0) < 1e-12


def test_dicke_overlap_reproduces_fidelity_power():
    rng = default_rng(14)
    for _ in range(100):
        a, b = sample_uniform(rng), sample_uniform(rng)
        va = dicke_amplitudes(5, a).amplitudes
        vb = dicke_amplitudes(5, b).amplitudes
        lhs = abs(np.vdot(va, vb)) ** 2
        assert abs(lhs - overlap_sq(a, b) ** 5) < 1e-12


@pytest.mark.parametrize("copies", range(1, 9))
def test_dicke_against_tensor_product_oracle(copies):
    rng = default_rng(100 + copies)
    for _ in range(50):
        d = sample_uniform(rng)
        mine = dicke_amplitudes(copies, d).amplitudes
        ref = tensor_dicke(copies, d.theta, d.phi)
        assert np.max(np.abs(mine - ref)) < 1e-12


def test_dicke_log_space_branch_consistency():
    # same direction through the direct (N<=50) and log-space (N>50) paths
    d = Direction(1.234, 2.345)
    direct = dicke_amplitudes(50, d).amplitudes
    big = dicke_amplitudes(51, d).amplitudes
    assert abs(dicke_amplitudes(50, d).norm - 1.0) < 1e-12
    assert abs(dicke_amplitudes(51, d).norm - 1.0) < 1e-12
    # poles stay exact in the log-space branch
    north = dicke_amplitudes(60, Direction(0.0, 0.0)).amplitudes
    assert north[0] == 1.0 and np.all(north[1:] == 0.0)
    assert direct.shape == (51,) and big.shape == (52,)


def test_dicke_rows_at_polar_angles_outside_zero_pi():
    # (-theta, phi + pi) names the point (theta, phi); theta + 2 pi names it
    # too, with the global phase (-1)^N
    rng = default_rng(31)
    for copies in (1, 2, 5, 8):
        for _ in range(20):
            d = sample_uniform(rng)
            ref = dicke_amplitudes(copies, d).amplitudes
            for theta, phi in ((-d.theta, d.phi + math.pi), (d.theta + 2 * math.pi, d.phi)):
                row = dicke_matrix(copies, [theta], [phi])[0]
                assert np.max(np.abs(row - tensor_dicke(copies, theta, phi))) < 1e-12
                phase = np.vdot(ref, row)
                assert abs(abs(phase) - 1.0) < 1e-12
                assert np.max(np.abs(row - phase * ref)) < 1e-12


def test_operator_completeness_at_polar_angles_outside_zero_pi():
    p = product_povm(6)
    flip = np.arange(p.n) % 2 == 1
    same_points = FinitePovm(
        copies=6,
        c=p.c,
        theta=np.where(flip, -p.theta, p.theta),
        phi=np.where(flip, p.phi + math.pi, p.phi),
    )
    assert operator_completeness_residual(same_points) < 1e-13


def test_dicke_vector_validation():
    with pytest.raises(DomainError):
        DickeVector(copies=2, amplitudes=np.ones(2))
    with pytest.raises(DomainError):
        dicke_amplitudes(0, Direction(1.0, 1.0))


def test_operator_completeness_antipodal():
    assert operator_completeness_residual(antipodal_povm()) < 1e-15


def test_operator_completeness_product_rule_ten():
    assert operator_completeness_residual(product_povm(10)) < 1e-10


def test_operator_completeness_detects_dropped_element():
    p = product_povm(2)
    keep = slice(1, None)
    bad = FinitePovm(copies=2, c=p.c[keep], theta=p.theta[keep], phi=p.phi[keep])
    dropped = dicke_amplitudes(2, Direction(p.theta[0], p.phi[0])).amplitudes
    expected = p.c[0] * np.max(np.abs(dropped)) ** 2
    assert operator_completeness_residual(bad) >= expected - 1e-12


def test_operator_completeness_cap():
    with pytest.raises(CapExceeded):
        operator_completeness_residual(product_povm(31), cap=30)


def test_scalar_and_operator_residuals_logged_side_by_side():
    # two independent completeness routes; neither is derived from the other
    for copies in (1, 2, 5, 8, 12):
        p = product_povm(copies)
        scalar = scalar_completeness_residual(p, random_angles(500, copies))
        operator = operator_completeness_residual(p)
        assert scalar < 1e-10
        assert operator < 1e-8


def test_schur_moment_product_rule():
    q = product_rule(3)
    assert schur_moment_residual(q, 3) < 1e-12
    assert schur_moment_residual(q, 2) < 1e-12  # strength 3 covers order 2


def test_schur_moment_antipodal_exact_half_identity():
    q = SphericalQuadrature(
        [0.0, math.pi], [0.0, 0.0], [2 * math.pi, 2 * math.pi], label="antipodal"
    )
    assert schur_moment_residual(q, 1) < 1e-15


def test_schur_moment_insufficient_strength():
    with pytest.raises(InsufficientStrength):
        schur_moment_residual(product_rule(2), 3)


def test_spin_subspaces_enumeration():
    assert spin_subspaces(2) == [0, 2]
    assert spin_subspaces(3) == [1, 3]
    assert spin_subspaces(6) == [0, 2, 4, 6]
    with pytest.raises(DomainError):
        spin_subspaces(0)


def test_subspace_completeness_small_cases():
    res2 = subspace_completeness_residuals(product_rule(2), 2)
    assert set(res2) == {0, 2}
    q2 = product_rule(2)
    assert res2[0] == pytest.approx(abs(q2.weight_sum / FOUR_PI - 1.0), abs=1e-15)
    assert res2[0] < 1e-12
    res3 = subspace_completeness_residuals(product_rule(3), 3)
    assert res3[3] < 1e-10  # equals the N=3 scalar completeness check
    res4 = subspace_completeness_residuals(product_rule(4), 4)
    assert res4[2] < 1e-10  # strength 4 covers the spin-1 band limit
    with pytest.raises(InsufficientStrength):
        subspace_completeness_residuals(product_rule(2), 4)


def test_mixed_min_elements_reference_values():
    assert mixed_min_elements(2, legendre_pure_counts(2)) == 7
    assert mixed_min_elements(3, legendre_pure_counts(3)) == 10
    assert mixed_min_elements(5, {1: 2, 3: 6, 5: 14}) == 22  # Lebedev pure counts
    with pytest.raises(MissingCount):
        mixed_min_elements(5, {1: 2, 5: 14})


def test_mixed_legendre_bound_reference_values():
    assert mixed_legendre_bound(2) == 7.0
    assert mixed_legendre_bound(3) == 10.0
    assert mixed_legendre_bound(15) == 408.0
    with pytest.raises(DomainError):
        mixed_legendre_bound(0)


def test_mixed_counts_attain_bound_exactly():
    for copies, expected in zip(range(1, 16), MIXED_PRODUCT_RULE_COUNTS):
        count = mixed_min_elements(copies, legendre_pure_counts(copies))
        assert count == expected
        assert float(count) == mixed_legendre_bound(copies)


def test_povm_json_round_trip_exact():
    p = product_povm(3)
    text = povm_to_json(p)
    obj = json.loads(text)
    assert obj["N"] == 3 and obj["n"] == 8
    assert obj["score_exact"] == exact_score(p)
    back = povm_from_json(text)
    assert back.copies == p.copies
    assert np.array_equal(back.c, p.c)
    assert np.array_equal(back.theta, p.theta)
    assert np.array_equal(back.phi, p.phi)


def test_povm_json_schema_errors():
    with pytest.raises(ParseError):
        povm_from_json("{not json")
    with pytest.raises(ParseError):
        povm_from_json('{"elements": []}')  # missing N
    with pytest.raises(ParseError):
        povm_from_json('{"N": 1, "n": 3, "elements": [{"c": 1, "theta": 0, "phi": 0}]}')
    with pytest.raises(ParseError):
        povm_from_json('[1, 2, 3]')
    with pytest.raises(ParseError):
        povm_from_json('{"N": 0, "elements": [{"c": 1, "theta": 0, "phi": 0}]}')


def test_povm_csv_layout():
    text = povm_to_csv(antipodal_povm())
    lines = text.strip().splitlines()
    assert lines[0] == "# N=1"
    assert lines[3] == "c,theta,phi"
    assert len(lines) == 4 + 2
    fields = lines[5].split(",")
    assert len(fields) == 3
    assert [float(f) for f in fields] == [1.0, math.pi, 0.0]


def test_povm_validate_contracts():
    p = antipodal_povm()
    p.validate()
    bad_weight = FinitePovm(1, np.array([2.0, -0.1]), p.theta, p.phi)
    with pytest.raises(WeightError):
        bad_weight.validate()
    bad_sum = FinitePovm(1, np.array([1.0, 1.1]), p.theta, p.phi)
    with pytest.raises(NotNormalized):
        bad_sum.validate()


def broken_povms(copies):
    """One weight x 1.01, one element dropped, every theta shifted by 0.01."""
    p = product_povm(copies)
    c = p.c.copy()
    c[0] *= 1.01
    return [
        FinitePovm(copies, c, p.theta, p.phi),
        FinitePovm(copies, p.c[1:], p.theta[1:], p.phi[1:]),
        FinitePovm(copies, p.c, p.theta + 0.01, p.phi),
    ]


@pytest.mark.parametrize("copies", [1, 3, 7, 12, 30])
def test_default_scalar_residual_bounds_sampled_max(copies):
    probes = random_angles(20_000, 300 + copies)
    for bad in broken_povms(copies):
        bound = scalar_completeness_residual(bad)
        sampled = scalar_completeness_residual(bad, probes)
        assert sampled <= bound <= 4.0 * sampled


def test_default_scalar_residual_exact_for_product_rules():
    worst = max(scalar_completeness_residual(product_povm(n)) for n in range(1, 41))
    assert worst < 1e-13


def test_strength_checks_reject_signed_rules():
    signed = SphericalQuadrature(
        [0.1, 2.0, 2.5], [0.0, 1.0, 4.0], [8.0, -1.0, FOUR_PI - 7.0]
    )
    with pytest.raises(WeightError):
        schur_moment_residual(signed, 1)
    with pytest.raises(WeightError):
        subspace_completeness_residuals(signed, 1)


def test_pow_int_works_in_place_across_both_regimes():
    a = np.concatenate(([0.0, 1.0], np.linspace(1e-3, 0.999, 200)))
    for n in range(71):
        b = a.copy()
        assert _pow_int(b, n) is b
        assert np.allclose(b, a**n, rtol=1e-12, atol=0.0)
        assert b[0] == (n == 0) and b[1] == 1.0


def test_sampled_residual_holds_two_overlap_blocks():
    # one block of overlaps plus the power's one extra buffer (N = 15 has
    # four set bits, so the buffer is used)
    p = product_povm(15)
    probes = random_angles(4000, 7)
    block = probes[0].size * p.n * 8
    tracemalloc.start()
    try:
        scalar_completeness_residual(p, probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block


def test_dense_sampler_holds_two_overlap_blocks():
    # the overlap block and the power's one extra buffer (N = 30 has four
    # set bits); the drawn outcome's score comes from the unit vectors, not
    # from a kept copy of the block
    p = product_povm(30)
    theta, phi = random_angles(4000, 11)
    u = default_rng(12).random(theta.size)
    block = theta.size * p.n * 8
    tracemalloc.start()
    try:
        scores = _dense_scores(p, theta, phi, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block
    assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_subspace_bound_and_sampled_paths_on_exact_rule():
    q = product_rule(6)
    probes = random_angles(5000, 41)
    good = subspace_completeness_residuals(q, 6)
    sampled = subspace_completeness_residuals(q, 6, probes)
    assert set(good) == set(sampled) == {0, 2, 4, 6}
    assert all(good[k] < 1e-13 and sampled[k] < 1e-13 for k in good)


def test_non_finite_directions_are_rejected():
    p = product_povm(2)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            scalar_completeness_residual(p, (np.array([bad]), np.array([0.0])))
        with pytest.raises(DomainError):
            scalar_completeness_residual(p, (np.array([0.5]), np.array([bad])))


def test_finite_povm_rejects_non_finite_entries():
    p = antipodal_povm()
    for field in ("c", "theta", "phi"):
        values = dict(c=p.c.copy(), theta=p.theta.copy(), phi=p.phi.copy())
        values[field][1] = np.nan
        with pytest.raises(DomainError):
            FinitePovm(1, **values)


@pytest.mark.parametrize("key, value", [
    ("N", 2.7), ("N", "3"), ("N", True), ("n", "x"), ("n", 8.5),
])
def test_povm_json_rejects_non_integer_counts(key, value):
    obj = json.loads(povm_to_json(product_povm(3)))
    obj[key] = value
    with pytest.raises(ParseError):
        povm_from_json(json.dumps(obj))


def dense_operator_residual(p):
    return dense_gram_residual(dicke_matrix(p.copies, p.theta, p.phi), p.c, 1.0)


def dense_schur_residual(q, copies):
    v = dicke_matrix(copies, q.theta, q.phi)
    return dense_gram_residual(v, q.weights / FOUR_PI, 1.0 / (copies + 1))


@pytest.mark.parametrize("copies", list(range(1, 61)) + [131])
def test_ring_gram_matches_dense_oracle_on_product_rules(copies):
    p = product_povm(copies)
    ring = operator_completeness_residual(p)
    assert abs(ring - dense_operator_residual(p)) <= 2e-15
    assert ring < 1e-12


@pytest.mark.parametrize("copies", [1, 4, 9, 15, 24])
def test_ring_gram_matches_dense_oracle_without_shared_latitudes(copies):
    q = product_rule(copies)
    theta, phi = rotate_angles(q.theta, q.phi, rotation_matrix([0.3, -1.0, 0.7], 0.9))
    assert np.unique(theta).size == theta.size  # R = n
    p = FinitePovm(copies, (copies + 1) / FOUR_PI * q.weights, theta, phi)
    ring = operator_completeness_residual(p)
    assert abs(ring - dense_operator_residual(p)) <= 2e-15
    assert ring < 1e-12


@pytest.mark.parametrize("name, strength", [
    ("lebedev_0006.txt", 3), ("lebedev_0014.txt", 5), ("lebedev_0026.txt", 7),
    ("lebedev_0038.txt", 9), ("lebedev_0050.txt", 11), ("lebedev_0086.txt", 15),
])
def test_ring_schur_residual_matches_dense_oracle_on_lebedev_grids(name, strength):
    with open(default_grid_dir() / name, encoding="utf-8") as fh:
        q = ingest_pointset(fh, "explicit", label=name)
    for copies in range(1, strength + 1):
        ring = schur_moment_residual(q, copies)
        assert abs(ring - dense_schur_residual(q, copies)) <= 2e-15
        assert ring < 1e-13


def test_ring_gram_matches_dense_oracle_at_polar_angles_outside_zero_pi():
    # (-theta, phi + pi) names the point (theta, phi); theta + 2 pi names it
    # with the global phase (-1)^N, which the Gram does not see
    p = product_povm(6)
    k = np.arange(p.n) % 3
    theta = np.select([k == 1, k == 2], [-p.theta, p.theta + 2 * math.pi], p.theta)
    phi = np.where(k == 1, p.phi + math.pi, p.phi)
    same_points = FinitePovm(copies=6, c=p.c, theta=theta, phi=phi)
    ring = operator_completeness_residual(same_points)
    assert abs(ring - dense_operator_residual(same_points)) <= 2e-15
    assert ring < 1e-13


def _incomplete_povms(copies):
    p = product_povm(copies)
    rng = np.random.default_rng(copies)
    keep = slice(1, None)
    return [
        FinitePovm(copies, p.c[keep], p.theta[keep], p.phi[keep]),
        FinitePovm(copies, p.c, p.theta + rng.normal(scale=1e-2, size=p.n),
                   p.phi + rng.normal(scale=1e-2, size=p.n)),
    ]


@pytest.mark.parametrize("copies", [1, 2, 5, 10, 20, 40])
def test_ring_gram_matches_dense_oracle_on_incomplete_povms(copies):
    for bad in _incomplete_povms(copies):
        ring = operator_completeness_residual(bad)
        dense = dense_operator_residual(bad)
        assert ring > 1e-4
        assert abs(ring - dense) <= 1e-12 * dense


@pytest.mark.parametrize("copies", [3, 12, 40])
def test_ring_gram_does_not_depend_on_block_budget(copies, monkeypatch):
    # default blocks; one ring per block (one offset per chunk); and three
    # rings per block with offsets in chunks of several
    cases = [product_povm(copies)] + _incomplete_povms(copies)
    default = [operator_completeness_residual(p) for p in cases]
    rows = copies + 1
    for budget in (rows, 3 * rows * 5):
        monkeypatch.setattr(povm_module, "_GRAM_BLOCK_ELEMS", budget)
        for p, ref in zip(cases, default):
            assert abs(operator_completeness_residual(p) - ref) <= 1e-15


def test_operator_and_schur_checks_build_no_dense_dicke_matrix(monkeypatch):
    # Dicke magnitudes come for at most one block of angles at a time; with
    # blocks of eight rows, far fewer than these sets' points or rings
    magnitudes = povm_module._dicke_magnitudes
    rows_per_block = 8

    def one_block(copies, theta):
        assert np.size(theta) <= rows_per_block, "dense Dicke matrix built"
        return magnitudes(copies, theta)

    monkeypatch.setattr(povm_module, "_dicke_magnitudes", one_block)
    monkeypatch.setattr(povm_module, "_GRAM_BLOCK_ELEMS", rows_per_block * 21)
    assert operator_completeness_residual(product_povm(20)) < 1e-13
    assert operator_completeness_residual(_rotated_povm(20)) < 1e-13
    assert schur_moment_residual(product_rule(20), 20) < 1e-13
    monkeypatch.setattr(povm_module, "_GRAM_BLOCK_ELEMS", rows_per_block * 10)
    assert operator_completeness_residual(product_povm(9)) < 1e-13


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_operator_check_memory_is_bounded_by_its_blocks():
    # O(n) sorted copies of the inputs, the (N+1) x (N+1) Gram and a few
    # blocks of _GRAM_BLOCK_ELEMS values; the dense Gram's Dicke matrix alone
    # would be 18 MB
    assert _traced_peak(operator_completeness_residual, product_povm(131)) < 3e6
    # no shared polar angles: every point through the GEMM, block by block,
    # holding a block's Dicke rows and one scaled conjugate of them (3.2 MB)
    assert _traced_peak(operator_completeness_residual, _rotated_povm(131)) < 4e6


def test_dicke_magnitudes_hold_one_array_of_their_size():
    # one _point_gram block of the rotated N = 131 POVM, 496 points: 0.52 MB
    # of magnitudes, and no temporary of their size next to them
    p = _rotated_povm(131)
    theta = p.theta[: povm_module._GRAM_BLOCK_ELEMS // 132]
    povm_module._dicke_magnitudes(131, theta)  # the shared binomial row
    # numpy's broadcast buffers are a fixed 0.1-0.2 MB
    assert _traced_peak(povm_module._dicke_magnitudes, 131, theta) < theta.size * 132 * 8 + 2.5e5


def test_default_operator_cap_is_300():
    assert povm_module.OPERATOR_CHECK_CAP == 300
    assert operator_completeness_residual(product_povm(300)) < 1e-12
    with pytest.raises(CapExceeded):
        operator_completeness_residual(product_povm(301))


def test_dicke_magnitudes_keep_their_accuracy_near_the_poles():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    copies = 13
    thetas = [1e-6, 4.6e-4, 0.3, math.pi - 1e-6]
    mags = povm_module._dicke_magnitudes(copies, thetas)
    for theta, row in zip(thetas, mags):
        half = mpmath.mpf(theta) / 2
        for j, value in enumerate(row):
            ref = mpmath.sqrt(mpmath.binomial(copies, j)) * mpmath.cos(half) ** (copies - j) \
                * mpmath.sin(half) ** j
            # log-space rounding grows with |log ref| (190 at j = 13 here);
            # magnitudes formed from cos(theta) would be off by eps/theta^2
            assert abs(value - ref) <= 1e-13 * abs(ref)


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_povm_from_quadrature_carries_its_certificate(monkeypatch):
    calls = _count_calls(monkeypatch, povm_module, "certify")
    p = product_povm(12)
    assert len(calls) == 1
    report = p.certificate
    assert report is not None and report.l_max_tested == 12 and report.strength == 12
    bound = scalar_completeness_residual(p)
    assert len(calls) == 1  # the carried report, not a second certification
    fresh = dataclasses.replace(p)
    assert fresh.certificate is None
    assert scalar_completeness_residual(fresh) == bound
    assert len(calls) == 2
    assert fresh == p and "certificate" not in repr(p)


def test_povms_built_any_other_way_carry_no_certificate():
    p = product_povm(3)
    assert povm_from_json(povm_to_json(p)).certificate is None
    assert FinitePovm(3, p.c, p.theta, p.phi).certificate is None
    assert dataclasses.replace(p, label="copy").certificate is None
    with pytest.raises(TypeError):
        FinitePovm(3, p.c, p.theta, p.phi, certificate=p.certificate)


def test_replaced_weights_are_recertified(monkeypatch):
    p = product_povm(5)
    calls = _count_calls(monkeypatch, povm_module, "certify")
    bad = dataclasses.replace(p, c=1.01 * p.c)
    assert scalar_completeness_residual(bad) > 1e-9
    assert len(calls) == 1


@pytest.mark.parametrize("copies", list(range(1, 41)) + [131])
def test_povm_files_match_the_per_value_writer(copies):
    p = product_povm(copies)
    assert povm_to_json(p) == povm_to_json_reference(p)
    assert povm_to_csv(p) == povm_to_csv_reference(p)


def test_povm_files_match_the_per_value_writer_on_extreme_values():
    tiny = np.nextafter(0.0, 1.0)
    values = np.array([
        -0.0, 0.0, tiny, -tiny, 2.5e-320, 2.2250738585072014e-308, 1e-300, 0.1, 1.0 / 3.0,
        1e16, 1e17, 123456789.123456789, 1e300, 1.7976931348623157e308, -1e-5, math.pi,
    ])
    p = FinitePovm(2, 0.5 * np.abs(values[::-1]), values, values[::-1])
    assert povm_to_json(p) == povm_to_json_reference(p)
    assert povm_to_csv(p) == povm_to_csv_reference(p)
    back = povm_from_json(povm_to_json(p))
    assert np.array_equal(back.c, p.c)
    assert np.array_equal(back.theta, p.theta) and np.array_equal(back.phi, p.phi)


# Every point goes through one GEMM of Dicke rows per block, except, from
# N + 1 = harmonics._ROUTE_MIN_ROWS on, equispaced rings of period s > N,
# which add to the diagonal alone, with an allowance for the other offsets.


def _rotated_povm(copies):
    q = product_rule(copies)
    theta, phi = rotate_angles(q.theta, q.phi, rotation_matrix([0.3, -1.0, 0.7], 0.9))
    return FinitePovm(copies, (copies + 1) / FOUR_PI * q.weights, theta, phi)


@pytest.mark.parametrize("copies", [5, 40, 131])
def test_point_rings_take_one_gemm_per_block(copies, monkeypatch):
    p = _rotated_povm(copies)
    ring = operator_completeness_residual(p)
    assert abs(ring - all_offsets_gram_residual(copies, p.theta, p.phi, p.c, 1.0)) <= 1e-15
    # blocks of a single row, and of a few, agree too
    for budget in (copies + 1, 7 * (copies + 1)):
        monkeypatch.setattr(povm_module, "_GRAM_BLOCK_ELEMS", budget)
        assert abs(operator_completeness_residual(p) - ring) <= 4e-15
    monkeypatch.undo()
    if copies <= 40:
        assert abs(ring - dense_operator_residual(p)) <= 2e-15


@pytest.mark.parametrize("copies", [15, 19, 40, 47, 60, 131, 300])
def test_routed_gram_bounds_the_dense_gram(copies):
    assert copies + 1 >= harmonics._ROUTE_MIN_ROWS
    p = product_povm(copies)
    routed = operator_completeness_residual(p)
    every = all_offsets_gram_residual(copies, p.theta, p.phi, p.c, 1.0)
    # the allowance for the cancelled offsets: about N times the mean
    # deviation of an azimuth, below the rounding of the diagonal here
    assert every - 2e-15 <= routed <= every + 1e-13
    assert routed < 1e-12
    # turned about the axis and pushed off by a few ulps per azimuth
    rng = default_rng(copies)
    phi = np.mod(p.phi + 0.3, 2 * math.pi)
    phi = phi + rng.integers(-4, 5, p.n) * np.spacing(phi + 1.0)
    moved = FinitePovm(copies, p.c, p.theta, phi)
    routed = operator_completeness_residual(moved)
    every = all_offsets_gram_residual(copies, p.theta, phi, p.c, 1.0)
    assert every - 2e-15 <= routed <= every + 1e-12


def test_a_ring_of_one_cosine_and_two_polar_angles_takes_the_gemm(monkeypatch):
    # cos(1e-9) and cos(1e-8) both round to 1, so the 17 equispaced points
    # of equal weight form one latitude ring of period 17 > N; but their
    # Dicke magnitudes differ (mag_1 is about sqrt(N) theta / 2), so the
    # ring cannot go onto the Gram's diagonal
    copies, s = 15, 17
    theta = np.where(np.arange(s) % 2 == 0, 1e-9, 1e-8)
    assert np.all(np.cos(theta) == 1.0)
    phi = 2 * math.pi * np.arange(s) / s
    w = np.full(s, 1.0 / s)
    received = _count_calls(monkeypatch, povm_module, "_point_gram")
    routed = povm_module._ring_gram_residual(copies, theta, phi, w, 0.0)
    assert len(received) == 1
    rows, got_theta, got_phi, got_w = received[0]
    assert rows == copies + 1
    assert sorted(zip(got_theta, got_phi, got_w)) == sorted(zip(theta, phi, w))
    dense = dense_gram_residual(dicke_matrix(copies, theta, phi), w, 0.0)
    assert abs(routed - dense) <= 1e-15


def test_routed_gram_keeps_the_offsets_its_periods_let_through():
    # rings of period 5 at N = 60 feed offsets 0, 5, 10, ...; a set of rings
    # of periods 5 and 7 with weights that do not make a POVM
    copies = 60
    theta = np.repeat([0.4, 1.1, 2.0], [5, 7, 5])
    phi = np.concatenate([2 * math.pi * np.arange(s) / s + f for s, f in ((5, 0.0), (7, 0.2), (5, 1.0))])
    w = np.repeat([0.3, 0.1, 0.2], [5, 7, 5])
    routed = povm_module._ring_gram_residual(copies, theta, phi, w, 0.05)
    every = all_offsets_gram_residual(copies, theta, phi, w, 0.05)
    assert abs(routed - every) <= 1e-14 * every
