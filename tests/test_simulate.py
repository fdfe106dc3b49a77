import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import povmquad
from povmquad.cli import default_grid_dir
from povmquad.errors import DomainError, NotNormalized
from povmquad.harmonics import weighted_harmonic_sums
from povmquad.povm import (
    FinitePovm,
    exact_score,
    povm_from_quadrature,
    scalar_completeness_residual,
)
from povmquad.quadrature import SphericalQuadrature, ingest_pointset, product_rule
from povmquad.simulate import (
    DEFAULT_CHUNK_SIZE,
    SimulationReport,
    _alias_table,
    _game,
    _outcome_first,
    _outcome_table,
    quadrature_averaged_score,
    run_game,
    sample_outcomes,
    score_by_direction,
)
from povmquad.sphere import Direction, angles_to_xyz, substream

from _oracles import (
    _proposal_table,
    _rejection_columns,
    direct_averaged_score,
    rotate_angles,
    rotation_matrix,
)


def antipodal_povm():
    return FinitePovm(
        copies=1,
        c=np.array([1.0, 1.0]),
        theta=np.array([0.0, math.pi]),
        phi=np.array([0.0, 0.0]),
    )


def test_run_game_antipodal_matches_optimum():
    report = run_game(antipodal_povm(), 1_000_000, seed=12345)
    assert report.expected == pytest.approx(2.0 / 3.0)
    assert abs(report.mean_score - report.expected) < 3.0 * report.std_error
    assert report.std_error < 4e-4
    assert report.trials == 1_000_000
    assert report.chunks == math.ceil(1_000_000 / (1 << 16))


def test_run_game_product_rule_two():
    p = povm_from_quadrature(product_rule(2), 2)
    report = run_game(p, 1_000_000, seed=777)
    assert abs(report.mean_score - 0.75) < 3.0 * report.std_error


def test_run_game_bit_identical_for_fixed_seed():
    p = povm_from_quadrature(product_rule(3), 3)
    a = run_game(p, 200_000, seed=42)
    b = run_game(p, 200_000, seed=42)
    assert a == b  # dataclass equality: bitwise-identical floats
    c = run_game(p, 200_000, seed=43)
    assert c.mean_score != a.mean_score


def test_run_game_partial_final_chunk():
    report = run_game(antipodal_povm(), 150_001, seed=5, chunk_size=65536)
    assert report.chunks == 3
    assert 0.0 <= report.mean_score <= 1.0


def test_run_game_single_trial_std_error_zero():
    report = run_game(antipodal_povm(), 1, seed=9)
    assert report.std_error == 0.0
    assert report.trials == 1


def test_run_game_rejects_invalid_povm():
    p = antipodal_povm()
    bad = FinitePovm(copies=1, c=p.c * 1.01, theta=p.theta, phi=p.phi)
    with pytest.raises(NotNormalized) as err:
        run_game(bad, 1000, seed=1)
    assert isinstance(err.value.direction, Direction)


def test_run_game_argument_guards():
    with pytest.raises(DomainError):
        run_game(antipodal_povm(), 0, seed=1)
    with pytest.raises(DomainError):
        run_game(antipodal_povm(), 10, seed=1, chunk_size=0)


def test_outcome_frequencies_multinomial():
    p = povm_from_quadrature(product_rule(2), 2)
    d = Direction(1.0, 2.5)
    trials = 1_000_000
    counts = sample_outcomes(p, d, trials, seed=2718)
    assert counts.sum() == trials
    ov = np.array([0.5 * (1 + math.cos(1.0) * math.cos(t) +
                          math.sin(1.0) * math.sin(t) * math.cos(2.5 - f))
                   for t, f in zip(p.theta, p.phi)])
    probs = p.c * ov**2
    assert abs(probs.sum() - 1.0) < 1e-12
    for k in range(p.n):
        sigma = math.sqrt(probs[k] * (1 - probs[k]) / trials)
        assert abs(counts[k] / trials - probs[k]) <= 4.0 * sigma + 1e-12


def test_score_by_direction_antipodal_reference():
    p = antipodal_povm()
    at_pole = score_by_direction(p, [Direction(0.0, 0.0)])
    assert at_pole[0] == pytest.approx(1.0, abs=1e-15)
    at_equator = score_by_direction(p, [Direction(math.pi / 2, 0.3)])
    assert at_equator[0] == pytest.approx(0.5, abs=1e-15)


def test_quadrature_average_recovers_exact_score():
    p = povm_from_quadrature(product_rule(5), 5)
    averaged = quadrature_averaged_score(p)  # product rule of order N+1
    assert abs(averaged - 6.0 / 7.0) < 1e-10
    assert abs(averaged - exact_score(p)) < 1e-10
    # any strength >= N+1 rule works
    averaged2 = quadrature_averaged_score(p, product_rule(9))
    assert abs(averaged2 - exact_score(p)) < 1e-10


def test_report_json_schema():
    report = run_game(antipodal_povm(), 1000, seed=31)
    obj = json.loads(report.to_json())
    assert set(obj) == {"N", "trials", "seed", "mean_score", "std_error", "expected", "chunks"}
    assert obj["N"] == 1 and obj["seed"] == 31 and obj["trials"] == 1000
    assert obj == report.to_dict()


def test_report_is_frozen_value_object():
    report = SimulationReport(
        copies=1, trials=10, mean_score=0.5, std_error=0.1,
        seed=1, expected=2 / 3, chunks=1,
    )
    with pytest.raises(AttributeError):
        report.mean_score = 0.9


@pytest.mark.parametrize("copies", [5, 70])
def test_score_by_direction_blocks_are_bit_identical(copies, monkeypatch):
    # both power branches: repeated squaring (N+1 <= 64) and in-place exp/log
    p = povm_from_quadrature(product_rule(copies), copies)
    grid = product_rule(copies + 1)
    whole = score_by_direction(p, (grid.theta, grid.phi))
    monkeypatch.setattr("povmquad.povm._BLOCK_ELEMS", 7 * p.n)
    blocked = score_by_direction(p, (grid.theta, grid.phi))
    assert grid.n > 7 * 3
    assert np.array_equal(whole, blocked)


def _lebedev_povm(name, copies):
    with open(default_grid_dir() / name) as fh:
        return povm_from_quadrature(ingest_pointset(fh, "explicit", label=name), copies)


def _perturbed_povm(copies, delta):
    # one weight off by delta: only directions near element 0 break normalization
    p = povm_from_quadrature(product_rule(copies), copies)
    c = p.c.copy()
    c[0] += delta
    return FinitePovm(copies=copies, c=c, theta=p.theta, phi=p.phi)


@pytest.mark.parametrize("c", [
    povm_from_quadrature(product_rule(5), 5).c,
    povm_from_quadrature(product_rule(40), 40).c,
    np.array([0.0, 3.0, 1e-12, 0.5, 0.5, 2.0, 0.0]),
    np.full(9, 0.25),
])
def test_alias_table_reproduces_weights(c):
    prob, alias = _alias_table(c)
    n = c.size
    assert np.all((prob >= 0.0) & (prob <= 1.0))
    recon = (prob + np.bincount(alias, weights=1.0 - prob, minlength=n)) / n
    assert np.max(np.abs(recon - c / c.sum())) <= 1e-15


@pytest.mark.parametrize("p", [
    povm_from_quadrature(product_rule(5), 5),
    _lebedev_povm("lebedev_0050.txt", 10),
], ids=["product-5", "lebedev50-10"])
def test_rejection_outcomes_follow_conditional(p):
    d = Direction(1.0, 2.5)
    dxyz = angles_to_xyz([d.theta], [d.phi])
    probs = p.c * np.clip(0.5 * (1.0 + angles_to_xyz(p.theta, p.phi) @ dxyz[0]), 0, 1) ** p.copies
    assert abs(probs.sum() - 1.0) < 1e-12
    prob, outcome, e = _proposal_table(p)
    counts = np.zeros(p.n)
    trials, chunk = 2_000_000, 1 << 16
    for i, start in enumerate(range(0, trials, chunk)):
        rows = np.repeat(dxyz.T, min(chunk, trials - start), axis=1)
        cols = _rejection_columns(substream(99, i), rows, prob, e, p.copies)
        counts += np.bincount(outcome[cols], minlength=p.n)
    assert counts.sum() == trials
    sigma = np.sqrt(probs * (1.0 - probs) / trials)
    assert np.all(np.abs(counts / trials - probs) <= 4.0 * sigma + 1e-12)


@pytest.mark.parametrize("copies", [2, 5, 10])
def test_rejection_game_matches_dense_and_optimum(copies):
    p = povm_from_quadrature(product_rule(copies), copies)
    report = run_game(p, 300_000, seed=2024)
    assert report == _game(p, 300_000, 2024, DEFAULT_CHUNK_SIZE, dense=False)
    dense = _game(p, 300_000, 2024, DEFAULT_CHUNK_SIZE, dense=True)
    assert report.mean_score != dense.mean_score  # independent streams
    both = math.hypot(report.std_error, dense.std_error)
    assert abs(report.mean_score - dense.mean_score) < 5.0 * both
    assert abs(report.mean_score - report.expected) < 5.0 * report.std_error
    assert abs(dense.mean_score - dense.expected) < 5.0 * dense.std_error


def _chunk_angles(seed, m):
    """theta, phi of chunk 0, drawn as both samplers draw them."""
    rng = substream(seed, 0)
    z = rng.uniform(-1.0, 1.0, m)
    return np.arccos(z), rng.uniform(0.0, 2.0 * math.pi, m)


@pytest.mark.parametrize("copies", [5, 70])
def test_dense_blocks_are_bit_identical(copies, monkeypatch):
    # both power branches: repeated squaring (N <= 64) and in-place exp/log
    p = povm_from_quadrature(product_rule(copies), copies)
    bad = _perturbed_povm(copies, 2e-9)
    whole = _game(p, 5000, 8, 1500, dense=True)
    with pytest.raises(NotNormalized) as whole_err:
        _game(bad, 5000, 8, 1500, dense=True)
    monkeypatch.setattr("povmquad.povm._BLOCK_ELEMS", 3 * p.n)
    assert _game(p, 5000, 8, 1500, dense=True) == whole
    with pytest.raises(NotNormalized) as blocked_err:
        _game(bad, 5000, 8, 1500, dense=True)
    assert blocked_err.value.direction == whole_err.value.direction
    theta, phi = _chunk_angles(8, 1500)
    row = next(r for r in range(1500) if Direction(theta[r], phi[r]) == whole_err.value.direction)
    assert row >= 3  # the offender lies past the first block


def test_run_game_falls_back_to_dense_check():
    # certified bound above 1e-9, largest deviation only 2e-9
    with pytest.raises(NotNormalized):
        run_game(_perturbed_povm(5, 2e-9), 5000, seed=8)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_run_game_paper_order_within_one_gib():
    # product rule 131: n = 8712, so one dense chunk alone would need 4.25 GiB
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from povmquad.povm import povm_from_quadrature\n"
        "from povmquad.quadrature import product_rule\n"
        "from povmquad.simulate import run_game\n"
        "r = run_game(povm_from_quadrature(product_rule(131), 131), 65536, seed=1)\n"
        "assert abs(r.mean_score - r.expected) < 5 * r.std_error, r\n"
    )
    src = str(Path(povmquad.__file__).resolve().parents[1])
    # one BLAS thread: per-thread BLAS buffers would count against the limit
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_polar_angles_outside_zero_pi_are_certified_where_they_point():
    # (-theta, phi + pi) is the same point as (theta, phi); (2pi - theta, phi)
    # is the mirror image, which leaves the Lebedev POVM incomplete
    p = _lebedev_povm("lebedev_0050.txt", 10)
    flip = np.arange(p.n) % 2 == 1
    same = FinitePovm(copies=10, c=p.c, theta=np.where(flip, -p.theta, p.theta),
                      phi=np.where(flip, p.phi + math.pi, p.phi))
    moved = FinitePovm(copies=10, c=p.c, theta=np.where(flip, 2 * math.pi - p.theta, p.theta),
                       phi=p.phi)
    assert scalar_completeness_residual(same) < 1e-13
    sampled = scalar_completeness_residual(moved, directions=(p.theta, p.phi))
    assert sampled > 1e-3
    assert scalar_completeness_residual(moved) >= sampled
    assert run_game(same, 20_000, seed=3) == _game(same, 20_000, 3, DEFAULT_CHUNK_SIZE, dense=False)
    with pytest.raises(NotNormalized):
        run_game(moved, 20_000, seed=3)


def _rotated_product_povm(copies):
    q = product_rule(copies)
    theta, phi = rotate_angles(q.theta, q.phi, rotation_matrix([0.3, -1.0, 0.7], 0.9))
    return povm_from_quadrature(SphericalQuadrature(theta, phi, q.weights), copies)


def _jittered_povm(copies):
    p = povm_from_quadrature(product_rule(copies), copies)
    rng = np.random.default_rng(5)
    theta = p.theta + rng.normal(scale=1e-2, size=p.n)
    phi = p.phi + rng.normal(scale=1e-2, size=p.n)
    return FinitePovm(copies=copies, c=p.c, theta=theta, phi=phi)


@pytest.mark.parametrize("copies", list(range(1, 41)) + [51, 65, 131])
def test_harmonic_average_matches_direct_sum_on_product_rules(copies):
    p = povm_from_quadrature(product_rule(copies), copies)
    averaged = quadrature_averaged_score(p)
    assert abs(averaged - direct_averaged_score(p, product_rule(copies + 1))) <= 1e-13
    assert abs(averaged - exact_score(p)) < 1e-10


@pytest.mark.parametrize("p, q, exact", [
    (_rotated_product_povm(30), product_rule(31), True),
    (_rotated_product_povm(40), product_rule(41), True),
    (_lebedev_povm("lebedev_0050.txt", 11), product_rule(12), True),
    (povm_from_quadrature(product_rule(30), 30), product_rule(28), True),
    (_rotated_product_povm(12), product_rule(10), False),
    (_jittered_povm(9), product_rule(7), False),
    (_jittered_povm(9), product_rule(10), True),
], ids=["rotated-30", "rotated-40", "lebedev50-11", "product-30-grid-below",
        "rotated-12-grid-below", "perturbed-9-grid-below", "perturbed-9"])
def test_harmonic_average_matches_direct_sum_off_product_rules(p, q, exact):
    # An identity for any POVM and grid. Any POVM averaged over a grid of
    # strength >= N+1 gives sum(c)/(N+2). A grid of lower strength misses it,
    # except for an axis-aligned product-rule POVM, whose harmonic sums
    # vanish through order N and share no nonzero order-(N+1) term with it.
    averaged = quadrature_averaged_score(p, q)
    assert abs(averaged - direct_averaged_score(p, q)) <= 1e-13
    assert (abs(averaged - exact_score(p)) < 1e-10) == exact


def test_default_average_is_the_closed_form_for_any_povm():
    # E[score|Omega] is band-limited at order N+1, so every rule exact that
    # far averages it to sum(c)/(N+2), complete POVM or not
    jittered = _jittered_povm(9)
    incomplete = FinitePovm(9, jittered.c[1:], jittered.theta[1:], jittered.phi[1:])
    for p in (jittered, incomplete):
        assert scalar_completeness_residual(p) > 1e-3
        closed = float(p.c.sum()) / 11
        assert quadrature_averaged_score(p) == closed
        for q in (product_rule(10), product_rule(13)):
            assert abs(direct_averaged_score(p, q) - closed) <= 1e-13
            assert abs(quadrature_averaged_score(p, q) - closed) <= 1e-13


def test_harmonic_average_memory_at_paper_order():
    # the direct route's n x n_grid overlap blocks peaked at 153 MB
    p = povm_from_quadrature(product_rule(131), 131)
    tracemalloc.start()
    try:
        quadrature_averaged_score(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _outcome_first_stats(p, draws, seed, chunk=1 << 16):
    """Outcome counts, sum t, sum t^2 and harmonic sums to order N+1 of draws."""
    table = _outcome_table(p)
    counts = np.zeros(p.n)
    t_sum = t_sq = 0.0
    moments = 0.0
    for i, start in enumerate(range(0, draws, chunk)):
        k, omega, e = _outcome_first(substream(seed, i), min(chunk, draws - start), *table, p.copies)
        counts += np.bincount(k, minlength=p.n)
        t = 0.5 * (1.0 + np.einsum("ij,ij->j", omega, e))
        t_sum += t.sum()
        t_sq += (t * t).sum()
        theta = np.arccos(np.clip(omega[2], -1.0, 1.0))
        phi = np.arctan2(omega[1], omega[0])
        moments = moments + weighted_harmonic_sums(p.copies + 1, theta, phi, np.ones(k.size))
    return counts, t_sum, t_sq, moments / draws


def _moment_z_scores(moments, draws):
    """|mean Y_l^m| parts in units of their standard error under uniform Omega, l >= 1.

    Var Y_l^0 = 1/(4 pi); for m > 0 the real and imaginary parts each have 1/(8 pi).
    """
    sigma = np.full(moments.shape, math.sqrt(1.0 / (8.0 * math.pi * draws)))
    sigma[:, 0] = math.sqrt(1.0 / (4.0 * math.pi * draws))
    z = np.maximum(np.abs(moments.real), np.abs(moments.imag)) / sigma
    return np.tril(z)[1:]


@pytest.mark.parametrize("p", [
    povm_from_quadrature(product_rule(5), 5),
    _rotated_product_povm(20),
    _lebedev_povm("lebedev_0050.txt", 10),
], ids=["product-5", "rotated-20", "lebedev50-10"])
def test_outcome_first_draws_follow_the_game(p):
    assert p.c.min() >= 0.0 and scalar_completeness_residual(p) <= 1e-9
    draws = 2_000_000
    counts, t_sum, t_sq, moments = _outcome_first_stats(p, draws, seed=314)
    # k ~ c_k / sum c
    probs = p.c / p.c.sum()
    sigma = np.sqrt(probs * (1.0 - probs) / draws)
    assert counts.sum() == draws
    assert np.all(np.abs(counts / draws - probs) <= 4.0 * sigma + 1e-12)
    # t = overlap(Omega, Omega_k) ~ Beta(N+1, 1): E[t^j] = a/(a+j)
    a = p.copies + 1
    raw = [a / (a + j) for j in range(5)]
    mean, var = raw[1], raw[2] - raw[1] ** 2
    m4 = raw[4] - 4 * raw[3] * mean + 6 * raw[2] * mean**2 - 3 * mean**4
    t_mean = t_sum / draws
    t_var = t_sq / draws - t_mean**2
    assert abs(t_mean - mean) <= 4.0 * math.sqrt(var / draws)
    assert abs(t_var - var) <= 4.0 * math.sqrt((m4 - var * var) / draws)
    # Omega uniform: every harmonic moment of order 1..N+1 vanishes
    assert moments.shape == (a + 1, a + 1)
    assert np.max(_moment_z_scores(moments, draws)) <= 4.0


def test_outcome_first_draws_need_a_complete_povm():
    # c >= 0 but incomplete: run_game would send it to the dense sampler, and
    # drawn outcome first its Omega lean toward the moved element
    p = povm_from_quadrature(product_rule(5), 5)
    theta = p.theta.copy()
    theta[0] += 0.3
    moved = FinitePovm(copies=5, c=p.c, theta=theta, phi=p.phi)
    assert scalar_completeness_residual(moved) > 1e-9
    draws = 2_000_000
    _, _, _, moments = _outcome_first_stats(moved, draws, seed=314)
    assert np.max(_moment_z_scores(moments, draws)) > 10.0
