import json
import math

import numpy as np
import pytest

from povmquad.errors import DomainError, NotNormalized
from povmquad.povm import FinitePovm, exact_score, povm_from_quadrature
from povmquad.quadrature import product_rule
from povmquad.simulate import (
    SimulationReport,
    quadrature_averaged_score,
    run_game,
    sample_outcomes,
    score_by_direction,
)
from povmquad.sphere import Direction


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
