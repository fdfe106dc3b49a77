import math
import tracemalloc

import numpy as np
import pytest

from povmquad import _nufft
from povmquad.quadrature import product_rule
from povmquad.sphere import default_rng, sample_uniform_angles

from _oracles import full_grid_type1_sums, rotate_angles, rotation_matrix


def _rotated_rule(order):
    q = product_rule(order)
    theta, phi = rotate_angles(q.theta, q.phi, rotation_matrix([0.3, -1.1, 0.7], 0.9))
    return theta, phi, q.weights


def _oracle_cases():
    rng = default_rng(31)
    theta, phi = sample_uniform_angles(rng, 400)
    w = rng.uniform(-1.0, 1.0, 400)
    yield ("poles", 20, np.array([0.0, math.pi, 0.0, math.pi, 1.0]),
           np.array([0.0, 0.0, 1.0, 2.0, 3.0]), np.array([1.0, 2.0, -1.0, 0.5, 1.0]))
    yield "theta-plus-2pi", 33, theta + 2 * math.pi, phi, w
    yield "theta-minus-2pi", 33, theta - 2 * math.pi, phi, w
    yield "theta-plus-pi", 33, theta + math.pi, phi, w
    yield "single-point", 7, np.array([0.7]), np.array([1.3]), np.array([2.0])
    yield ("clustered", 40, 1.2 + 1e-3 * rng.normal(size=300),
           2.0 + 1e-3 * rng.normal(size=300), rng.uniform(0.1, 1.0, 300))
    yield ("rotated-131", 134) + _rotated_rule(131)


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_type1_sums_match_the_full_grid_to_the_bit(case):
    # only the grid rows a stencil touches are spread onto and transformed;
    # rows past either edge fold onto their targets as on the padded grid
    _, l_max, theta, phi, w = case
    got = _nufft.type1_sums(l_max, theta, phi, w)
    assert got.tobytes() == full_grid_type1_sums(l_max, theta, phi, w).tobytes()


def _traced_peak(l_max, theta, phi, w):
    tracemalloc.start()
    try:
        _nufft.type1_sums(l_max, theta, phi, w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_type1_sums_hold_the_touched_rows_only():
    # the full padded grid and its whole real FFT held 27.0 MiB here
    assert _traced_peak(300, *_rotated_rule(300)) <= 22 * 2**20


@pytest.mark.parametrize("order, l_max", [(131, 134), (300, 300)])
def test_work_bytes_bound_what_type1_sums_holds(order, l_max):
    # beyond the sorted copies of the n points' angles and weights
    theta, phi, w = _rotated_rule(order)
    assert _traced_peak(l_max, theta, phi, w) <= _nufft.work_bytes(l_max) + 40 * theta.size


def test_type1_sums_of_no_points_are_zero():
    none = np.empty(0)
    h = _nufft.type1_sums(5, none, none, none)
    assert h.shape == (11, 6) and not h.any()
