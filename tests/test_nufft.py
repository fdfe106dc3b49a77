import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from povmquad import _nufft
from povmquad.quadrature import product_rule
from povmquad.sphere import default_rng, sample_uniform_angles

from _oracles import full_grid_type1_sums, mpmath_type1_sums, rotate_angles, rotation_matrix


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


# The direct sum that replaces the NUFFT below harmonics._DIRECT_MAX_L: the
# same H, term by term, in real products small enough for one BLAS thread.


def _adversarial_cases():
    """The oracle cases of the NUFFT small enough for mpmath, and zero
    weights among negative and positive ones, each scaled to sum |w| = 4 pi."""
    cases = [c for c in _oracle_cases() if c[0] != "rotated-131"]
    rng = default_rng(32)
    theta, phi = sample_uniform_angles(rng, 200)
    w = rng.uniform(-1.0, 1.0, 200)
    w[::3] = 0.0
    cases.append(("zero-weights", 25, theta, phi, w))
    for name, l_max, theta, phi, w in cases:
        yield name, l_max, theta, phi, w * (4 * math.pi / np.abs(w).sum())


@pytest.mark.parametrize("case", list(_adversarial_cases()), ids=lambda c: c[0])
def test_direct_sums_match_mpmath(case):
    # measured: 2.6e-15 to 7.2e-15 off, where the NUFFT is 2.0e-14 to 2.7e-13
    _, l_max, theta, phi, w = case
    exact = mpmath_type1_sums(l_max, theta, phi, w)
    direct = np.abs(_nufft.direct_sums(l_max, theta, phi, w) - exact).max()
    nufft = np.abs(_nufft.type1_sums(l_max, theta, phi, w) - exact).max()
    assert direct <= 2e-14
    assert direct <= nufft


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_direct_sums_match_type1_sums(case):
    _, l_max, theta, phi, w = case
    diff = np.abs(_nufft.direct_sums(l_max, theta, phi, w) - _nufft.type1_sums(l_max, theta, phi, w))
    assert diff.max() <= 3e-14 * np.abs(w).sum()


def test_direct_sums_of_no_points_are_zero():
    none = np.empty(0)
    h = _nufft.direct_sums(5, none, none, none)
    assert h.shape == (11, 6) and not h.any()


def test_direct_sums_hold_one_block_of_powers():
    # two power tables of at most _SPREAD_ELEMS doubles together, whatever n
    # (n = 45 451 here), beside the (2 l_max + 2)^2 sums and H: 1.55 MB
    l_max = 58
    theta, phi, w = _rotated_rule(300)
    _nufft.direct_sums(l_max, theta[:10], phi[:10], w[:10])
    tracemalloc.start()
    try:
        _nufft.direct_sums(l_max, theta, phi, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * _nufft._SPREAD_ELEMS + 192 * (l_max + 1) ** 2


_THREADS_SCRIPT = """
import hashlib, math, sys
import numpy as np
from povmquad import _nufft
from povmquad.quadrature import product_rule
from povmquad.sphere import default_rng, sample_uniform_angles
theta, phi = sample_uniform_angles(default_rng(7), 3000)
w = default_rng(8).uniform(0.0, 1.0, 3000)
for l_max in (16, 38, 58, 64):
    print(hashlib.sha256(_nufft.direct_sums(l_max, theta, phi, w).tobytes()).hexdigest())
"""


def test_direct_sums_do_not_depend_on_the_blas_thread_count():
    src = Path(_nufft.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 4
