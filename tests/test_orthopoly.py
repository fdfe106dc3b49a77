import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest
from scipy.special import lpmv

from povmquad.errors import DomainError
from povmquad.harmonics import _dense
from povmquad.orthopoly import (
    assoc_legendre,
    assoc_legendre_column,
    gauss_legendre_rule,
    legendre_eval,
)


def test_legendre_reference_values():
    assert legendre_eval(0, 0.3) == (1.0, 0.0)
    value, _ = legendre_eval(2, 0.0)
    assert value == -0.5
    value, deriv = legendre_eval(5, 1.0)
    assert value == pytest.approx(1.0, abs=1e-15)
    assert deriv == pytest.approx(15.0, abs=1e-12)  # l(l+1)/2 at x=1


def test_legendre_bounded_on_interval():
    x = np.linspace(-1, 1, 501)
    for l in (3, 10, 40):
        values, _ = legendre_eval(l, x)
        assert np.max(np.abs(values)) <= 1.0 + 1e-12


def test_legendre_domain_guard():
    with pytest.raises(DomainError):
        legendre_eval(3, 1.0 + 1e-9)
    with pytest.raises(DomainError):
        legendre_eval(-1, 0.0)
    # 1e-12 slack is clamped, not rejected
    legendre_eval(3, 1.0 + 1e-13)


def test_recurrence_matches_explicit_low_degrees():
    x = np.linspace(-1.0, 1.0, 1000)
    p2 = 0.5 * (3 * x**2 - 1)
    p3 = 0.5 * (5 * x**3 - 3 * x)
    p4 = 0.125 * (35 * x**4 - 30 * x**2 + 3)
    for l, ref in ((2, p2), (3, p3), (4, p4)):
        values, _ = legendre_eval(l, x)
        assert np.max(np.abs(values - ref)) < 1e-14


@pytest.mark.parametrize("l", [1, 2, 5, 12, 30])
def test_derivative_against_numpy_legendre_series(l):
    x = np.linspace(-1.0, 1.0, 257)
    coeffs = np.zeros(l + 1)
    coeffs[l] = 1.0
    ref = npleg.legval(x, npleg.legder(coeffs))
    _, deriv = legendre_eval(l, x)
    assert np.max(np.abs(deriv - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_assoc_legendre_constant_term():
    assert assoc_legendre(0, 0, 0.7) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi), abs=1e-16
    )


def test_assoc_legendre_orthonormal_under_quadrature():
    # the defining property: 2*pi * int P~_l^m(x)^2 dx = 1
    x, w = npleg.leggauss(64)
    for l, m in ((1, 1), (3, 2), (7, 0), (25, 13)):
        vals = assoc_legendre(l, m, x)
        assert 2.0 * math.pi * (w @ vals**2) == pytest.approx(1.0, abs=1e-12)


def test_assoc_legendre_vanishes_at_edges_for_positive_m():
    assert assoc_legendre(3, 3, 1.0) == 0.0
    assert assoc_legendre(3, 3, -1.0) == 0.0


def test_assoc_legendre_matches_scipy_lpmv():
    # lpmv carries the Condon-Shortley phase; ours is phase-free
    x = np.linspace(-0.99, 0.99, 40)
    for l in range(0, 21):
        for m in range(0, l + 1):
            norm = math.sqrt(
                (2 * l + 1)
                / (4 * math.pi)
                * math.exp(math.lgamma(l - m + 1) - math.lgamma(l + m + 1))
            )
            ref = (-1.0) ** m * norm * lpmv(m, l, x)
            got = assoc_legendre(l, m, x)
            assert np.max(np.abs(got - ref)) < 1e-12


def test_assoc_legendre_domain_guards():
    with pytest.raises(DomainError):
        assoc_legendre(2, 3, 0.1)
    with pytest.raises(DomainError):
        assoc_legendre(2, -1, 0.1)
    with pytest.raises(DomainError):
        assoc_legendre(2, 1, 1.1)


def test_assoc_legendre_column_layout():
    col = assoc_legendre_column(5, 2, 0.37)
    assert col.shape == (4,)
    for i, l in enumerate(range(2, 6)):
        assert col[i] == assoc_legendre(l, 2, 0.37)


def test_rule_one_and_two_nodes_analytic():
    r1 = gauss_legendre_rule(1)
    assert r1.nodes.tolist() == [0.0]
    assert r1.weights.tolist() == [2.0]
    r2 = gauss_legendre_rule(2)
    assert np.allclose(r2.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(r2.weights, [1.0, 1.0], atol=1e-14)


def test_rule_three_nodes_integrates_quartic():
    r = gauss_legendre_rule(3)
    assert abs(r.weights @ r.nodes**4 - 2.0 / 5.0) < 1e-14


def test_rule_structure_invariants():
    for n in (1, 2, 7, 40, 161, 200):
        r = gauss_legendre_rule(n)
        assert r.nodes.size == n
        assert np.all(np.diff(r.nodes) > 0)
        assert np.all(np.abs(r.nodes) < 1.0)
        assert np.all(r.weights > 0)
        # symmetric by construction, bit for bit
        assert np.array_equal(r.nodes, -r.nodes[::-1])
        assert np.array_equal(r.weights, r.weights[::-1])
        assert abs(r.weights.sum() - 2.0) < 1e-13


def test_rule_matches_numpy_leggauss():
    for n in (1, 2, 3, 10, 50, 200):
        r = gauss_legendre_rule(n)
        x_ref, w_ref = npleg.leggauss(n)
        assert np.max(np.abs(r.nodes - x_ref)) < 1e-13
        assert np.max(np.abs(r.weights - w_ref)) < 1e-13


def test_rule_exactness_through_degree_2n_minus_1():
    for n in range(1, 201):
        r = gauss_legendre_rule(n)
        j = np.arange(2 * n)
        moments = (r.nodes[None, :] ** j[:, None]) @ r.weights
        exact = np.where(j % 2 == 0, 2.0 / (j + 1), 0.0)
        err = np.abs(moments - exact) / np.maximum(1.0, np.abs(exact))
        assert err.max() < 1e-12, f"n={n}, worst degree {j[err.argmax()]}"


def test_node_interlacing():
    prev = gauss_legendre_rule(1).nodes
    for n in range(2, 201):
        cur = gauss_legendre_rule(n).nodes
        # every root of P_{n-1} lies strictly between consecutive roots of P_n
        assert np.all(cur[:-1] < prev) and np.all(prev < cur[1:])
        prev = cur


def test_rule_domain_guard():
    with pytest.raises(DomainError):
        gauss_legendre_rule(0)


def test_rule_convergence_error_reports_root_index(monkeypatch):
    import povmquad.orthopoly as orthopoly
    from povmquad.errors import ConvergenceError

    monkeypatch.setattr(orthopoly, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as err:
        gauss_legendre_rule(50)
    assert err.value.index is not None
    assert 0 <= err.value.index < 25


def _reference_norm_coeffs(l_max):
    """The recurrence coefficients entry by entry, as scalar loops; a and b
    packed as their lower triangles, row by row."""
    amm = np.empty(l_max + 1)
    amm[0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, l_max + 1):
        amm[m] = amm[m - 1] * math.sqrt((2 * m + 1) / (2.0 * m))
    a = np.zeros((l_max + 1, l_max + 1))
    b = np.zeros((l_max + 1, l_max + 1))
    for l in range(1, l_max + 1):
        lf = float(l)
        for m in range(l):
            mf = float(m)
            a[l, m] = math.sqrt((4.0 * lf * lf - 1.0) / (lf * lf - mf * mf))
            b[l, m] = -math.sqrt(
                (2.0 * lf + 1.0)
                * ((lf - 1.0) * (lf - 1.0) - mf * mf)
                / ((2.0 * lf - 3.0) * (lf * lf - mf * mf))
            )
    lower = np.tril_indices(l_max + 1)
    return amm, a[lower], b[lower]


def test_norm_coeffs_views_are_bit_identical_to_a_fresh_build():
    import povmquad.orthopoly as orthopoly

    # grow, shrink and regrow the shared table in one process, and build
    # past its order
    for l_max in (3, 40, 0, 17, 64, 1, 65, 40, 600, 1100):
        got = orthopoly._norm_coeffs(l_max)
        for g, ref in zip(got, _reference_norm_coeffs(l_max)):
            assert g.shape == ref.shape
            assert g.tobytes() == ref.tobytes()  # signs of zero included
            assert not g.flags.writeable


def test_norm_coeffs_share_a_table_up_to_a_fixed_order():
    import povmquad.orthopoly as orthopoly

    shared = orthopoly._SHARED_ORDER
    assert 402 <= shared <= 1000
    orthopoly._norm_coeffs(shared)
    big = orthopoly._norm_coeffs(2000)
    assert _dense(big[1]).shape == (2001, 2001)
    # the 32 MB table of order 2000 is its caller's alone
    assert orthopoly._NORM_TABLE[0].size == shared + 1
    assert sum(t.nbytes for t in orthopoly._NORM_TABLE) < 5e6
    # the shared rows are where the larger table starts
    small = orthopoly._norm_coeffs(shared)
    assert big[0][: shared + 1].tobytes() == small[0].tobytes()
    for g, ref in zip(big[1:3], small[1:3]):
        assert _dense(g)[: shared + 1, : shared + 1].tobytes() == _dense(ref).tobytes()


def test_norm_coeffs_build_new_rows_in_bounded_blocks():
    # the index and formula temporaries of the rows past the shared table
    # once spanned all of them: 184 MB traced for the 64 MB table of order
    # 2000; blocks of 2^17 entries still added 7.6 MiB to the square table
    import povmquad.orthopoly as orthopoly

    orthopoly._norm_coeffs(orthopoly._SHARED_ORDER)
    tracemalloc.start()
    try:
        table = orthopoly._norm_coeffs(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # amm and the two packed triangles: no entry above the diagonal is stored
    assert sum(t.nbytes for t in table[:3]) <= 8 * 2001 * 2002 + 8 * 2001
    assert peak <= sum(t.nbytes for t in table) + 2 * 2**20


def test_norm_coeffs_memory_does_not_grow_with_each_cap():
    # one table for every cap: caps 1000..1063 once held 64 tables (about 1 GB)
    code = (
        "import resource\n"
        "from povmquad.orthopoly import _norm_coeffs\n"
        "_norm_coeffs(2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "for l_max in range(1000, 1064):\n"
        "    _norm_coeffs(l_max)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) / 1024)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert float(out.stdout) < 64.0


def _mp_legendre_rule(n, nodes, mp):
    """Roots and weights of P_n at 40 digits, polished from the given nodes."""
    xs, ws = [], []
    for x0 in nodes:
        x = mp.mpf(float(x0))
        for _ in range(3):
            p_prev, p = mp.mpf(1), x
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            dp = n * (x * p - p_prev) / (x * x - 1)
            x -= p / dp
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    return xs, ws


def test_rule_accuracy_against_extended_precision():
    mpmath = pytest.importorskip("mpmath")
    worst_node = worst_weight = 0.0
    with mpmath.workdps(40):
        for n in list(range(2, 13)) + [16, 21, 26, 33, 48, 58, 66, 67, 100, 151]:
            r = gauss_legendre_rule(n)
            nodes, weights = r.nodes[n // 2:], r.weights[n // 2:]
            ref_x, ref_w = _mp_legendre_rule(n, nodes, mpmath.mp)
            for x, w, rx, rw in zip(nodes, weights, ref_x, ref_w):
                worst_node = max(worst_node, float(abs(mpmath.mpf(float(x)) - rx)))
                worst_weight = max(worst_weight, float(abs((mpmath.mpf(float(w)) - rw) / rw)))
    # one spacing of doubles below 1: the rounding noise of P_n, not Newton
    assert worst_node <= 1.2e-16
    # the first-order correction of w for the sub-spacing offset of the root
    # gives 5.5e-14 here; uncorrected weights reach 1.4e-13 at n = 100
    assert worst_weight <= 1e-13
