import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from povmquad import _nufft, cli, quadrature
from povmquad.cli import EXIT_OK, EXIT_VERIFY, _load_pointset, default_grid_dir, main
from povmquad.errors import (
    CapExceeded,
    DomainError,
    DuplicatePoint,
    ParseError,
    WeightError,
    ZeroVector,
)
from povmquad.harmonics import _dense, _latitude_rings, _ring_sums, weighted_harmonic_sums
from povmquad.povm import povm_from_quadrature, scalar_completeness_residual
from povmquad.quadrature import (
    DEFAULT_TOL,
    FOUR_PI,
    SIZE_BUDGET_BYTES,
    SphericalQuadrature,
    _dfs_allowance,
    _fmt,
    certify,
    detect_strength,
    ingest_pointset,
    lebedev_count,
    product_rule,
    product_rule_count,
    quadrature_to_json,
)
from povmquad.sphere import angles_to_xyz

from _oracles import (
    first_close_pair,
    rotate_angles,
    rotation_matrix,
    scipy_harmonic_residuals,
    scipy_strength,
)

PRODUCT_RULE_COUNTS = [2, 6, 8, 15, 18, 28, 32, 45, 50, 66, 72, 91, 98, 120, 128]

OCTAHEDRON_LINES = [
    "# octahedron vertices",
    "",
    " 1 0 0",
    "-1 0 0",
    "0  1 0",
    "0 -1 0",
    "0 0  1",
    "0 0 -1",
]


def octahedron():
    return ingest_pointset(OCTAHEDRON_LINES, "uniform", label="octahedron")


def antipodal():
    return SphericalQuadrature(
        theta=np.array([0.0, math.pi]),
        phi=np.array([0.0, 0.0]),
        weights=np.array([2 * math.pi, 2 * math.pi]),
        label="antipodal pair",
    )


def load_grid(name):
    path = default_grid_dir() / name
    mode = "explicit" if name.startswith("lebedev") else "uniform"
    with open(path) as fh:
        return ingest_pointset(fh, mode, label=name)


def test_product_rule_counts_match_reference_table():
    for order, count in zip(range(1, 16), PRODUCT_RULE_COUNTS):
        q = product_rule(order)
        assert q.n == count == product_rule_count(order)
    assert product_rule(10).n == 66


def test_product_rule_weight_sum_and_positivity():
    for order in (0, 1, 4, 9):
        q = product_rule(order)
        assert q.all_weights_positive
        assert abs(q.weight_sum - FOUR_PI) < 1e-10 * FOUR_PI
        q.validate()


def test_product_rule_certified_strength_sweep():
    for order in list(range(0, 26)) + [50, 90]:
        q = product_rule(order)
        report = certify(q, max(order, 1) + 1)
        assert report.strength >= order
        if order >= 1:
            assert np.all(report.residual_per_l[:order] < 1e-12)


def test_product_rule_order5_observed_strength():
    report = certify(product_rule(5), 7)
    assert report.strength == 5  # observed: l=6 fails in both separated factors
    assert report.residual(6) > 1e-6
    assert np.all(report.residual_per_l[:5] < 1e-12)


def test_certify_agrees_with_scipy_brute_force():
    for q in (octahedron(), product_rule(3), antipodal()):
        report = certify(q, 6)
        ref = scipy_harmonic_residuals(q.theta, q.phi, q.weights, 6)
        assert np.max(np.abs(report.residual_per_l - ref)) < 1e-10
        assert report.strength == scipy_strength(q.theta, q.phi, q.weights, 6)


def test_octahedron_strength_three_fails_at_four():
    report = certify(octahedron(), 5)
    assert report.strength == 3
    assert report.residual(4) > 1e-3
    assert report.residual(5) < 1e-12  # odd order cancels by parity


def test_antipodal_and_single_point_strengths():
    assert detect_strength(antipodal(), 4) == 1
    single = SphericalQuadrature([0.7], [0.1], [FOUR_PI], label="single")
    assert detect_strength(single, 3) == 0


def test_icosahedron_design_strength_five():
    q = load_grid("design_0012.txt")
    assert q.n == 12
    assert detect_strength(q, 7) == 5


def test_rotation_leaves_certification_unchanged():
    rot = rotation_matrix((0.3, -1.0, 0.7), 0.9)
    q = product_rule(7)
    theta_r, phi_r = rotate_angles(q.theta, q.phi, rot)
    q_rot = SphericalQuadrature(theta_r, phi_r, q.weights, label="rotated")
    a = certify(q, 7)
    b = certify(q_rot, 7)
    assert a.strength == b.strength == 7
    assert np.max(np.abs(a.residual_per_l - b.residual_per_l)) < 1e-12
    # a non-exact rule keeps its strength under rotation as well
    oct_r = rotate_angles(*(lambda o: (o.theta, o.phi))(octahedron()), rot)
    q2 = SphericalQuadrature(oct_r[0], oct_r[1], octahedron().weights)
    assert detect_strength(q2, 5) == 3


def test_certify_guards():
    q = product_rule(2)
    with pytest.raises(DomainError):
        certify(q, 0)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            certify(q, 3, tol=tol)
    signed = SphericalQuadrature(
        [0.1, 2.0, 2.5], [0.0, 1.0, 4.0], [8.0, -1.0, FOUR_PI - 7.0]
    )
    with pytest.raises(WeightError):
        certify(signed, 2)
    report = certify(signed, 2, allow_signed=True)
    assert not report.all_weights_positive
    with pytest.raises(WeightError):
        signed.validate()


def test_certification_report_accessors():
    report = certify(product_rule(3), 4)
    assert report.l_max_tested == 4
    assert report.residual(1) == report.residual_per_l[0]
    with pytest.raises(DomainError):
        report.residual(5)
    d = report.to_dict()
    assert d["strength"] == report.strength
    assert set(d["residual_per_l"]) == {"1", "2", "3", "4"}
    assert report.weight_sum_residual < 1e-12


def test_ingest_uniform_normalization_contract():
    q = octahedron()
    assert q.n == 6
    assert abs(q.weight_sum - FOUR_PI) < 1e-12
    assert np.allclose(q.weights, FOUR_PI / 6.0)


def test_ingest_explicit_weights_rescaled():
    lines = ["0 0 1 0.5", "0 0 -1 1.5"]
    q = ingest_pointset(lines, "explicit")
    assert abs(q.weight_sum - FOUR_PI) < 1e-12
    assert q.weight_scale == pytest.approx(FOUR_PI / 2.0)
    assert np.allclose(q.weights, [FOUR_PI / 4, 3 * FOUR_PI / 4])


def test_ingest_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        ingest_pointset(["0 0 1", "a b c"], "uniform")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        ingest_pointset(["0 0 1", "1 0"], "uniform")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        ingest_pointset(["0 0 1 1"], "uniform")  # stray weight column
    assert err.value.line == 1
    with pytest.raises(ParseError):
        ingest_pointset(["# only comments"], "uniform")


def test_ingest_zero_vector_and_norm_guard():
    with pytest.raises(ZeroVector):
        ingest_pointset(["0 0 1", "0 0 0"], "uniform")
    with pytest.raises(ParseError) as err:
        ingest_pointset(["0 0 1.001"], "uniform")
    assert err.value.line == 1
    # within 1e-6 is renormalized silently
    q = ingest_pointset(["0 0 1.0000005"], "uniform")
    assert q.theta[0] == 0.0


def test_ingest_duplicate_points():
    with pytest.raises(DuplicatePoint):
        ingest_pointset(["1 0 0", "0 1 0", "1 1e-12 0"], "uniform")


def test_ingest_norm_errors_name_the_first_offending_line():
    with pytest.raises(ParseError) as err:
        ingest_pointset(["0 0 1", "0 0 2", "0 0 0"], "uniform")
    assert err.value.line == 2
    with pytest.raises(ZeroVector, match="line 3: zero vector"):
        ingest_pointset(["0 0 1", "", "0 0 0", "0 0 2"], "uniform")


_AXIS = quadrature._SWEEP_AXIS
_CHORD = quadrature._DUPLICATE_CHORD
# coincident, inside, on and either side of the threshold, and outside
_PLANT_CHORDS = [0.0, 0.5e-9, (1 - 1e-6) * _CHORD, _CHORD, (1 + 1e-6) * _CHORD, 2e-9]


def _across_axis(rng):
    """A random unit vector perpendicular to the sweep axis."""
    u = rng.normal(size=3)
    u -= (u @ _AXIS) * _AXIS
    return u / np.linalg.norm(u)


@st.composite
def planted_point_sets(draw):
    """Random unit vectors with planted points; line numbers increase with gaps.

    - near: a partner at a chord from _PLANT_CHORDS, offset in a random
      direction, along the sweep axis (projections one chord apart) or
      across it (equal projections);
    - mirror: the image across a plane containing the axis, far away at
      an equal projection;
    - ring: two to five turns of one point about the axis, a run of points
      inside one slab, so the sweep must look past neighbouring positions.
    """
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xyz = rng.normal(size=(n, 3))
    xyz /= np.linalg.norm(xyz, axis=1)[:, None]
    index = st.integers(0, n - 1)
    plants = st.one_of(
        st.tuples(st.just("near"), index, index, st.sampled_from(_PLANT_CHORDS),
                  st.sampled_from(["random", "along", "across"])),
        st.tuples(st.just("mirror"), index, index),
        st.tuples(st.just("ring"), index, st.lists(index, min_size=2, max_size=5)),
    )
    for kind, a, b, *rest in draw(st.lists(plants, max_size=4)):
        if kind == "ring":
            for c in b:
                if c != a:
                    xyz[c] = rotation_matrix(_AXIS, rng.uniform(0, 2 * math.pi)) @ xyz[a]
        elif a == b:
            continue
        elif kind == "mirror":
            u = _across_axis(rng)
            xyz[b] = xyz[a] - 2.0 * (xyz[a] @ u) * u
        else:
            chord, direction = rest
            if direction == "along":
                u = _AXIS
            elif direction == "across":
                u = _across_axis(rng)
            else:
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
            xyz[b] = xyz[a] + chord * u
    lines = np.cumsum(rng.integers(1, 4, n)).tolist()
    return xyz, lines


def _assert_scan_matches_oracle(xyz, lines):
    expected = first_close_pair(xyz, _CHORD)
    if expected is None:
        quadrature._check_duplicates(xyz, lines, _CHORD)
    else:
        i, j = expected
        with pytest.raises(DuplicatePoint, match=f"lines {lines[i]} and {lines[j]} coincide"):
            quadrature._check_duplicates(xyz, lines, _CHORD)
    return expected


@settings(max_examples=300, deadline=None)
@given(planted_point_sets())
def test_duplicate_scan_matches_brute_force_oracle(points):
    _assert_scan_matches_oracle(*points)


def test_duplicate_scan_looks_a_few_ulps_past_the_chord_along_its_axis():
    # a partner one chord along the sweep axis: the squared chord rounds to
    # the threshold or below about half the time, and the projections of
    # such a pair may differ by a few ulps more than the chord
    rng = np.random.default_rng(7)
    x = rng.normal(size=(400, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    found = [_assert_scan_matches_oracle(np.array([p, p + _CHORD * _AXIS]), [1, 2]) for p in x]
    assert 0 < found.count(None) < len(found)


def _rule_and_grid_points():
    """Plain and rotated product rules of orders 1-131, then the bundled grids."""
    rot = rotation_matrix([0.3, -1.2, 0.8], 0.7)
    for order in range(1, 132):
        q = product_rule(order)
        xyz = angles_to_xyz(q.theta, q.phi)
        yield xyz
        yield xyz @ rot.T
    for path in sorted(default_grid_dir().glob("*.txt")):
        xyz = np.loadtxt(path, ndmin=2)[:, :3]
        yield xyz / np.linalg.norm(xyz, axis=1)[:, None]


def test_duplicate_scan_matches_oracle_on_rules_and_grids():
    sets = 0
    for xyz in _rule_and_grid_points():
        n = xyz.shape[0]
        # a copy of point n // 3 inserted at position 2n // 3
        planted = np.insert(xyz, 2 * n // 3, xyz[n // 3], axis=0)
        assert _assert_scan_matches_oracle(xyz, list(range(1, n + 1))) is None
        found = _assert_scan_matches_oracle(planted, list(range(1, n + 2)))
        assert found == (n // 3, 2 * n // 3)
        sets += 1
    assert sets == 2 * 131 + 11


def test_ingest_rejects_unknown_mode_and_bad_weight_sum():
    with pytest.raises(DomainError):
        ingest_pointset(["0 0 1"], "guess")
    with pytest.raises(WeightError):
        ingest_pointset(["0 0 1 1.0", "0 0 -1 -1.0"], "explicit")


@pytest.mark.parametrize("weights, total", [
    (["1e308", "1e308"], "inf"),
    (["1e-320", "1e-320"], "2e-320"),
    (["1e300", "-1e300", "1e-300"], "1e-300"),
])
def test_explicit_weights_that_cannot_rescale_to_4pi_are_refused(weights, total, tmp_path):
    # a sum past the largest double made every weight 0 (and a signed
    # certify exit 0), a scale or a weight past it a weight inf (exit 64):
    # now one message and exit 1, with no numpy warning
    lines = [f"{xyz} {w}" for xyz, w in zip(["0 0 1", "1 0 0", "0 1 0"], weights)]
    message = f"explicit weights sum to {total}; cannot rescale to 4*pi"
    path = tmp_path / "w.txt"
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WeightError, match=re.escape(message)):
            ingest_pointset(lines, "explicit")
        for signed in ([], ["--signed"]):
            argv = ["certify", str(path), "--lmax", "5", *signed]
            assert _cli_outcome(argv) == (EXIT_VERIFY, "", f"povmquad certify: {message}\n")


def test_lebedev_two_weight_solve_oracle():
    # Solve the octahedral 14-point rule from exactness alone: weights w1
    # (6 axis points) and w3 (8 cube points) from the l=0 and (l=4, m=0)
    # conditions, then compare against the shipped grid.
    y40 = lambda x: float(sph_harm_y(4, 0, math.acos(x), 0.0).real)  # noqa: E731
    s_oct = 2 * y40(1.0) + 4 * y40(0.0)
    s_cube = 8 * y40(1.0 / math.sqrt(3.0))
    a = np.array([[6.0, 8.0], [s_oct, s_cube]])
    w1, w3 = np.linalg.solve(a, np.array([FOUR_PI, 0.0]))
    assert w1 == pytest.approx(FOUR_PI / 15.0, rel=1e-12)
    assert w3 == pytest.approx(FOUR_PI * 3.0 / 40.0, rel=1e-12)
    q = load_grid("lebedev_0014.txt")
    assert q.n == 14
    assert detect_strength(q, 7) == 5
    got = sorted(set(np.round(q.weights, 14)))
    assert got == pytest.approx([w1, w3], rel=1e-10)


@pytest.mark.parametrize(
    "name,order,count",
    [
        ("lebedev_0006.txt", 3, 6),
        ("lebedev_0014.txt", 5, 14),
        ("lebedev_0026.txt", 7, 26),
        ("lebedev_0038.txt", 9, 38),
        ("lebedev_0050.txt", 11, 50),
        ("lebedev_0074.txt", 13, 74),
        ("lebedev_0086.txt", 15, 86),
    ],
)
def test_shipped_lebedev_grids_certify_at_published_order(name, order, count):
    q = load_grid(name)
    assert q.n == count
    report = certify(q, order + 1, allow_signed=True)
    assert report.strength == order
    if name == "lebedev_0074.txt":
        # the published 74-point rule carries one negative weight class and
        # is therefore measurable but not POVM-suitable
        assert not q.all_weights_positive
        with pytest.raises(WeightError):
            certify(q, order)
    else:
        assert q.all_weights_positive
        assert certify(q, order).strength == order


@pytest.mark.parametrize(
    "name,strength,count",
    [
        ("design_0002.txt", 1, 2),
        ("design_0004.txt", 2, 4),
        ("design_0006.txt", 3, 6),
        ("design_0012.txt", 5, 12),
    ],
)
def test_shipped_designs_certify(name, strength, count):
    q = load_grid(name)
    assert q.n == count
    assert np.allclose(q.weights, FOUR_PI / count)
    assert detect_strength(q, strength + 1) == strength


def test_lebedev_count_formula():
    assert lebedev_count(5) == 14
    assert lebedev_count(11) == 50
    assert lebedev_count(131) == 5810
    with pytest.raises(DomainError):
        lebedev_count(7)
    with pytest.raises(DomainError):
        lebedev_count(6)


def test_quadrature_json_export_round_trip():
    q = product_rule(2)
    obj = json.loads(quadrature_to_json(q))
    assert obj["convention"] == "solid_angle_4pi"
    assert obj["n"] == q.n == len(obj["points"])
    assert obj["label"] == q.label
    for point, t, p, w in zip(obj["points"], q.theta, q.phi, q.weights):
        assert point["theta"] == t and point["phi"] == p and point["weight"] == w


def test_quadrature_json_matches_the_per_value_writer():
    values = np.array([-0.0, 5e-324, 2.0 * math.pi, 1e300])
    q = SphericalQuadrature(values, values[::-1], np.roll(values, 1), label="extremes")
    points = ",\n    ".join(
        f'{{"theta": {_fmt(t)}, "phi": {_fmt(p)}, "weight": {_fmt(w)}}}'
        for t, p, w in zip(q.theta, q.phi, q.weights)
    )
    assert quadrature_to_json(q) == (
        '{\n  "label": "extremes",\n  "n": 4,\n  "convention": "solid_angle_4pi",\n'
        f'  "points": [\n    {points}\n  ]\n}}\n'
    )


def test_quadrature_construction_guards():
    with pytest.raises(DomainError):
        product_rule(-1)
    with pytest.raises(DomainError):
        SphericalQuadrature([0.1, 0.2], [0.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        SphericalQuadrature([], [], [])
    with pytest.raises(DomainError):
        SphericalQuadrature([0.1], [0.0], [math.inf])


def test_quadrature_iteration_yields_directions():
    q = product_rule(1)
    pairs = list(q)
    assert len(pairs) == len(q) == 2
    direction, weight = pairs[0]
    assert weight == pytest.approx(2 * math.pi)
    assert direction.theta == pytest.approx(math.pi / 2)


def test_ingest_accepts_file_like_streams():
    text = "\n".join(OCTAHEDRON_LINES)
    q = ingest_pointset(io.StringIO(text), "uniform")
    assert q.n == 6


@pytest.mark.parametrize("mode, lines", [
    ("uniform", ["0 0 1", "# comment", "", "1 nan 0"]),
    ("explicit", ["0 0 1 2", "1 0 0 -inf"]),
    ("explicit", ["0 0 1 2", "1 0 0 1", "0 1 0 inf"]),
])
def test_ingest_rejects_non_finite_values_with_their_line(mode, lines):
    with pytest.raises(ParseError, match="non-finite value") as err:
        ingest_pointset(lines, mode)
    assert err.value.line == len(lines)


# Point files through both parsers: the np.loadtxt call of ingest and the
# per-line loop it falls back to.
_PARSE_NUMBERS = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-3, 3).map(str)
)
_PARSE_ODD_TOKENS = st.sampled_from([
    "1_0", "0x1p3", "nan", "-nan", "inf", "-Infinity", "+1e5", "1e400", "1e-320", "-0", ".5", "1.",
    "e5", "", "#", "\u00a0", "\u200b",
])
_PARSE_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0c", "\x1c", " \t "])
_PARSE_ENDINGS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def point_texts(draw):
    r"""Text of a point file: up to eight rows of one column count from 2 to 5,
    tokens joined by spaces, tabs, \x0c or \x1c, with comment, blank and
    whitespace lines and trailing comments anywhere, LF, CRLF or CR endings;
    empty and comment-only files included. Half the files hold finite
    numbers only; the others also odd tokens (1_0, 0x1p3, nan, inf, +1e5,
    ...) and rows of other widths."""
    columns = draw(st.sampled_from([2, 3, 3, 3, 4, 4, 4, 5]))
    clean = draw(st.booleans())
    tokens = _PARSE_NUMBERS if clean else _PARSE_NUMBERS | _PARSE_ODD_TOKENS
    widths = st.just(columns) if clean else st.sampled_from([columns] * 3 + [2, 3, 4, 5])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        width = draw(widths)
        line = draw(_PARSE_SEPARATORS).join(draw(st.lists(tokens, min_size=width, max_size=width)))
        if draw(st.integers(0, 4)) == 0:
            line += " # " + draw(st.text(max_size=4))
        lines.append(line)
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", "# comment", "   ", "\t", "\x0c", "\x1c", "#"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ending = draw(_PARSE_ENDINGS)
    text = ending.join(lines)
    if lines and draw(st.booleans()):
        text += ending
    return text


def _parse_outcome(parse, lines, n_columns):
    """Values (as bytes), shape and every line number, or the exception."""
    try:
        values, line_numbers = parse(lines, n_columns)
    except Exception as exc:
        return type(exc), str(exc)
    return values.tobytes(), values.shape, [line_numbers[i] for i in range(len(values))]


def _assert_parsers_agree(text):
    # as the CLI splits a file, and as a text stream yields it
    for lines in (text.split("\n"), list(io.StringIO(text, newline=""))):
        for n_columns in (3, 4):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fast = _parse_outcome(quadrature._read_points, lines, n_columns)
            assert caught == []  # numpy's "no data" warning stays inside
            loop = _parse_outcome(quadrature._parse_point_lines, lines, n_columns)
            assert fast == loop


@settings(max_examples=400, deadline=None)
@given(point_texts())
def test_fast_parse_matches_the_per_line_loop(text):
    _assert_parsers_agree(text)


def test_fast_parse_matches_the_loop_on_bundled_and_test_files():
    paths = sorted(default_grid_dir().glob("*.txt"))
    paths += sorted(p for p in (Path(__file__).parent / "data").iterdir() if p.is_file())
    assert len(paths) >= 12
    for path in paths:
        _assert_parsers_agree(path.read_text(encoding="utf-8"))


def test_well_formed_files_never_run_the_per_line_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("ran the per-line loop")

    monkeypatch.setattr(quadrature, "_parse_point_lines", refuse)
    lines = ["# header", "0 0 1 2", "", "1 0 0 1  # tail", "0 1 0 1\r"]
    values, line_numbers = quadrature._read_points(lines, 4)
    assert values.tolist() == [[0, 0, 1, 2], [1, 0, 0, 1], [0, 1, 0, 1]]
    assert [line_numbers[i] for i in range(3)] == [2, 4, 5]
    with pytest.raises(DuplicatePoint, match="lines 2 and 5 coincide"):
        ingest_pointset(["# header", "0 0 1", "", "1 0 0", "0 0 1"], "uniform")


def _rule_text(order):
    """The product rule of the order as bench-style '%.17g' 'x y z w' lines."""
    q = product_rule(order)
    return quadrature._format_rows(
        "%.17g %.17g %.17g %.17g\n", "", *angles_to_xyz(q.theta, q.phi).T, q.weights
    )


@pytest.fixture(scope="module")
def rule_1000_text():
    return _rule_text(1000)


@pytest.mark.parametrize("order", [131, 1000])
def test_rule_files_ingest_into_whole_equispaced_rings(order, rule_1000_text, tmp_path):
    # dividing every vector by its norm moved z by an ulp on some points of
    # a ring: 89 rings at order 131, and 708 rings, 295 routed, at order 1000
    path = tmp_path / "rule.txt"
    path.write_text(rule_1000_text if order == 1000 else _rule_text(order))
    g = _load_pointset(path, "auto")
    rings = _latitude_rings(g.theta, g.phi, g.weights)
    assert rings.bounds.size - 1 == (order + 2) // 2
    assert np.all(rings.period == order + 1)


def test_a_copied_first_line_of_the_order_1000_file_is_named(rule_1000_text, tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text(rule_1000_text + rule_1000_text.split("\n", 1)[0] + "\n")
    with pytest.raises(DuplicatePoint, match="lines 1 and 501502 coincide"):
        _load_pointset(path, "auto")


def test_the_order_1000_file_ingests_within_50_mib(rule_1000_text, tmp_path):
    # read in blocks: the list of every line held 114.2 MiB traced here
    path = tmp_path / "rule.txt"
    path.write_text(rule_1000_text)
    tracemalloc.start()
    try:
        g = _load_pointset(path, "auto")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50 * 2**20
    whole = ingest_pointset(rule_1000_text.split("\n"), "explicit")
    for a, b in ((g.theta, whole.theta), (g.phi, whole.phi), (g.weights, whole.weights)):
        assert a.tobytes() == b.tobytes()
    assert g.weight_scale == whole.weight_scale


def _first_data_columns(lines):
    """The column count of auto mode, from the first data line (3 if none)."""
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            return 4 if len(line.split()) == 4 else 3
    return 3


class _Read(Exception):
    pass


def _read_by_ingest(lines, n_columns):
    """(values, line_numbers) as ingest_pointset reads `lines`, in its blocks."""
    read_blocks = quadrature._read_point_blocks

    def stop(blocks, n):
        raise _Read(*read_blocks(blocks, n))

    with mock.patch.object(quadrature, "_read_point_blocks", stop):
        try:
            ingest_pointset(lines, {3: "uniform", 4: "explicit"}[n_columns])
        except _Read as read:
            return read.args


def _read_by_cli(text, n_columns):
    """(values, line_numbers) as the CLI reads the UTF-8 bytes of `text`."""
    blocks = cli._point_lines(io.BytesIO(text.encode("utf-8")), "f.txt")
    return quadrature._read_point_blocks(blocks, n_columns)


def _parse_whole(lines, n_columns):
    """The syntax-only reference of the block reader: one per-line parse of
    every line, and "no points found" where it finds none."""
    values, line_numbers = quadrature._parse_point_lines(lines, n_columns)
    if not len(values):
        raise ParseError("no points found in stream")
    return values, line_numbers


def _ingest_outcome(lines, weight_mode):
    """The bits of theta, phi and weights and the scale of ingest_pointset,
    or its exception."""
    try:
        q = ingest_pointset(lines, weight_mode)
    except Exception as exc:
        return type(exc), str(exc)
    return q.theta.tobytes(), q.phi.tobytes(), q.weights.tobytes(), q.weight_scale


def _assert_blocks_match_the_whole_text(text):
    """The block reader against one parse of the whole text, at blocks of 1,
    7 and 4096 text lines (_BLOCK_BYTES // 36), and of as many bytes; and
    ingest, which checks the values on the joined rows, against ingest of
    one block."""
    lines = text.split("\n")
    # as the CLI read a file: universal newlines, split on '\n'
    whole = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    with mock.patch.object(quadrature, "_BLOCK_BYTES", 36 * (len(lines) + 1)):
        one_block = {mode: _ingest_outcome(lines, mode) for mode in ("uniform", "explicit")}
    for per_block in (1, 7, 4096):
        with mock.patch.object(quadrature, "_BLOCK_BYTES", 36 * per_block):
            for n_columns in (3, 4):
                assert _parse_outcome(_read_by_ingest, lines, n_columns) == _parse_outcome(
                    _parse_whole, lines, n_columns
                )
            for n_columns in (3, 4, None):
                assert _parse_outcome(_read_by_cli, text, n_columns) == _parse_outcome(
                    _parse_whole, whole, n_columns or _first_data_columns(whole)
                )
            for mode, outcome in one_block.items():
                assert _ingest_outcome(lines, mode) == outcome


@settings(max_examples=150, deadline=None)
@given(point_texts())
def test_blocks_of_any_size_parse_as_the_whole_text(text):
    _assert_blocks_match_the_whole_text(text)


def test_blocks_of_bundled_and_test_files_parse_as_the_whole_text():
    paths = sorted(default_grid_dir().glob("*.txt"))
    paths += sorted(p for p in (Path(__file__).parent / "data").iterdir() if p.is_file())
    for path in paths:
        _assert_blocks_match_the_whole_text(path.read_text(encoding="utf-8"))


def _whole_file_outcome(path, argv):
    """(exit code, stdout, stderr) of a CLI request on `path` as the reader
    of the whole file gives it: one UTF-8 decode of every byte, and one
    block holding every line."""
    data = path.read_bytes()
    try:
        io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        return 65, "", f"povmquad {argv[0]}: {path.name} is not UTF-8 text ({exc})\n"
    with mock.patch.object(quadrature, "_BLOCK_BYTES", 2 * len(data) + 512):
        return _cli_outcome(argv)


def _cli_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_NON_FINITE_TOKENS = st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e400"])
_SYNTAX_ERRORS = st.sampled_from(["0 0 1", "0 0 1 0.1 0", "0 x 1 0.1", "0 0 1 0.1.2", "1e5e5 0 0 1"])


@st.composite
def non_finite_and_syntax_texts(draw):
    """The order-6 rule file (28 lines of 'x y z w') with a non-finite value
    on one line and a column-count or float() error on another, in either
    order, each left out a quarter of the time; comments and blank lines
    anywhere."""
    lines = _rule_text(6).splitlines()
    i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2, unique=True))
    if draw(st.integers(0, 3)):
        fields = lines[i].split()
        fields[draw(st.integers(0, 3))] = draw(_NON_FINITE_TOKENS)
        lines[i] = " ".join(fields)
    if draw(st.integers(0, 3)):
        lines[j] = draw(_SYNTAX_ERRORS)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# comment"])))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=point_texts() | non_finite_and_syntax_texts())
def test_certify_reads_point_files_in_blocks_as_the_whole_file(text, tmp_path_factory):
    # the values are checked once, on the joined rows, so a non-finite value
    # and a syntax error in different blocks report as in one block
    path = tmp_path_factory.mktemp("points") / "points.txt"
    path.write_bytes(text.encode("utf-8"))
    argv = ["certify", str(path), "--lmax", "3"]
    expected = _whole_file_outcome(path, argv)
    for per_block in (1, 7, 4096):
        with mock.patch.object(quadrature, "_BLOCK_BYTES", 36 * per_block):
            assert _cli_outcome(argv) == expected


def _edited_rule_80(tmp_path, name, edit):
    """The order-80 rule file with `edit` applied to its bytes."""
    path = tmp_path / name
    path.write_bytes(edit(_rule_text(80).encode()))
    return path


def _replace_line(data, line, new):
    """`data` with its line number `line` replaced by `new`."""
    start = 0
    for _ in range(line - 1):
        start = data.index(b"\n", start) + 1
    return data[:start] + new + data[data.index(b"\n", start):]


_TRAPS = {
    # a byte that is not UTF-8, far past the first block
    "latin.txt": lambda d: d[:200_000] + b"\xff" + d[200_001:],
    # a NaN before a row of the wrong width in a later block
    "nan_then_width.txt": lambda d: _replace_line(_replace_line(d, 3, b"nan 0 1 0.1"), 3000, b"0 0 1"),
    # a row of the wrong width before a byte that is not UTF-8
    "width_then_latin.txt": lambda d: _replace_line(d, 3, b"0 0 1")[:-20] + b"\xe9" + d[-19:],
    # the first point repeated at the end
    "dup.txt": lambda d: d + d[: d.index(b"\n") + 1],
    # CR-only and CRLF line ends, one with a row of the wrong width
    "cr.txt": lambda d: d.replace(b"\n", b"\r"),
    "crlf.txt": lambda d: d.replace(b"\n", b"\r\n"),
    "cr_width.txt": lambda d: _replace_line(d, 2000, b"0 0 1").replace(b"\n", b"\r"),
    # a first block of comments only, with explicit weights read from line 31
    "comments.txt": lambda d: b"# header line\n" * 30 + d,
}


@pytest.mark.parametrize("per_block", [1, 7])
@pytest.mark.parametrize("name", sorted(_TRAPS))
def test_block_reader_traps_report_as_the_whole_file(name, per_block, tmp_path):
    path = _edited_rule_80(tmp_path, name, _TRAPS[name])
    argv = ["certify", str(path), "--lmax", "82", "--expect", "80"]
    expected = _whole_file_outcome(path, argv)
    line_bytes = len(_rule_text(80)) // product_rule_count(80)
    with mock.patch.object(quadrature, "_BLOCK_BYTES", per_block * line_bytes):
        assert _cli_outcome(argv) == expected
    plain = _edited_rule_80(tmp_path, "plain.txt", lambda d: d)
    if name in ("cr.txt", "crlf.txt", "comments.txt"):
        assert expected == _cli_outcome(["certify", str(plain), "--lmax", "82", "--expect", "80"])
    else:
        assert expected[0] == 65
    if name == "latin.txt":
        assert "position 200000" in expected[2]
    if name == "dup.txt":
        assert "points on lines 1 and 3322 coincide" in expected[2]


def test_only_vectors_off_unit_by_more_than_4_ulps_are_divided():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    v = rng.normal(size=(200, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    for scale in (1.0, 1.0 + 4 * eps, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-7):
        w = v * scale
        norms = np.sqrt(np.einsum("ij,ij->i", w, w))
        kept = np.abs(norms - 1.0) <= 4 * eps
        if scale == 1.0:
            assert kept.all()
        elif abs(scale - 1.0) > 1e-13:
            assert not kept.any()
        q = ingest_pointset([" ".join(_fmt(x) for x in row) for row in w], "uniform")
        z = np.where(kept, w[:, 2], w[:, 2] / norms)
        assert np.array_equal(q.theta, np.arccos(np.clip(z, -1.0, 1.0)))
        # kept vectors keep their z; divided ones move
        as_written = q.theta == np.arccos(np.clip(w[:, 2], -1.0, 1.0))
        assert as_written.all() if kept.all() else not as_written.all()


def test_close_pair_among_vectors_kept_as_written_names_its_lines():
    # the order-20 rule with a copy of point 40 moved 5e-10 rad in azimuth,
    # written after point 150, behind a comment line
    q = product_rule(20)
    theta = np.insert(q.theta, 150, q.theta[40])
    phi = np.insert(q.phi, 150, q.phi[40] + 5e-10)
    xyz = angles_to_xyz(theta, phi)
    norms = np.sqrt(np.einsum("ij,ij->i", xyz, xyz))
    assert np.all(np.abs(norms - 1.0) <= 4 * np.finfo(float).eps)
    i, j = first_close_pair(xyz, _CHORD)
    assert (i, j) == (40, 150)
    lines = ["# order 20, one point repeated"] + [" ".join(_fmt(x) for x in row) for row in xyz]
    with pytest.raises(DuplicatePoint, match=f"lines {i + 2} and {j + 2} coincide"):
        ingest_pointset(lines, "uniform")


def test_duplicate_scan_slab_holds_for_vectors_a_few_ulps_off_unit():
    # as the test above along the sweep axis, with both vectors written at
    # norms up to 4 ulps off unit, which ingest keeps as they are
    eps = np.finfo(float).eps
    rng = np.random.default_rng(13)
    x = rng.normal(size=(400, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    scales = 1.0 + eps * rng.integers(-4, 5, size=(400, 2))
    found = [
        _assert_scan_matches_oracle(np.array([p * a, (p + _CHORD * _AXIS) * b]), [1, 2])
        for p, (a, b) in zip(x, scales)
    ]
    assert 0 < found.count(None) < len(found)


def _refuse_dfs(*args):
    raise AssertionError("took the double-Fourier-sphere route")


def test_sets_with_shared_latitudes_stay_on_the_ring_kernel(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(quadrature, "_dfs_harmonic_sums", _refuse_dfs)
    for order in (1, 9, 36, 80, 131, 300):
        assert certify(product_rule(order), order + 3).strength >= order
    for copies in (15, 40, 131):  # what construct certifies, twice per request
        assert scalar_completeness_residual(povm_from_quadrature(product_rule(copies), copies)) < 1e-9
    # the CLI's JSON report is the ring kernel's, to the byte: per order the
    # largest |S[l, m]| or the allowance for the orders that equispaced rings
    # cancel, whichever is larger
    q = product_rule(24)
    rule = tmp_path / "pr_024.txt"
    np.savetxt(rule, np.column_stack((angles_to_xyz(q.theta, q.phi), q.weights)), fmt="%.17g")
    files = [rule] + sorted(default_grid_dir().glob("*.txt"))
    for path in files:
        for cap in (26, 400, 600):
            argv = ["certify", str(path), "--lmax", str(cap), "--format", "json", "--signed"]
            assert main(argv) == EXIT_OK
            g = _load_pointset(path, "auto")
            sums, allowance = _ring_sums(cap, g.theta, g.phi, g.weights, DEFAULT_TOL / 2)
            sums = _dense(sums)
            residual = np.maximum(np.abs(sums[1:]).max(axis=1), allowance[1:])
            failing = np.nonzero(residual > DEFAULT_TOL)[0]
            expected = {
                "label": path.name,
                "n": g.n,
                "l_max_tested": cap,
                "tol": DEFAULT_TOL,
                "strength": cap if failing.size == 0 else int(failing[0]),
                "weight_sum": g.weight_sum,
                "all_weights_positive": g.all_weights_positive,
                "residual_per_l": {str(l): float(residual[l - 1]) for l in range(1, cap + 1)},
            }
            assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_rotated_rule_takes_the_dfs_route_with_its_allowance(monkeypatch):
    q = product_rule(80)
    theta, phi = rotate_angles(q.theta, q.phi, rotation_matrix([0.4, 1.0, -0.3], 0.8))
    rotated = SphericalQuadrature(theta, phi, q.weights)
    calls = []
    route = quadrature._dfs_harmonic_sums
    monkeypatch.setattr(
        quadrature, "_dfs_harmonic_sums", lambda *a: calls.append(a[0]) or route(*a)
    )
    report = certify(rotated, 82)
    assert calls == [82]
    exact = np.abs(weighted_harmonic_sums(82, theta, phi, q.weights)[1:]).max(axis=1)
    allowance = _dfs_allowance(82, q.weights)[1:]
    # upper bounds that carry the allowance, and the same strength
    assert np.all(report.residual_per_l >= exact + 0.9 * allowance)
    assert np.all(report.residual_per_l <= exact + 1.1 * allowance)
    assert report.strength == certify(product_rule(80), 82).strength == 80


def _jittered(order, seed):
    """A product rule with every unit vector moved by N(0, 1e-3) noise, as the
    certify benchmark builds its jittered sets: no shared latitudes."""
    q = product_rule(order)
    xyz = angles_to_xyz(q.theta, q.phi) + np.random.default_rng(seed).normal(scale=1e-3, size=(q.n, 3))
    xyz /= np.linalg.norm(xyz, axis=1)[:, None]
    theta = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
    return SphericalQuadrature(theta, np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), 2 * math.pi), q.weights)


def _routes(monkeypatch):
    """The transform of each double-Fourier-sphere call, in order."""
    calls = []
    for name in ("direct_sums", "type1_sums"):
        transform = getattr(_nufft, name)
        monkeypatch.setattr(_nufft, name, lambda *a, t=transform, k=name: calls.append(k) or t(*a))
    return calls


@pytest.mark.parametrize("order", [36, 49, 56])
def test_rotated_rules_below_the_crossover_take_the_direct_dfs_route(order, monkeypatch):
    q = product_rule(order)
    theta, phi = rotate_angles(q.theta, q.phi, rotation_matrix([0.4, 1.0, -0.3], 0.8))
    calls = _routes(monkeypatch)
    report = certify(SphericalQuadrature(theta, phi, q.weights), order + 2)
    assert calls == ["direct_sums"]
    assert report.strength == order
    # the allowance is kept on the direct transform as on the NUFFT
    exact = np.abs(weighted_harmonic_sums(order + 2, theta, phi, q.weights)[1:]).max(axis=1)
    allowance = _dfs_allowance(order + 2, q.weights)[1:]
    assert np.all(report.residual_per_l >= exact + 0.9 * allowance)


def test_jittered_set_takes_the_direct_dfs_route(monkeypatch):
    q = _jittered(44, 6)
    assert q.n == 1035
    calls = _routes(monkeypatch)
    assert certify(q, 46).strength < 44
    assert calls == ["direct_sums"]


@pytest.mark.parametrize("order", [9, 16, 20])
def test_small_rotated_rules_stay_on_the_ring_kernel(order, monkeypatch):
    # the cost model's fit: at these sizes the ring kernel is as fast or
    # faster (rotated order 16: 0.29-0.35 ms against 0.34-0.39 ms)
    q = product_rule(order)
    theta, phi = rotate_angles(q.theta, q.phi, rotation_matrix([0.4, 1.0, -0.3], 0.8))
    monkeypatch.setattr(quadrature, "_dfs_harmonic_sums", _refuse_dfs)
    for l_max in (order + 1, order + 2, order + 3):
        assert certify(SphericalQuadrature(theta, phi, q.weights), l_max).strength == order


def test_dfs_allowance_leaves_strength_detection_alone():
    # a_l <= tol / 10 through l = 1002 for weights summing to 4 pi
    assert _dfs_allowance(1002, np.full(10, FOUR_PI / 10))[-1] <= DEFAULT_TOL / 10


def test_size_budget_is_checked_before_allocating():
    q = product_rule(4)
    with pytest.raises(CapExceeded):
        certify(q, 100_000)
    with pytest.raises(CapExceeded):
        product_rule(100_000)
    # what the budget must still admit: certify at L = 1002 on either route
    # (packed coefficient table and accumulator, NUFFT grid, its transform
    # and a stencil block), and the rule of construct 1000
    assert 16 * 1003 * 1004 + _nufft.work_bytes(1002) <= SIZE_BUDGET_BYTES
    assert 24 * product_rule_count(1000) <= SIZE_BUDGET_BYTES


def test_a_need_just_past_the_budget_prints_in_bytes():
    # at 3 digits the need read "1 GiB, over the 1 GiB size budget"
    with pytest.raises(CapExceeded) as exc:
        quadrature._check_budget(SIZE_BUDGET_BYTES + 1, "reading f.json")
    assert str(exc.value) == (
        "reading f.json needs about 1073741825 bytes, over the 1073741824 bytes "
        "of the 1 GiB size budget"
    )
    with pytest.raises(CapExceeded) as exc:
        quadrature._check_budget(3 * SIZE_BUDGET_BYTES // 2, "reading f.json")
    assert str(exc.value) == "reading f.json needs about 1.5 GiB, over the 1 GiB size budget"


class _Admitted(Exception):
    pass


def test_size_budget_counts_the_packed_table_and_accumulator(monkeypatch):
    # 16 (L + 1)(L + 2) bytes: 16 * 8191 * 8192 <= 1 GiB < 16 * 8192 * 8193;
    # the ring search runs right after the check, so stop there
    def admitted(*args, **kwargs):
        raise _Admitted

    monkeypatch.setattr(quadrature, "_latitude_rings", admitted)
    q = product_rule(4)
    with pytest.raises(_Admitted):
        certify(q, 8190)
    with pytest.raises(CapExceeded):
        certify(q, 8191)


def test_certify_at_cap_600_holds_no_square_table():
    # a packed coefficient table and accumulator, each row's largest |S|
    # taken a block of rows at a time: the square table, accumulator and
    # |S| of all orders held 16.5 MiB here
    code = (
        "import tracemalloc\n"
        "from povmquad.cli import _load_pointset, default_grid_dir\n"
        "from povmquad.quadrature import certify\n"
        "q = _load_pointset(default_grid_dir() / 'lebedev_0074.txt', 'auto')\n"
        "tracemalloc.start()\n"
        "certify(q, 600, allow_signed=True)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert int(out.stdout) <= 9 * 2**20


@pytest.mark.parametrize("order, seed", [(20, 5), (44, 6)])
def test_jittered_sets_still_fail_their_order(order, seed):
    # the certify benchmark's non-exact sets: unit vectors moved by N(0, 1e-3)
    q = product_rule(order)
    rng = np.random.default_rng(seed)
    xyz = angles_to_xyz(q.theta, q.phi) + rng.normal(scale=1e-3, size=(q.n, 3))
    xyz /= np.linalg.norm(xyz, axis=1)[:, None]
    theta = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), 2 * math.pi)
    report = certify(SphericalQuadrature(theta, phi, q.weights), order + 2)
    assert report.strength < order
    # and azimuths alone moved: the rings keep their latitudes, lose their period
    phi = np.mod(q.phi + rng.normal(scale=1e-3, size=q.n), 2 * math.pi)
    assert certify(SphericalQuadrature(q.theta, phi, q.weights), order + 2).strength < order
