import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from povmquad.errors import DomainError, ZeroVector
from povmquad.sphere import (
    Direction,
    UnitVector,
    angles_to_xyz,
    antipode,
    default_rng,
    from_cartesian,
    overlap_sq,
    sample_uniform,
    sample_uniform_angles,
    substream,
    to_cartesian,
)

from _oracles import rotation_matrix


@pytest.mark.parametrize(
    "theta,phi,expected",
    [
        (0.0, 0.0, (0, 0, 1)),
        (math.pi / 2, 0.0, (1, 0, 0)),
        (math.pi / 2, math.pi / 2, (0, 1, 0)),
    ],
)
def test_to_cartesian_reference_points(theta, phi, expected):
    v = to_cartesian(Direction(theta, phi))
    assert abs(v.x - expected[0]) < 1e-15
    assert abs(v.y - expected[1]) < 1e-15
    assert abs(v.z - expected[2]) < 1e-15


def test_from_cartesian_reference_points():
    d = from_cartesian((0.0, 0.0, -1.0))
    assert d == Direction(math.pi, 0.0)
    assert from_cartesian((1.0, 0.0, 0.0)) == Direction(math.pi / 2, 0.0)
    assert from_cartesian(UnitVector(0.0, 1.0, 0.0)).phi == pytest.approx(math.pi / 2)


def test_from_cartesian_rejects_degenerate_input():
    with pytest.raises(ZeroVector):
        from_cartesian((0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        from_cartesian((0.0, 0.0, 1.5))
    # slightly off-unit vectors are renormalized
    d = from_cartesian((0.0, 0.0, 1.0 + 5e-7))
    assert d == Direction(0.0, 0.0)


def test_round_trip_on_random_directions():
    rng = default_rng(11)
    for _ in range(500):
        d = sample_uniform(rng)
        v = to_cartesian(d)
        back = from_cartesian(v)
        assert abs(back.theta - d.theta) < 1e-12
        assert abs(back.phi - d.phi) < 1e-12
        v2 = to_cartesian(back)
        assert max(abs(v2.x - v.x), abs(v2.y - v.y), abs(v2.z - v.z)) < 1e-12


def test_direction_normalization_conventions():
    assert Direction(1.0, 2 * math.pi + 0.5).phi == pytest.approx(0.5, abs=1e-12)
    assert Direction(1.0, -0.5).phi == pytest.approx(2 * math.pi - 0.5, abs=1e-12)
    assert Direction(0.0, 1.23).phi == 0.0
    assert Direction(math.pi, -9.0).phi == 0.0
    assert Direction(-1e-13, 3.0).theta == 0.0
    with pytest.raises(DomainError):
        Direction(3.2, 0.0)
    with pytest.raises(DomainError):
        Direction(math.nan, 0.0)


def test_overlap_reference_values():
    a = Direction(0.7, 1.3)
    assert overlap_sq(a, a) == 1.0
    assert overlap_sq(a, antipode(a)) < 1e-12
    # |<0|Omega>|^2 = cos^2(theta/2) at theta = pi/2
    assert overlap_sq(Direction(0, 0), Direction(math.pi / 2, 0)) == pytest.approx(
        0.5, abs=1e-15
    )


def test_overlap_symmetry_and_antipode_complement():
    rng = default_rng(5)
    for _ in range(200):
        a, b = sample_uniform(rng), sample_uniform(rng)
        assert overlap_sq(a, b) == overlap_sq(b, a)
        assert abs(overlap_sq(a, b) + overlap_sq(a, antipode(b)) - 1.0) < 1e-12


def test_sampling_statistics_mean_z_and_overlap():
    rng = default_rng(2024)
    theta, phi = sample_uniform_angles(rng, 1_000_000)
    z = np.cos(theta)
    assert abs(z.mean()) < 0.003
    ref = angles_to_xyz(0.9, 2.1)
    ov = 0.5 * (1.0 + angles_to_xyz(theta, phi) @ ref)
    assert abs(ov.mean() - 0.5) < 0.001


def test_sampling_determinism_and_substreams():
    assert sample_uniform(default_rng(99)) == sample_uniform(default_rng(99))
    seq1 = [sample_uniform(default_rng(7)) for _ in range(1)]
    rng = default_rng(7)
    assert [sample_uniform(rng)] == seq1
    # substream 0 is the base stream; distinct indices diverge
    a = substream(13, 0).uniform(size=4)
    b = default_rng(13).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(substream(13, 1).uniform(size=4), a)


def test_sampling_rotation_invariance_ks():
    rng = default_rng(31415)
    theta, phi = sample_uniform_angles(rng, 1_000_000)
    rot = rotation_matrix((1.0, 2.0, 3.0), 1.234)
    z_rot = (angles_to_xyz(theta, phi) @ rot.T)[:, 2]
    result = stats.kstest(z_rot, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert result.pvalue > 1e-3


def test_every_blocked_loop_sizes_its_blocks_from_one_budget():
    # one working-set size, assigned in sphere alone; harmonics and povm bind
    # it as their own name (which tests patch to vary their loops), _nufft
    # spreads twice it, and orthopoly._norm_coeffs reads it
    from povmquad import _nufft, harmonics, orthopoly, povm, simulate, sphere

    assert sphere._BLOCK_ELEMS == 1 << 16
    for module in (harmonics, orthopoly, povm):
        assert module._BLOCK_ELEMS == sphere._BLOCK_ELEMS
    assert _nufft._SPREAD_ELEMS == 2 * sphere._BLOCK_ELEMS
    assert not hasattr(povm, "_GRAM_BLOCK_ELEMS")
    source = Path(sphere.__file__).parent
    assigned = [f.name for f in sorted(source.glob("*.py"))
                if re.search(r"^_\w*BLOCK_ELEMS = |1 << 14", f.read_text(encoding="utf-8"), re.M)]
    assert assigned == ["sphere.py"]
    # pinned apart from it: BLAS-thread independence and the random stream
    assert _nufft._GEMM_MACS == 1 << 18
    assert simulate.DEFAULT_CHUNK_SIZE == 1 << 16
