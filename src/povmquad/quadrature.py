"""Quadratures on the unit sphere: construction, ingestion, certification.

A spherical quadrature is a weighted point set {(Omega_k, lambda_k)} meant
to make sum_k lambda_k f(Omega_k) equal integral f dOmega (over the full
4*pi solid angle) for all band-limited f up to some harmonic order. Its
*strength* is the largest L such that every spherical harmonic with
1 <= l <= L sums to zero (constants are covered by sum lambda = 4*pi).

Certification evaluates max_m |sum_k lambda_k Y_l^m(Omega_k)| for each l
and compares it against a tolerance. Construction errors of a genuine rule
sit at the 1e-13 level while the first non-exact order is typically
>= 1e-3, so strength detection is robust. The sums of certify, which
every completeness bound reads, come from one of two kernels
(_bounded_sums), chosen by a cost model on the point count n, the number
R of distinct latitudes and the order L:

* the ring kernel (harmonics._ring_sums), O(R L^2 + n L): Lebedev
  orbits and every set with shared latitudes. A ring of s equal weights
  at equispaced azimuths feeds only the orders m = 0, s, 2s, ..., so a
  product rule costs O(n + R L) (certify of the order-1000 rule at
  L = 1002: about 0.1 s, was 3.4 s). The orders such a ring cancels come
  with the kernel's allowance a_l, and each residual is
  max(max_m |S[l, m]|, a_l), an upper bound. No verdict rests on it:
  the rings are routed only while a_l <= tol / 2 at every order, and if
  the allowance would still move an order past tol, every ring is summed
  at every order instead;
* the double-Fourier-sphere route (harmonics._dfs_harmonic_sums),
  taken when the ring kernel's cost, R L^2 with routed rings counted at
  their routed cost (harmonics._ring_cost), exceeds _DFS_COST_RATIO times
  the route's own (harmonics._dfs_cost): its transform plus L^3 for the
  recurrence over L + 2 virtual rings. Up to L = 64 the transform is a
  direct sum, O(n L^2) at BLAS speed and charged n (L+1)^2 / 10; above,
  a type-1 NUFFT, O(n w^2 + L^2 log L) with w = 16 and charged n w^2.
  Large sets without shared latitudes take it, such as rotated and
  jittered rules from order 25 on. The NUFFT carries an error of about
  1e-15 sum |lambda| with no rigorous bound; the direct sum is exact up to
  rounding, but on either transform every residual is raised by the same
  allowance a_l = 10 _DFS_EPS sum|lambda| sqrt(2l+1) (5.6e-12 at l = 1002
  for weights summing to 4 pi, below tol / 10 at the default tol).
  Residuals stay upper bounds, and every consumer of residual_per_l reads
  them without knowing which route ran.

Both routes are checked against SIZE_BUDGET_BYTES before any work array is
allocated; so is product_rule. Breaking it raises CapExceeded.
"""
from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _nufft
from .errors import CapExceeded, DomainError, DuplicatePoint, ParseError, WeightError, ZeroVector
from .harmonics import (
    _ROUTE_MIN_ROWS,
    _dfs_cost,
    _dfs_harmonic_sums,
    _latitude_rings,
    _ring_cost,
    _ring_sums,
    _row_max,
)
from .orthopoly import gauss_legendre_rule
from .sphere import _BLOCK_ELEMS, TWO_PI, Direction

FOUR_PI = 2.0 * TWO_PI

DEFAULT_TOL = 1e-10
_DUPLICATE_CHORD = 1e-9
_UNIT_NORM_SLACK = 1e-6
# Ingest keeps vectors whose norm is within 4 ulps of 1 as written: dividing
# them only rounds again, and moves z by an ulp on some points of a latitude
# ring, which splits the ring.
_AS_WRITTEN_SLACK = 4 * 2.0**-52
# Duplicate-scan sweep axis, (1, sqrt 2, pi) normalized: it lines up with
# no coordinate axis and no symmetry of the bundled grids.
_SWEEP_AXIS = np.array([1.0, math.sqrt(2.0), math.pi]) / math.sqrt(3.0 + math.pi**2)
# Bytes one certify or product_rule call may hold in arrays sized by its
# order: 1 GiB, which covers certify at L = 1002 on either route and
# construct 1000 with room to spare.
SIZE_BUDGET_BYTES = 1 << 30
# Bytes per point of the three arrays (theta, phi, weights) of a rule.
_POINT_BYTES = 24
# The double-Fourier-sphere route runs when R L^2 > this ratio times its
# cost, harmonics._dfs_cost. With the NUFFT, the ring kernel ties with it
# at R L^2 / (n w^2 + L^3) of about 4.5 on random sets (L = 70-100) and
# near 5 on rotated rules (orders 36-44); with the direct sum, rotated rules
# tie between orders 20 and 25, where the direct sum's charge is fitted
# (harmonics._DIRECT_TERM_COST). One BLAS thread. At 5 the route takes
# rotated orders 36 / 49 / 56 in 0.64 / 0.36 / 0.34 of the ring kernel's
# time.
_DFS_COST_RATIO = 5.0
# Error unit of the allowance added to residuals on that route, relative
# to sum |lambda|.
_DFS_EPS = 1e-15
# Bytes of one read of a point file or POVM file (_line_blocks): the POVM
# writer's block of rows at the shortest row, '    {"c": 0, "theta": 0,
# "phi": 0},\n' (at least 512); text lines are taken one per 36 bytes.
_MIN_ROW_BYTES = 36
_BLOCK_BYTES = max(_BLOCK_ELEMS // 16 * _MIN_ROW_BYTES, 512)


def _check_budget(nbytes: int, what: str):
    if nbytes > SIZE_BUDGET_BYTES:
        gib = SIZE_BUDGET_BYTES / 2**30
        need, budget = f"{nbytes / 2**30:.3g} GiB", f"{gib:g} GiB size budget"
        # a need just past the budget would print as the budget itself
        if f"{nbytes / 2**30:.3g}" == f"{gib:.3g}":
            need, budget = f"{nbytes} bytes", f"{SIZE_BUDGET_BYTES} bytes of the {budget}"
        raise CapExceeded(f"{what} needs about {need}, over the {budget}")


@dataclass(frozen=True)
class SphericalQuadrature:
    """Weighted point set on the sphere (weights in steradians).

    For a rule usable as a POVM all weights must be positive and sum to
    4*pi; positivity is enforced where it matters (certification and the
    POVM layer), so externally published signed rules can still be
    ingested and measured.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    label: str = ""
    weight_scale: float = 1.0  # rescale factor applied on ingest

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if not (theta.shape == phi.shape == weights.shape) or theta.ndim != 1:
            raise DomainError("theta, phi and weights must be 1-D and equal length")
        if theta.size == 0:
            raise DomainError("a quadrature needs at least one point")
        for arr, name in ((theta, "theta"), (phi, "phi"), (weights, "weights")):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"non-finite {name} entries")
        theta.setflags(write=False)
        phi.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.theta.size

    def __len__(self) -> int:
        return self.theta.size

    def __iter__(self):
        for t, p, w in zip(self.theta, self.phi, self.weights):
            yield Direction(t, p), float(w)

    @property
    def weight_sum(self) -> float:
        return float(self.weights.sum())

    @property
    def all_weights_positive(self) -> bool:
        return bool(np.all(self.weights > 0.0))

    def validate(self, rtol: float = 1e-10):
        """Check the POVM-suitability invariants; raise WeightError if broken."""
        if not self.all_weights_positive:
            raise WeightError(f"{self.label or 'quadrature'}: non-positive weight")
        if abs(self.weight_sum - FOUR_PI) > rtol * FOUR_PI:
            raise WeightError(
                f"{self.label or 'quadrature'}: weights sum to {self.weight_sum!r}, "
                f"not 4*pi within {rtol:g} relative"
            )


@dataclass(frozen=True)
class CertificationReport:
    """Per-order residuals of a quadrature and its detected strength.

    residual_per_l[l - 1] is max over m of |sum_k lambda_k Y_l^m(Omega_k)|
    for 1 <= l <= l_max_tested, raised to the ring kernel's allowance for
    the orders equispaced rings cancel, or plus the transform allowance a_l
    when the sums took the double-Fourier-sphere route (module docstring),
    so it is an upper bound either way; strength is the largest L with all orders
    l <= L at or below tol. The l = 0 condition is the weight sum, which
    must equal 4*pi and is recorded separately.
    """

    label: str
    n_points: int
    l_max_tested: int
    tol: float
    residual_per_l: np.ndarray
    strength: int
    weight_sum: float
    all_weights_positive: bool

    def __post_init__(self):
        self.residual_per_l.setflags(write=False)

    def residual(self, l: int) -> float:
        if not 1 <= l <= self.l_max_tested:
            raise DomainError(f"order {l} not tested (1..{self.l_max_tested})")
        return float(self.residual_per_l[l - 1])

    @property
    def weight_sum_residual(self) -> float:
        return abs(self.weight_sum - FOUR_PI) / FOUR_PI

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "n": self.n_points,
            "l_max_tested": self.l_max_tested,
            "tol": self.tol,
            "strength": self.strength,
            "weight_sum": self.weight_sum,
            "all_weights_positive": self.all_weights_positive,
            "residual_per_l": {
                str(l): float(self.residual_per_l[l - 1])
                for l in range(1, self.l_max_tested + 1)
            },
        }


def _dfs_allowance(l_max: int, weights) -> np.ndarray:
    """a_l = 10 _DFS_EPS sum |w| sqrt(2l + 1) for l = 0..l_max (module docstring)."""
    l = np.arange(l_max + 1)
    return 10.0 * _DFS_EPS * np.abs(weights).sum() * np.sqrt(2 * l + 1)


def _bounded_sums(l_max: int, theta, phi, weights, tol: float) -> np.ndarray:
    """Upper bounds r[l - 1] >= max_m |sum_k w_k Y_l^m(Omega_k)| for
    l = 1..l_max: the sums on the route of the cost model, reduced per degree
    in blocks of rows, plus that route's allowance (module docstring; the
    ring allowance never decides r <= tol). CapExceeded past the size
    budget."""
    # the (a, b) recurrence coefficient table both routes step through and
    # the (re, im) accumulator of the sums: packed lower triangles of
    # (l_max + 1)(l_max + 2) / 2 entries each
    table = 16 * (l_max + 1) * (l_max + 2)
    _check_budget(table, f"certification to order {l_max}")
    # cost model: ring kernel R L^2 against the double Fourier sphere's
    # transform (the direct sum or the NUFFT, whichever it runs at L) plus
    # the L^3 recurrence over virtual rings, routed rings counted at their
    # routed cost; the rings, found once, also feed the ring kernel. The
    # cost test comes first: it is the cheaper one.
    rings = _latitude_rings(theta, phi, weights, detect=l_max + 1 >= _ROUTE_MIN_ROWS)
    dfs = (
        _ring_cost(l_max, rings) * l_max**2 > _DFS_COST_RATIO * _dfs_cost(theta.size, l_max)
        and table + _nufft.work_bytes(l_max) <= SIZE_BUDGET_BYTES
    )
    rows = l_max + 1
    if dfs:
        sums = _dfs_harmonic_sums(l_max, theta, phi, weights)
        return _row_max(sums, rows, 1) + _dfs_allowance(l_max, weights)[1:]
    # rings are routed on their period only while their allowance stays at
    # or below tol / 2 (module docstring)
    sums, allowance = _ring_sums(l_max, theta, phi, weights, tol / 2, rings)
    residual_per_l = _row_max(sums, rows, 1)
    if allowance.any():
        exact = residual_per_l
        residual_per_l = np.maximum(exact, allowance[1:])
        if np.any(residual_per_l[exact <= tol] > tol):
            # the allowance would decide a verdict: sum every order instead
            del sums
            sums, _ = _ring_sums(l_max, theta, phi, weights, 0.0, rings)
            residual_per_l = _row_max(sums, rows, 1)
    return residual_per_l


def product_rule(order: int) -> SphericalQuadrature:
    """Separated-variables rule exact for all harmonics up to the order.

    Tensor product of n1 = order + 1 equidistant azimuths (each weighted
    2*pi/n1, exact for e^{i m phi} with |m| <= order) with the
    n2 = ceil((order + 1)/2)-point Gauss-Legendre rule in cos(theta)
    (exact through polynomial degree order). Point count is exactly
    (order + 1) * ceil((order + 1) / 2).
    """
    n = product_rule_count(order)
    _check_budget(_POINT_BYTES * n, f"product rule of order {order} ({n} points)")
    n1 = order + 1
    n2 = (order + 2) // 2
    gl = gauss_legendre_rule(n2)
    theta_polar = np.arccos(gl.nodes)
    az = TWO_PI * np.arange(n1) / n1
    theta = np.repeat(theta_polar, n1)
    phi = np.tile(az, n2)
    weights = np.repeat(gl.weights * (TWO_PI / n1), n1)
    return SphericalQuadrature(theta, phi, weights, label=f"product-rule order {order}")


def product_rule_count(order: int) -> int:
    """Point count of :func:`product_rule` without building it."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    return (order + 1) * ((order + 2) // 2)


def certify(
    q: SphericalQuadrature,
    l_max: int,
    tol: float = DEFAULT_TOL,
    *,
    allow_signed: bool = False,
) -> CertificationReport:
    """Measure harmonic residuals of a quadrature up to order l_max.

    Raises WeightError on any non-positive weight unless `allow_signed`
    is set (signed rules exist in the published Lebedev tables and can be
    measured for exactness, but never define a POVM), DomainError unless
    `tol` is positive and finite (an infinite one passes every order), and
    CapExceeded when the order's packed coefficient table and accumulator,
    16 (l_max + 1)(l_max + 2) bytes, break the size budget.
    The residuals come from _bounded_sums: the ring kernel or, for large
    sets without shared latitudes, the double-Fourier-sphere route, each
    with its allowance (module docstring).
    """
    if l_max < 1:
        raise DomainError(f"l_max must be >= 1, got {l_max}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not allow_signed and not q.all_weights_positive:
        raise WeightError(
            f"{q.label or 'quadrature'} has a non-positive weight "
            f"(min {float(q.weights.min())})"
        )
    residual_per_l = _bounded_sums(l_max, q.theta, q.phi, q.weights, tol)
    failing = np.nonzero(residual_per_l > tol)[0]
    strength = l_max if failing.size == 0 else int(failing[0])
    return CertificationReport(
        label=q.label,
        n_points=q.n,
        l_max_tested=l_max,
        tol=tol,
        residual_per_l=residual_per_l,
        strength=strength,
        weight_sum=q.weight_sum,
        all_weights_positive=q.all_weights_positive,
    )


def detect_strength(
    q: SphericalQuadrature,
    cap: int,
    tol: float = DEFAULT_TOL,
    *,
    allow_signed: bool = False,
) -> int:
    """Largest exact harmonic order found when testing up to `cap`."""
    return certify(q, cap, tol, allow_signed=allow_signed).strength


def _parse_point_lines(stream, n_columns: int, first_line: int = 1):
    """(values, line_numbers) of the data lines of `stream`, one line at a
    time, the first numbered `first_line`, syntax only (the column count and
    float()); no data lines give values of shape (0, n_columns). The
    reference of _read_points, which it falls back to."""
    rows = []
    line_numbers = []
    for lineno, raw in enumerate(stream, start=first_line):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != n_columns:
            raise ParseError(
                f"expected {n_columns} columns, got {len(parts)}", line=lineno
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        line_numbers.append(lineno)
    return np.array(rows, dtype=float).reshape(-1, n_columns), line_numbers


def _read_points(lines, n_columns: int, first_line: int = 1):
    """(values, line_numbers) of a list of point-file lines, the first
    numbered `first_line`, parsed in one np.loadtxt call. Its rows are the
    data lines of _parse_point_lines: both skip what follows '#' and split
    on str.isspace characters, and numpy refuses a line break inside a line.
    When the call raises or warns (no data) or gives another column count,
    the per-line loop runs instead: it raises its error naming the line, reads
    what float() takes and numpy does not (1_0), or returns no rows. The line
    numbers are a range when every line is a data row."""
    # loaded at interpreter start; imported here, it leaves the import of
    # povmquad as it was
    import warnings

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(lines, ndmin=2)
    except (ValueError, TypeError, Warning):
        return _parse_point_lines(lines, n_columns, first_line)
    if values.shape[1] != n_columns:
        return _parse_point_lines(lines, n_columns, first_line)
    if len(values) == len(lines):
        return values, range(first_line, first_line + len(lines))
    return values, [k for k, raw in enumerate(lines, start=first_line) if raw.split("#", 1)[0].strip()]


def _line_blocks(fh, grow: bool = True):
    r"""The binary file `fh` read forward once, in blocks of whole lines: each
    read of up to _BLOCK_BYTES is cut after its last '\n', or '\r' short of
    its end (so no '\r\n' is split), and the rest goes before the next read.
    A read with no line end is read on, each read as large as what it
    carries, so a long line grows its block in linear time; with grow=False
    it comes uncut instead."""
    rest = b""
    while data := fh.read(max(_BLOCK_BYTES - len(rest), len(rest))):
        buf = rest + data
        cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, -1)) + 1
        if not (cut or grow):
            cut = len(buf)
        if cut:
            yield buf[:cut]
        rest = buf[cut:]
    if rest:
        yield rest


class _BlockLineNumbers:
    """Line number of each data row of a file read in blocks, from each
    block's first row and line numbers (a range where every line was a data
    row), looked up only when a message needs one."""

    def __init__(self):
        self.first_rows, self.numbers = [], []

    def __getitem__(self, i):
        k = bisect.bisect_right(self.first_rows, i) - 1
        return self.numbers[k][i - self.first_rows[k]]


def _read_point_blocks(blocks, n_columns):
    """(values, line_numbers) of the point-file lines in `blocks`, lists of
    lines, each parsed by _read_points alone; with n_columns None, 4 where
    the first data line holds four fields, else 3. Every block is taken, but
    none parsed after the first column-count or float() error, so the error
    raised is a whole-file parse's: the blocks' own (a file that is not
    UTF-8), then that error, then "no points found"; _ingest checks values."""
    parts, line_numbers, rows, next_line = [], _BlockLineNumbers(), 0, 1
    try:
        for lines in blocks:
            first_line, next_line = next_line, next_line + len(lines)
            if n_columns is None:
                fields = next((line.split() for raw in lines if (line := raw.split("#", 1)[0].strip())), None)
                if fields is None:
                    continue
                n_columns = 4 if len(fields) == 4 else 3
            values, numbers = _read_points(lines, n_columns, first_line)
            line_numbers.first_rows.append(rows)
            line_numbers.numbers.append(numbers)
            parts.append(values)
            rows += len(values)
    except ParseError:
        for _ in blocks:  # a later block's own error goes first
            pass
        raise
    if not rows:
        raise ParseError("no points found in stream")
    return np.concatenate(parts), line_numbers


def _check_duplicates(xyz: np.ndarray, line_numbers, chord_tol: float):
    """Raise DuplicatePoint on the first pair (lowest i, then lowest j) of
    unit vectors within chord_tol.

    Sort and sweep: |a . (x_i - x_j)| <= |x_i - x_j| for the unit sweep
    axis a, so a close pair lies within one slab of width chord_tol (plus
    a few ulps of rounding) in the sorted projections. Offsets d = 1, 2, ...
    are swept until one has no pair inside a slab; pairs d + 1 apart can
    only be inside where pairs d apart are. Cost: O(n log n) for the sort,
    plus one pass per offset, O(n) for the first and over the previous
    offset's survivors after, in O(n) memory. A run of k points whose
    projections fall inside one slab costs k passes: time, not memory.
    """
    n = xyz.shape[0]
    proj = xyz @ _SWEEP_AXIS
    order = np.argsort(proj)
    proj = np.append(proj[order], np.inf)  # no pair reaches past the end
    # ingested vectors have norm under 1 + 6 ulps of 1, whether kept as
    # written (computed norm within 4 ulps of 1) or divided by their norm, so
    # each projection, a 3-term dot product with the unit axis, is off by
    # under 3u |a| |x| < 1.6 ulps of 1 (u = 2^-53) and a pair's difference by
    # under 3.2 ulps; a pair that passes the chord test is apart along the
    # axis by at most a few u times the chord beyond it, far below an ulp of
    # 1. Eight ulps keep a margin of more than 2.
    slab = chord_tol + 8.0 * np.finfo(float).eps
    start = np.arange(n)  # sorted positions whose pair d apart is in a slab
    best = n * n  # i * n + j of the first close pair
    d = 0
    while start.size:
        d += 1
        start = start[proj[start + d] - proj[start] <= slab]
        a, b = order[start], order[start + d]
        i, j = np.minimum(a, b), np.maximum(a, b)
        diff = xyz[i] - xyz[j]
        close = np.einsum("ij,ij->i", diff, diff) <= chord_tol * chord_tol
        if close.any():
            best = min(best, int((i * n + j)[close].min()))
    if best < n * n:
        i, j = divmod(best, n)
        raise DuplicatePoint(
            f"points on lines {line_numbers[i]} and {line_numbers[j]} "
            f"coincide within {chord_tol:g} rad"
        )


def ingest_pointset(stream, weight_mode: str = "uniform", label: str = "") -> SphericalQuadrature:
    """Read a point-set text stream into a spherical quadrature.

    `stream` is any iterable of text lines ("x y z" or "x y z w";
    `#` starts a comment, blank lines are skipped). `weight_mode`:

    - "uniform": 3 columns; every point gets 4*pi/n.
    - "explicit": 4 columns; weights are rescaled to sum to 4*pi and the
      scale factor recorded on the result.

    The lines are taken 4096 at a time, each block parsed in one np.loadtxt
    call, so no list of every line is held. Where that call fails, a
    per-line loop reads the block instead, so a malformed file still raises
    ParseError naming its first bad line; the loop also reads the tokens that
    float() takes and numpy does not, such as 1_0. The blocks are checked
    for syntax only; the values are checked once, on the joined rows: NaN or
    infinite values raise ParseError naming the first offending line. Vectors
    within 4 ulps of unit norm are kept exactly as written, so the points of
    a latitude ring keep the z the file gave them and the ring stays whole;
    the others are divided by their norm (norms more than 1e-6 off unit raise
    ParseError, near-zero norms raise ZeroVector, each naming the first
    offending line). Two points closer than 1e-9 rad raise DuplicatePoint,
    found by one sort of their projections onto a fixed axis. Explicit
    weights whose sum is not a positive finite double, or that cannot be
    rescaled to sum to 4*pi without overflow, raise WeightError.
    """
    if weight_mode not in ("uniform", "explicit"):
        raise DomainError(f"unknown weight_mode {weight_mode!r}")
    lines = iter(stream)
    blocks = iter(lambda: list(itertools.islice(lines, _BLOCK_BYTES // _MIN_ROW_BYTES)), [])
    return _ingest(blocks, weight_mode, label)


def _ingest(blocks, weight_mode: str, label: str) -> SphericalQuadrature:
    """ingest_pointset of `blocks` (_read_point_blocks); weight_mode "auto"
    reads 4 fields on the first data line as "explicit", else "uniform"."""
    n_columns = {"uniform": 3, "explicit": 4}.get(weight_mode)
    rows, line_numbers = _read_point_blocks(blocks, n_columns)
    if not np.isfinite(rows).all():
        i = np.argmin(np.isfinite(rows).all(axis=1))
        raise ParseError("non-finite value", line=line_numbers[i])
    xyz = rows[:, :3]
    norms = np.sqrt(np.einsum("ij,ij->i", xyz, xyz))
    zero = norms < 1e-9
    off = np.abs(norms - 1.0)
    bad = np.flatnonzero(zero | (off > _UNIT_NORM_SLACK))
    if bad.size:
        i = bad[0]
        if zero[i]:
            raise ZeroVector(f"line {line_numbers[i]}: zero vector")
        raise ParseError(
            f"vector norm {float(norms[i])} off unit by more than {_UNIT_NORM_SLACK:g}",
            line=line_numbers[i],
        )
    divide = off > _AS_WRITTEN_SLACK
    xyz[divide] /= norms[divide, None]
    _check_duplicates(xyz, line_numbers, _DUPLICATE_CHORD)
    n = xyz.shape[0]
    if rows.shape[1] == 3:
        weights = np.full(n, FOUR_PI / n)
        scale = 1.0
    else:
        raw = rows[:, 3]
        with np.errstate(all="ignore"):
            total = raw.sum()
            scale = FOUR_PI / total
            weights = raw * scale
        # a sum not positive or past the largest double, or weights past it
        if not (0.0 < total < math.inf and np.isfinite(weights).all()):
            raise WeightError(f"explicit weights sum to {float(total)}; cannot rescale to 4*pi")
    z = np.clip(xyz[:, 2], -1.0, 1.0)
    theta = np.arccos(z)
    phi = np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), TWO_PI)
    phi[(theta == 0.0) | (theta == math.pi)] = 0.0
    return SphericalQuadrature(theta, phi, weights, label=label, weight_scale=scale)


def lebedev_count(order: int) -> int:
    """Point count (order + 1)^2 / 3 + 2 of the high-order Lebedev family.

    Defined only for the published sequence order = 6a + 5.
    """
    if order % 6 != 5:
        raise DomainError(f"Lebedev count formula needs order = 6a + 5, got {order}")
    return (order + 1) ** 2 // 3 + 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _format_rows(template: str, sep: str, *columns) -> str:
    """`template` % row for each row of the equal-length columns, joined by
    `sep`, in one % call; '%.17g' formats a float as _fmt does."""
    return sep.join([template] * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist())


def quadrature_to_json(q: SphericalQuadrature) -> str:
    """Serialize with 17-significant-digit decimals (exact round trip)."""
    template = '{"theta": %.17g, "phi": %.17g, "weight": %.17g}'
    points = _format_rows(template, ",\n    ", q.theta, q.phi, q.weights)
    return (
        "{\n"
        f'  "label": {json.dumps(q.label)},\n'
        f'  "n": {q.n},\n'
        f'  "convention": "solid_angle_4pi",\n'
        f'  "points": [\n    {points}\n  ]\n'
        "}\n"
    )
