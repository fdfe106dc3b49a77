"""Monte Carlo simulation of the state-estimation game.

Each trial draws a true direction Omega uniformly, samples the POVM
outcome k from P(k|Omega) = c_k |<Omega_k|Omega>|^(2N), and scores the
guess with the single-copy fidelity |<Omega_k|Omega>|^2. For a complete
POVM the mean score converges to (N+1)/(N+2).

Trials run in fixed-size chunks; chunk i consumes the Philox substream
jumped(i) of the 64-bit seed and first draws one block of cos-theta
values, then one of azimuths. How the outcomes are drawn next depends on
a check made once per call:

* Rejection (c_k >= 0 and the certified scalar-completeness bound of
  :func:`~povmquad.povm.scalar_completeness_residual` at most 1e-9):
  while trials of the chunk are pending, one (2, P) block of uniforms
  for the P pending trials. Row 0 proposes k ~ c_k / sum c from a Vose
  alias table (column floor(u n), coin from the fractional part); row 1
  accepts with probability overlap^N. Accepted outcomes follow
  c_k overlap_k^N / sum_j c_j overlap_j^N, and the certified bound puts
  that sum within 1e-9 of 1 for every Omega: they follow P(k|Omega), the
  acceptance rate is 1/(N+1), and a trial costs about N+1 overlaps. The
  chunk holds O(chunk_size) numbers, whatever the POVM size.
* Dense (every other POVM): one block of outcome uniforms, then the
  inverse CDF over all n outcome probabilities, formed in the bounded
  row blocks of povm's overlap loop. Each row is checked to sum to 1
  within 1e-9, so an incomplete POVM raises NotNormalized with the first
  offending direction.

The per-chunk partial sums are combined in chunk order, so a report is a
pure function of (povm, trials, seed, chunk_size) regardless of how chunks
would be scheduled. The two samplers consume the stream differently, so
their reports on the same POVM agree statistically, not bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotNormalized
from .harmonics import weighted_harmonic_sums
from .povm import (
    FinitePovm,
    _direction_angles,
    _funk_hecke_coeffs,
    _overlap_blocks,
    _pow_int,
    _power_sums,
    optimal_score,
    scalar_completeness_residual,
)
from .quadrature import FOUR_PI, SphericalQuadrature, _fmt, product_rule
from .sphere import Direction, TWO_PI, angles_to_xyz, substream

DEFAULT_CHUNK_SIZE = 1 << 16
_NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class SimulationReport:
    """Outcome statistics of a simulated estimation game."""

    copies: int
    trials: int
    mean_score: float
    std_error: float
    seed: int
    expected: float
    chunks: int

    def to_dict(self) -> dict:
        return {
            "N": self.copies,
            "trials": self.trials,
            "seed": self.seed,
            "mean_score": self.mean_score,
            "std_error": self.std_error,
            "expected": self.expected,
            "chunks": self.chunks,
        }

    def to_json(self) -> str:
        return (
            "{"
            f'"N": {self.copies}, "trials": {self.trials}, "seed": {self.seed}, '
            f'"mean_score": {_fmt(self.mean_score)}, "std_error": {_fmt(self.std_error)}, '
            f'"expected": {_fmt(self.expected)}, "chunks": {self.chunks}'
            "}"
        )


def _outcome_probabilities(ov: np.ndarray, c: np.ndarray, copies: int, where) -> np.ndarray:
    """c_k ov^N in place of the overlap rows `ov`; NotNormalized names the first row off 1."""
    probs = _pow_int(ov, copies)
    probs *= c
    rowsum = probs.sum(axis=-1)
    bad = np.abs(rowsum - 1.0) > _NORMALIZATION_TOL
    if np.any(bad):
        idx = int(np.argmax(bad))
        direction = where(idx)
        raise NotNormalized(
            f"outcome probabilities sum to {rowsum.flat[idx]!r} at "
            f"theta={direction.theta!r}, phi={direction.phi!r}",
            direction=direction,
        )
    return probs


def _alias_table(c: np.ndarray):
    """Vose alias table (prob, alias) for proposals k ~ c_k / sum c.

    Column j is drawn uniformly and kept with probability prob[j], else
    replaced by alias[j]; so P(k) = (prob[k] + sum_{alias[j] = k} (1 - prob[j])) / n.
    """
    n = c.size
    scaled = (c * (n / c.sum())).tolist()
    prob = np.ones(n)
    alias = np.arange(n)
    small = [k for k, v in enumerate(scaled) if v < 1.0]
    large = [k for k, v in enumerate(scaled) if v >= 1.0]
    while small and large:
        s, l = small.pop(), large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        (small if scaled[l] < 1.0 else large).append(l)
    # columns left in either list hold 1 up to rounding
    return prob, alias


def _proposal_table(p: FinitePovm):
    """Alias proposals k ~ c_k as (prob, outcome, e) over 2n columns.

    Column 2j is outcome j and column 2j+1 its alias (outcome[i] names
    the outcome of column i, e[:, i] is its unit vector), so the alias
    coin of column j only picks column 2j or 2j+1.
    """
    prob, alias = _alias_table(p.c)
    outcome = np.column_stack((np.arange(p.n), alias)).ravel()
    e = np.ascontiguousarray(angles_to_xyz(p.theta[outcome], p.phi[outcome]).T)
    return prob, outcome, e


def _pair_overlaps(d, e: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(1 + d_i . e_{cols_i})/2, where d is three coordinate rows of length P."""
    ov = d[0] * e[0].take(cols)
    ov += d[1] * e[1].take(cols)
    ov += d[2] * e[2].take(cols)
    ov += 1.0
    ov *= 0.5
    return ov


def _rejection_columns(rng, d, prob, e, copies: int) -> np.ndarray:
    """Accepted proposal column per true direction (d: three rows of length m).

    Each round draws a (2, P) uniform block for the P pending trials:
    row 0 proposes a column from the alias table, row 1 accepts with
    probability overlap^N. Pending trials are compacted after each round.
    """
    n = prob.size
    chosen = np.empty(d.shape[1], dtype=np.intp)
    pending = np.arange(d.shape[1])
    while pending.size:
        u = rng.random((2, pending.size))
        u[0] *= n
        col = u[0].astype(np.intp)
        cols = col << 1
        cols += u[0] - col >= prob.take(col)
        ov = _pair_overlaps(d, e, cols)
        # ov < 0 (rounding) gives nan and ov = 0 gives -inf: never accepted
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ov = np.log(ov)
            log_ov *= copies
            accept = np.log(u[1]) < log_ov
        hit = np.flatnonzero(accept)
        if hit.size:
            chosen[pending.take(hit)] = cols.take(hit)
            keep = ~accept
            pending = pending[keep]
            d = [row[keep] for row in d]
    return chosen


def _dense_scores(p: FinitePovm, theta, phi, u) -> np.ndarray:
    """Scores of one chunk by inverse CDF over every outcome, in row blocks."""
    scores = np.empty(u.size)
    for start, stop, ov in _overlap_blocks(p.theta, p.phi, (theta, phi)):
        # the power works in place, and ov still gives the drawn outcome's score
        probs = _outcome_probabilities(
            ov.copy(), p.c, p.copies, lambda r: Direction(theta[start + r], phi[start + r])
        )
        cum = np.cumsum(probs, axis=1, out=probs)
        k = np.minimum((cum < u[start:stop, None]).sum(axis=1), p.n - 1)
        scores[start:stop] = ov[np.arange(stop - start), k]
    return scores


def _game(p: FinitePovm, trials: int, seed: int, chunk_size: int, dense: bool) -> SimulationReport:
    """run_game with the sampler chosen by the caller (dense or rejection)."""
    if not dense:
        prob, _, e = _proposal_table(p)
    n_chunks = (trials + chunk_size - 1) // chunk_size
    total = 0.0
    total_sq = 0.0
    done = 0
    for i in range(n_chunks):
        m = min(chunk_size, trials - done)
        rng = substream(seed, i)
        z = rng.uniform(-1.0, 1.0, m)
        phi = rng.uniform(0.0, TWO_PI, m)
        theta = np.arccos(np.clip(z, -1.0, 1.0))
        if dense:
            scores = _dense_scores(p, theta, phi, rng.random(m))
        else:
            d = angles_to_xyz(theta, phi).T
            cols = _rejection_columns(rng, d, prob, e, p.copies)
            scores = np.clip(_pair_overlaps(d, e, cols), 0.0, 1.0)
        total += float(scores.sum())
        total_sq += float((scores * scores).sum())
        done += m
    mean = total / trials
    if trials > 1:
        variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0
    return SimulationReport(
        copies=p.copies,
        trials=trials,
        mean_score=mean,
        std_error=std_error,
        seed=seed,
        expected=optimal_score(p.copies),
        chunks=n_chunks,
    )


def run_game(
    p: FinitePovm,
    trials: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimulationReport:
    """Play `trials` rounds of the estimation game; fully seed-deterministic.

    A POVM with c_k >= 0 whose certified completeness bound is at most
    1e-9 is sampled by rejection (alias proposals k ~ c_k, accepted with
    probability overlap^N; about N+1 overlaps per trial and memory
    O(chunk_size)). Any other POVM is sampled densely by inverse CDF over
    all n outcomes, in blocks of bounded size; if a drawn Omega yields
    outcome probabilities off 1 by more than 1e-9 the POVM is invalid and
    NotNormalized is raised with the first offending direction. The
    module docstring gives the stream layout of both samplers.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if chunk_size < 1:
        raise DomainError(f"chunk_size must be >= 1, got {chunk_size}")
    certified = p.c.min() >= 0.0 and scalar_completeness_residual(p) <= _NORMALIZATION_TOL
    return _game(p, trials, seed, chunk_size, dense=not certified)


def sample_outcomes(
    p: FinitePovm,
    d: Direction,
    trials: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Outcome counts for a fixed true direction (frequency diagnostics)."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    _, _, ov = next(_overlap_blocks(p.theta, p.phi, ([d.theta], [d.phi])))
    cum = np.cumsum(_outcome_probabilities(ov, p.c, p.copies, lambda r: d)[0])
    counts = np.zeros(p.n, dtype=np.int64)
    done = 0
    index = 0
    while done < trials:
        m = min(chunk_size, trials - done)
        u = substream(seed, index).random(m)
        k = np.minimum(np.searchsorted(cum, u, side="right"), p.n - 1)
        counts += np.bincount(k, minlength=p.n)
        done += m
        index += 1
    return counts


def score_by_direction(p: FinitePovm, grid) -> np.ndarray:
    """Conditional expected score E[score | Omega] on a direction grid.

    E[score|Omega] = sum_k c_k |<Omega_k|Omega>|^(2(N+1)): band-limited at
    order N+1, so averaging it with any quadrature of strength >= N+1
    recovers the exact optimum.
    """
    return _power_sums(p.theta, p.phi, p.c, _direction_angles(grid), p.copies + 1)


def quadrature_averaged_score(p: FinitePovm, q: SphericalQuadrature | None = None) -> float:
    """Average of the conditional score E[score|Omega] over the rule q.

    Defaults to the product rule of order N+1, which is exact for the
    band-limited score and so cross-checks the Monte Carlo layer against
    the analytic optimum. With M = N+1, the addition theorem expands
    E[score|Omega] = sum_k c_k overlap_k^M into the harmonic sums
    A = sum_k c_k Y_l^m(Omega_k) and B = sum_j (w_j/4pi) Y_l^m(Omega_j):

        avg = sum_{l=0..M} g_l [A_l0 B_l0 + 2 sum_{m>0} Re(A_lm conj(B_lm))],
        g_l = 4pi M!^2 / ((M-l)! (M+l+1)!).

    This is an identity for any POVM and any rule, exact or not. Both
    sums come from :func:`~povmquad.harmonics.weighted_harmonic_sums`, so
    the cost is O((R_p + R_q) N^2 + (n_p + n_q) N) time for R distinct
    latitudes and O(N^2) memory, instead of an n_p x n_q overlap matrix.
    """
    if q is None:
        q = product_rule(p.copies + 1)
    power = p.copies + 1
    a = weighted_harmonic_sums(power, p.theta, p.phi, p.c)
    b = weighted_harmonic_sums(power, q.theta, q.phi, q.weights / FOUR_PI)
    cross = a.real * b.real + a.imag * b.imag
    cross[:, 1:] *= 2.0
    return float(FOUR_PI * (_funk_hecke_coeffs(power) @ cross.sum(axis=1)))
