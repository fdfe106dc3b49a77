"""Monte Carlo simulation of the state-estimation game.

Each trial draws a true direction Omega uniformly, samples the POVM
outcome k from P(k|Omega) = c_k |<Omega_k|Omega>|^(2N), and scores the
guess with the single-copy fidelity |<Omega_k|Omega>|^2. For a complete
POVM the mean score converges to (N+1)/(N+2).

Trials run in fixed-size chunks; chunk i consumes the Philox substream
jumped(i) of the 64-bit seed, and within a chunk the draws are one block
of cos-theta values, one of azimuths, then one of outcome uniforms. The
per-chunk partial sums are combined in chunk order, so a report is a pure
function of (povm, trials, seed, chunk_size) regardless of how chunks
would be scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotNormalized
from .povm import FinitePovm, _direction_angles, _pow_int, _power_sums, optimal_score
from .quadrature import FOUR_PI, SphericalQuadrature, _fmt, product_rule
from .sphere import Direction, TWO_PI, angles_to_xyz, overlap_matrix, substream

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


def _chunk_draws(seed: int, index: int, count: int):
    rng = substream(seed, index)
    z = rng.uniform(-1.0, 1.0, count)
    phi = rng.uniform(0.0, TWO_PI, count)
    u = rng.random(count)
    return z, phi, u


def _outcome_probabilities(ov: np.ndarray, c: np.ndarray, copies: int, where) -> np.ndarray:
    probs = _pow_int(ov, copies) * c
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


def run_game(
    p: FinitePovm,
    trials: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimulationReport:
    """Play `trials` rounds of the estimation game; fully seed-deterministic.

    Outcomes are drawn by inverse CDF over the cumulative P(k|Omega) with
    one uniform per trial. If any drawn Omega yields outcome probabilities
    off 1 by more than 1e-9 the POVM is invalid and NotNormalized is
    raised with the offending direction.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if chunk_size < 1:
        raise DomainError(f"chunk_size must be >= 1, got {chunk_size}")
    exyz = angles_to_xyz(p.theta, p.phi)
    n_chunks = (trials + chunk_size - 1) // chunk_size
    total = 0.0
    total_sq = 0.0
    done = 0
    for i in range(n_chunks):
        m = min(chunk_size, trials - done)
        z, phi, u = _chunk_draws(seed, i, m)
        theta = np.arccos(np.clip(z, -1.0, 1.0))
        ov = overlap_matrix(angles_to_xyz(theta, phi), exyz)
        probs = _outcome_probabilities(
            ov, p.c, p.copies, lambda r: Direction(theta[r], phi[r])
        )
        cum = np.cumsum(probs, axis=1)
        k = np.minimum((cum < u[:, None]).sum(axis=1), p.n - 1)
        scores = ov[np.arange(m), k]
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
    ov = overlap_matrix(angles_to_xyz([d.theta], [d.phi]), angles_to_xyz(p.theta, p.phi))
    probs = _outcome_probabilities(ov, p.c, p.copies, lambda r: d)[0]
    cum = np.cumsum(probs)
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
    """Average of the conditional score against a strength >= N+1 rule.

    Defaults to the product rule of order N+1; exactly cross-checks the
    Monte Carlo layer against the analytic score.
    """
    if q is None:
        q = product_rule(p.copies + 1)
    scores = score_by_direction(p, (q.theta, q.phi))
    return float(scores @ (q.weights / FOUR_PI))
