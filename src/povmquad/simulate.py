"""Monte Carlo simulation of the state-estimation game.

Each trial draws a true direction Omega uniformly, samples the POVM
outcome k from P(k|Omega) = c_k |<Omega_k|Omega>|^(2N), and scores the
guess with the single-copy fidelity |<Omega_k|Omega>|^2. For a complete
POVM the mean score converges to (N+1)/(N+2).

Trials run in fixed-size chunks; chunk i consumes the Philox substream
jumped(i) of the 64-bit seed. How it is read depends on a check made
once per call:

* Outcome first (c_k >= 0 and the certified scalar-completeness bound of
  :func:`~povmquad.povm.scalar_completeness_residual` at most 1e-9): the
  game is drawn outcome first. k ~ c_k / sum c; the overlap
  t = |<Omega_k|Omega>|^2 ~ Beta(N+1, 1); a uniform azimuth psi about
  Omega_k; then Omega = (2t - 1) e_k + 2 sqrt(t(1 - t)) (cos psi a_k +
  sin psi b_k) in an orthonormal frame (e_k, a_k, b_k). The score of that
  pair is (1 + Omega . e_k)/2, and Omega . e_k = 2t - 1 exactly, so the
  score is t itself: each trial costs one power, whatever N and the POVM
  size, and needs neither k, psi nor Omega. The chunk reads one (2, m)
  block of uniforms for its m trials and scores trial j as
  t = (1 - u[1, j])^(1/(N+1)); row 0 is drawn and not read. Row 1 is
  thus the row that drew t when k, t and psi came from one (3, m) block
  and the score from the two unit vectors: text reports are unchanged,
  and the JSON's mean_score and std_error moved in their last digits
  (by up to 2 ulps and 2e-13 relative), as t and (1 + Omega . e_k)/2
  round apart by up to 3.3e-16.
  Why the certificate is still required: for every direction Omega_k,
  int |<Omega_k|Omega>|^(2N) dOmega = 4 pi/(N+1), so the pairs drawn
  outcome first have the joint law c_k overlap_k(Omega)^N (N+1) /
  (4 pi sum c), and Omega's marginal is S(Omega) (N+1) / (4 pi sum c) with
  S(Omega) = sum_k c_k overlap_k(Omega)^N. The game needs Omega uniform
  and k drawn from P(k|Omega) = c_k overlap_k^N, a joint law
  c_k overlap_k^N / (4 pi). The certified bound puts S within 1e-9 of 1
  for every Omega (and so sum c within about 1e-9 of N+1), so the two
  laws agree up to a pointwise factor within about 2e-9. The mean of t
  is (N+1)/(N+2) for every POVM, complete or not: without the
  certificate the draw is not the game, and the number shows nothing.
  The test suite keeps the explicit (k, Omega) sampler as an oracle and
  checks both the law and the score against it.
* Dense (every other POVM): one block of cos-theta values, one of
  azimuths and one of outcome uniforms, then the inverse CDF over all n
  outcome probabilities, formed in the bounded row blocks of povm's
  overlap loop. Each row is checked to sum to 1 within 1e-9, so an
  incomplete POVM raises NotNormalized with the first offending
  direction.

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
from .harmonics import _dense, _ring_sums
from .povm import (
    FinitePovm,
    _direction_angles,
    _funk_hecke_coeffs,
    _overlap_blocks,
    _pow_int,
    _power_sums,
    exact_score,
    optimal_score,
    scalar_completeness_residual,
)
from .quadrature import FOUR_PI, SphericalQuadrature, _fmt
from .sphere import Direction, TWO_PI, angles_to_xyz, substream

# Trials per chunk, one substream each: public, and it fixes the random
# stream of every report, so it equals the working-set budget only by chance.
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


def _drawn_overlaps(u: np.ndarray, copies: int) -> np.ndarray:
    """Scores t = (1 - u[1])^(1/(N+1)) of the trials in the columns of the
    (2, m) uniforms u, a Beta(N+1, 1) draw each, computed in place in u[1]."""
    t = u[1]
    np.subtract(1.0, t, out=t)
    return np.power(t, 1.0 / (copies + 1), out=t)


def _dense_scores(p: FinitePovm, theta, phi, u) -> np.ndarray:
    """Scores of one chunk by inverse CDF over every outcome, in row blocks.

    The power, the probabilities and their running sum all overwrite the
    overlap block, so one block and _pow_int's buffer are all it holds; the
    drawn outcome's score is clip((1 + Omega . e_k)/2) of the two unit vectors.
    """
    scores = np.empty(u.size)
    dxyz = angles_to_xyz(theta, phi)
    exyz = angles_to_xyz(p.theta, p.phi)
    for start, stop, ov in _overlap_blocks(p.theta, p.phi, (theta, phi)):
        probs = _outcome_probabilities(
            ov, p.c, p.copies, lambda r: Direction(theta[start + r], phi[start + r])
        )
        cum = np.cumsum(probs, axis=1, out=probs)
        k = np.minimum((cum < u[start:stop, None]).sum(axis=1), p.n - 1)
        scores[start:stop] = np.einsum("ij,ij->i", dxyz[start:stop], exyz[k])
    scores += 1.0
    scores *= 0.5
    return np.clip(scores, 0.0, 1.0, out=scores)


def _game(p: FinitePovm, trials: int, seed: int, chunk_size: int, dense: bool) -> SimulationReport:
    """run_game with the sampler chosen by the caller (dense or outcome first)."""
    n_chunks = (trials + chunk_size - 1) // chunk_size
    total = 0.0
    total_sq = 0.0
    done = 0
    for i in range(n_chunks):
        m = min(chunk_size, trials - done)
        rng = substream(seed, i)
        if dense:
            z = rng.uniform(-1.0, 1.0, m)
            phi = rng.uniform(0.0, TWO_PI, m)
            theta = np.arccos(np.clip(z, -1.0, 1.0))
            scores = _dense_scores(p, theta, phi, rng.random(m))
        else:
            scores = _drawn_overlaps(rng.random((2, m)), p.copies)
        # one pairwise sum per chunk: sums per block would round differently
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
    1e-9 is played outcome first: k ~ c_k, then Omega about Omega_k with
    overlap t ~ Beta(N+1, 1) and a uniform azimuth. Since
    Omega . e_k = 2t - 1, that trial's score (1 + Omega . e_k)/2 is t, so
    each trial costs one power of its uniform, and the chunk holds its
    (2, m) uniforms and nothing per outcome. The certificate is still
    required: it is what makes that Omega uniform and k follow
    P(k|Omega), and without it the mean of t, (N+1)/(N+2) for any POVM,
    is no game (module docstring). Against the explicit sampler, which
    scored the two unit vectors, --format json output moved in its last
    digits.
    Any other POVM is sampled densely by inverse CDF over all n outcomes,
    in blocks of bounded size; if a drawn Omega yields outcome
    probabilities off 1 by more than 1e-9 the POVM is invalid and
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

    With M = N+1, the addition theorem expands E[score|Omega] =
    sum_k c_k overlap_k^M into the harmonic sums A = sum_k c_k Y_l^m(Omega_k)
    and B = sum_j (w_j/4pi) Y_l^m(Omega_j):

        avg = sum_{l=0..M} g_l [A_l0 B_l0 + 2 sum_{m>0} Re(A_lm conj(B_lm))],
        g_l = 4pi M!^2 / ((M-l)! (M+l+1)!).

    This is an identity for any POVM and any rule, exact or not. Both
    sums come from the ring kernel of
    :func:`~povmquad.harmonics.weighted_harmonic_sums`, so the cost is
    O((R_p + R_q) N^2 + (n_p + n_q) N) time for R distinct latitudes
    (O(n + R N) for product rules, whose rings feed only the orders their
    period lets through) and O(N^2) memory, instead of an n_p x n_q
    overlap matrix.

    Without q, over any rule exact to order M (B_lm = delta_l0/sqrt(4pi)):
    avg = g_0 A_00/sqrt(4pi) = sum(c)/(N+2) for every POVM, complete or not,
    and that closed form is returned. It cannot see moved outcome
    directions; scalar_completeness_residual can.
    """
    if q is None:
        return exact_score(p)
    power = p.copies + 1
    a = _dense(_ring_sums(power, p.theta, p.phi, p.c, None)[0])
    b = _dense(_ring_sums(power, q.theta, q.phi, q.weights / FOUR_PI, None)[0])
    cross = a.real * b.real + a.imag * b.imag
    cross[:, 1:] *= 2.0
    return float(FOUR_PI * (_funk_hecke_coeffs(power) @ cross.sum(axis=1)))
