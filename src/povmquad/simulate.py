"""Monte Carlo simulation of the state-estimation game.

Each trial draws a true direction Omega uniformly, samples the POVM
outcome k from P(k|Omega) = c_k |<Omega_k|Omega>|^(2N), and scores the
guess with the single-copy fidelity |<Omega_k|Omega>|^2. For a complete
POVM the mean score converges to (N+1)/(N+2).

Trials run in fixed-size chunks; chunk i consumes the Philox substream
jumped(i) of the 64-bit seed. How it is read depends on a check made
once per call:

* Outcome first (c_k >= 0 and the certified scalar-completeness bound of
  :func:`~povmquad.povm.scalar_completeness_residual` at most 1e-9): one
  (3, m) block of uniforms for the m trials of the chunk. Row 0 draws
  k ~ c_k / sum c from a Vose alias table (column floor(u n), coin from
  the fractional part), row 1 the overlap t = (1 - u)^(1/(N+1)), a
  Beta(N+1, 1) draw, and row 2 a uniform azimuth psi about Omega_k; then
  Omega = (2t - 1) e_k + 2 sqrt(t(1 - t)) (cos psi a_k + sin psi b_k) in
  an orthonormal frame (e_k, a_k, b_k) built once per call. The score is
  the fidelity of that (Omega, k) pair, computed from the two vectors.
  Why this is the game: for every direction Omega_k,
  int |<Omega_k|Omega>|^(2N) dOmega = 4 pi/(N+1), so the pairs drawn have
  the joint law c_k overlap_k(Omega)^N (N+1) / (4 pi sum c), and Omega's
  marginal is S(Omega) (N+1) / (4 pi sum c) with
  S(Omega) = sum_k c_k overlap_k(Omega)^N. The game needs Omega uniform
  and k drawn from P(k|Omega) = c_k overlap_k^N, a joint law
  c_k overlap_k^N / (4 pi). The certified bound puts S within 1e-9 of 1
  for every Omega (and so sum c within about 1e-9 of N+1), so the two
  laws agree up to a pointwise factor within about 2e-9. Without the
  certificate Omega would not be uniform: it is the only way in. A trial
  costs O(1), whatever N and the POVM size, and the chunk holds its
  uniforms and scores plus one block of B trials
  (_outcome_first_scores).
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

from . import povm
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
    """Vose alias table (prob, alias) for draws k ~ c_k / sum c.

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


def _outcome_table(p: FinitePovm):
    """Alias table and orthonormal outcome frames (prob, alias, frame).

    frame[0][:, k] is the unit vector e_k of outcome k, frame[1][:, k] is
    a_k = de/dtheta and frame[2][:, k] is b_k = (-sin phi, cos phi, 0);
    the three are orthonormal for any finite theta, in [0, pi] or not.
    """
    prob, alias = _alias_table(p.c)
    b = np.stack((-np.sin(p.phi), np.cos(p.phi), np.zeros(p.n)))
    frame = np.stack((
        angles_to_xyz(p.theta, p.phi).T, angles_to_xyz(p.theta + 0.5 * math.pi, p.phi).T, b
    ))
    return prob, alias, frame


def _outcome_first(rng, m: int, prob, alias, frame, copies: int):
    """Outcomes k, true directions Omega and e_k of m trials, outcome first.

    One (3, m) uniform block, read by _outcome_block.
    """
    return _outcome_block(rng.random((3, m)), prob, alias, frame, copies)


def _outcome_block(u, prob, alias, frame, copies: int):
    """Outcomes k, true directions Omega and e_k of the trials in the columns of u.

    Row 0 of the (3, m) uniforms u draws k ~ c_k / sum c from the alias
    table (column floor(u n), coin from the fractional part), row 1 the
    overlap t = (1 - u)^(1/(N+1)) ~ Beta(N+1, 1) and row 2 the azimuth psi
    about e_k. Omega = (2t - 1) e_k + 2 sqrt(t(1 - t)) (cos psi a_k +
    sin psi b_k); Omega and e_k come back as three coordinate rows each.
    Row 0 of u is overwritten.
    """
    u[0] *= prob.size
    col = u[0].astype(np.intp)
    k = np.where(u[0] - col < prob.take(col), col, alias.take(col))
    e, a, b = frame.take(k, axis=2)
    t = np.power(1.0 - u[1], 1.0 / (copies + 1))
    radial = np.sqrt(t * (1.0 - t))
    radial *= 2.0
    psi = u[2] * TWO_PI
    # Omega is built in the gathered copy of a_k: two fewer (3, m) temporaries
    a *= radial * np.cos(psi)
    b *= radial * np.sin(psi)
    a += b
    a += (2.0 * t - 1.0) * e
    return k, a, e


def _outcome_first_scores(u, table, copies: int) -> np.ndarray:
    """Scores clip((1 + Omega . e_k)/2) of the trials in the columns of u.

    The trials run in blocks of B = povm._BLOCK_ELEMS // 16 (4096); with
    about 21 doubles of temporaries per trial, a block stays in a core's
    L2 cache. Every step is per trial, so the scores do not depend on B.
    """
    scores = np.empty(u.shape[1])
    step = max(1, povm._BLOCK_ELEMS // 16)
    for start in range(0, scores.size, step):
        _, omega, e = _outcome_block(u[:, start : start + step], *table, copies)
        block = np.einsum("ij,ij->j", omega, e, out=scores[start : start + step])
        block += 1.0
        block *= 0.5
        np.clip(block, 0.0, 1.0, out=block)
    return scores


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
    if not dense:
        table = _outcome_table(p)
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
            scores = _outcome_first_scores(rng.random((3, m)), table, p.copies)
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
    1e-9 is played outcome first: k ~ c_k from an alias table, then Omega
    about Omega_k with overlap t ~ Beta(N+1, 1) and a uniform azimuth;
    O(1) work per trial, and memory the chunk's uniforms and scores plus
    one block of B trials. The certificate is what makes that Omega
    uniform and k follow P(k|Omega) (module docstring).
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
