"""The optimal fixed-to-variable code and its exact fundamental limits.

The optimal lossless compressor without prefix constraints lists source
strings by decreasing probability (ties broken lexicographically) and assigns
them the binary strings {empty, 0, 1, 00, 01, ...} in order, so the string of
rank r receives length floor(log2 r).  Every limit computed here reduces to
rank arithmetic over an exact information spectrum:

- epsilon_star(n, k): probability mass outside the 2^k - 1 most likely
  strings.  This simultaneously equals the minimal error probability of a
  fixed-to-fixed code mapping n symbols into k bits.
- R_star(n, eps): smallest k/n whose excess probability is within eps.
- Rbar(n): minimal expected rate, from the exact codelength distribution.
- prefix_epsilon / prefix_R: the prefix-constrained counterparts, coupled to
  the unconstrained limits by a one-bit shift.

Counts are arbitrary-precision integers throughout; a rank cut that lands
inside a tie class splits the class mass proportionally to string counts.
``length_distribution`` walks masses and dyadic rank blocks once per spectrum
and returns the codelength law, the whole epsilon_star curve (one cut 2^k - 1
per block) and the gap moment that ``dispersion`` reads; single questions
(``epsilon_star``, ``R_star``) bisect for their cut with ``rank_cut``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

from .spectrum import InformationSpectrum, count_times_pstring

__all__ = [
    "CodelengthDistribution",
    "rank_cut",
    "epsilon_star",
    "R_star",
    "Rbar",
    "length_distribution",
    "expected_length_equiprobable",
    "var_length_equiprobable",
    "prefix_epsilon",
    "prefix_R",
    "prefix_epsilon_curve",
    "rate_on_curve",
]


def rank_cut(spec: InformationSpectrum, threshold: int) -> float:
    """Probability of the strings ranked after the ``threshold`` most likely:
    the masses past the cut plus the part of the boundary mass past it."""
    spec.require_exact("rank_cut")
    threshold = int(threshold)
    if threshold <= 0:
        return float(spec.suffix_probs[0])
    if threshold >= spec.total_count:
        return 0.0
    i = bisect_left(spec.cum_counts, threshold)
    return float(spec.suffix_probs[i + 1]) + count_times_pstring(spec.cum_counts[i] - threshold, float(spec.infos[i]))


def epsilon_star(spec: InformationSpectrum, k: int) -> float:
    """Smallest probability that the optimal codelength is >= k bits.

    Equals the probability mass outside the 2^k - 1 most likely strings, and
    also the minimal error probability of the best fixed-to-fixed code into
    k bits.  epsilon_star(0) = 1 and the value drops to exactly 0 once
    2^k - 1 covers every positive-probability string.
    """
    if k < 0:
        raise ValueError("codelength threshold must be nonnegative")
    if k == 0:
        return 1.0
    return rank_cut(spec, (1 << k) - 1)


def _least_k(eps_at: Callable[[int], float], k_max: int, eps: float) -> int:
    """Smallest k <= k_max with eps_at(k) <= eps, by the bisection every rate
    search shares, so lazy and precomputed curves agree even where the float
    curve is not monotone."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    lo, hi = 0, k_max
    while lo < hi:
        mid = (lo + hi) // 2
        if eps_at(mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return hi


def R_star(spec: InformationSpectrum, eps: float) -> float:
    """Smallest rate k/n whose excess probability is at most eps.

    Found by binary search over k, using that epsilon_star is non-increasing:
    the returned k satisfies epsilon_star(k) <= eps < epsilon_star(k-1).
    """
    spec.require_exact("R_star")
    return _least_k(lambda k: epsilon_star(spec, k), spec.total_count.bit_length(), eps) / spec.n


def rate_on_curve(curve: Sequence[float], n: int, eps: float) -> float:
    """Smallest rate k/n with curve[k] <= eps: R_star(spec, eps) on
    ``length_distribution(spec).tail`` and prefix_R(spec, eps) on its prefix curve."""
    return _least_k(curve.__getitem__, len(curve) - 1, eps) / n


def Rbar(spec: InformationSpectrum) -> float:
    """Minimal expected compression rate (1/n) E[optimal codelength].

    The mean of the exact codelength distribution; it also equals the sum
    of epsilon_star(k) over k >= 1, divided by n.
    """
    return length_distribution(spec).mean() / spec.n


@dataclass(frozen=True)
class CodelengthDistribution:
    """Distribution of the optimal codelength: P[len = j] per length j, the
    tail P[len >= k] = epsilon_star(k) for k = 0..len(lengths), and the gap
    moment gap2 = E[(codelength - surprisal)^2]."""

    n: int
    lengths: tuple
    probs: tuple
    tail: tuple
    gap2: float

    def mean(self) -> float:
        return math.fsum(l * p for l, p in zip(self.lengths, self.probs))

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum(p * (l - mu) ** 2 for l, p in zip(self.lengths, self.probs))


def _dyadic_walk(spec: InformationSpectrum) -> tuple[list, list, list, list]:
    """Walk masses and dyadic rank blocks together, once.

    Returns the pieces as columns (length j, mass, surprisal), one piece per
    part of a spectrum mass whose ranks fall in [2^j, 2^(j+1)), i.e. receive
    codelength j; a tie class that straddles a block boundary is split by
    exact string counts.  Also returns the tail [epsilon_star(k) for k in
    0..L], L = total_count.bit_length(): the cut 2^k - 1 lands in some mass,
    and the excess is the mass ranked after it plus the part of it past the
    cut, as in ``rank_cut``.
    """
    lengths, takes, infos, tail = [], [], [], [1.0]
    j, consumed, cut = 0, 0, 1  # cut = 2^(j+1) - 1 closes the block of length j
    for after, end, info in zip(spec.suffix_probs.tolist()[1:], spec.cum_counts, spec.infos.tolist()):
        while cut <= end:
            lengths.append(j)
            takes.append(cut - consumed)
            infos.append(info)
            tail.append(after + count_times_pstring(end - cut, info))
            j, consumed, cut = j + 1, cut, 2 * cut + 1
        if consumed < end:
            lengths.append(j)
            takes.append(end - consumed)
            infos.append(info)
            consumed = end
    del tail[spec.total_count.bit_length():]  # a total of 2^L - 1 ends on the cut of k = L
    tail.append(0.0)
    return lengths, list(map(count_times_pstring, takes, infos)), infos, tail


def length_distribution(spec: InformationSpectrum) -> CodelengthDistribution:
    """Exact codelength distribution P[len = j] = P[rank in [2^j, 2^(j+1))],
    with the epsilon_star tail and the gap moment from the same walk."""
    spec.require_exact("length_distribution")
    lengths, masses, infos, tail = _dyadic_walk(spec)
    n_lengths = spec.total_count.bit_length()
    firsts = [bisect_left(lengths, j) for j in range(n_lengths + 1)]  # lengths only grow
    probs = [math.fsum(masses[a:b]) for a, b in zip(firsts, firsts[1:])]
    gap2 = math.fsum(m * (j - info) ** 2 for j, m, info in zip(lengths, masses, infos))
    return CodelengthDistribution(spec.n, tuple(range(n_lengths)), tuple(probs), tuple(tail), gap2)


# ---------------------------------------------------------------------------
# Equiprobable closed forms
# ---------------------------------------------------------------------------


def expected_length_equiprobable(m_outcomes: int) -> float:
    """Mean optimal codelength for a uniform distribution on m outcomes.

    Closed form  floor(log2 M) + (2 + floor(log2 M) - 2^(floor(log2 M)+1))/M.
    """
    if m_outcomes < 1:
        raise ValueError("need at least one outcome")
    level = m_outcomes.bit_length() - 1
    return level + (2 + level - (1 << (level + 1))) / m_outcomes


def var_length_equiprobable(m_outcomes: int) -> float:
    """Variance of the optimal codelength for a uniform law on m outcomes.

    Uses the exact second moment built from s(K) = sum_{i<=K} i^2 2^i
    = -6 + 2^(K+1) (3 - 2K + K^2); the variance oscillates with the dyadic
    position of M and never converges (limit points 2 and 2.25).
    """
    if m_outcomes < 1:
        raise ValueError("need at least one outcome")
    level = m_outcomes.bit_length() - 1
    s = -6 + (1 << (level + 1)) * (3 - 2 * level + level * level)
    second = (s - level * level * ((1 << (level + 1)) - m_outcomes - 1)) / m_outcomes
    mean = expected_length_equiprobable(m_outcomes)
    return second - mean * mean


# ---------------------------------------------------------------------------
# Prefix-code counterparts
# ---------------------------------------------------------------------------


def prefix_epsilon(spec: InformationSpectrum, k: int) -> float:
    """Smallest P[len >= k] over prefix codes.

    Coupled one-for-one to the unconstrained limit: the best prefix code
    gives length k-1 codewords to the 2^(k-1) - 1 most likely strings, so
    prefix_epsilon(k) = epsilon_star(k-1) until k-1 bits already index every
    positive-probability string, after which it is exactly 0.
    """
    spec.require_exact("prefix_epsilon")
    if k <= 0:
        return 1.0
    if (1 << (k - 1)) >= spec.total_count:
        return 0.0
    return epsilon_star(spec, k - 1)


def prefix_R(spec: InformationSpectrum, eps: float) -> float:
    """Smallest prefix-code rate i/n with excess probability at most eps.

    Generally equal to R_star + 1/n; when the alphabet size is a power of two
    and eps is below the least string mass the two rates coincide instead.
    Both branches fall out of searching prefix_epsilon directly.
    """
    spec.require_exact("prefix_R")
    return _least_k(lambda k: prefix_epsilon(spec, k), spec.total_count.bit_length() + 1, eps) / spec.n


def prefix_epsilon_curve(spec: InformationSpectrum, curve: Sequence[float]) -> list[float]:
    """[prefix_epsilon(spec, k) for k in 0..len(curve)], read off
    ``curve = length_distribution(spec).tail`` by the one-bit shift."""
    total = spec.total_count
    return [1.0] + [eps if (1 << k) < total else 0.0 for k, eps in enumerate(curve)]
