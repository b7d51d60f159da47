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
- the prefix-constrained excess probabilities, coupled to the unconstrained
  curve by a one-bit shift (``prefix_epsilon_curve``).

Counts are arbitrary-precision integers throughout; a rank cut that lands
inside a tie class splits the class mass proportionally to string counts.
``length_distribution`` walks masses and dyadic rank blocks in one scalar pass
per spectrum: the codelength law, the whole epsilon_star curve (one cut 2^k - 1
per block) and the pieces of the gap moment, summed when ``dispersion`` reads
it.  Single questions (``epsilon_star``, ``R_star``) bisect with ``rank_cut``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from .spectrum import InformationSpectrum, count_times_pstring

__all__ = [
    "CodelengthDistribution",
    "rank_cut",
    "epsilon_star",
    "R_star",
    "Rbar",
    "length_distribution",
    "prefix_epsilon_curve",
    "rate_on_curve",
]

_piece = count_times_pstring  # the walk's own binding: its calls stay inside optcode's trace span


def rank_cut(spec: InformationSpectrum, threshold: int) -> float:
    """Probability of the strings ranked after the ``threshold`` most likely:
    the masses past the cut plus the part of the boundary mass past it."""
    spec.require_exact("rank_cut")
    threshold = int(threshold)
    if threshold <= 0:
        return float(spec.suffix_probs[0])
    if threshold >= spec.total_count:
        return 0.0
    i, through = spec.locate(threshold)
    return float(spec.suffix_probs[i + 1]) + count_times_pstring(through - threshold, float(spec.infos[i]))


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
    ``length_distribution(spec).tail``, the prefix-code rate on its prefix curve."""
    return _least_k(curve.__getitem__, len(curve) - 1, eps) / n


def Rbar(spec: InformationSpectrum) -> float:
    """Minimal expected compression rate (1/n) E[optimal codelength].

    The mean of the exact codelength distribution; it also equals the sum
    of epsilon_star(k) over k >= 1, divided by n.
    """
    return length_distribution(spec).mean() / spec.n


@dataclass(frozen=True)
class CodelengthDistribution:
    """Distribution of the optimal codelength: P[len = j] per length j, the tail
    P[len >= k] = epsilon_star(k) for k = 0..len(lengths), and the pieces as columns (codelength,
    mass, surprisal), from which the gap moment gap2 = E[(len - surprisal)^2] is summed on first read."""

    n: int
    lengths: tuple
    probs: tuple
    tail: tuple
    pieces: tuple = field(repr=False)

    def mean(self) -> float:
        return math.fsum(l * p for l, p in zip(self.lengths, self.probs))

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum(p * (l - mu) ** 2 for l, p in zip(self.lengths, self.probs))

    @cached_property
    def gap2(self) -> float:
        return math.fsum(m * (j - info) ** 2 for j, m, info in zip(*self.pieces))


def length_distribution(spec: InformationSpectrum) -> CodelengthDistribution:
    """Exact codelength distribution P[len = j] = P[rank in [2^j, 2^(j+1))]
    and the epsilon_star tail, in one pass over masses and rank blocks.

    A piece is the part of a mass ranked in one block (exact string counts
    split a tie class), and P[len = j] is summed as block j closes.  The cut
    2^k - 1 lands in a mass: epsilon_star(k) is the mass ranked after it plus
    the part past the cut, as in ``rank_cut``; past a mass's last cut, that part is its last piece.
    """
    spec.require_exact("length_distribution")
    lengths, masses, infos = pieces = [], [], []
    probs, tail = [], [1.0]
    j, start, consumed, cut = 0, 0, 0, 1  # cut = 2^(j+1) - 1 closes block j, whose pieces begin at start
    for after, end, info in zip(spec.suffix_probs[1:].tolist(), itertools.accumulate(spec.counts), spec.infos.tolist()):
        if cut > end:
            lengths.append(j)
            masses.append(_piece(end - consumed, info))
            infos.append(info)
        while cut <= end:
            lengths.append(j)
            masses.append(_piece(cut - consumed, info))
            infos.append(info)
            probs.append(math.fsum(masses[start:]))
            rest = _piece(end - cut, info)
            tail.append(after + rest)
            j, start, consumed, cut = j + 1, len(masses), cut, 2 * cut + 1
            if cut > end and consumed < end:
                lengths.append(j)
                masses.append(rest)
                infos.append(info)
        consumed = end
    n_lengths = spec.total_count.bit_length()  # a total of 2^L - 1 ends on the cut of k = L
    probs.append(math.fsum(masses[start:]))
    del probs[n_lengths:]
    tail[n_lengths:] = [0.0]
    return CodelengthDistribution(spec.n, tuple(range(n_lengths)), tuple(probs), tuple(tail), pieces)


def prefix_epsilon_curve(spec: InformationSpectrum, curve: Sequence[float]) -> list[float]:
    """Smallest P[len >= k] over prefix codes for k in 0..len(curve), read off
    ``curve = length_distribution(spec).tail`` by the one-bit shift: epsilon_star(k-1),
    or exactly 0 once k-1 bits index every positive-probability string."""
    live = (spec.total_count - 1).bit_length()  # 2^k < total exactly for k < live
    return [1.0, *curve[:live], *[0.0] * (len(curve) - live)]
