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
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .budgets import Budgets, default_budgets
from .errors import BudgetExceededError, DistributionError
from .spectrum import InformationSpectrum, ccdf, count_heavier_at_level, count_times_pstring
from .sources import FiniteDistribution

__all__ = [
    "RankCut",
    "CodelengthDistribution",
    "rank_cut",
    "epsilon_star",
    "max_codeword_length",
    "R_star",
    "R_star_via_counting",
    "Rbar",
    "integral_identity_check",
    "length_distribution",
    "expected_length_equiprobable",
    "var_length_equiprobable",
    "prefix_epsilon",
    "prefix_R",
    "OptimalCode",
    "encode",
    "decode",
]


@dataclass(frozen=True)
class RankCut:
    """Split of the ranked string list after the ``threshold`` most likely.

    ``partial_count`` strings of the boundary mass (per-string probability
    ``per_string_prob``) fall on the retained side; ``retained_prob`` and
    ``excess_prob`` are the probabilities of the two sides.
    """

    threshold: int
    index: int
    cum_count_below: int
    cum_prob_below: float
    partial_count: int
    per_string_prob: float
    retained_prob: float
    excess_prob: float


def _string_prob(info: float) -> float:
    """Per-string probability 2^(-info), flushed to 0 beyond 1000 bits."""
    return 2.0 ** (-info) if info <= 1000.0 else 0.0


def rank_cut(spec: InformationSpectrum, threshold: int) -> RankCut:
    """Locate the cut after the ``threshold`` highest-probability strings."""
    spec.require_exact("rank_cut")
    threshold = int(threshold)
    if threshold <= 0:
        return RankCut(0, -1, 0, 0.0, 0, _string_prob(float(spec.infos[0])), 0.0, float(spec.suffix_probs[0]))
    total = spec.total_count
    if threshold >= total:
        return RankCut(threshold, len(spec), total, float(spec.cum_probs[-1]), 0, 0.0, float(spec.cum_probs[-1]), 0.0)
    i = bisect_left(spec.cum_counts, threshold)
    before = spec.cum_counts[i - 1] if i > 0 else 0
    partial = threshold - before
    info_i = float(spec.infos[i])
    p_string = _string_prob(info_i)
    prob_before = float(spec.cum_probs[i - 1]) if i > 0 else 0.0
    retained = prob_before + count_times_pstring(partial, info_i)
    excess = float(spec.suffix_probs[i + 1]) + count_times_pstring(spec.counts[i] - partial, info_i)
    return RankCut(threshold, i, before, prob_before, partial, p_string, retained, excess)


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
    return rank_cut(spec, (1 << k) - 1).excess_prob


def max_codeword_length(spec: InformationSpectrum) -> int:
    """Length assigned to the least likely positive-probability string."""
    spec.require_exact("max_codeword_length")
    return spec.total_count.bit_length() - 1


def R_star(spec: InformationSpectrum, eps: float) -> float:
    """Smallest rate k/n whose excess probability is at most eps.

    Found by binary search over k, using that epsilon_star is non-increasing:
    the returned k satisfies epsilon_star(k) <= eps < epsilon_star(k-1).
    """
    spec.require_exact("R_star")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    lo, hi = 0, spec.total_count.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if epsilon_star(spec, mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return hi / spec.n


def R_star_via_counting(spec: InformationSpectrum, a: float) -> tuple[float, float]:
    """(eps, R) pair of the exact limit evaluated at surprisal threshold a.

    eps = P[surprisal >= a]; the optimal code reaches that excess probability
    at length ceil(log2(1 + M)) - 1 where M counts strings with probability
    strictly above 2^(-a).  At M = 0 the length is -1: the degenerate
    empty-string threshold, reported as-is together with eps = 1.
    """
    spec.require_exact("R_star_via_counting")
    if a < 0.0:
        raise ValueError("threshold must be nonnegative")
    eps = ccdf(spec, a)
    m_count = count_heavier_at_level(spec, a)
    length = m_count.bit_length() - 1 if m_count >= 1 else -1
    return eps, length / spec.n


def Rbar(spec: InformationSpectrum, method: str = "lengths") -> float:
    """Minimal expected compression rate (1/n) E[optimal codelength].

    ``method='lengths'`` takes the mean of the exact codelength distribution;
    ``method='excess'`` sums epsilon_star(k) over k >= 1.  Both are exact and
    cross-check each other.
    """
    spec.require_exact("Rbar")
    if method == "lengths":
        dist = length_distribution(spec)
        return math.fsum(l * p for l, p in zip(dist.lengths, dist.probs)) / spec.n
    if method == "excess":
        kmax = spec.total_count.bit_length()
        return math.fsum(epsilon_star(spec, k) for k in range(1, kmax + 1)) / spec.n
    raise ValueError(f"unknown Rbar method {method!r}")


def integral_identity_check(spec: InformationSpectrum) -> float:
    """Residual of the identity  Rbar = integral_0^1 R_star(x) dx - 1/n.

    The integral is evaluated exactly as a staircase sum over the intervals
    where R_star is constant, so the residual should vanish to rounding.
    """
    spec.require_exact("integral_identity_check")
    kmax = spec.total_count.bit_length()
    n = spec.n
    eps_prev = 1.0  # epsilon_star at k-1, starting from k = 1
    terms = []
    for k in range(1, kmax + 1):
        eps_k = epsilon_star(spec, k)
        terms.append((k / n) * (eps_prev - eps_k))
        eps_prev = eps_k
    integral = math.fsum(terms)
    return abs(Rbar(spec) - (integral - 1.0 / n))


@dataclass(frozen=True)
class CodelengthDistribution:
    """Distribution of the optimal codelength: P[len = j] per length j."""

    n: int
    lengths: tuple
    probs: tuple

    def mean(self) -> float:
        return math.fsum(l * p for l, p in zip(self.lengths, self.probs))

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum(p * (l - mu) ** 2 for l, p in zip(self.lengths, self.probs))


def _dyadic_blocks(spec: InformationSpectrum) -> Iterator[tuple[int, int, float]]:
    """Walk masses and dyadic rank blocks together.

    Yields (length j, strings taken, surprisal) for each piece of a mass
    whose ranks fall in [2^j, 2^(j+1)), i.e. receive codelength j; a tie
    class that straddles a block boundary is split by exact string counts.
    """
    consumed = 0
    for count, info in zip(spec.counts, spec.infos.tolist()):
        span = count
        while span > 0:
            j = (consumed + 1).bit_length() - 1
            take = min((1 << (j + 1)) - 1, consumed + span) - consumed
            yield j, take, info
            consumed += take
            span -= take


def length_distribution(spec: InformationSpectrum) -> CodelengthDistribution:
    """Exact codelength distribution P[len = j] = P[rank in [2^j, 2^(j+1))]."""
    spec.require_exact("length_distribution")
    n_lengths = spec.total_count.bit_length()
    buckets: list[list[float]] = [[] for _ in range(n_lengths)]
    for j, take, info in _dyadic_blocks(spec):
        buckets[j].append(count_times_pstring(take, info))
    probs = [math.fsum(b) for b in buckets]
    return CodelengthDistribution(spec.n, tuple(range(n_lengths)), tuple(probs))


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
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    lo, hi = 0, spec.total_count.bit_length() + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if prefix_epsilon(spec, mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return hi / spec.n


# ---------------------------------------------------------------------------
# Encoder / decoder for enumerable alphabets
# ---------------------------------------------------------------------------


def _rank_to_bits(rank: int) -> str:
    length = rank.bit_length() - 1
    if length == 0:
        return ""
    return format(rank - (1 << length), f"0{length}b")


def _bits_to_rank(bits: str) -> int:
    if bits and set(bits) - {"0", "1"}:
        raise ValueError(f"not a binary string: {bits!r}")
    return (1 << len(bits)) + (int(bits, 2) if bits else 0)


class OptimalCode:
    """Explicit optimal code table for block strings over a small alphabet.

    Strings are ranked by decreasing probability with lexicographic
    tie-breaking in the alphabet's given symbol order; rank r maps to the
    r-th binary string in {empty, 0, 1, 00, ...}.  Per-string probabilities
    are evaluated from symbol counts so that every member of a type class
    carries bit-identical probability and ties resolve purely by order.
    """

    def __init__(self, dist: FiniteDistribution, n: int, budget: Budgets | None = None):
        budget = budget or default_budgets()
        m = len(dist)
        if m ** n > budget.enumeration:
            raise BudgetExceededError(f"{m}^{n} strings exceed enumeration budget {budget.enumeration}")
        self.dist = dist
        self.n = n
        self._index = {s: i for i, s in enumerate(dist.symbols)}

        def string_prob(idx_tuple: tuple[int, ...]) -> float:
            prob = 1.0
            for a in range(m):
                c = idx_tuple.count(a)
                if c:
                    prob *= dist.probs[a] ** c
            return prob

        ranked = sorted(
            itertools.product(range(m), repeat=n),
            key=lambda t: (-string_prob(t), t),
        )
        self._rank_of = {t: r + 1 for r, t in enumerate(ranked)}
        self._string_of = ranked

    def encode(self, x) -> str:
        idx = []
        for s in x:
            if s not in self._index:
                raise DistributionError(f"symbol {s!r} has zero probability or is unknown")
            idx.append(self._index[s])
        if len(idx) != self.n:
            raise ValueError(f"expected a block of {self.n} symbols, got {len(idx)}")
        return _rank_to_bits(self._rank_of[tuple(idx)])

    def decode(self, bits: str):
        rank = _bits_to_rank(bits)
        if rank > len(self._string_of):
            raise ValueError(f"codeword {bits!r} is outside the code")
        return tuple(self.dist.symbols[i] for i in self._string_of[rank - 1])


@lru_cache(maxsize=16)
def _cached_code(dist: FiniteDistribution, n: int) -> OptimalCode:
    return OptimalCode(dist, n)


def encode(dist: FiniteDistribution, x) -> str:
    """Optimal codeword for block ``x`` (symbols must have positive mass)."""
    return _cached_code(dist, len(tuple(x))).encode(tuple(x))


def decode(dist: FiniteDistribution, n: int, bits: str):
    """Inverse of :func:`encode` for blocks of length ``n``."""
    return _cached_code(dist, n).decode(bits)
