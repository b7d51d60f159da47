"""Random binning: exact expected error and a Monte-Carlo cross-check.

A binning compressor maps source outcomes into N bins uniformly and
independently; the decompressor picks the most likely outcome in the
received bin, breaking ties uniformly at random.  Averaged over all bin
assignments, the success probability of an outcome with per-string
probability p, J-1 equal-probability peers and M strictly heavier peers is

    sum_{l=0}^{J-1} C(J-1, l) / (N^l (1+l)) * (1 - 1/N)^(M + J - l - 1),

whose closed form is (N/J) q^M (1 - q^J) with q = 1 - 1/N.  This module sums
the error side, 1 minus that factor, through log1p, expm1 and a short series,
so that the error keeps its relative accuracy at any N.  N = 1 is
legitimate: the decoder simply guesses the global argmax.

The Monte-Carlo cross-check reads one PCG64 stream per seed in a fixed
order: the bins row-major by trial x symbol, as Generator.integers draws
them, then the realizations, then the tie picks.  N = 1 draws no bins.  For
N = 2^j a bin is the top j bits of one raw 32-bit half-word (64-bit word
above 2^32): a jump passes the bins and the replay reads them from raw
words, 4 bytes a cell up to 2^32.  Other N draw them twice, 8 bytes a cell.
Bins stream in blocks of MC_BLOCK_CELLS trial-symbol cells, so memory is
O(MC_BLOCK_CELLS x cell size + 16 bytes x trials) for any support size; the
block size never changes the estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigurationError, DistributionError
from .spectrum import InformationSpectrum, _finish
from .sources import FiniteDistribution

MC_BLOCK_CELLS = 1 << 20  # trial-symbol cells per streamed block of Monte-Carlo bins
MC_MAX_BINS = 1 << 63  # NumPy draws bins below at most 2^63, its int64 range

__all__ = [
    "BinningProblem",
    "MassProfile",
    "mass_profile",
    "binning_error_exact",
    "binning_error_mc",
]


@dataclass(frozen=True)
class BinningProblem:
    """An exact source description plus a bin count N >= 1."""

    dist: Union[FiniteDistribution, InformationSpectrum]
    n_bins: int

    def __post_init__(self):
        if self.n_bins < 1:
            raise ValueError("need at least one bin")
        if isinstance(self.dist, InformationSpectrum) and not self.dist.exact:
            raise DistributionError("binning needs an exact distribution")


@dataclass(frozen=True)
class MassProfile:
    """One equal-probability class: its probability (J strings together), its
    size J, and the exact count M of strictly heavier strings."""

    class_prob: float
    equal_count: int
    heavier_count: int


def mass_profile(dist: Union[FiniteDistribution, InformationSpectrum]) -> list[MassProfile]:
    """Equal-probability classes in decreasing probability order: the masses of
    a spectrum, so ties are its merged masses (surprisals within MERGE_TOL bits).
    A distribution goes through its blocklength-1 spectrum."""
    if isinstance(dist, FiniteDistribution):  # as iid_spectrum at n = 1, without its type-class budget
        dist = _finish(np.array([0.0 - math.log2(p) for p in dist.probs]), dist.probs, [1] * len(dist), 1)
    return list(map(MassProfile, dist.probs.tolist(), dist.counts, itertools.accumulate(dist.counts, initial=0)))


def _log_q_power(count: int, log_q: float) -> float:
    """log q^count; -inf once count leaves double range, where q^count is 0
    for every bin count below 2^960."""
    try:
        return count * log_q
    except OverflowError:
        return -math.inf


def _error_factor(n_bins: int, j: int, m_heavier: int) -> float:
    """1 - (N/J) q^M (1 - q^J) without cancellation: a heavier string shares the
    bin (1 - q^M), or else the tie pick misses (1 - (N/J)(1 - q^J)).  The latter
    is at least 0.06 unless 8J <= N; there it is sum_{k>=2} (-1)^k C(J,k) / (J N^(k-1))."""
    if n_bins == 1:  # single bin: lost to any heavier peer, else to the 1/J tie pick
        return 1.0 if m_heavier else 1.0 - 1.0 / j
    log_q = math.log1p(-1.0 / n_bins)
    lost_heavier = -math.expm1(_log_q_power(m_heavier, log_q))
    if 8 * j <= n_bins:
        term, k = (j - 1) / (2 * n_bins), 2
        terms = [term]
        while abs(term) > 2.0 ** -60 * terms[0]:
            term *= -(j - k) / ((k + 1) * n_bins)
            terms.append(term)
            k += 1
        lost_tie = math.fsum(terms)
    else:
        lost_tie = 1.0 + (n_bins / j) * math.expm1(_log_q_power(j, log_q))
    return lost_heavier + (1.0 - lost_heavier) * lost_tie


def binning_error_exact(problem: BinningProblem) -> float:
    """Expected error probability averaged over all uniform bin assignments,
    as 1 - sum P(class) + sum P(class) error_factor: the law's own deficit
    counts as error too."""
    terms = [1.0]
    for cls in mass_profile(problem.dist):
        terms += (-cls.class_prob, cls.class_prob * _error_factor(problem.n_bins, cls.equal_count, cls.heavier_count))
    return math.fsum(terms)


def binning_error_mc(problem: BinningProblem, trials: int, seed: int) -> tuple[float, float]:
    """(estimate, standard error) of the binning error over random experiments.

    Each trial draws a fresh uniform bin for every string and one source
    realization, then decodes by maximum likelihood within the realized bin
    with uniform tie-breaking.  Deterministic for a fixed seed.

    Stream order: PCG64(seed) yields every bin, row-major by trial x symbol,
    as ``Generator.integers(0, N)`` would draw them, then the trials'
    realizations, then their tie picks.  One generator reaches the
    realizations past the bins (``_skip_bins``), a second one from the same
    seed replays the bins in blocks of about MC_BLOCK_CELLS // |support|
    trials (``_replay_bins``), so a bin is a function of (seed, trial,
    symbol) whatever the block size.  The replay rule per N:

    - N = 1: no bins; every string shares the one bin, so a trial errs when
      its class is not the heaviest or the tie pick misses 1/J;
    - N = 2^j, 1 <= j <= 32: the top j bits of one 32-bit half-word of the
      raw stream, 4 bytes a cell, since Lemire's bounded draw never rejects
      a power-of-two range;
    - N = 2^j, 32 < j <= 63: the top j bits of one 64-bit word, 8 bytes a cell;
    - other N: ``Generator.integers``, which rejects by the data, 8 bytes a cell.

    Memory is O(MC_BLOCK_CELLS x cell size + 16 bytes x trials).  N above
    MC_MAX_BINS raises ConfigurationError before any draw.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if problem.n_bins > MC_MAX_BINS:
        raise ConfigurationError(f"Monte-Carlo binning draws n_bins up to 2^63, not {problem.n_bins}")
    dist = problem.dist
    if isinstance(dist, InformationSpectrum):
        raise DistributionError("Monte-Carlo binning needs an explicit finite distribution")
    m = len(dist)
    probs = dist.prob_array()
    # columns in decreasing probability: each class is a contiguous column
    # range, and the strictly heavier strings are the prefix before it
    order = np.array(sorted(range(m), key=lambda i: -probs[i]))
    class_start = np.empty(m, dtype=np.int64)  # per symbol, its class's first column
    class_end = np.empty(m, dtype=np.int64)  # and one past its last
    tie_classes = []  # column ranges of the classes with peers
    pos = 0
    for cls in mass_profile(dist):
        end = pos + cls.equal_count
        class_start[order[pos:end]], class_end[order[pos:end]] = pos, end
        if cls.equal_count > 1:
            tie_classes.append((pos, end))
        pos = end
    draw = np.random.Generator(np.random.PCG64(seed))
    _skip_bins(draw, problem.n_bins, trials * m)
    realization = draw.choice(m, size=trials, p=probs)
    tie_pick = draw.random(trials)

    if problem.n_bins == 1:  # one shared bin: lost to any heavier class, else to the 1/J tie pick
        own_start = class_start[realization]
        n_err = int(np.count_nonzero((own_start > 0) | (tie_pick >= 1.0 / (class_end[realization] - own_start))))
    else:
        replay = np.random.Generator(np.random.PCG64(seed))
        columns = None if np.array_equal(order, np.arange(m)) else order
        rows = max(1, MC_BLOCK_CELLS // m)
        rows += rows * m % 2  # an even cell count, so no block ends mid-word
        n_err = 0
        for a in range(0, trials, rows):
            b = min(a + rows, trials)
            # drawn in the call, so no block outlives its scoring
            n_err += _block_errors(_replay_bins(replay, problem.n_bins, b - a, m), realization[a:b],
                                   tie_pick[a:b], columns, class_start, class_end, tie_classes)
    estimate = n_err / trials
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)
    return estimate, stderr


def _power_of_two(n_bins: int) -> int | None:
    """j if N = 2^j with j <= 63, else None.  Lemire's bounded draw never
    rejects a power-of-two range, so NumPy takes each bin below 2^j from a
    fixed share of the PCG64 stream: none at j = 0, the top j bits of a
    32-bit half-word (a word's low half first, its high half buffered in the
    bit generator) up to j = 32, of a whole 64-bit word above."""
    j = n_bins.bit_length() - 1
    return j if n_bins == 1 << j and j <= 63 else None


def _skip_bins(draw: np.random.Generator, n_bins: int, cells: int) -> None:
    """Move a fresh ``draw`` (no buffered half-word) past ``cells`` int64 bins
    below ``n_bins`` as drawing them would.  For N = 2^j, PCG64.advance jumps
    the whole words and an odd last half-word is drawn; other N reject by the
    data, so are drawn."""
    j = _power_of_two(n_bins)
    if j is None:
        for a in range(0, cells, MC_BLOCK_CELLS):
            draw.integers(0, n_bins, size=min(MC_BLOCK_CELLS, cells - a))
    elif j:
        words, odd = divmod(cells, 2 if j <= 32 else 1)
        draw.bit_generator.advance(words)
        draw.integers(0, n_bins, size=odd)


def _replay_bins(replay: np.random.Generator, n_bins: int, rows: int, m: int) -> np.ndarray:
    """The next ``rows`` x ``m`` bins below ``n_bins >= 2``, equal to
    ``replay.integers(0, n_bins, size=(rows, m))`` when ``replay`` holds no
    buffered half-word.  For N = 2^j they are read from raw words; an odd
    cell count drops the last word's high half, so only a last block may
    have one."""
    j = _power_of_two(n_bins)
    if j is None:
        return replay.integers(0, n_bins, size=(rows, m))
    cells = rows * m
    if j <= 32:
        # little-endian words, so each low half comes first
        bins = replay.bit_generator.random_raw((cells + 1) // 2).astype("<u8", copy=False).view("<u4")[:cells]
        bins >>= 32 - j
    else:
        bins = replay.bit_generator.random_raw(cells)
        bins >>= 64 - j
    return bins.reshape(rows, m)


def _block_errors(bins, real, tie_pick, columns, class_start, class_end, tie_classes) -> int:
    """Decoding errors in one block of trials: ``bins`` holds a row of
    per-symbol bins for each trial, ``real`` the realized symbols, and
    ``columns`` the symbols in decreasing probability (None: in order)."""
    r = len(bins)
    # argmax and the tie counts read no column past the last realized class
    cut = int(class_end[real].max())
    hits = bins[:, :cut] if columns is None else bins[:, columns[:cut]]
    hits = hits == bins[np.arange(r), real][:, None]
    own_start = class_start[real]
    # the first column sharing the own bin lies in a heavier class
    error = hits.argmax(axis=1) < own_start
    ties = np.zeros(r, dtype=np.int64)
    for lo, hi in tie_classes:
        if lo >= cut:
            break
        mine = np.flatnonzero(own_start == lo)
        ties[mine] = hits[mine, lo:hi].sum(axis=1) - 1
    # uniform pick among the 1 + ties in-bin argmax candidates
    error |= tie_pick >= 1.0 / (1.0 + ties)
    return int(np.count_nonzero(error))
