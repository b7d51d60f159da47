"""Information spectra: the distribution of the surprisal of source strings.

For a blocklength-n source the surprisal iota(x^n) = log2(1/P(x^n)) takes
few distinct values compared to the number of strings: under a memoryless
law every permutation of a string carries the same probability, so one mass
per type class (composition) suffices.  Each mass stores its exact string
count as an arbitrary-precision integer, which is what makes rank arithmetic
work at blocklengths in the thousands where counts overflow any float.

Masses are sorted by increasing surprisal, i.e. decreasing per-string
probability.  A memoryless law's masses are one column by Loader's form of
the multinomial (``sources._multinomial_pmf``); a binary law takes it at
multiples of 64 only and Pascal's rule between (``_binary_row``), within
5.6e-13 relative of the exact C(n, k) p^k q^(n-k) for every normal mass up to
n = 2000.  A binomial row of counts comes by Pascal's rule from row n - 1 when
that was the last one built.  Masses within 1e-12 bits of the first surprisal
of their group merge, with ``math.fsum`` over their probabilities, so that
counting queries are well defined.  Every limit reads the excess side, so a
spectrum keeps suffix sums compensated by their TwoSum errors, within one ulp
of the exact sums of its masses; the retained side P[surprisal <= a] is
formed on request (``cdf_values``), and cumulative counts only as far as a
rank cut reads (``InformationSpectrum.locate``).
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from typing import Sequence

import numpy as np

from ._kernels import initial_step, markov_step
from .budgets import enumeration_budget, type_class_budget
from .errors import BudgetExceededError, DistributionError, UnsupportedSpectrumError
from .sources import FiniteDistribution, MarkovSource, _binomial_pmf, _compensated_cumsum, _multinomial_pmf

MERGE_TOL = 1e-12  # bits; masses closer than this are one mass
PROB_CHECK_TOL = 1e-9
_ANCHOR = 64  # blocklengths; a binary row grows by Pascal's rule from Loader's column at a multiple of this

__all__ = [
    "InformationSpectrum",
    "iid_spectrum",
    "markov_spectrum_exact",
    "markov_spectrum_mc",
    "ccdf",
    "cdf_values",
    "mean_info",
    "var_info",
]


def count_times_pstring(count: int, info: float) -> float:
    """count * 2^(-info), robust when either factor over/underflows a double."""
    if count <= 0:
        return 0.0
    if count.bit_length() <= 53 and info <= 1000.0:
        return count * 2.0 ** (-info)
    lp = math.log2(count) - info
    if lp < -1080.0:
        return 0.0
    return 2.0 ** lp


def _query_tol(x: float) -> float:
    return 1e-12 * max(1.0, abs(x))


class InformationSpectrum:
    """Sorted surprisal masses (value bits, probability, exact string count).

    Fixed at construction but for the cumulative counts that rank cuts read: a
    prefix from the first count, doubled until it covers the cut, so a cut short
    of the middle of the masses never sums the rest.  A growth replaces the whole
    prefix tuple, never mutating one, so concurrent readers see a correct prefix.
    """

    __slots__ = ("infos", "probs", "counts", "n", "exact", "sample_size", "suffix_probs", "total_count", "_prefix")

    def __init__(self, infos: Sequence[float], probs: Sequence[float], counts: Sequence[int], n: int, exact: bool,
                 sample_size: int = 0):
        try:
            counts_t = tuple(map(operator.index, counts))
            if counts_t and min(counts_t) < 1:
                raise ValueError
        except (TypeError, ValueError):
            raise DistributionError("mass counts must be positive integers") from None
        self._fill(infos, probs, counts_t, sum(counts_t), n, exact, sample_size)

    @classmethod
    def _built(cls, infos, probs, counts: tuple, total: int, n: int, exact: bool, sample_size: int = 0):
        """A spectrum from counts its constructor built: a tuple of ints >= 1 that sum to ``total``."""
        spec = cls.__new__(cls)
        spec._fill(infos, probs, counts, total, n, exact, sample_size)
        return spec

    def _fill(self, infos, probs, counts: tuple, total: int, n: int, exact: bool, sample_size: int) -> None:
        infos_arr = np.asarray(infos, dtype=np.float64)
        probs_arr = np.asarray(probs, dtype=np.float64)
        if not (len(infos_arr) == len(probs_arr) == len(counts)) or len(infos_arr) == 0:
            raise DistributionError("spectrum needs equal-length, nonempty mass arrays")
        if np.any(np.diff(infos_arr) <= 0.0):
            raise DistributionError("surprisal values must be strictly increasing")
        infos_arr.setflags(write=False)
        probs_arr.setflags(write=False)
        self.infos, self.probs, self.counts, self.total_count = infos_arr, probs_arr, counts, total
        self._prefix = counts[:1]  # cumulative counts, grown by rank cuts
        self.n, self.exact, self.sample_size = int(n), bool(exact), int(sample_size)
        self.suffix_probs = np.append(_compensated_cumsum(probs_arr[::-1])[::-1], 0.0)
        self.suffix_probs.setflags(write=False)
        total_prob = float(self.suffix_probs[0])
        if not abs(total_prob - 1.0) <= PROB_CHECK_TOL:  # NaN fails too
            raise DistributionError(f"mass probabilities sum to {total_prob!r}")

    def __len__(self) -> int:
        return len(self.counts)

    def _prefix_through(self, rank: int) -> tuple:
        """Cumulative counts, doubled from the cached prefix until they reach ``rank`` or the last mass."""
        prefix = self._prefix
        while prefix[-1] < rank and len(prefix) < len(self.counts):
            grown = itertools.accumulate(self.counts[len(prefix) : 2 * len(prefix)], initial=prefix[-1])
            prefix = (*prefix[:-1], *grown)
            self._prefix = prefix
        return prefix

    def locate(self, rank: int) -> tuple[int, int]:
        """(i, strings in masses 0..i) for the mass i that holds the string of ``rank``, 1 <= rank <= total_count."""
        prefix = self._prefix_through(rank)
        i = bisect_left(prefix, rank)
        return i, prefix[i]

    @property
    def cum_counts(self) -> tuple:
        return self._prefix_through(self.total_count)

    def require_exact(self, op: str) -> None:
        if not self.exact:
            raise UnsupportedSpectrumError(f"{op} requires an exact spectrum, not Monte-Carlo")


def _finish(infos: np.ndarray, probs: Sequence[float], counts: list, n: int, total: int) -> InformationSpectrum:
    """Exact spectrum from unsorted mass columns: sort by surprisal, then merge.

    Counts are ints >= 1 that sum to ``total``.  A mass joins the current
    group when its surprisal is within MERGE_TOL bits of the group's first
    surprisal.  A merged group takes the ``math.fsum`` of its probabilities
    in sorted order and the exact sum of its counts; a lone mass keeps its
    probability as it is.
    """
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(infos, kind="stable")
    if np.any(order != np.arange(len(order))):  # sorted columns are kept as they are
        infos, probs = infos[order], probs[order]
        counts = list(map(counts.__getitem__, order.tolist()))
    starts = np.ones(len(infos), dtype=bool)
    for i in (np.flatnonzero(np.diff(infos) <= MERGE_TOL) + 1).tolist():  # only these can join
        if starts[i - 1]:
            anchor = infos[i - 1]
        starts[i] = infos[i] - anchor > MERGE_TOL
    if not starts.all():
        firsts = np.flatnonzero(starts).tolist()
        groups = list(zip(firsts, firsts[1:] + [len(starts)]))
        plist = probs.tolist()
        infos, probs = infos[firsts], [math.fsum(plist[a:b]) for a, b in groups]
        counts = [sum(counts[a:b]) for a, b in groups]
    return InformationSpectrum._built(infos, probs, tuple(counts), total, n, exact=True)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


_half_row_cache = (0, [1])  # (n, [C(n, k) for k in 0..n // 2]): the last row built
_binary_row_cache = ((), 0, np.ones(1))  # (law (p, q), n, its masses of row n): the last binary row built


def _binomial_row(n: int) -> list:
    """[C(n, k) for k in 0..n], read-only, its two halves sharing their ints.
    Row n - 1 from the previous call gives row n by Pascal's rule; any other n
    takes the running exact product."""
    global _half_row_cache
    last, half = _half_row_cache
    if last == n - 1:
        prev = half + half[-1:] if n % 2 == 0 else half  # C(n-1, n/2) = C(n-1, n/2 - 1)
        half = [1, *map(operator.add, prev, prev[1:])]
    elif last != n:
        half = [1]
        for k in range(n // 2):
            half.append(half[-1] * (n - k) // (k + 1))
    _half_row_cache = (n, half)
    return half + half[: n + 1 - len(half)][::-1]


def _binary_row(n: int, p: float, q: float) -> np.ndarray:
    """C(n, k) p^k q^(n - k) for k = 0..n: Loader's column at a = n - n mod _ANCHOR ([1.0] at a = 0),
    then Pascal's rule, p row[k - 1] + q row[k], two roundings a row, from the last row built if it is
    one of rows a..n of the same law, so row n is a function of (n, p, q), whatever was built before."""
    global _binary_row_cache
    (law, last, row), anchor = _binary_row_cache, n - n % _ANCHOR
    if law != (p, q) or not anchor <= last <= n:
        last, row = anchor, _binomial_pmf(anchor, p, q) if anchor else np.ones(1)
    for _ in range(last, n):
        row = np.append(q * row, 0.0) + np.append(0.0, p * row)
    _binary_row_cache = ((p, q), n, row)
    return row


def _type_classes(n: int, m: int) -> tuple[np.ndarray, list]:
    """Every composition of n into m parts, one per row, and its exact count
    n!/prod(c_a!) as the product of the binomials C(n - c_0 - ... - c_(a-1), c_a)."""
    triangle = list(itertools.chain.from_iterable(map(_binomial_row, range(n + 1))))  # C(r, c) at r(r+1)/2 + c
    comps, rest, counts = np.zeros((1, 0), dtype=np.int64), np.array([n]), [1]
    for _ in range(m - 1):  # the next letter takes 0..rest of what is left
        width = rest + 1
        row = np.repeat(np.arange(len(rest)), width)
        first = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        rest = rest[row]
        binomials = map(triangle.__getitem__, (rest * (rest + 1) // 2 + first).tolist())
        counts = list(map(operator.mul, map(counts.__getitem__, row.tolist()), binomials))
        comps, rest = np.column_stack([comps[row], first]), rest - first
    return np.column_stack([comps, rest]), counts


def iid_spectrum(dist: FiniteDistribution, n: int) -> InformationSpectrum:
    """Exact spectrum of n independent draws from ``dist``.

    One mass per type class: a class with symbol counts (n_a) has surprisal
    sum(n_a * iota_a), exact string count n!/prod(n_a!), and probability
    n!/prod(n_a!) prod(p_a^n_a) of the law's doubles (``_binary_row`` for two letters, else
    Loader's form).  The number of classes is C(n+|A|-1, |A|-1), which must fit the configured budget.
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    m = len(dist)
    n_classes = math.comb(n + m - 1, m - 1)
    budget = type_class_budget()
    if n_classes > budget:
        raise BudgetExceededError(
            f"{n_classes} type classes exceed budget {budget}",
            suggestion="raise COMPLIMITS_TYPE_CLASS_BUDGET or shorten the blocklength range",
        )
    iotas = [0.0 - math.log2(p) for p in dist.probs]  # 0.0 - x, not -x: a certain symbol costs +0.0 bits
    if m == 1:
        return _finish(np.array([n * iotas[0]]), [1.0], [1], n, 1)
    if n == 1:
        return _finish(np.array(iotas), dist.probs, [1] * m, n, m)
    if m == 2:
        i0, i1 = iotas
        counts = _binomial_row(n)
        k = np.arange(n + 1, dtype=np.float64)
        infos = (n - k) * i0 + k * i1  # one correctly rounded add, as math.fsum of the two products
        probs = _binary_row(n, dist.probs[1], dist.probs[0])
    else:
        comps, counts = _type_classes(n, m)
        infos = np.fromiter(map(math.fsum, zip(*(comps * iotas).T.tolist())), np.float64, len(counts))
        probs = _multinomial_pmf(n, comps, dist.probs)
    return _finish(infos, probs, counts, n, m**n)  # every letter has positive probability


def markov_spectrum_exact(src: MarkovSource, n: int) -> InformationSpectrum:
    """Exact spectrum of n steps of a Markov chain by full path enumeration.

    The surprisal of a path accumulates the initial-state surprisal plus one
    transition surprisal per step (the chain rule); paths of probability zero
    are never generated.  Requires |states|^n within the enumeration budget.
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    m = src.n_states
    budget = enumeration_budget()
    if m ** n > budget:
        raise BudgetExceededError(
            f"{m}^{n} strings exceed enumeration budget {budget}",
            suggestion="raise COMPLIMITS_ENUM_BUDGET or sample with markov_spectrum_mc",
        )
    kern = src.kernel
    init = src.initial_vector()
    infos, probs = [], []
    # iterative DFS: (state, depth, prob, info); 0.0 - x keeps a certain start at +0.0 bits
    stack = [(s, 1, float(init[s]), 0.0 - math.log2(init[s])) for s in range(m - 1, -1, -1) if init[s] > 0.0]
    while stack:
        state, depth, prob, info = stack.pop()
        if depth == n:
            infos.append(info)
            probs.append(prob)
            continue
        for nxt in range(m - 1, -1, -1):
            p = float(kern[state, nxt])
            if p > 0.0:
                stack.append((nxt, depth + 1, prob * p, info - math.log2(p)))
    return _finish(np.array(infos), probs, [1] * len(infos), n, len(infos))


def markov_spectrum_mc(src: MarkovSource, n: int, samples: int, seed: int) -> InformationSpectrum:
    """Empirical spectrum from ``samples`` independent length-n sample paths.

    Deterministic for a fixed seed: one uniform variate is drawn per sample
    per step from a PCG64 stream, in step order.  Each distinct observed
    surprisal becomes one mass with count 1 and probability
    multiplicity/samples.
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    init = src.initial_vector()
    cum_rows = np.cumsum(src.kernel, axis=1)
    cum_rows[:, -1] = 1.0
    init_cum = np.cumsum(init)
    init_cum[-1] = 1.0
    init_info = np.where(init > 0.0, -np.log2(np.where(init > 0.0, init, 1.0)), 0.0)

    rng = np.random.Generator(np.random.PCG64(seed))
    states = np.empty(samples, dtype=np.int64)
    acc = np.zeros(samples, dtype=np.float64)
    initial_step(rng.random(samples), init_cum, init_info, states, acc)
    for _ in range(n - 1):
        markov_step(rng.random(samples), cum_rows, src.surprisal, states, acc)

    values, multiplicity = np.unique(acc, return_counts=True)
    probs = multiplicity / float(samples)
    return InformationSpectrum._built(values, probs, (1,) * len(values), len(values), n, False, samples)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def ccdf(spec: InformationSpectrum, a: float) -> float:
    """P[surprisal >= a] from the compensated suffix sums; 1 at the lightest surprisal, not the float total."""
    i = int(np.searchsorted(spec.infos, a - _query_tol(a), side="left"))
    return float(spec.suffix_probs[i]) if i else 1.0


def cdf_values(spec: InformationSpectrum) -> np.ndarray:
    """P[surprisal <= infos[i]] for every mass i, as compensated prefix sums."""
    return _compensated_cumsum(spec.probs)


def mean_info(spec: InformationSpectrum) -> float:
    """Mean of the spectrum in bits."""
    return math.fsum((spec.probs * spec.infos).tolist())


def var_info(spec: InformationSpectrum) -> float:
    """Variance of the spectrum in bits^2 (two-pass, cancellation-safe)."""
    mu = mean_info(spec)
    return math.fsum((spec.probs * (spec.infos - mu) ** 2).tolist())

