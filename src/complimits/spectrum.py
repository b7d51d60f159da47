"""Information spectra: the distribution of the surprisal of source strings.

For a blocklength-n source the surprisal iota(x^n) = log2(1/P(x^n)) takes
few distinct values compared to the number of strings: under a memoryless
law every permutation of a string carries the same probability, so one mass
per type class (composition) suffices.  Each mass stores its exact string
count as an arbitrary-precision integer, which is what makes rank arithmetic
work at blocklengths in the thousands where counts overflow any float.

Masses are sorted by increasing surprisal, i.e. decreasing per-string
probability.  A mass probability is count * 2^(-surprisal), through log space
only for counts beyond 53 bits or surprisals beyond 1000 bits.  Masses within
1e-12 bits of the first surprisal of their group merge, with ``math.fsum``
over their probabilities, so that counting queries are well defined.  Every
limit reads the excess side, so a spectrum keeps Kahan-compensated suffix
sums; the retained side P[surprisal <= a] is formed on request
(``cdf_values``).
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Iterator, Sequence

import numpy as np

from ._kernels import initial_step, markov_step
from .budgets import enumeration_budget, type_class_budget
from .errors import BudgetExceededError, DistributionError, UnsupportedSpectrumError
from .sources import FiniteDistribution, MarkovSource

MERGE_TOL = 1e-12  # bits; masses closer than this are one mass
PROB_CHECK_TOL = 1e-9

__all__ = [
    "InformationSpectrum",
    "iid_spectrum",
    "markov_spectrum_exact",
    "markov_spectrum_mc",
    "ccdf",
    "cdf_values",
    "count_heavier",
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


def _kahan_prefix(values: np.ndarray) -> np.ndarray:
    """Running compensated prefix sums of a 1-D float array."""
    out = []
    append = out.append
    s = 0.0
    c = 0.0
    for x in values.tolist():
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
        append(s)
    return np.array(out)


def _query_tol(x: float) -> float:
    return 1e-12 * max(1.0, abs(x))


class InformationSpectrum:
    """Sorted surprisal masses (value bits, probability, exact string count).

    Immutable after construction; the suffix probabilities and cumulative
    counts that queries read are built eagerly, so concurrent readers share
    only read-only state.
    """

    __slots__ = (
        "infos",
        "probs",
        "counts",
        "n",
        "exact",
        "sample_size",
        "suffix_probs",
        "cum_counts",
    )

    def __init__(
        self,
        infos: Sequence[float],
        probs: Sequence[float],
        counts: Sequence[int],
        n: int,
        exact: bool,
        sample_size: int = 0,
    ):
        infos_arr = np.asarray(infos, dtype=np.float64)
        probs_arr = np.asarray(probs, dtype=np.float64)
        counts_t = tuple(map(int, counts))
        if not (len(infos_arr) == len(probs_arr) == len(counts_t)) or len(infos_arr) == 0:
            raise DistributionError("spectrum needs equal-length, nonempty mass arrays")
        if np.any(np.diff(infos_arr) <= 0.0):
            raise DistributionError("surprisal values must be strictly increasing")
        if min(counts_t) < 1:
            raise DistributionError("mass counts must be positive integers")
        total = math.fsum(probs_arr.tolist())
        if abs(total - 1.0) > PROB_CHECK_TOL:
            raise DistributionError(f"mass probabilities sum to {total!r}")
        infos_arr.setflags(write=False)
        probs_arr.setflags(write=False)
        self.infos = infos_arr
        self.probs = probs_arr
        self.counts = counts_t
        self.n = int(n)
        self.exact = bool(exact)
        self.sample_size = int(sample_size)

        # past the last nonzero probability the compensated sum stays +0.0
        live = int(np.flatnonzero(probs_arr)[-1]) + 1
        self.suffix_probs = np.zeros(len(probs_arr) + 1)
        self.suffix_probs[:live] = _kahan_prefix(probs_arr[:live][::-1])[::-1]
        self.suffix_probs.setflags(write=False)
        self.cum_counts = tuple(itertools.accumulate(counts_t))

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def total_count(self) -> int:
        return self.cum_counts[-1]

    def require_exact(self, op: str) -> None:
        if not self.exact:
            raise UnsupportedSpectrumError(f"{op} requires an exact spectrum, not Monte-Carlo")

    def per_string_prob(self, index: int) -> float:
        """Probability of one string belonging to mass ``index``."""
        return 2.0 ** (-float(self.infos[index]))

    def self_check(self) -> float:
        """Max relative mismatch between stored probs and count * 2^(-info).

        Masses below the smallest normal double (``sys.float_info.min``) are
        skipped: subnormals carry too few significant bits for a relative
        residual to mean anything.
        """
        worst = 0.0
        for i, c in enumerate(self.counts):
            ref = count_times_pstring(c, float(self.infos[i]))
            p = float(self.probs[i])
            if max(ref, p) >= sys.float_info.min:
                worst = max(worst, abs(ref - p) / max(ref, p))
        return worst


def _finish(infos: np.ndarray, probs: Sequence[float], counts: Sequence[int], n: int) -> InformationSpectrum:
    """Exact spectrum from unsorted mass columns: sort by surprisal, then merge.

    A mass joins the current group when its surprisal is within MERGE_TOL
    bits of the group's first surprisal.  A merged group takes the
    ``math.fsum`` of its probabilities in sorted order and the exact sum of
    its counts; a lone mass keeps its probability as it is.
    """
    order = np.argsort(infos, kind="stable")
    infos, probs = infos[order], np.asarray(probs, dtype=np.float64)[order]
    counts = [counts[i] for i in order.tolist()]
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
    return InformationSpectrum(infos, probs, counts, n=n, exact=True)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to n (iterative)."""
    if parts == 1:
        yield (n,)
        return
    comp = [n] + [0] * (parts - 1)
    while True:
        yield tuple(comp)
        if comp[-1] == n:
            return
        i = 0
        while comp[i] == 0:
            i += 1
        t = comp[i]
        comp[i] = 0
        comp[0] = t - 1
        comp[i + 1] += 1


def _multinomial(n: int, counts: Sequence[int]) -> int:
    coeff = 1
    remaining = n
    for c in counts[:-1]:
        coeff *= math.comb(remaining, c)
        remaining -= c
    return coeff


def iid_spectrum(dist: FiniteDistribution, n: int) -> InformationSpectrum:
    """Exact spectrum of n independent draws from ``dist``.

    One mass per type class: a class with symbol counts (n_a) has surprisal
    sum(n_a * iota_a), exact string count n!/prod(n_a!), and probability
    count * 2^(-surprisal) (``count_times_pstring``).  The number of classes
    is C(n+|A|-1, |A|-1), which must fit the configured budget.
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
        return _finish(np.array([n * iotas[0]]), [1.0], [1], n)
    if n == 1:
        return _finish(np.array(iotas), dist.probs, [1] * m, n)
    if m == 2:
        i0, i1 = iotas
        half = [1]  # C(n, k) for k <= n/2 by the running exact binomial
        for k in range(n // 2):
            half.append(half[-1] * (n - k) // (k + 1))
        counts = half + half[: n + 1 - len(half)][::-1]
        k = np.arange(n + 1, dtype=np.float64)
        infos = (n - k) * i0 + k * i1  # one correctly rounded add, as math.fsum of the two products
    else:
        comps = list(_compositions(n, m))
        counts = [_multinomial(n, comp) for comp in comps]
        infos = np.array([math.fsum(c * it for c, it in zip(comp, iotas)) for comp in comps])
    probs = [count_times_pstring(c, x) for c, x in zip(counts, infos.tolist())]
    return _finish(infos, probs, counts, n)


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
    return _finish(np.array(infos), probs, [1] * len(infos), n)


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
    return InformationSpectrum(
        values, probs, np.ones(len(values), dtype=np.int64), n=n, exact=False, sample_size=samples
    )


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def ccdf(spec: InformationSpectrum, a: float) -> float:
    """P[surprisal >= a], from precomputed compensated suffix sums."""
    i = int(np.searchsorted(spec.infos, a - _query_tol(a), side="left"))
    return float(spec.suffix_probs[i])


def cdf_values(spec: InformationSpectrum) -> np.ndarray:
    """P[surprisal <= infos[i]] for every mass i, as compensated prefix sums."""
    return _kahan_prefix(spec.probs)


def count_heavier(spec: InformationSpectrum, beta: float) -> int:
    """Number of strings with probability strictly greater than 1/beta."""
    spec.require_exact("count_heavier")
    if beta < 1.0:
        raise ValueError("beta must be at least 1")
    level = math.log2(beta)
    i = int(np.searchsorted(spec.infos, level - _query_tol(level), side="left"))
    return spec.cum_counts[i - 1] if i > 0 else 0


def mean_info(spec: InformationSpectrum) -> float:
    """Mean of the spectrum in bits."""
    return math.fsum((spec.probs * spec.infos).tolist())


def var_info(spec: InformationSpectrum) -> float:
    """Variance of the spectrum in bits^2 (two-pass, cancellation-safe)."""
    mu = mean_info(spec)
    return math.fsum((spec.probs * (spec.infos - mu) ** 2).tolist())

