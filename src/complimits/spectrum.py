"""Information spectra: the distribution of the surprisal of source strings.

For a blocklength-n source the surprisal iota(x^n) = log2(1/P(x^n)) takes
few distinct values compared to the number of strings: under a memoryless
law every permutation of a string carries the same probability, so one mass
per type class (composition) suffices.  Each mass stores its exact string
count as an arbitrary-precision integer, which is what makes rank arithmetic
work at blocklengths in the thousands where counts overflow any float.

Masses are sorted by increasing surprisal, i.e. decreasing per-string
probability.  Probabilities are computed in log space and summed with
compensated (exact) summation; masses whose surprisal values coincide within
1e-12 bits are merged so that counting queries are well defined.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._kernels import initial_step, markov_step
from .budgets import Budgets, default_budgets
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
    "count_heavier",
    "count_heavier_eq",
    "quantile",
    "mean_info",
    "var_info",
    "write_csv",
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
    out = np.empty(len(values))
    s = 0.0
    c = 0.0
    for i, x in enumerate(values):
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
        out[i] = s
    return out


def _query_tol(x: float) -> float:
    return 1e-12 * max(1.0, abs(x))


class InformationSpectrum:
    """Sorted surprisal masses (value bits, probability, exact string count).

    Immutable after construction; the cumulative arrays used by queries are
    built eagerly so concurrent readers share only read-only state.
    """

    __slots__ = (
        "infos",
        "probs",
        "counts",
        "n",
        "exact",
        "sample_size",
        "cum_probs",
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
        counts_t = tuple(int(c) for c in counts)
        if not (len(infos_arr) == len(probs_arr) == len(counts_t)) or len(infos_arr) == 0:
            raise DistributionError("spectrum needs equal-length, nonempty mass arrays")
        if np.any(np.diff(infos_arr) <= 0.0):
            raise DistributionError("surprisal values must be strictly increasing")
        if any(c < 1 for c in counts_t):
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

        self.cum_probs = _kahan_prefix(probs_arr)
        self.suffix_probs = np.concatenate([_kahan_prefix(probs_arr[::-1])[::-1], [0.0]])
        self.cum_probs.setflags(write=False)
        self.suffix_probs.setflags(write=False)
        cc = []
        run = 0
        for c in counts_t:
            run += c
            cc.append(run)
        self.cum_counts = tuple(cc)

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
        """Max relative mismatch between stored probs and count * 2^(-info)."""
        worst = 0.0
        for i, c in enumerate(self.counts):
            ref = count_times_pstring(c, float(self.infos[i]))
            p = float(self.probs[i])
            if max(ref, p) > 0.0:
                worst = max(worst, abs(ref - p) / max(ref, p))
        return worst


def _merge_masses(raw: Iterable[tuple[float, float, int]], n: int, exact: bool, sample_size: int = 0) -> InformationSpectrum:
    """Sort raw (info, prob, count) triples and merge values within 1e-12 bits."""
    triples = sorted(raw, key=lambda t: t[0])
    infos: list[float] = []
    probs_groups: list[list[float]] = []
    counts: list[int] = []
    for info, prob, count in triples:
        if infos and info - infos[-1] <= MERGE_TOL:
            probs_groups[-1].append(prob)
            counts[-1] += count
        else:
            infos.append(info)
            probs_groups.append([prob])
            counts.append(count)
    probs = [math.fsum(g) for g in probs_groups]
    return InformationSpectrum(infos, probs, counts, n=n, exact=exact, sample_size=sample_size)


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


def iid_spectrum(dist: FiniteDistribution, n: int, budget: Budgets | None = None) -> InformationSpectrum:
    """Exact spectrum of n independent draws from ``dist``.

    One mass per type class: a class with symbol counts (n_a) has surprisal
    sum(n_a * iota_a), exact string count n!/prod(n_a!), and probability
    count * prod(p_a^{n_a}) evaluated in log space.  The number of classes is
    C(n+|A|-1, |A|-1), which must fit the configured budget.
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    budget = budget or default_budgets()
    m = len(dist)
    n_classes = math.comb(n + m - 1, m - 1)
    if n_classes > budget.type_classes:
        raise BudgetExceededError(
            f"{n_classes} type classes exceed budget {budget.type_classes}",
            suggestion="raise COMPLIMITS_TYPE_CLASS_BUDGET or sample with markov_spectrum_mc",
        )
    iotas = [-math.log2(p) for p in dist.probs]

    def masses() -> Iterator[tuple[float, float, int]]:
        if m == 1:
            yield (n * iotas[0], 1.0, 1)
            return
        if n == 1:
            for p, iota in zip(dist.probs, iotas):
                yield (iota, p, 1)
            return
        if m == 2:
            i0, i1 = iotas
            count = 1  # running exact binomial coefficient C(n, k)
            for k in range(n + 1):
                info = math.fsum(((n - k) * i0, k * i1))
                yield (info, count_times_pstring(count, info), count)
                count = count * (n - k) // (k + 1)
            return
        for comp in _compositions(n, m):
            count = _multinomial(n, comp)
            info = math.fsum(c * it for c, it in zip(comp, iotas))
            yield (info, count_times_pstring(count, info), count)

    return _merge_masses(masses(), n=n, exact=True)


def markov_spectrum_exact(src: MarkovSource, n: int, budget: Budgets | None = None) -> InformationSpectrum:
    """Exact spectrum of n steps of a Markov chain by full path enumeration.

    The surprisal of a path accumulates the initial-state surprisal plus one
    transition surprisal per step (the chain rule); paths of probability zero
    are never generated.  Requires |states|^n within the enumeration budget.
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    budget = budget or default_budgets()
    m = src.n_states
    if m ** n > budget.enumeration:
        raise BudgetExceededError(
            f"{m}^{n} strings exceed enumeration budget {budget.enumeration}",
            suggestion="raise COMPLIMITS_ENUM_BUDGET or sample with markov_spectrum_mc",
        )
    kern = src.kernel
    init = src.initial_vector()
    raw: list[tuple[float, float, int]] = []
    # iterative DFS: (state, depth, prob, info)
    stack = [(s, 1, float(init[s]), -math.log2(init[s])) for s in range(m - 1, -1, -1) if init[s] > 0.0]
    while stack:
        state, depth, prob, info = stack.pop()
        if depth == n:
            raw.append((info, prob, 1))
            continue
        for nxt in range(m - 1, -1, -1):
            p = float(kern[state, nxt])
            if p > 0.0:
                stack.append((nxt, depth + 1, prob * p, info - math.log2(p)))
    return _merge_masses(raw, n=n, exact=True)


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
    kern = src.kernel
    init = src.initial_vector()

    cum_rows = np.cumsum(kern, axis=1)
    cum_rows[:, -1] = 1.0
    with np.errstate(divide="ignore"):
        info_rows = np.where(kern > 0.0, -np.log2(np.where(kern > 0.0, kern, 1.0)), 0.0)
    init_cum = np.cumsum(init)
    init_cum[-1] = 1.0
    init_info = np.where(init > 0.0, -np.log2(np.where(init > 0.0, init, 1.0)), 0.0)

    cum_rows = np.ascontiguousarray(cum_rows)
    info_rows = np.ascontiguousarray(info_rows)
    init_cum = np.ascontiguousarray(init_cum)
    init_info = np.ascontiguousarray(init_info)

    rng = np.random.Generator(np.random.PCG64(seed))
    states = np.empty(samples, dtype=np.int64)
    acc = np.zeros(samples, dtype=np.float64)
    initial_step(rng.random(samples), init_cum, init_info, states, acc)
    for _ in range(n - 1):
        markov_step(rng.random(samples), cum_rows, info_rows, states, acc)

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


def _count_below(spec: InformationSpectrum, bound: float) -> int:
    i = int(np.searchsorted(spec.infos, bound, side="left"))
    return spec.cum_counts[i - 1] if i > 0 else 0


def count_heavier(spec: InformationSpectrum, beta: float) -> int:
    """Number of strings with probability strictly greater than 1/beta."""
    spec.require_exact("count_heavier")
    if beta < 1.0:
        raise ValueError("beta must be at least 1")
    level = math.log2(beta)
    return _count_below(spec, level - _query_tol(level))


def count_heavier_eq(spec: InformationSpectrum, beta: float) -> int:
    """Number of strings with probability greater than or equal to 1/beta."""
    spec.require_exact("count_heavier_eq")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    level = math.log2(beta)
    return _count_below(spec, level + _query_tol(level))


def count_heavier_at_level(spec: InformationSpectrum, level_bits: float) -> int:
    """Strict-count variant taking the threshold directly in bits."""
    spec.require_exact("count_heavier_at_level")
    return _count_below(spec, level_bits - _query_tol(level_bits))


def quantile(spec: InformationSpectrum, p: float) -> float:
    """Smallest surprisal value where the CDF reaches (or jumps past) p.

    Follows the staircase convention: if the CDF attains p on a plateau the
    left endpoint of the plateau is returned; if p falls inside a jump, the
    jump location is returned.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("quantile order must lie in (0, 1]")
    i = int(np.searchsorted(spec.cum_probs, p - 1e-12, side="left"))
    if i >= len(spec.cum_probs):
        i = len(spec.cum_probs) - 1
    return float(spec.infos[i])


def mean_info(spec: InformationSpectrum) -> float:
    """Mean of the spectrum in bits."""
    return math.fsum((spec.probs * spec.infos).tolist())


def var_info(spec: InformationSpectrum) -> float:
    """Variance of the spectrum in bits^2 (two-pass, cancellation-safe)."""
    mu = mean_info(spec)
    return math.fsum((spec.probs * (spec.infos - mu) ** 2).tolist())


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def write_csv(spec: InformationSpectrum, path: str) -> None:
    """CSV of masses plus a JSON sidecar recording exactness and blocklength."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("info_value_bits,probability,count\n")
        for info, prob, count in zip(spec.infos, spec.probs, spec.counts):
            fh.write(f"{float(info)!r},{float(prob)!r},{count}\n")
    sidecar = {
        "n": spec.n,
        "exact": spec.exact,
        "sample_size": spec.sample_size,
        "mass_count": len(spec),
        "total_string_count": str(spec.total_count),
    }
    with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
