"""Source models and their information moments.

A source is either memoryless (a probability mass function on a finite
alphabet; geometric and Poisson laws are truncated when built) or a
finite-state Markov chain.  A source is its probabilities: outcomes and
states carry no labels, since every limit is a function of the per-outcome
surprisal iota(x) = log2(1/P(x)) alone.  This module also computes the
surprisal's moments: entropy, varentropy (the variance of the surprisal),
the third centered absolute moment, and their per-step rates for Markov
chains.

All logarithms are base 2; moments are in bits, bits^2 and bits^3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import ConvergenceError, DistributionError, StructuralError

PROB_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
MAX_SUPPORT = 10_000_000  # symbols a truncated countable law may keep

__all__ = [
    "FiniteDistribution",
    "MarkovSource",
    "entropy",
    "varentropy",
    "third_abs_moment",
    "markov_entropy_rate",
    "markov_varentropy_rate",
    "bernoulli",
    "binomial_distribution",
    "geometric_distribution",
    "poisson_distribution",
    "load_source",
    "SourceSpec",
]


def _stochastic(values, ndim: int, what: str, error: type[Exception]) -> np.ndarray:
    """``values`` as a read-only float64 array with ``ndim`` axes, once every
    entry is finite and nonnegative and every last-axis row sums to 1 within 1e-12."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise error(f"{what} must be a {('vector', 'matrix')[ndim - 1]} of numbers")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise error(f"{what} must be finite and nonnegative")
    for row in np.atleast_2d(arr):
        total = math.fsum(row)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise error(f"{what} sum to {total!r}, not 1 within 1e-12")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability mass function: one probability per outcome, in order.

    Probabilities must be finite, nonnegative and sum to 1 within 1e-12.
    Zero-probability entries are dropped at construction so the surprisal is
    never evaluated at zero mass.
    """

    probs: tuple

    def __post_init__(self):
        probs = _stochastic(self.probs, 1, "probabilities", DistributionError)
        object.__setattr__(self, "probs", tuple(p for p in probs.tolist() if p > 0.0))

    def __len__(self) -> int:
        return len(self.probs)

    def prob_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)


def _truncated(
    pmf: Callable[[np.ndarray], np.ndarray], tail_bound: float, name: str, needed: Callable[[float], float], exact: bool
) -> FiniteDistribution:
    """Finite law on k = 0, 1, ... holding at least 1 - tail_bound of a countable one.

    ``pmf`` maps a column of symbols to their masses.  ``needed(tail_bound)``
    counts the symbols that takes, exactly if ``exact`` (a closed form), else
    as a lower bound with a compensated sum of doubling blocks of masses deciding.
    A law past MAX_SUPPORT is rejected before its pmf runs.  With the default
    tail_bound of 1e-12 the kept masses satisfy the normalization invariant; a
    fatter tail forces a renormalization.
    """
    if not 0.0 < tail_bound < 1.0:
        raise DistributionError(f"tail_bound must lie in (0, 1), not {tail_bound!r}")
    at_least = needed(tail_bound)
    if at_least > MAX_SUPPORT:
        raise DistributionError(
            f"truncation of {name} to 1 - {tail_bound} needs at least {at_least:.0f} symbols, more than {MAX_SUPPORT}"
        )
    probs, reached = (pmf(np.arange(math.ceil(at_least))), [math.ceil(at_least) - 1]) if exact else (np.zeros(0), [])
    while not len(reached):
        if len(probs) == MAX_SUPPORT:
            raise DistributionError(f"truncation of {name} did not reach 1 - {tail_bound} within {MAX_SUPPORT} symbols")
        probs = np.append(probs, pmf(np.arange(len(probs), min(2 * len(probs) + 1024, MAX_SUPPORT))))
        reached = np.flatnonzero(_compensated_cumsum(probs) >= 1.0 - tail_bound)
    probs = probs[: reached[0] + 1].tolist()
    deficit = 1.0 - math.fsum(probs)
    if abs(deficit) > PROB_SUM_TOL:
        # keep exact masses whenever allowed; renormalize only when the tail is
        # too fat, or the rounded masses too heavy, for the normalization invariant
        probs = [p / (1.0 - deficit) for p in probs]
    return FiniteDistribution(probs)


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Prefix sums of ``x`` as the float cumsum s plus the cumsum of its
    rounding errors, each exact by TwoSum (Ogita, Rump & Oishi, "Accurate Sum
    and Dot Product", 2005): as if summed in twice the precision, then rounded."""
    s = np.cumsum(x)
    before = np.concatenate(([0.0], s[:-1]))
    with np.errstate(invalid="ignore"):  # an infinite x leaves NaN errors, and so a NaN total
        moved = s - before
        return s + np.cumsum((before - (s - moved)) + (x - moved))


def geometric_distribution(q: float, tail_bound: float = 1e-12) -> FiniteDistribution:
    """Geometric law P(k) = q * (1-q)^k on k = 0, 1, 2, ..., truncated to 1 - tail_bound."""
    if not 0.0 < q < 1.0:
        raise DistributionError("geometric parameter must lie in (0, 1)")
    # the first k symbols hold 1 - (1-q)^k, so the cut is a closed form; each
    # mass goes through log1p(-q), since fl(1-q)^k would carry the rounding of
    # 1 - q k times (about 1e-10 relative at q = 1e-5)
    log_keep = math.log1p(-q)
    return _truncated(
        lambda k: q * np.fromiter(map(math.exp, (k * log_keep).tolist()), np.float64, len(k)),
        tail_bound, f"geometric({q})", lambda t: math.log(t) / log_keep, True,
    )


def poisson_distribution(lam: float, tail_bound: float = 1e-12) -> FiniteDistribution:
    """Poisson law with mean lam on k = 0, 1, 2, ..., truncated to 1 - tail_bound."""
    if lam <= 0.0:
        raise DistributionError("poisson parameter must be positive")

    def pmf(k: np.ndarray) -> np.ndarray:
        # Loader's form (exp(k log lam - lam - log k!) loses about k log2(lam) ulps to cancellation); every
        # mass below lam - sqrt(2 * 746 lam) is under e^-746 < 2^-1075 (Chernoff), so leads the ascending k as 0
        live = k[k >= lam - math.sqrt(2 * 746 * lam)]
        k1 = np.maximum(live, 1)
        masses = np.exp(-_stirlerr(k1) - _bd0(k1, lam)) / np.sqrt(math.tau * k1)
        return np.append(np.zeros(len(k) - len(live)), np.where(live == 0, math.exp(-lam), masses))

    def needed(tail_bound: float) -> float:
        a = MAX_SUPPORT - 1  # Chernoff, for a < lam: P(k <= a) <= exp(a - lam) * (lam / a)^a
        return MAX_SUPPORT + 1 if lam > a and a - lam + a * math.log(lam / a) < math.log1p(-tail_bound) else 0

    return _truncated(pmf, tail_bound, f"poisson({lam})", needed, False)


# log k! - log(sqrt(2 pi k) (k/e)^k) for k = 1..15, correctly rounded (index 0 unused)
_STIRLERR_EXACT = np.array((
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
))


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """Stirling's error log k! - log(sqrt(2 pi k) (k/e)^k) for integers k >= 1:
    a table to k = 15, beyond it the series 1/(12k) - 1/(360k^3) + ... to five
    terms (Loader, "Fast and Accurate Computation of Binomial Probabilities",
    2000).  The first dropped term, 691/(360360 k^11), is below 1.1e-16 from
    k = 16 on, so it moves a mass, exp of minus this sum, by under one ulp."""
    kf = np.maximum(k, 16).astype(np.float64)  # the series where it is read
    kk = kf * kf
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / kf
    return np.where(k <= 15, _STIRLERR_EXACT[np.minimum(k, 15)], series)


_stirlerr_table = _STIRLERR_EXACT  # stirlerr(k) at index k, grown by doubling and shared across n


def _stirlerr_upto(n: int) -> np.ndarray:
    """stirlerr(k) for k = 0..n at least (0 at k = 0), each entry a function of k alone."""
    global _stirlerr_table
    size = len(_stirlerr_table)
    if size <= n:
        _stirlerr_table = np.concatenate((_stirlerr_table, _stirlerr(np.arange(size, max(n + 1, 2 * size)))))
    return _stirlerr_table


def _bd0(k: np.ndarray, lam: float) -> np.ndarray:
    """k log(k / lam) + lam - k for k >= 0 (lam at k = 0), the deviance term of Loader's form.
    Where |k - lam| < (k + lam) / 10 it is summed as (k - lam) v + 2k v^3 S
    with v = (k - lam)/(k + lam) and S = sum_{j>=0} v^(2j) / (2j + 3), by
    Horner to the first power of v^2 below 2^-54: as v^2 < 0.01, the second
    part is under 7% of the first."""
    with np.errstate(over="ignore"):  # k / lam past the doubles, where the mass is 0
        out = k * np.log(k / lam, out=np.zeros(len(k)), where=k > 0) + lam - k
    near = np.abs(k - lam) < 0.1 * (k + lam)
    k = k[near]
    v = (k - lam) / (k + lam)
    v2 = v * v
    top = float(v2.max(initial=0.0))
    terms = math.ceil(54 / -math.log2(top)) if top else 1  # top^terms <= 2^-54
    series = np.full_like(v2, 1 / (2 * terms + 1))
    for j in range(terms - 1, 0, -1):
        series = series * v2 + 1 / (2 * j + 1)
    out[near] = (k - lam) * v + 2.0 * k * v * v2 * series
    return out


def _multinomial_pmf(n: int, comps: np.ndarray, probs) -> np.ndarray:
    """n!/prod(c_a!) prod(p_a^c_a) for each row c of ``comps``, compositions of n, by Loader's form
    exp(stirlerr(n) - sum_{c_a > 0} stirlerr(c_a) - sum_a bd0(c_a, n p_a) + n (sum(p) - 1)) times
    sqrt(n / ((2 pi)^(m' - 1) prod_{c_a > 0} c_a)), m' the letters with c_a > 0; the n (sum(p) - 1)
    term makes it the law of the doubles p_a, which need not sum to 1."""
    table = _stirlerr_upto(n)
    exponent = np.full(len(comps), table[n] + n * math.fsum((*probs, -1.0)))  # stirlerr(0) = 0
    square = np.full(len(comps), 1 / (math.tau * n))  # of the divisor, (2 pi)^(m' - 1) prod_{c_a > 0} c_a / n
    for c, p in zip(comps.T, probs):
        exponent -= table[c] + _bd0(c, n * p)
        square *= np.where(c > 0, math.tau * c, 1.0)
    return np.exp(exponent, out=exponent) / np.sqrt(square, out=square)


def _binomial_pmf(n: int, p: float, q: float) -> np.ndarray:
    """C(n, k) p^k q^(n - k) for k = 0..n: ``_multinomial_pmf`` of the law (q, p)."""
    return _multinomial_pmf(n, np.column_stack((np.arange(n, -1, -1), np.arange(n + 1))), (q, p))


def bernoulli(p: float) -> FiniteDistribution:
    """Two-outcome distribution (1-p, p)."""
    return FiniteDistribution((1.0 - p, p))


def binomial_distribution(n_trials: int, p: float) -> FiniteDistribution:
    """Number of successes in n_trials independent trials of bias p.

    Masses come by Loader's form of the two-letter multinomial (``_binomial_pmf``),
    so even n_trials = 10_000 is safe; outcomes whose probability underflows
    double precision carry no representable mass and are dropped.
    """
    if n_trials < 1:
        raise DistributionError("n_trials must be at least 1")
    if not 0.0 < p < 1.0:
        raise DistributionError("bias must lie in (0, 1)")
    return FiniteDistribution(_binomial_pmf(n_trials, p, 1.0 - p))


def entropy(dist: FiniteDistribution) -> float:
    """H = sum p * log2(1/p) in bits (zero-mass terms contribute nothing)."""
    return math.fsum(-p * math.log2(p) for p in dist.probs)


def varentropy(dist: FiniteDistribution) -> float:
    """Variance of the surprisal, in bits^2.

    Zero exactly when the distribution is equiprobable on its support.
    """
    h = entropy(dist)
    return math.fsum(p * (-math.log2(p) - h) ** 2 for p in dist.probs)


def third_abs_moment(dist: FiniteDistribution) -> float:
    """E|log2(1/p(X)) - H|^3 in bits^3."""
    h = entropy(dist)
    return math.fsum(p * abs(-math.log2(p) - h) ** 3 for p in dist.probs)


# ---------------------------------------------------------------------------
# Markov sources
# ---------------------------------------------------------------------------


def _strongly_connected(adj: np.ndarray) -> bool:
    """Whether every state reaches every other in the directed graph with adjacency adj."""
    m = adj.shape[0]

    def reach(a: np.ndarray) -> bool:
        seen = np.zeros(m, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(a[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return bool(seen.all())

    return reach(adj) and reach(adj.T)


@dataclass(frozen=True, eq=False)
class MarkovSource:
    """Finite-state Markov chain, one row of transition probabilities per state.

    A chain of order k >= 2 is represented in the usual first-order form on
    the expanded state alphabet of k-blocks.
    The kernel must be row-stochastic within 1e-12 and irreducible; periodic
    chains (deterministic cycles, say) are allowed.  ``initial`` gives one
    probability per state in row order; ``None`` selects the stationary law.
    Sources compare by identity.

    The chain owns the two tables that its rates, spectra and sampler read:
    the stationary law ``pi``, solved once on first use, and the
    per-transition surprisal table ``surprisal``.  Both are read-only and
    cached on the instance.
    """

    kernel: np.ndarray
    initial: np.ndarray | None = None

    def __post_init__(self):
        kern = _stochastic(self.kernel, 2, "kernel rows", StructuralError)
        m = kern.shape[0]
        if m == 0 or kern.shape[1] != m:
            raise StructuralError("kernel must be a nonempty square matrix")
        if not _strongly_connected(kern > 0.0):
            raise StructuralError("chain is reducible (state graph not strongly connected)")
        object.__setattr__(self, "kernel", kern)
        if self.initial is not None:
            init = _stochastic(self.initial, 1, "initial probabilities", StructuralError)
            if len(init) != m:
                raise StructuralError(f"initial law needs one probability per state ({m}), not {len(init)}")
            object.__setattr__(self, "initial", init)

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @cached_property
    def pi(self) -> np.ndarray:
        """Stationary law, pi P = pi (read-only)."""
        pi = _stationary_vector(self.kernel)
        pi.setflags(write=False)
        return pi

    @cached_property
    def surprisal(self) -> np.ndarray:
        """Transition surprisal log2(1/P(s'|s)), 0 where s -> s' is impossible (read-only)."""
        kern = self.kernel
        f = np.where(kern > 0.0, -np.log2(np.where(kern > 0.0, kern, 1.0)), 0.0)
        f.setflags(write=False)
        return f

    def initial_vector(self) -> np.ndarray:
        """Initial state probabilities, defaulting to the stationary law (read-only)."""
        return self.pi if self.initial is None else self.initial


def _stationary_vector(kernel: np.ndarray, tol: float = 1e-15, max_iter: int = 500_000) -> np.ndarray:
    """Stationary law by power iteration on the half-lazy kernel (P + I)/2.

    The lazy chain has the same stationary law and is aperiodic whenever the
    original is irreducible, so the iteration converges deterministically.
    """
    m = kernel.shape[0]
    pi = np.full(m, 1.0 / m)
    for _ in range(max_iter):
        nxt = 0.5 * (pi @ kernel + pi)
        if float(np.abs(nxt - pi).sum()) < tol:
            pi = nxt
            break
        pi = nxt
    else:
        raise ConvergenceError("stationary distribution iteration did not converge")
    pi = pi / pi.sum()
    residual = float(np.abs(pi @ kernel - pi).sum())
    if residual > STATIONARY_TOL:
        raise ConvergenceError(f"stationary residual {residual:g} exceeds 1e-12")
    return pi


def markov_entropy_rate(src: MarkovSource) -> float:
    """Entropy rate H = sum_s pi(s) H(row_s) in bits per step."""
    return float(src.pi @ (src.kernel * src.surprisal).sum(axis=1))


def markov_varentropy_rate(src: MarkovSource) -> float:
    """Varentropy rate: limiting Var(iota(X^n))/n, in bits^2 per step.

    It is the stationary autocovariance series of the per-transition
    surprisal f(s, s') = log2(1/P(s'|s)) on the pair chain,

        sigma^2 = Var(f) + 2 * sum_{d >= 1} w . P^(d-1) (u - H),

    with u(s) the expected next-step surprisal from s and w(s') the weights
    sum_s pi(s) P(s'|s) (f(s, s') - H).  The series sums in closed form via the
    fundamental matrix Z = (I - P + 1 pi)^(-1) (Kemeny & Snell, *Finite
    Markov Chains*): sigma^2 = Var(f) + 2 w . Z (u - H).  One linear solve,
    no truncation; on periodic chains Z gives the Cesaro sum of the series.
    """
    kern, pi, f = src.kernel, src.pi, src.surprisal
    u = (kern * f).sum(axis=1)  # expected next-step surprisal from each state
    h = float(pi @ u)
    var0 = float(pi @ (kern * (f - h) ** 2).sum(axis=1))
    w = (pi[:, None] * kern * (f - h)).sum(axis=0)
    fundamental = np.eye(len(pi)) - kern + pi[None, :]
    return var0 + 2.0 * float(w @ np.linalg.solve(fundamental, u - h))


# ---------------------------------------------------------------------------
# JSON source descriptions
# ---------------------------------------------------------------------------

SourceSpec = Union[FiniteDistribution, MarkovSource]


_SOURCE_KEYS = {
    "memoryless": ("probs",),
    "markov": ("kernel", "initial"),
    "geometric": ("param", "tail_bound"),
    "poisson": ("param", "tail_bound"),
}


def load_source(doc: Union[str, dict]) -> SourceSpec:
    """Build a source from its JSON description.

    Accepted forms, with no other keys::

        {"type": "memoryless", "probs": [...]}
        {"type": "markov", "kernel": [[...]], "initial": [...]?}
        {"type": "geometric", "param": q, "tail_bound": t?}
        {"type": "poisson", "param": lam, "tail_bound": t?}

    ``initial`` gives one probability per state in the kernel's row order;
    left out (or null) it is the stationary law.  Every malformed description
    raises :class:`DistributionError` (or :class:`StructuralError` for the
    chain's own structure).
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise DistributionError(f"invalid source JSON: {exc}") from exc
    if not isinstance(doc, dict) or "type" not in doc:
        raise DistributionError("source description must be an object with a 'type' key")
    kind = doc["type"]
    if not isinstance(kind, str) or kind not in _SOURCE_KEYS:
        raise DistributionError(f"unknown source type {kind!r}")
    unknown = [key for key in doc if key != "type" and key not in _SOURCE_KEYS[kind]]
    if unknown:
        raise DistributionError(f"{kind} source has unknown key(s): {', '.join(map(repr, unknown))}")
    try:
        if kind == "memoryless":
            return FiniteDistribution(doc["probs"])
        if kind == "markov":
            return MarkovSource(doc["kernel"], initial=doc.get("initial"))
        law = geometric_distribution if kind == "geometric" else poisson_distribution
        return law(float(doc["param"]), float(doc.get("tail_bound", 1e-12)))
    except KeyError as exc:
        raise DistributionError(f"source description missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DistributionError(f"malformed {kind} source: {exc}") from exc
