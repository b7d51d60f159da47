"""Source models and their information moments.

A source is either memoryless (a probability mass function on a finite
alphabet; geometric and Poisson laws are truncated when built) or a
finite-state Markov chain.  Everything downstream is driven by the
per-outcome surprisal iota(x) = log2(1/P(x)), so this module also computes
its moments: entropy, varentropy (the variance of the surprisal), the third
centered absolute moment, and their per-step rates for Markov chains.

All logarithms are base 2; moments are in bits, bits^2 and bits^3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConvergenceError, DistributionError, StructuralError

PROB_SUM_TOL = 1e-12
ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
MAX_SUPPORT = 10_000_000  # symbols a truncated countable law may keep

__all__ = [
    "FiniteDistribution",
    "MarkovSource",
    "entropy",
    "varentropy",
    "third_abs_moment",
    "stationary_distribution",
    "markov_entropy_rate",
    "markov_varentropy_rate",
    "bernoulli",
    "uniform_distribution",
    "binomial_distribution",
    "geometric_distribution",
    "poisson_distribution",
    "iid_kernel",
    "load_source",
    "SourceSpec",
]


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability mass function on a finite, ordered alphabet.

    Zero-probability symbols are dropped at construction so the surprisal is
    never evaluated at zero mass.  Probabilities must be nonnegative and sum
    to 1 within 1e-12; at least one must be strictly positive.
    """

    symbols: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.symbols) != len(self.probs):
            raise DistributionError("symbols and probs must have equal length")
        if len(set(self.symbols)) != len(self.symbols):
            raise DistributionError("symbols must be distinct")
        kept_s, kept_p = [], []
        for s, p in zip(self.symbols, self.probs):
            p = float(p)
            if not math.isfinite(p) or p < 0.0:
                raise DistributionError(f"invalid probability {p!r} for symbol {s!r}")
            if p > 0.0:
                kept_s.append(s)
                kept_p.append(p)
        if not kept_p:
            raise DistributionError("distribution has no positive mass")
        total = math.fsum(kept_p)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DistributionError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "symbols", tuple(kept_s))
        object.__setattr__(self, "probs", tuple(kept_p))

    @classmethod
    def from_probs(cls, probs: Sequence[float], symbols: Sequence | None = None) -> "FiniteDistribution":
        if symbols is None:
            symbols = tuple(range(len(probs)))
        return cls(tuple(symbols), tuple(probs))

    def __len__(self) -> int:
        return len(self.probs)

    def prob_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)


def _truncated(pmf: Callable[[int], float], tail_bound: float, name: str) -> FiniteDistribution:
    """Finite law on k = 0, 1, ... holding at least 1 - tail_bound of a countable one.

    With the default tail_bound of 1e-12 the kept masses already satisfy the
    normalization invariant and the dropped tail sits far below display
    precision; a fatter tail forces a renormalization.
    """
    probs = []
    cum = 0.0
    k = 0
    while cum < 1.0 - tail_bound:
        p = float(pmf(k))
        if p < 0.0:
            raise DistributionError(f"pmf({k}) is negative")
        probs.append(p)
        cum += p
        k += 1
        if k > MAX_SUPPORT:
            raise DistributionError(
                f"truncation of {name} did not reach 1 - {tail_bound} within {MAX_SUPPORT} symbols"
            )
    deficit = 1.0 - math.fsum(probs)
    if deficit > PROB_SUM_TOL:
        # keep exact masses whenever allowed; renormalize only when the
        # configured tail is too fat for the normalization invariant
        probs = [p / (1.0 - deficit) for p in probs]
    return FiniteDistribution.from_probs(probs)


def geometric_distribution(q: float, tail_bound: float = 1e-12) -> FiniteDistribution:
    """Geometric law P(k) = q * (1-q)^k on k = 0, 1, 2, ..., truncated to 1 - tail_bound."""
    if not 0.0 < q < 1.0:
        raise DistributionError("geometric parameter must lie in (0, 1)")
    return _truncated(lambda k: q * (1.0 - q) ** k, tail_bound, f"geometric({q})")


def poisson_distribution(lam: float, tail_bound: float = 1e-12) -> FiniteDistribution:
    """Poisson law with mean lam on k = 0, 1, 2, ..., truncated to 1 - tail_bound."""
    if lam <= 0.0:
        raise DistributionError("poisson parameter must be positive")

    def pmf(k: int) -> float:
        return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))

    return _truncated(pmf, tail_bound, f"poisson({lam})")


def bernoulli(p: float) -> FiniteDistribution:
    """Two-symbol distribution (1-p, p) on symbols (0, 1)."""
    return FiniteDistribution.from_probs((1.0 - p, p))


def uniform_distribution(m: int) -> FiniteDistribution:
    """Equiprobable distribution on m symbols."""
    if m < 1:
        raise DistributionError("support size must be at least 1")
    return FiniteDistribution.from_probs((1.0 / m,) * m)


def binomial_distribution(n_trials: int, p: float) -> FiniteDistribution:
    """Number of successes in n_trials independent trials of bias p.

    Masses are computed from exact integer binomial coefficients in log space,
    so even n_trials = 10_000 is safe; outcomes whose probability underflows
    double precision carry no representable mass and are dropped.
    """
    if n_trials < 1:
        raise DistributionError("n_trials must be at least 1")
    if not 0.0 < p < 1.0:
        raise DistributionError("bias must lie in (0, 1)")
    l2p, l2q = math.log2(p), math.log2(1.0 - p)
    coeff = 1  # running exact binomial coefficient
    symbols, probs = [], []
    for k in range(n_trials + 1):
        lp = math.log2(coeff) + k * l2p + (n_trials - k) * l2q
        if lp > -1074.0:
            symbols.append(k)
            probs.append(2.0 ** lp)
        coeff = coeff * (n_trials - k) // (k + 1)
    return FiniteDistribution(tuple(symbols), tuple(probs))


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


@dataclass(frozen=True)
class MarkovSource:
    """Finite-state Markov chain, one row of transition probabilities per state.

    A chain of order k >= 2 is represented in the usual first-order form on
    the expanded state alphabet of k-blocks.
    The kernel must be row-stochastic within 1e-12 and irreducible; periodic
    chains (deterministic cycles, say) are allowed.

    The chain owns the two tables that its rates, spectra and sampler read:
    the stationary law ``pi``, solved once on first use, and the
    per-transition surprisal table ``surprisal``.  Both are read-only and
    cached on the instance.

    ``initial=None`` selects the stationary law.
    """

    kernel: np.ndarray
    initial: FiniteDistribution | None = None
    states: tuple = ()

    def __post_init__(self):
        kern = np.array(self.kernel, dtype=np.float64)
        if kern.ndim != 2 or kern.shape[0] != kern.shape[1]:
            raise StructuralError("kernel must be a square matrix")
        if np.any(kern < 0.0) or not np.all(np.isfinite(kern)):
            raise StructuralError("kernel entries must be finite and nonnegative")
        rows = kern.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > ROW_SUM_TOL):
            raise StructuralError("kernel rows must sum to 1 within 1e-12")
        if not _strongly_connected(kern > 0.0):
            raise StructuralError("chain is reducible (state graph not strongly connected)")
        kern.setflags(write=False)
        object.__setattr__(self, "kernel", kern)
        states = self.states if self.states else tuple(range(kern.shape[0]))
        if len(states) != kern.shape[0]:
            raise StructuralError("states must label every row of the kernel")
        object.__setattr__(self, "states", states)
        if self.initial is not None:
            for s in self.initial.symbols:
                if s not in states:
                    raise StructuralError(f"initial law names unknown state {s!r}")

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
        """Initial state probabilities, defaulting to the stationary law."""
        if self.initial is None:
            return self.pi
        lookup = {s: i for i, s in enumerate(self.states)}
        vec = np.zeros(self.n_states)
        for s, p in zip(self.initial.symbols, self.initial.probs):
            vec[lookup[s]] = p
        return vec


def iid_kernel(dist: FiniteDistribution) -> MarkovSource:
    """Chain whose every row equals ``dist`` (memoryless in Markov clothing)."""
    row = dist.prob_array()
    kern = np.tile(row, (len(row), 1))
    return MarkovSource(kern, initial=dist, states=tuple(dist.symbols))


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


def stationary_distribution(src: MarkovSource) -> FiniteDistribution:
    """Unique stationary law of an irreducible chain, pi with pi P = pi."""
    return FiniteDistribution(tuple(src.states), tuple(src.pi))


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


def load_source(doc: Union[str, dict]) -> SourceSpec:
    """Build a source from its JSON description.

    Accepted forms::

        {"type": "memoryless", "probs": [...], "symbols": [...]?}
        {"type": "markov", "kernel": [[...]], "initial": [...]?, "states": [...]?}
        {"type": "geometric", "param": q, "tail_bound": t?}
        {"type": "poisson", "param": lam, "tail_bound": t?}
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise DistributionError(f"invalid source JSON: {exc}") from exc
    if not isinstance(doc, dict) or "type" not in doc:
        raise DistributionError("source description must be an object with a 'type' key")
    kind = doc["type"]
    try:
        if kind == "memoryless":
            return FiniteDistribution.from_probs(doc["probs"], doc.get("symbols"))
        if kind == "markov":
            initial = None
            if doc.get("initial") is not None:
                states = doc.get("states")
                initial = FiniteDistribution.from_probs(doc["initial"], states)
            return MarkovSource(
                np.asarray(doc["kernel"], dtype=np.float64),
                initial=initial,
                states=tuple(doc["states"]) if doc.get("states") else (),
            )
        if kind == "geometric":
            return geometric_distribution(float(doc["param"]), float(doc.get("tail_bound", 1e-12)))
        if kind == "poisson":
            return poisson_distribution(float(doc["param"]), float(doc.get("tail_bound", 1e-12)))
    except KeyError as exc:
        raise DistributionError(f"source description missing field {exc}") from exc
    raise DistributionError(f"unknown source type {kind!r}")
