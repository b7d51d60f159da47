"""Source models and their information moments.

A source is either memoryless (a probability mass function on a finite
alphabet, possibly obtained by truncating a countable one) or a finite-state
Markov chain.  Everything downstream is driven by the per-outcome surprisal
iota(x) = log2(1/P(x)), so this module also computes its moments: entropy,
varentropy (the variance of the surprisal), the third centered absolute
moment, and their per-step rates for Markov chains.

All logarithms are base 2; moments are in bits, bits^2 and bits^3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConvergenceError, DistributionError, StructuralError

PROB_SUM_TOL = 1e-12
ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12

__all__ = [
    "FiniteDistribution",
    "CountableDistribution",
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
    "as_finite",
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


@dataclass(frozen=True)
class CountableDistribution:
    """Distribution on a countable alphabet, used through a finite truncation.

    ``pmf(k)`` gives the mass of the k-th symbol (k = 0, 1, ...).  The
    truncation keeps at least 1 - tail_bound of the total mass; with the
    default tail_bound of 1e-12 the truncated object still satisfies the
    FiniteDistribution normalization invariant and the dropped tail sits far
    below display precision.  Larger tail bounds force a renormalization.
    """

    pmf: Callable[[int], float]
    tail_bound: float = 1e-12
    name: str = "countable"
    max_support: int = 10_000_000

    def truncate(self) -> FiniteDistribution:
        probs = []
        cum = 0.0
        k = 0
        while cum < 1.0 - self.tail_bound:
            p = float(self.pmf(k))
            if p < 0.0:
                raise DistributionError(f"pmf({k}) is negative")
            probs.append(p)
            cum += p
            k += 1
            if k > self.max_support:
                raise DistributionError(
                    f"truncation of {self.name} did not reach 1 - {self.tail_bound} "
                    f"within {self.max_support} symbols"
                )
        deficit = 1.0 - math.fsum(probs)
        if deficit > PROB_SUM_TOL:
            # keep exact masses whenever allowed; renormalize only when the
            # configured tail is too fat for the normalization invariant
            probs = [p / (1.0 - deficit) for p in probs]
        return FiniteDistribution.from_probs(probs)


def geometric_distribution(q: float, tail_bound: float = 1e-12) -> CountableDistribution:
    """Geometric law P(k) = q * (1-q)^k on k = 0, 1, 2, ..."""
    if not 0.0 < q < 1.0:
        raise DistributionError("geometric parameter must lie in (0, 1)")
    return CountableDistribution(lambda k: q * (1.0 - q) ** k, tail_bound, name=f"geometric({q})")


def poisson_distribution(lam: float, tail_bound: float = 1e-12) -> CountableDistribution:
    """Poisson law with mean lam on k = 0, 1, 2, ..."""
    if lam <= 0.0:
        raise DistributionError("poisson parameter must be positive")

    def pmf(k: int) -> float:
        return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))

    return CountableDistribution(pmf, tail_bound, name=f"poisson({lam})")


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


def _period_and_connectivity(adj: np.ndarray) -> tuple[bool, int]:
    """(strongly_connected, period) of the directed graph with adjacency adj.

    Period is the gcd of d(u) + 1 - d(v) over edges u -> v, with d a BFS
    distance labelling from state 0; meaningful only when strongly connected.
    """
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

    if not (reach(adj) and reach(adj.T)):
        return False, 0

    dist = np.full(m, -1, dtype=np.int64)
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(adj[u])[0]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    for u in range(m):
        for v in np.nonzero(adj[u])[0]:
            g = math.gcd(g, int(dist[u]) + 1 - int(dist[v]))
    return True, abs(g) if g else 1


@dataclass(frozen=True)
class MarkovSource:
    """Finite-state Markov chain, one row of transition probabilities per state.

    A chain of order k >= 2 is represented in the usual first-order form on
    the expanded state alphabet of k-blocks; ``order`` is bookkeeping only.
    The kernel must be row-stochastic within 1e-12 and irreducible.  The
    period is computed at construction; operations that genuinely require
    aperiodicity check ``period == 1`` themselves, because several useful
    degenerate examples (deterministic cycles) are periodic.

    ``initial=None`` selects the stationary law.
    """

    kernel: np.ndarray
    initial: FiniteDistribution | None = None
    order: int = 1
    states: tuple = ()
    period: int = field(init=False, default=1)

    def __post_init__(self):
        kern = np.array(self.kernel, dtype=np.float64)
        if kern.ndim != 2 or kern.shape[0] != kern.shape[1]:
            raise StructuralError("kernel must be a square matrix")
        if self.order < 1:
            raise StructuralError("order must be at least 1")
        if np.any(kern < 0.0) or not np.all(np.isfinite(kern)):
            raise StructuralError("kernel entries must be finite and nonnegative")
        rows = kern.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > ROW_SUM_TOL):
            raise StructuralError("kernel rows must sum to 1 within 1e-12")
        connected, period = _period_and_connectivity(kern > 0.0)
        if not connected:
            raise StructuralError("chain is reducible (state graph not strongly connected)")
        kern.setflags(write=False)
        object.__setattr__(self, "kernel", kern)
        object.__setattr__(self, "period", period)
        states = self.states if self.states else tuple(range(kern.shape[0]))
        if len(states) != kern.shape[0]:
            raise StructuralError("states must label every row of the kernel")
        object.__setattr__(self, "states", states)
        if self.initial is not None:
            for s in self.initial.symbols:
                if s not in states:
                    raise StructuralError(f"initial law names unknown state {s!r}")
        # the initial vector is resolved lazily by initial_vector(), then cached
        object.__setattr__(self, "_init_vec", None)

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    def initial_vector(self) -> np.ndarray:
        """Initial state probabilities, defaulting to the stationary law."""
        cached = getattr(self, "_init_vec")
        if cached is not None:
            return cached
        if self.initial is None:
            vec = _stationary_vector(self.kernel)
        else:
            lookup = {s: i for i, s in enumerate(self.states)}
            vec = np.zeros(self.n_states)
            for s, p in zip(self.initial.symbols, self.initial.probs):
                vec[lookup[s]] = p
        vec.setflags(write=False)
        object.__setattr__(self, "_init_vec", vec)
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
    pi = _stationary_vector(src.kernel)
    return FiniteDistribution(tuple(src.states), tuple(pi))


def markov_entropy_rate(src: MarkovSource) -> float:
    """Entropy rate H = sum_s pi(s) H(row_s) in bits per step."""
    pi = _stationary_vector(src.kernel)
    total = []
    for i in range(src.n_states):
        row = src.kernel[i]
        total.append(pi[i] * math.fsum(-p * math.log2(p) for p in row if p > 0.0))
    return math.fsum(total)


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
    kern = src.kernel
    pi = _stationary_vector(kern)
    with np.errstate(divide="ignore"):
        f = np.where(kern > 0.0, -np.log2(np.where(kern > 0.0, kern, 1.0)), 0.0)
    u = (kern * f).sum(axis=1)  # expected next-step surprisal from each state
    h = float(pi @ u)
    var0 = float(pi @ (kern * (f - h) ** 2).sum(axis=1))
    w = (pi[:, None] * kern * (f - h)).sum(axis=0)
    fundamental = np.eye(len(pi)) - kern + pi[None, :]
    return var0 + 2.0 * float(w @ np.linalg.solve(fundamental, u - h))


# ---------------------------------------------------------------------------
# JSON source descriptions
# ---------------------------------------------------------------------------

SourceSpec = Union[FiniteDistribution, MarkovSource, CountableDistribution]


def load_source(doc: Union[str, dict]) -> SourceSpec:
    """Build a source from its JSON description.

    Accepted forms::

        {"type": "memoryless", "probs": [...], "symbols": [...]?}
        {"type": "markov", "kernel": [[...]], "initial": [...]?, "order": k?}
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
                order=int(doc.get("order", 1)),
                states=tuple(doc["states"]) if doc.get("states") else (),
            )
        if kind == "geometric":
            return geometric_distribution(float(doc["param"]), float(doc.get("tail_bound", 1e-12)))
        if kind == "poisson":
            return poisson_distribution(float(doc["param"]), float(doc.get("tail_bound", 1e-12)))
    except KeyError as exc:
        raise DistributionError(f"source description missing field {exc}") from exc
    raise DistributionError(f"unknown source type {kind!r}")


def as_finite(source: SourceSpec) -> FiniteDistribution:
    """Finite marginal view of a memoryless source (truncating countable ones)."""
    if isinstance(source, FiniteDistribution):
        return source
    if isinstance(source, CountableDistribution):
        return source.truncate()
    raise DistributionError("a Markov source has no single-letter marginal; use its kernel")
