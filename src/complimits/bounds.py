"""Non-asymptotic bounds and Gaussian approximations for the best rate.

Everything here brackets or approximates the exact limit R_star(n, eps) in
terms of the first three surprisal moments (entropy H, varentropy sigma^2,
third absolute central moment mu3):

- the always-valid spectrum-quantile upper bound,
- an optimized information-spectrum converse for the codelength CCDF,
- memoryless achievability and converse bounds with explicit constants,
  valid respectively for all n and for n above an explicit threshold,
- the classical four-term expansion (shipped as a labelled reference curve
  only: its derivation is contested and no validity check is attempted),
- Markov-chain bounds parameterized by a Berry-Esseen constant that theory
  does not make explicit, plus a Monte-Carlo calibrator for it,
- blocklength requirements n_star (approximate and exact).

Bound values are evaluated in double precision; when a stated validity
domain is violated the value is still reported with ``valid=False`` so
sweeps can plot it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .optcode import R_star
from .spectrum import InformationSpectrum, ccdf, markov_spectrum_mc
from .sources import (
    FiniteDistribution,
    MarkovSource,
    entropy,
    markov_entropy_rate,
    markov_varentropy_rate,
    third_abs_moment,
    varentropy,
)

LOG2E = math.log2(math.e)

__all__ = [
    "GaussianParams",
    "BoundReport",
    "CalibrationResult",
    "gaussian_Q",
    "gaussian_Q_inv",
    "gaussian_phi",
    "gaussian_Phi",
    "R_upper_quantile",
    "converse_optimized",
    "codelength_vs_info_check",
    "approx_Rstar",
    "achievability_iid",
    "converse_iid",
    "reference_expansion",
    "markov_achievability",
    "markov_converse",
    "markov_be_calibrate",
    "n_star_approx",
    "n_star_exact",
]


# ---------------------------------------------------------------------------
# Standard normal machinery
# ---------------------------------------------------------------------------


def gaussian_phi(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def gaussian_Phi(x: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_Q(x: float) -> float:
    """Standard normal tail function Q(x) = 1 - Phi(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


_STD_NORMAL = NormalDist()


def gaussian_Q_inv(p: float) -> float:
    """Inverse of the tail function, Q(Q_inv(p)) = p, by the standard library's
    ``NormalDist.inv_cdf`` (Wichura's AS 241); p outside (0, 1) raises ValueError."""
    if not 0.0 < p < 1.0:  # also NaN, which inv_cdf would pass through
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    return -_STD_NORMAL.inv_cdf(p)


# ---------------------------------------------------------------------------
# Parameter and report containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianParams:
    """Surprisal moments feeding the bounds.

    ``be_constant`` is the Berry-Esseen constant of the Markov bounds; theory
    guarantees it exists but not its value, so it is a configuration input
    (see :func:`markov_be_calibrate`).
    """

    H: float
    sigma2: float
    mu3: float
    be_constant: float | None = None

    def __post_init__(self):
        if self.sigma2 < 0.0 or self.mu3 < 0.0:
            raise ValueError("sigma2 and mu3 must be nonnegative")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @classmethod
    def from_distribution(cls, dist: FiniteDistribution, be_constant: float | None = None) -> "GaussianParams":
        return cls(H=entropy(dist), sigma2=varentropy(dist), mu3=third_abs_moment(dist), be_constant=be_constant)

    @classmethod
    def from_markov(cls, src: MarkovSource, be_constant: float | None = None) -> "GaussianParams":
        # mu3 has no role in the Markov bounds; it is set to zero here
        return cls(
            H=markov_entropy_rate(src),
            sigma2=markov_varentropy_rate(src),
            mu3=0.0,
            be_constant=be_constant,
        )


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus its validity verdict.

    ``value`` is kept even when ``valid`` is False so that sweeps can plot
    the curve; ``validity_condition`` states the domain in words and ``n0``
    carries the numeric threshold when there is one.
    """

    value: float
    kind: str  # achievability | converse | approximation
    valid: bool
    validity_condition: str
    n0: float | None = None


def _require_sigma(params: GaussianParams) -> None:
    if params.sigma2 <= 0.0:
        raise ValueError("bound requires strictly positive varentropy")


# ---------------------------------------------------------------------------
# Spectrum-driven bounds
# ---------------------------------------------------------------------------


def R_upper_quantile(spec: InformationSpectrum, eps: float) -> BoundReport:
    """Achievability: the spectrum quantile, lowest R with P[iota >= nR] <= eps.

    Valid for exact and Monte-Carlo spectra alike, at every blocklength.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    suffixes = spec.suffix_probs[:-1]
    # first index whose tail probability drops to eps or below; the bound is
    # the surprisal value just before it (the largest with tail above eps)
    i0 = int(np.searchsorted(-suffixes, -eps, side="left"))
    idx = i0 - 1 if i0 > 0 else 0
    value = float(spec.infos[idx]) / spec.n
    return BoundReport(value, "achievability", True, "always valid")


def converse_optimized(spec: InformationSpectrum, k: int) -> BoundReport:
    """Lower bound on P[optimal codelength >= k].

    Maximizes P[iota >= k + tau] - 2^(-tau) over tau > 0; every tau yields a
    valid bound, so the search grid (spectrum jump offsets plus a geometric
    grid) affects only tightness.  Negative values are reported as 0.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    taus = [float(v) - k for v in spec.infos if float(v) > k]
    tau = 2.0 ** -6
    while tau <= max(spec.n, 1):
        taus.append(tau)
        tau *= 2.0
    best = 0.0
    for t in taus:
        if t <= 0.0:
            continue
        val = ccdf(spec, k + t) - 2.0 ** (-t)
        if val > best:
            best = val
    return BoundReport(best, "converse", True, "always valid (free parameter maximized)")


def codelength_vs_info_check(
    dist: FiniteDistribution,
    lengths: Sequence[int],
    tau: float,
    prefix: bool = False,
) -> tuple[float, float]:
    """Probability that a code undershoots the surprisal, and its ceiling.

    For an arbitrary injective code: P[len(f(X)) <= iota(X) - tau] is at most
    2^(-tau) (floor(log2 |support|) + 1).  For a prefix code the event is the
    strict undershoot P[len < iota - tau] and the ceiling improves to
    2^(-tau) by Kraft's inequality (checked).  Returns (left side, ceiling).
    """
    if len(lengths) != len(dist):
        raise ValueError("need one codeword length per support symbol")
    if prefix:
        kraft = math.fsum(2.0 ** -l for l in lengths)
        if kraft > 1.0 + 1e-12:
            raise ValueError(f"not a prefix code: Kraft sum {kraft}")
    left_terms = []
    for p, l in zip(dist.probs, lengths):
        iota = -math.log2(p)
        hit = (l < iota - tau) if prefix else (l <= iota - tau)
        if hit:
            left_terms.append(p)
    left = math.fsum(left_terms)
    if prefix:
        right = 2.0 ** (-tau)
    else:
        right = 2.0 ** (-tau) * (math.floor(math.log2(len(dist))) + 1 if len(dist) > 1 else 1)
    return left, right


# ---------------------------------------------------------------------------
# Memoryless Gaussian bounds
# ---------------------------------------------------------------------------


def approx_Rstar(params: GaussianParams, n: int, eps: float) -> float:
    """Three-term Gaussian approximation H + sigma Q^-1(eps)/sqrt(n) - log2(n)/(2n)."""
    _require_sigma(params)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return params.H + params.sigma * gaussian_Q_inv(eps) / math.sqrt(n) - math.log2(n) / (2.0 * n)


def achievability_iid(params: GaussianParams, n: int, eps: float) -> BoundReport:
    """Upper bound on R_star for memoryless sources, explicit for every n.

    Adds to the Gaussian approximation the two positive 1/n correction terms
    log2(log2(e)/sqrt(2 pi sigma^2) + mu3/sigma^3) and
    mu3 / (sigma^2 phi(Phi^-1(Phi(Q^-1(eps)) + mu3/(sigma^3 sqrt(n))))).
    The inner Phi^-1 argument must stay below 1; if the moment ratio pushes
    it to 1 at small n the bound is vacuous and reported invalid.
    """
    _require_sigma(params)
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    lam = gaussian_Q_inv(eps)
    sigma = params.sigma
    base = params.H + sigma * lam / math.sqrt(n) - math.log2(n) / (2.0 * n)
    log_term = math.log2(LOG2E / math.sqrt(2.0 * math.pi * params.sigma2) + params.mu3 / sigma ** 3) / n
    inner = gaussian_Phi(lam) + params.mu3 / (sigma ** 3 * math.sqrt(n))
    condition = "requires Phi(Q^-1(eps)) + mu3/(sigma^3 sqrt(n)) < 1"
    if inner >= 1.0:
        return BoundReport(math.inf, "achievability", False, condition)
    if params.mu3 == 0.0:
        correction = 0.0
    else:
        correction = params.mu3 / (params.sigma2 * gaussian_phi(_STD_NORMAL.inv_cdf(inner))) / n
    return BoundReport(base + log_term + correction, "achievability", True, condition)


def converse_iid(params: GaussianParams, n: int, eps: float) -> BoundReport:
    """Lower bound on R_star for memoryless sources, valid above a threshold.

    Value: H + sigma Q^-1(eps)/sqrt(n) - log2(n)/(2n)
           - (mu3/2 + sigma^3)/(n sigma^2 phi(Q^-1(eps))),
    valid when n exceeds
    n0 = (1 + mu3/(2 sigma^3))^2 / (2 phi(Q^-1(eps)) Q^-1(eps))^2.
    """
    _require_sigma(params)
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    lam = gaussian_Q_inv(eps)
    sigma = params.sigma
    n0 = 0.25 * (1.0 + params.mu3 / (2.0 * sigma ** 3)) ** 2 / (gaussian_phi(lam) * lam) ** 2
    value = (
        params.H
        + sigma * lam / math.sqrt(n)
        - math.log2(n) / (2.0 * n)
        - (params.mu3 / 2.0 + sigma ** 3) / (n * params.sigma2 * gaussian_phi(lam))
    )
    return BoundReport(value, "converse", n > n0, f"requires n > {n0:.6g}", n0=n0)


def reference_expansion(params: GaussianParams, n: int, eps: float) -> float:
    """Four-term reference expansion of R_star (non-rigorous, plot-only).

    H + sigma Q^-1(eps)/sqrt(n) - log2(2 pi sigma^2 n e^(Q^-1(eps)^2))/(2n)
      + mu3 (Q^-1(eps)^2 - 1)/(6 sigma^2 n).
    The non-lattice assumption behind it is deliberately not checked.
    """
    _require_sigma(params)
    lam = gaussian_Q_inv(eps)
    return (
        params.H
        + params.sigma * lam / math.sqrt(n)
        - (math.log2(2.0 * math.pi * params.sigma2 * n) + lam * lam * LOG2E) / (2.0 * n)
        + params.mu3 * (lam * lam - 1.0) / (6.0 * params.sigma2 * n)
    )


# ---------------------------------------------------------------------------
# Markov bounds
# ---------------------------------------------------------------------------


def _require_be(params: GaussianParams) -> float:
    if params.be_constant is None:
        raise ConfigurationError("Markov bounds need GaussianParams.be_constant (calibrate or configure)")
    return float(params.be_constant)


def markov_achievability(params: GaussianParams, n: int, eps: float) -> BoundReport:
    """Upper bound n R_star <= n H + sigma sqrt(n) Q^-1(eps) + C for chains.

    C = 2 A sigma / phi(Q^-1(eps)), valid once n >= 8 A^2/(pi e phi(Q^-1(eps))^4),
    where A is the configured Berry-Esseen constant.
    """
    _require_sigma(params)
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    a_const = _require_be(params)
    lam = gaussian_Q_inv(eps)
    density = gaussian_phi(lam)
    c_const = 2.0 * a_const * params.sigma / density
    n_min = 8.0 * a_const ** 2 / (math.pi * math.e * density ** 4)
    value = params.H + params.sigma * lam / math.sqrt(n) + c_const / n
    return BoundReport(value, "achievability", n >= n_min, f"requires n >= {n_min:.6g}", n0=n_min)


def markov_converse(params: GaussianParams, n: int, eps: float) -> BoundReport:
    """Lower bound n R_star >= n H + sigma sqrt(n) Q^-1(eps) - log2(n)/2 - C.

    C = sigma (A + 1)/phi(Q^-1(eps)) + 1, valid once
    n >= ((A + 1)/(Q^-1(eps) phi(Q^-1(eps))))^2.
    """
    _require_sigma(params)
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    a_const = _require_be(params)
    lam = gaussian_Q_inv(eps)
    density = gaussian_phi(lam)
    c_const = params.sigma * (a_const + 1.0) / density + 1.0
    n_min = ((a_const + 1.0) / (lam * density)) ** 2
    value = params.H + params.sigma * lam / math.sqrt(n) - math.log2(n) / (2.0 * n) - c_const / n
    return BoundReport(value, "converse", n >= n_min, f"requires n >= {n_min:.6g}", n0=n_min)


@dataclass(frozen=True)
class CalibrationResult:
    """Monte-Carlo estimate of the Markov Berry-Esseen constant."""

    a_hat: float
    error_bar: float
    per_n: tuple


def markov_be_calibrate(
    src: MarkovSource,
    n_list: Sequence[int],
    samples: int,
    seed: int,
) -> CalibrationResult:
    """Estimate the Berry-Esseen constant A of a chain by simulation.

    For each n, A_hat(n) = sqrt(n) * sup_z |empirical CCDF of the
    standardized surprisal - Q(z)|, the supremum taken over both sides of
    every empirical jump; the estimate is the maximum over n.  The error bar
    is the one-sigma scale of the empirical-CCDF fluctuation, sqrt(n/samples)/2,
    at the largest n.  Deterministic for a fixed seed.
    """
    sigma2 = markov_varentropy_rate(src)
    if sigma2 <= 0.0:
        raise ValueError("calibration requires strictly positive varentropy rate")
    sigma = math.sqrt(sigma2)
    rate = markov_entropy_rate(src)
    per_n = []
    for idx, n in enumerate(n_list):
        spec = markov_spectrum_mc(src, n, samples, seed + idx)
        scale = sigma * math.sqrt(n)
        sup = 0.0
        for i in range(len(spec)):
            z = (float(spec.infos[i]) - n * rate) / scale
            q = gaussian_Q(z)
            sup = max(sup, abs(float(spec.suffix_probs[i + 1]) - q), abs(float(spec.suffix_probs[i]) - q))
        per_n.append(math.sqrt(n) * sup)
    error_bar = 0.5 * math.sqrt(max(n_list) / samples)
    return CalibrationResult(a_hat=max(per_n), error_bar=error_bar, per_n=tuple(per_n))


# ---------------------------------------------------------------------------
# Blocklength requirements
# ---------------------------------------------------------------------------


def n_star_approx(params: GaussianParams, rate: float, eps: float) -> int:
    """Approximate smallest n at which compressing at ``rate`` succeeds.

    Solving R_star ~ H + sigma Q^-1(eps)/sqrt(n) at rate = (1 + eta) H gives
    n ~ (sigma^2/H^2) (Q^-1(eps)/eta)^2, rounded up (at least 1).  Only
    meaningful for rates above the entropy.
    """
    _require_sigma(params)
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    if rate <= params.H:
        raise ValueError("no finite approximation: rate does not exceed the entropy rate")
    eta = rate / params.H - 1.0
    value = (params.sigma2 / params.H ** 2) * (gaussian_Q_inv(eps) / eta) ** 2
    return max(1, math.ceil(value))


def n_star_exact(
    spectrum_factory: Callable[[int], InformationSpectrum],
    rate: float,
    eps: float,
    window: int = 50,
    n_max: int = 100_000,
) -> int:
    """Exact smallest n with R_star(n, eps) <= rate, oscillation-guarded.

    R_star is not monotone in n, so a single satisfying blocklength can be a
    fluke dip; the first n opening a run of ``window`` consecutive satisfying
    blocklengths is returned instead.
    """
    run_start = None
    run_len = 0
    for n in range(1, n_max + 1):
        ok = R_star(spectrum_factory(n), eps) <= rate + 1e-12
        if ok:
            if run_start is None:
                run_start = n
            run_len += 1
            if run_len >= window:
                return run_start
        else:
            run_start = None
            run_len = 0
    raise ValueError(f"no run of {window} satisfying blocklengths found below {n_max}")
