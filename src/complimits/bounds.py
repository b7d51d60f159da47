"""Non-asymptotic bounds and Gaussian approximations for the best rate.

Everything here brackets or approximates the exact limit R_star(n, eps) in
terms of the first three surprisal moments (entropy H, varentropy sigma^2,
third absolute central moment mu3):

- the always-valid spectrum-quantile upper bound,
- an optimized information-spectrum converse for the codelength CCDF,
- memoryless achievability and converse bounds with explicit constants,
  valid respectively for all n and for n above an explicit threshold,
- Markov-chain bounds that take as an argument a Berry-Esseen constant A
  that theory does not make explicit, plus a Monte-Carlo calibrator for A,
- the Gaussian approximation of the blocklength requirement n_star.

Each Gaussian bound checks its inputs once, in :func:`_lam`: positive
varentropy, eps inside the bound's domain and n >= 1.  Bound values are
evaluated in double precision; when a stated validity condition fails the
value is still reported with ``valid=False`` so sweeps can plot it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

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
    "approx_Rstar",
    "achievability_iid",
    "converse_iid",
    "markov_achievability",
    "markov_converse",
    "markov_be_calibrate",
    "n_star_approx",
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
    """Surprisal moments feeding the bounds."""

    H: float
    sigma2: float
    mu3: float

    def __post_init__(self):
        if self.sigma2 < 0.0 or self.mu3 < 0.0:
            raise ValueError("sigma2 and mu3 must be nonnegative")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @classmethod
    def from_distribution(cls, dist: FiniteDistribution) -> "GaussianParams":
        return cls(H=entropy(dist), sigma2=varentropy(dist), mu3=third_abs_moment(dist))

    @classmethod
    def from_markov(cls, src: MarkovSource) -> "GaussianParams":
        # mu3 has no role in the Markov bounds; it is set to zero here
        return cls(H=markov_entropy_rate(src), sigma2=markov_varentropy_rate(src), mu3=0.0)


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus its validity verdict.

    ``value`` is kept even when ``valid`` is False so that sweeps can plot
    the curve; ``n0`` carries the blocklength threshold when there is one.
    Each bound's docstring states its validity condition.
    """

    value: float
    valid: bool
    n0: float | None = None


def _lam(params: GaussianParams, n: int, eps: float, high: float = 0.5, closed: bool = False) -> float:
    """Q^-1(eps), once sigma^2 > 0, eps lies in (0, high) (or (0, high] if ``closed``) and n >= 1."""
    if params.sigma2 <= 0.0:
        raise ValueError("bound requires strictly positive varentropy")
    if not (0.0 < eps <= high if closed else 0.0 < eps < high):
        raise ValueError(f"eps must lie in (0, {high:g}{']' if closed else ')'}")
    if n < 1:
        raise ValueError("n must be at least 1")
    return gaussian_Q_inv(eps)


def _gauss3(params: GaussianParams, n: int, lam: float) -> float:
    """H + sigma lam/sqrt(n) - log2(n)/(2n), the three-term approximation at lam = Q^-1(eps)."""
    return params.H + params.sigma * lam / math.sqrt(n) - math.log2(n) / (2.0 * n)


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
    return BoundReport(float(spec.infos[idx]) / spec.n, True)


def converse_optimized(spec: InformationSpectrum, k: int) -> BoundReport:
    """Lower bound on P[optimal codelength >= k].

    Maximizes P[iota >= k + tau] - 2^(-tau) over tau > 0; every tau yields a
    valid bound, so the search grid (spectrum jump offsets plus a geometric
    grid) affects only tightness.  Negative values are reported as 0.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    taus = [float(v) - k for v in spec.infos if float(v) > k]
    taus += [2.0 ** j for j in range(-6, max(spec.n, 1).bit_length())]  # 2^-6 .. max(n, 1)
    best = 0.0
    for t in taus:  # every tau is positive: surprisal offsets above k, then the grid
        best = max(best, ccdf(spec, k + t) - 2.0 ** (-t))
    return BoundReport(best, True)


# ---------------------------------------------------------------------------
# Memoryless Gaussian bounds
# ---------------------------------------------------------------------------


def approx_Rstar(params: GaussianParams, n: int, eps: float) -> float:
    """Three-term Gaussian approximation H + sigma Q^-1(eps)/sqrt(n) - log2(n)/(2n), eps in (0, 1)."""
    return _gauss3(params, n, _lam(params, n, eps, high=1.0))


def achievability_iid(params: GaussianParams, n: int, eps: float) -> BoundReport:
    """Upper bound on R_star for memoryless sources, explicit for every n.

    Adds to the Gaussian approximation the two positive 1/n correction terms
    log2(log2(e)/sqrt(2 pi sigma^2) + mu3/sigma^3) and
    mu3 / (sigma^2 phi(Phi^-1(Phi(Q^-1(eps)) + mu3/(sigma^3 sqrt(n))))).
    The inner Phi^-1 argument must stay below 1; if the moment ratio pushes
    it to 1 at small n the bound is vacuous and reported invalid.  eps in (0, 1/2].
    """
    lam = _lam(params, n, eps, closed=True)
    sigma = params.sigma
    base = _gauss3(params, n, lam)
    log_term = math.log2(LOG2E / math.sqrt(2.0 * math.pi * params.sigma2) + params.mu3 / sigma ** 3) / n
    inner = gaussian_Phi(lam) + params.mu3 / (sigma ** 3 * math.sqrt(n))
    if inner >= 1.0:
        return BoundReport(math.inf, False)
    if params.mu3 == 0.0:
        correction = 0.0
    else:
        correction = params.mu3 / (params.sigma2 * gaussian_phi(_STD_NORMAL.inv_cdf(inner))) / n
    return BoundReport(base + log_term + correction, True)


def converse_iid(params: GaussianParams, n: int, eps: float) -> BoundReport:
    """Lower bound on R_star for memoryless sources, valid above a threshold.

    Value: H + sigma Q^-1(eps)/sqrt(n) - log2(n)/(2n)
           - (mu3/2 + sigma^3)/(n sigma^2 phi(Q^-1(eps))),
    valid when n exceeds
    n0 = (1 + mu3/(2 sigma^3))^2 / (2 phi(Q^-1(eps)) Q^-1(eps))^2.  eps in (0, 1/2).
    """
    lam = _lam(params, n, eps)
    sigma = params.sigma
    n0 = 0.25 * (1.0 + params.mu3 / (2.0 * sigma ** 3)) ** 2 / (gaussian_phi(lam) * lam) ** 2
    value = _gauss3(params, n, lam) - (params.mu3 / 2.0 + sigma ** 3) / (n * params.sigma2 * gaussian_phi(lam))
    return BoundReport(value, n > n0, n0=n0)


# ---------------------------------------------------------------------------
# Markov bounds
# ---------------------------------------------------------------------------


def markov_achievability(params: GaussianParams, n: int, eps: float, a_const: float) -> BoundReport:
    """Upper bound n R_star <= n H + sigma sqrt(n) Q^-1(eps) + C for chains.

    C = 2 A sigma / phi(Q^-1(eps)), valid once n >= 8 A^2/(pi e phi(Q^-1(eps))^4),
    where A = ``a_const`` is the chain's Berry-Esseen constant (theory proves
    it exists but gives no value; see :func:`markov_be_calibrate`).  eps in (0, 1/2).
    """
    lam = _lam(params, n, eps)
    density = gaussian_phi(lam)
    c_const = 2.0 * a_const * params.sigma / density
    n_min = 8.0 * a_const ** 2 / (math.pi * math.e * density ** 4)
    value = params.H + params.sigma * lam / math.sqrt(n) + c_const / n
    return BoundReport(value, n >= n_min, n0=n_min)


def markov_converse(params: GaussianParams, n: int, eps: float, a_const: float) -> BoundReport:
    """Lower bound n R_star >= n H + sigma sqrt(n) Q^-1(eps) - log2(n)/2 - C.

    C = sigma (A + 1)/phi(Q^-1(eps)) + 1 with A = ``a_const``, valid once
    n >= ((A + 1)/(Q^-1(eps) phi(Q^-1(eps))))^2.  eps in (0, 1/2).
    """
    lam = _lam(params, n, eps)
    density = gaussian_phi(lam)
    c_const = params.sigma * (a_const + 1.0) / density + 1.0
    n_min = ((a_const + 1.0) / (lam * density)) ** 2
    return BoundReport(_gauss3(params, n, lam) - c_const / n, n >= n_min, n0=n_min)


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
    params = GaussianParams.from_markov(src)
    if params.sigma2 <= 0.0:
        raise ValueError("calibration requires strictly positive varentropy rate")
    per_n = []
    for idx, n in enumerate(n_list):
        spec = markov_spectrum_mc(src, n, samples, seed + idx)
        infos, tail = spec.infos.tolist(), spec.suffix_probs.tolist()
        scale = params.sigma * math.sqrt(n)
        sup = 0.0
        for i, info in enumerate(infos):
            q = gaussian_Q((info - n * params.H) / scale)
            sup = max(sup, abs(tail[i + 1] - q), abs(tail[i] - q))
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
    meaningful for rates above the entropy.  eps in (0, 1/2].
    """
    lam = _lam(params, 1, eps, closed=True)  # no blocklength yet: n is what this solves for
    if rate <= params.H:
        raise ValueError("no finite approximation: rate does not exceed the entropy rate")
    eta = rate / params.H - 1.0
    value = (params.sigma2 / params.H ** 2) * (lam / eta) ** 2
    return max(1, math.ceil(value))

