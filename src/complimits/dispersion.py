"""Source dispersion: the limiting normalized variance of optimal codelengths.

For well-behaved sources (memoryless, ergodic Markov chains) the dispersion
equals the varentropy rate, and the exact rank machinery turns that limit
statement into finite-blocklength diagnostics: traces of Var(len)/n and
Var(iota)/n, the exact second moment of the codelength-surprisal gap (both
read off the one dyadic walk of ``optcode.length_distribution``), and the
normalized-dispersion curves sigma^2/H^2 over source families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .bounds import gaussian_Q_inv
from .budgets import Budgets, default_budgets
from .errors import BudgetExceededError
from .optcode import R_star, length_distribution
from .spectrum import (
    InformationSpectrum,
    iid_spectrum,
    markov_spectrum_exact,
    var_info,
)
from .sources import (
    CountableDistribution,
    FiniteDistribution,
    MarkovSource,
    SourceSpec,
    as_finite,
    entropy,
    markov_entropy_rate,
    markov_varentropy_rate,
    varentropy,
)

__all__ = [
    "DispersionTrace",
    "exact_spectrum",
    "var_codelength",
    "second_moment_gap",
    "dispersion_estimate",
    "normalized_dispersion",
    "rd_characterization_check",
]


@dataclass(frozen=True)
class DispersionTrace:
    """Per-blocklength dispersion diagnostics.

    ``complete`` is False when some requested blocklength exceeded its exact
    budget; the trace then covers the prefix that fit.
    """

    n_list: tuple
    var_len: tuple
    var_info: tuple
    gap2: tuple
    sigma2_ref: float
    complete: bool


def exact_spectrum(source: SourceSpec, n: int, budget: Budgets | None = None) -> InformationSpectrum:
    """Exact blocklength-n spectrum of a memoryless or Markov source.

    Countable memoryless laws are truncated per their tail policy first.
    It lives here, not in ``spectrum``, because ``perfbench/spans.py`` times
    only calls that cross a module boundary, and the constructor calls made
    from here do.
    """
    if isinstance(source, MarkovSource):
        return markov_spectrum_exact(source, n, budget)
    return iid_spectrum(as_finite(source), n, budget)


def var_codelength(spec: InformationSpectrum) -> float:
    """Var of the optimal codelength, from the exact length distribution."""
    return length_distribution(spec).variance()


def second_moment_gap(spec: InformationSpectrum) -> float:
    """E[(codelength - surprisal)^2], exactly, by rank arithmetic.

    Within one spectrum mass the surprisal is constant while the codelength
    steps through dyadic rank blocks, so the expectation splits into
    (count in block) * per-string-prob * (length - info)^2 terms, summed by
    the same walk that gives the codelength distribution.
    """
    return length_distribution(spec).gap2


def dispersion_estimate(
    source: Union[FiniteDistribution, MarkovSource],
    n_list: Sequence[int],
    budget: Budgets | None = None,
) -> DispersionTrace:
    """Trace Var(len)/n toward the varentropy rate over the given blocklengths."""
    budget = budget or default_budgets()
    sigma2 = varentropy(source) if isinstance(source, FiniteDistribution) else markov_varentropy_rate(source)
    ns, v_len, v_info, gaps = [], [], [], []
    complete = True
    for n in n_list:
        try:
            spec = exact_spectrum(source, n, budget)
        except BudgetExceededError:
            complete = False
            break
        lengths = length_distribution(spec)
        ns.append(n)
        v_len.append(lengths.variance() / n)
        v_info.append(var_info(spec) / n)
        gaps.append(lengths.gap2 / n)
    return DispersionTrace(tuple(ns), tuple(v_len), tuple(v_info), tuple(gaps), sigma2, complete)


def normalized_dispersion(dist: Union[FiniteDistribution, CountableDistribution]) -> float:
    """Dispersion over squared entropy, sigma^2 / H^2 (dimensionless).

    For memoryless sources the dispersion equals the varentropy, so this is
    the blocklength multiplier that design requirements get scaled by.
    Countable marginals are truncated per their tail policy first.
    """
    if isinstance(dist, CountableDistribution):
        dist = dist.truncate()
    h = entropy(dist)
    if h <= 0.0:
        raise ValueError("normalized dispersion needs strictly positive entropy")
    return varentropy(dist) / (h * h)


def rd_characterization_check(
    source: Union[FiniteDistribution, MarkovSource],
    eps_list: Sequence[float],
    n_list: Sequence[int],
    budget: Budgets | None = None,
) -> list[dict]:
    """Convergence table of n ((R_star - H)/Q^-1(eps))^2 toward sigma^2.

    Diagnostic only: the log-blocklength bias in R_star is still visible at
    desk-scale n, so entries approach sigma^2 slowly from below.
    """
    budget = budget or default_budgets()
    if isinstance(source, FiniteDistribution):
        h, sigma2 = entropy(source), varentropy(source)
    else:
        h, sigma2 = markov_entropy_rate(source), markov_varentropy_rate(source)
    if sigma2 <= 0.0:
        raise ValueError("characterization requires nonzero varentropy")
    rows = []
    for n in n_list:
        spec = exact_spectrum(source, n, budget)
        for eps in eps_list:
            lam = gaussian_Q_inv(eps)
            value = n * ((R_star(spec, eps) - h) / lam) ** 2
            rows.append(
                {
                    "n": n,
                    "eps": eps,
                    "value_bits2": value,
                    "sigma2_bits2": sigma2,
                    "ratio": value / sigma2,
                }
            )
    return rows

