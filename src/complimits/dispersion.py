"""Source dispersion, and the blocklength sweep every exact table runs on.

For well-behaved sources (memoryless, ergodic Markov chains) the dispersion
equals the varentropy rate, and the exact rank machinery turns that limit
statement into finite-blocklength diagnostics: traces of Var(len)/n and
Var(iota)/n, the exact second moment of the codelength-surprisal gap (both
read off the one dyadic walk of ``optcode.length_distribution``), and the
normalized-dispersion curves sigma^2/H^2 over source families.

``exact_sweep`` holds the budget rule of every sweep over blocklengths (the
``limits``, ``bounds``, ``figure2``/``figure3`` and ``dispersion`` tables):
rows up to the first blocklength whose exact spectrum exceeds its budget,
and the constructor's own error when not even the first one fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
    FiniteDistribution,
    MarkovSource,
    SourceSpec,
    entropy,
    markov_entropy_rate,
    markov_varentropy_rate,
    varentropy,
)

__all__ = [
    "DispersionTrace",
    "exact_spectrum",
    "exact_sweep",
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

    Geometric and Poisson laws arrive already truncated.  It lives here, not
    in ``spectrum``, because ``perfbench/spans.py`` times only calls that
    cross a module boundary, and the constructor calls made from here do.
    """
    if isinstance(source, MarkovSource):
        return markov_spectrum_exact(source, n, budget)
    return iid_spectrum(source, n, budget)


def exact_sweep(
    source: SourceSpec,
    n_list: Iterable[int],
    per_spectrum: Callable[[InformationSpectrum], list],
    budget: Budgets | None = None,
) -> tuple[list, dict]:
    """Rows ``per_spectrum(spec)`` over the exact spectra at ``n_list``, in
    order, and a marker for the output sidecar.

    The first blocklength whose spectrum exceeds the budget ends the sweep
    with the marker ``{"truncated_at_n": n, "budget_note": ...}``; when the
    first blocklength already does, the constructor's error (and its
    suggestion) propagates.
    """
    budget = budget or default_budgets()
    rows = []
    for i, n in enumerate(n_list):
        try:
            spec = exact_spectrum(source, n, budget)
        except BudgetExceededError as exc:
            if i == 0:
                raise
            return rows, {"truncated_at_n": n, "budget_note": str(exc)}
        rows += per_spectrum(spec)
    return rows, {}


def dispersion_estimate(
    source: SourceSpec,
    n_list: Sequence[int],
    budget: Budgets | None = None,
) -> DispersionTrace:
    """Trace Var(len)/n toward the varentropy rate over the given blocklengths."""
    sigma2 = markov_varentropy_rate(source) if isinstance(source, MarkovSource) else varentropy(source)

    def per_spectrum(spec: InformationSpectrum) -> list:
        lengths, n = length_distribution(spec), spec.n
        return [(n, lengths.variance() / n, var_info(spec) / n, lengths.gap2 / n)]

    rows, marker = exact_sweep(source, n_list, per_spectrum, budget)
    columns = tuple(zip(*rows)) or ((),) * 4
    return DispersionTrace(*columns, sigma2, not marker)


def normalized_dispersion(dist: FiniteDistribution) -> float:
    """Dispersion over squared entropy, sigma^2 / H^2 (dimensionless).

    For memoryless sources the dispersion equals the varentropy, so this is
    the blocklength multiplier that design requirements get scaled by.
    """
    h = entropy(dist)
    if h <= 0.0:
        raise ValueError("normalized dispersion needs strictly positive entropy")
    return varentropy(dist) / (h * h)


def rd_characterization_check(
    source: SourceSpec,
    eps_list: Sequence[float],
    n_list: Sequence[int],
    budget: Budgets | None = None,
) -> list[dict]:
    """Convergence table of n ((R_star - H)/Q^-1(eps))^2 toward sigma^2.

    Diagnostic only: the log-blocklength bias in R_star is still visible at
    desk-scale n, so entries approach sigma^2 slowly from below.
    """
    budget = budget or default_budgets()
    if isinstance(source, MarkovSource):
        h, sigma2 = markov_entropy_rate(source), markov_varentropy_rate(source)
    else:
        h, sigma2 = entropy(source), varentropy(source)
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

