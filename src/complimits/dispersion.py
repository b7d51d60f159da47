"""Source dispersion, and the blocklength sweep every exact table runs on.

For memoryless sources and ergodic Markov chains the dispersion equals the
varentropy rate.  ``dispersion_estimate`` traces Var(len)/n and Var(iota)/n
toward it, next to the exact second moment of the codelength-surprisal gap;
Var(len) and the gap come from the one scalar pass of
``optcode.length_distribution``.  ``normalized_dispersion`` gives sigma^2/H^2
for the source-family curves.

``exact_sweep`` holds the budget rule of every sweep over blocklengths (the
``limits``, ``bounds``, ``figure2``/``figure3`` and ``dispersion`` tables):
rows up to the first blocklength whose exact spectrum exceeds its budget,
and the constructor's own error when not even the first one fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError
from .optcode import length_distribution
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
    markov_varentropy_rate,
    varentropy,
)

__all__ = [
    "DispersionTrace",
    "exact_spectrum",
    "exact_sweep",
    "dispersion_estimate",
    "normalized_dispersion",
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


def exact_spectrum(source: SourceSpec, n: int) -> InformationSpectrum:
    """Exact blocklength-n spectrum of a memoryless or Markov source.

    Geometric and Poisson laws arrive already truncated.  It lives here, not
    in ``spectrum``, because ``perfbench/spans.py`` times only calls that
    cross a module boundary, and the constructor calls made from here do.
    """
    if isinstance(source, MarkovSource):
        return markov_spectrum_exact(source, n)
    return iid_spectrum(source, n)


def exact_sweep(
    source: SourceSpec,
    n_list: Iterable[int],
    per_spectrum: Callable[[InformationSpectrum], list],
) -> tuple[list, dict]:
    """Rows ``per_spectrum(spec)`` over the exact spectra at ``n_list``, in
    order, and a marker for the output sidecar.

    The first blocklength whose spectrum exceeds the budget ends the sweep
    with the marker ``{"truncated_at_n": n, "budget_note": ...}``; when the
    first blocklength already does, the constructor's error (and its
    suggestion) propagates.
    """
    rows = []
    for i, n in enumerate(n_list):
        try:
            spec = exact_spectrum(source, n)
        except BudgetExceededError as exc:
            if i == 0:
                raise
            return rows, {"truncated_at_n": n, "budget_note": str(exc)}
        rows += per_spectrum(spec)
    return rows, {}


def dispersion_estimate(source: SourceSpec, n_list: Sequence[int]) -> DispersionTrace:
    """Trace Var(len)/n toward the varentropy rate over the given blocklengths."""
    sigma2 = markov_varentropy_rate(source) if isinstance(source, MarkovSource) else varentropy(source)

    def per_spectrum(spec: InformationSpectrum) -> list:
        lengths, n = length_distribution(spec), spec.n
        return [(n, lengths.variance() / n, var_info(spec) / n, lengths.gap2 / n)]

    rows, marker = exact_sweep(source, n_list, per_spectrum)
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

