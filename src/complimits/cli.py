"""Command-line front end.

Subcommands compute the library's tables and figure data as CSV (default) or
JSON, with a JSON metadata sidecar recording the exact configuration, its
hash, the seed and the library version.  Outputs are deterministic: the same
configuration and seed produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 budget exceeded, 4 numeric
validity error.  Failures print a machine-readable JSON object to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import sys
import tempfile
from itertools import chain, compress
from typing import Iterator, Sequence

from . import __version__
from .binning import MC_MAX_BINS, BinningProblem, binning_error_exact, binning_error_mc
from .bounds import GaussianParams, R_upper_quantile, achievability_iid, approx_Rstar, converse_iid
from .dispersion import dispersion_estimate, exact_spectrum, exact_sweep, normalized_dispersion
from .errors import (
    BudgetExceededError,
    CompLimitsError,
    ConfigurationError,
    DistributionError,
    StructuralError,
)
from .optcode import R_star, length_distribution, prefix_epsilon_curve, rate_on_curve
from .sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    binomial_distribution,
    entropy,
    geometric_distribution,
    load_source,
    poisson_distribution,
)
from .spectrum import cdf_values, iid_spectrum, markov_spectrum_mc

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_NUMERIC = 4


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigurationError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip, plain across numpy scalars
    return str(value)


def _load_source_arg(raw: str):
    if raw.lstrip().startswith("{"):
        return load_source(raw)
    try:
        with open(raw, "r", encoding="utf-8") as fh:
            return load_source(json.load(fh))
    except OSError as exc:
        raise ConfigurationError(f"cannot read source file {raw!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"source file {raw!r} is not valid JSON: {exc}") from exc


def _write_output(args, headers: Sequence[str], rows: list[tuple], meta_extra: dict) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k not in {"func", "output"}}
    canonical = json.dumps(config, sort_keys=True, default=str)
    meta = {
        "command": args.command,
        "config": json.loads(canonical),
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "columns": list(headers),
    }
    meta.update(meta_extra)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # Python >= 3.10.7; lifted so exact counts print
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        # streamed: the table is never one string
        lines = _json_lines(headers, rows, meta) if args.format == "json" else _csv_lines(headers, rows)
        if args.output:
            out = {args.output: lines, f"{args.output}.meta.json": [json.dumps(meta, sort_keys=True, indent=2) + "\n"]}
            # written beside the target, then renamed: a failure leaves no new file, an old pair untouched
            with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(args.output))) as tmp:
                for path, text in out.items():
                    with open(os.path.join(tmp, os.path.basename(path)), "w", encoding="utf-8") as fh:
                        fh.writelines(text)
                for path in out:
                    os.replace(os.path.join(tmp, os.path.basename(path)), path)
        else:
            sys.stdout.writelines(lines)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _row_lines(rows: list[tuple], fmt, sep: str, end: str) -> Iterator[str]:
    """Each row's cell texts by ``fmt``, joined by ``sep``, then ``end``.  Only
    cells that are not the very object above them are formatted, and a cell
    that is the very object to its left reuses that text (identity, not
    equality: 1 == 1.0 and 0.0 == -0.0 print apart)."""
    above, texts = (), []
    for row in rows:
        if len(row) == len(above):
            fresh = compress(range(len(row)), map(operator.is_not, row, above))
        else:
            fresh, texts = range(len(row)), [""] * len(row)
        for i in fresh:
            value = row[i]
            texts[i] = texts[i - 1] if i and value is row[i - 1] else fmt(value)
        yield sep.join(texts) + end
        above = row


def _csv_lines(headers: Sequence[str], rows: list[tuple]) -> Iterator[str]:
    """Newline-terminated CSV lines."""
    return chain([",".join(headers) + "\n"], _row_lines(rows, _fmt, ",", "\n"))


def _json_lines(headers: Sequence[str], rows: list[tuple], meta: dict) -> Iterator[str]:
    """The text of ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` for
    the payload {"columns": headers, "meta": meta, "rows": [[_cell(v) for v
    in row] for row in rows]}, one row at a time.  "rows" sorts last, so it
    follows the dumped columns and meta."""
    head = json.dumps({"columns": list(headers), "meta": meta}, sort_keys=True, indent=2)[:-2]  # drop "\n}"
    if not rows:
        yield head + ',\n  "rows": []\n}\n'
        return
    yield head + ',\n  "rows": [\n'
    sep = ""
    for cells in _row_lines(rows, _json_cell, ",\n      ", ""):  # no cell's text is empty
        yield sep + ("    [\n      " + cells + "\n    ]" if cells else "    []")
        sep = ",\n"
    yield "\n  ]\n}\n"


def _cell(value):
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int) and abs(value) < 2**53:
        return value
    return str(value)


def _json_cell(value) -> str:
    """``json.dumps(_cell(value))``: plain ints and finite floats print as
    their repr, as json does, without its per-call set-up."""
    cell = _cell(value)
    if type(cell) is int or type(cell) is float and math.isfinite(cell):
        return repr(cell)
    return json.dumps(cell)


def _int_at_least(low: int, high: int | None = None):
    """argparse type: an integer >= low (<= high if given), else a configuration error (exit 2)."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _eps_level(high: float, zero_ok: bool = False):
    """argparse type: an excess-probability level in (0, high), or [0, high)
    with ``zero_ok``: the domain of the limits or bounds a command computes."""

    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}") from None
        if not (0.0 <= value < high if zero_ok else 0.0 < value < high):
            raise argparse.ArgumentTypeError(f"must lie in {'[' if zero_ok else '('}0, {high:g}), got {raw}")
        return value

    return parse


def _memoryless_source(raw: str) -> FiniteDistribution:
    source = _load_source_arg(raw)
    if isinstance(source, MarkovSource):
        raise DistributionError("a Markov source has no single-letter marginal; use its kernel")
    return source


def _parse_int_range(args) -> range:
    if args.n_max < args.n_min:
        raise ConfigurationError("--n-max must be at least --n-min")
    return range(args.n_min, args.n_max + 1, args.n_step)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args) -> None:
    source = _load_source_arg(args.source)
    if args.mc_samples > 0:
        if not isinstance(source, MarkovSource):
            raise ConfigurationError("--mc-samples needs a Markov source; memoryless spectra are exact")
        spec = markov_spectrum_mc(source, args.n, args.mc_samples, args.seed)
    else:
        spec = exact_spectrum(source, args.n)
    headers = ("info_value_bits", "probability", "count")
    rows = list(zip(spec.infos.tolist(), spec.probs.tolist(), spec.counts))
    _write_output(args, headers, rows, {"n": spec.n, "exact": spec.exact, "sample_size": spec.sample_size})


def _cmd_limits(args) -> None:
    eps_list = args.eps
    headers = ["n", "k", "epsilon_star_probability", "prefix_epsilon_kplus1_probability",
               "Rbar_bits_per_symbol"]
    headers += [f"R_star_bits_per_symbol_eps_{e}" for e in eps_list]
    headers += [f"prefix_R_bits_per_symbol_eps_{e}" for e in eps_list]

    def per_spectrum(spec) -> list:
        n, lengths = spec.n, length_distribution(spec)
        curve = lengths.tail
        prefix = prefix_epsilon_curve(spec, curve)
        per_n = (lengths.mean() / n, *[rate_on_curve(curve, n, e) for e in eps_list],
                 *[rate_on_curve(prefix, n, e) for e in eps_list])
        return [(n, k, eps_k, prefix[k + 1], *per_n) for k, eps_k in enumerate(curve)]

    rows, marker = exact_sweep(_load_source_arg(args.source), _parse_int_range(args), per_spectrum)
    _write_output(args, headers, rows, marker)


def _cmd_bounds(args) -> None:
    dist = _memoryless_source(args.source)
    params = GaussianParams.from_distribution(dist)
    eps = args.eps
    headers = (
        "n",
        "exact_R_star_bits_per_symbol",
        "approx_bits_per_symbol",
        "achievability_bits_per_symbol",
        "converse_bits_per_symbol",
        "upper_quantile_bits_per_symbol",
        "achievability_valid",
        "converse_valid",
    )

    def per_spectrum(spec) -> list:
        n = spec.n
        ach = achievability_iid(params, n, eps)
        conv = converse_iid(params, n, eps)
        return [(n, R_star(spec, eps), approx_Rstar(params, n, eps), ach.value, conv.value,
                 R_upper_quantile(spec, eps).value, int(ach.valid), int(conv.valid))]

    rows, marker = exact_sweep(dist, _parse_int_range(args), per_spectrum)
    _write_output(args, headers, rows, {"eps": eps, **marker})


def _cmd_binning(args) -> None:
    dist = _memoryless_source(args.source)
    headers = ("n_bins", "exact_error_probability", "mc_estimate_probability", "mc_stderr_probability")
    rows = []
    for i, n_bins in enumerate(args.bins):
        problem = BinningProblem(dist, n_bins)
        exact = binning_error_exact(problem)
        est, err = binning_error_mc(problem, args.trials, args.seed + i)
        rows.append((n_bins, exact, est, err))
    _write_output(args, headers, rows, {"trials": args.trials})


def _cmd_dispersion(args) -> None:
    trace = dispersion_estimate(_load_source_arg(args.source), _parse_int_range(args))
    headers = ("n", "var_len_over_n_bits2", "var_info_over_n_bits2", "gap2_bits2", "sigma2_ref_bits2")
    rows = [
        (n, vl, vi, g, trace.sigma2_ref)
        for n, vl, vi, g in zip(trace.n_list, trace.var_len, trace.var_info, trace.gap2)
    ]
    _write_output(args, headers, rows, {"complete": trace.complete})


def _cmd_figure1(args) -> None:
    dist = binomial_distribution(10_000, 0.5)
    spec = iid_spectrum(dist, 1)
    lengths = length_distribution(spec)
    headers = ("series", "x_bits", "cdf_probability")
    rows = []
    cum = 0.0
    for l, p in zip(lengths.lengths, lengths.probs):
        cum += p
        rows.append(("codelength", float(l), min(cum, 1.0)))
    for info, cum in zip(spec.infos.tolist(), cdf_values(spec).tolist()):
        rows.append(("information", info, cum))
    meta = {
        "entropy_bits": entropy(dist),
        "expected_codelength_bits": lengths.mean(),
    }
    _write_output(args, headers, rows, meta)


def _cmd_rate_sweep(args) -> None:
    dist = bernoulli(args.bias)
    params = GaussianParams.from_distribution(dist)
    headers = (
        "n",
        "exact_R_star_bits_per_symbol",
        "approx_bits_per_symbol",
        "upper_quantile_bits_per_symbol",
    )

    def per_spectrum(spec) -> list:
        n, eps = spec.n, args.eps
        return [(n, R_star(spec, eps), approx_Rstar(params, n, eps), R_upper_quantile(spec, eps).value)]

    rows, marker = exact_sweep(dist, _parse_int_range(args), per_spectrum)
    _write_output(args, headers, rows, {"eps": args.eps, "bias": args.bias, **marker})


def _cmd_figure4(args) -> None:
    headers = ("family", "param", "entropy_bits", "normalized_dispersion")
    rows = []
    for p in [i / 200 for i in range(2, 100)]:
        d = bernoulli(p)
        rows.append(("bernoulli", p, entropy(d), normalized_dispersion(d)))
    for q in [i / 200 for i in range(2, 199)]:
        g = geometric_distribution(q)
        rows.append(("geometric", q, entropy(g), normalized_dispersion(g)))
    for lam10 in range(1, 101):
        lam = lam10 / 10
        pois = poisson_distribution(lam)
        rows.append(("poisson", lam, entropy(pois), normalized_dispersion(pois)))
    _write_output(args, headers, rows, {})


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="complimits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, source=True, n_range=False):
        if source:
            p.add_argument("--source", required=True, help="source JSON (inline or file path)")
        if n_range:
            p.add_argument("--n-min", type=_int_at_least(1), default=10)
            p.add_argument("--n-max", type=int, default=200)
            p.add_argument("--n-step", type=_int_at_least(1), default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", "-o", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("spectrum", help="information spectrum masses")
    common(p)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--mc-samples", type=_int_at_least(0), default=0, help="0 = exact; Markov sources only")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("limits", help="exact limits per (n, k)")
    common(p, n_range=True)
    p.add_argument("--eps", type=_eps_level(1.0, zero_ok=True), nargs="+", default=[0.1])
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("bounds", help="exact limit vs bounds over n")
    common(p, n_range=True)
    p.add_argument("--eps", type=_eps_level(0.5), default=0.1)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("binning", help="random binning error")
    common(p)
    p.add_argument("--bins", type=_int_at_least(1, MC_MAX_BINS), nargs="+", required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=100_000)
    p.set_defaults(func=_cmd_binning)

    p = sub.add_parser("dispersion", help="dispersion trace over n")
    common(p, n_range=True)
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("figure1", help="codelength and information CDFs, binomial(10^4, 1/2)")
    common(p, source=False)
    p.set_defaults(func=_cmd_figure1)

    for name, help_text, n_max in (
        ("figure2", "exact rate vs approximations, long blocklengths", 2000),
        ("figure3", "exact rate vs approximation, short blocklengths", 200),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p, source=False, n_range=True)
        p.set_defaults(func=_cmd_rate_sweep, n_min=10, n_max=n_max)
        p.add_argument("--eps", type=_eps_level(1.0), default=0.1)
        p.add_argument("--bias", type=_eps_level(1.0), default=0.11, help="Bernoulli parameter in (0, 1)")

    p = sub.add_parser("figure4", help="normalized dispersion vs entropy for three families")
    common(p, source=False)
    p.set_defaults(func=_cmd_figure4)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except (ConfigurationError, DistributionError, StructuralError) as exc:
        _emit_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except BudgetExceededError as exc:
        _emit_error(exc, EXIT_BUDGET)
        return EXIT_BUDGET
    except (CompLimitsError, ValueError) as exc:
        _emit_error(exc, EXIT_NUMERIC)
        return EXIT_NUMERIC


def _emit_error(exc: Exception, code: int) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    suggestion = getattr(exc, "suggestion", None)
    if suggestion:
        payload["suggestion"] = suggestion
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
