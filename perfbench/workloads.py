"""Benchmark workloads: seeded inputs, CLI argument lists and exact expected counts.

Each workload is a fixed list of ``complimits`` CLI commands.  The seed only
changes parameter values (probabilities, eps levels, kernels, Monte-Carlo
seeds), never sizes, so every seed does the same amount of work and the
exact counts below hold for every seed.  Seed 0 gives the paper's parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0
PAPER_CHAIN = [[0.9, 0.1], [0.2, 0.8]]
MIN_INFO_GAP = 1e-6  # bits; drawn 3-letter sources keep every type class a distinct mass


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus the work it must do.

    ``rows`` and ``masses`` are None when the data decide them (Monte-Carlo
    spectra); the checks then take them from the output.
    """

    name: str
    argv: tuple
    kind: str  # which output check applies
    rows: int | None
    spectra: int = 0
    masses: int | None = 0
    transitions: int = 0
    trials: int = 0
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple

    def expected(self, key: str, output_rows: dict) -> int:
        """Exact total of one count over the workload; None-valued command
        counts are filled from the rows each command actually wrote."""
        total = 0
        for cmd in self.commands:
            value = getattr(cmd, key)
            total += output_rows[cmd.name] if value is None else value
        return total


def _memoryless(probs) -> str:
    return json.dumps({"type": "memoryless", "probs": [float(p) for p in probs]})


def _markov(kernel) -> str:
    return json.dumps({"type": "markov", "kernel": [[float(p) for p in row] for row in kernel]})


def _n_range(n_min: int, n_max: int, n_step: int = 1) -> list:
    return ["--n-min", str(n_min), "--n-max", str(n_max), "--n-step", str(n_step)]


def _three_letter(rng: np.random.Generator) -> list:
    """Draw a 3-letter law whose type classes at n <= 120 never tie."""
    while True:
        drawn = np.sort(0.05 + 0.85 * rng.dirichlet([2.0, 2.0, 2.0]))[::-1]  # every p >= 0.05
        p1, p2 = round(float(drawn[0]), 6), round(float(drawn[1]), 6)
        probs = [p1, p2, 1.0 - p1 - p2]
        if _min_info_gap(probs, 120) > MIN_INFO_GAP:
            return probs


def _min_info_gap(probs, n: int) -> float:
    iotas = -np.log2(np.asarray(probs))
    a, b = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = a + b <= n
    infos = np.sort((n - a - b)[keep] * iotas[0] + a[keep] * iotas[1] + b[keep] * iotas[2])
    return float(np.diff(infos).min())


def rate_sweep(seed: int) -> Workload:
    """Build-heavy: about 2,100 spectra, each queried once."""
    rng = np.random.default_rng([seed, 1])
    if seed == DEFAULT_SEED:
        bias, eps2, probs3, eps3 = 0.11, 0.1, [0.6, 0.3, 0.1], 0.1
    else:
        bias, eps2 = round(rng.uniform(0.08, 0.14), 6), round(rng.uniform(0.05, 0.2), 4)
        probs3, eps3 = _three_letter(rng), round(rng.uniform(0.05, 0.2), 4)
    f2 = range(10, 2001)
    b3 = range(10, 121)
    return Workload("rate_sweep", seed, (
        Command(
            "figure2",
            ("figure2", *_n_range(10, 2000), "--bias", repr(bias), "--eps", repr(eps2)),
            "figure2", rows=len(f2), spectra=len(f2), masses=sum(n + 1 for n in f2),
            params={"probs": [1.0 - bias, bias], "eps": eps2, "n": [f2.start, f2.stop - 1]},
        ),
        Command(
            "bounds",
            ("bounds", "--source", _memoryless(probs3), *_n_range(10, 120), "--eps", repr(eps3)),
            "bounds", rows=len(b3), spectra=len(b3), masses=sum(math.comb(n + 2, 2) for n in b3),
            params={"probs": probs3, "eps": eps3, "n": [b3.start, b3.stop - 1]},
        ),
    ))


def exact_tables(seed: int) -> Workload:
    """Query- and output-heavy: each spectrum is read about 2n times."""
    rng = np.random.default_rng([seed, 2])
    if seed == DEFAULT_SEED:
        bias, eps = 0.11, [0.01, 0.05, 0.1, 0.2]
    else:
        bias = round(rng.uniform(0.08, 0.14), 6)
        eps = [round(rng.uniform(lo, hi), 4) for lo, hi in ((0.005, 0.02), (0.03, 0.07), (0.08, 0.15), (0.16, 0.3))]
    probs = [1.0 - bias, bias]
    lim = range(10, 501)
    disp = range(50, 2001, 50)
    return Workload("exact_tables", seed, (
        Command(
            "limits",
            ("limits", "--source", _memoryless(probs), *_n_range(10, 500), "--eps", *map(repr, eps)),
            "limits", rows=sum(n + 2 for n in lim), spectra=len(lim), masses=sum(n + 1 for n in lim),
            params={"probs": probs, "eps": eps, "n": [lim.start, lim.stop - 1]},
        ),
        Command(
            "dispersion",
            ("dispersion", "--source", _memoryless(probs), *_n_range(50, 2000, 50)),
            "dispersion", rows=len(disp), spectra=len(disp), masses=sum(n + 1 for n in disp),
            params={"probs": probs, "n": list(disp)},
        ),
    ))


def monte_carlo(seed: int) -> Workload:
    """Sampling-heavy: Markov path sampling and Monte-Carlo binning only."""
    rng = np.random.default_rng([seed, 3])
    if seed == DEFAULT_SEED:
        chain = PAPER_CHAIN
    else:
        a, b = round(rng.uniform(0.05, 0.2), 6), round(rng.uniform(0.1, 0.3), 6)
        chain = [[1.0 - a, a], [b, 1.0 - b]]
    big = 0.5 / 8 + 0.5 * rng.dirichlet(np.ones(8), size=8)  # every entry >= 1/16
    big = (big / big.sum(axis=1, keepdims=True)).tolist()
    # the seed reaches binning only through its Monte-Carlo seed: the law sets
    # how many trials land on each symbol, and with it the peak memory
    geometric = {"type": "geometric", "param": 0.3}
    bins = [1, 2, 4, 8, 16]
    trials = 200_000
    return Workload("monte_carlo", seed, (
        Command(
            "spectrum_2state",
            ("spectrum", "--source", _markov(chain), "--n", "1000", "--mc-samples", "50000", "--seed", str(seed)),
            "spectrum_mc", rows=None, spectra=1, masses=None, transitions=50_000 * 999,
            params={"kernel": chain, "n": 1000, "samples": 50_000},
        ),
        Command(
            "spectrum_8state",
            ("spectrum", "--source", _markov(big), "--n", "500", "--mc-samples", "20000", "--seed", str(seed + 1)),
            "spectrum_mc", rows=None, spectra=1, masses=None, transitions=20_000 * 499,
            params={"kernel": big, "n": 500, "samples": 20_000},
        ),
        Command(
            "binning",
            ("binning", "--source", json.dumps(geometric), "--bins", *map(str, bins),
             "--trials", str(trials), "--seed", str(seed + 2)),
            "binning", rows=len(bins), trials=trials * len(bins),
            params={"bins": bins, "trials": trials},
        ),
    ))


WORKLOADS = {w.__name__: w for w in (rate_sweep, exact_tables, monte_carlo)}


def build(name: str, seed: int) -> Workload:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return WORKLOADS[name](seed)
