"""Standalone property suites over random codes and dense query grids.

Runnable on their own (``pytest tests/test_properties.py``); the acceptance
module calls the same check functions at full scale.
"""

import math

import numpy as np

from complimits.sources import FiniteDistribution, bernoulli, geometric_distribution, uniform_distribution
from complimits.spectrum import count_heavier, iid_spectrum
from complimits.bounds import codelength_vs_info_check

from _oracles import enumerate_iid, heavier_count_integral, sorted_probs


def _random_source_and_block(rng):
    """Random memoryless source and blocklength with at most 256 strings."""
    m = int(rng.integers(2, 5))
    n = int(rng.integers(1, {2: 8, 3: 5, 4: 4}[m] + 1))
    probs = rng.dirichlet(np.ones(m))
    return FiniteDistribution.from_probs(probs), n


def _random_injective_lengths(rng, total):
    """Codeword lengths of a uniformly random injective code on ``total`` strings."""
    pool = 4 * total
    ranks = rng.choice(pool, size=total, replace=False) + 1
    return [int(r).bit_length() - 1 for r in ranks]


def check_stochastic_dominance(n_codes=200, seed=2024):
    """The optimal code stochastically dominates every injective competitor.

    For random sources and random injective codes f, P[len(f) >= k] must be
    at least P[len(f*) >= k] for every k.  Returns the number of codes tried.
    """
    rng = np.random.default_rng(seed)
    tried = 0
    while tried < n_codes:
        dist, n = _random_source_and_block(rng)
        ranked = sorted_probs(enumerate_iid(dist.probs, n))
        total = len(ranked)
        optimal = [r.bit_length() - 1 for r in range(1, total + 1)]
        for _ in range(min(10, n_codes - tried)):
            lengths = _random_injective_lengths(rng, total)
            order = rng.permutation(total)  # random assignment of codewords
            assigned = [lengths[order[i]] for i in range(total)]
            max_len = max(max(assigned), max(optimal))
            for k in range(0, max_len + 2):
                p_f = math.fsum(p for p, l in zip(ranked, assigned) if l >= k)
                p_star = math.fsum(p for p, l in zip(ranked, optimal) if l >= k)
                assert p_f >= p_star - 1e-12, f"dominance violated at k={k}"
            tried += 1
    return tried


def check_converse_inequalities(seed=977):
    """Undershoot bounds for arbitrary and prefix codes over random instances.

    Arbitrary injective code: P[len <= iota - tau] <= 2^-tau (floor(log2 m)+1).
    Prefix code:              P[len <  iota - tau] <= 2^-tau.
    Returns the number of (code, tau) pairs checked.
    """
    rng = np.random.default_rng(seed)
    taus = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0]
    checked = 0
    for _ in range(30):
        m = int(rng.integers(2, 33))
        dist = FiniteDistribution.from_probs(rng.dirichlet(np.ones(m)))
        lengths = _random_injective_lengths(rng, m)
        for tau in taus:
            left, right = codelength_vs_info_check(dist, lengths, tau)
            assert left <= right + 1e-12
            checked += 1
        # prefix competitor: Shannon lengths of an independent random law
        q = rng.dirichlet(np.ones(m))
        prefix_lengths = [math.ceil(-math.log2(x)) for x in q]
        for tau in taus:
            left, right = codelength_vs_info_check(dist, prefix_lengths, tau, prefix=True)
            assert left <= right + 1e-12
            assert right == 2.0 ** -tau
            checked += 1
    return checked


def check_count_integral_identity():
    """Strictly-heavier string counts match the tail-integral identity.

    Evaluated on a dense beta grid (jump values, midpoints, and log-spaced
    fillers) for several spectra; agreement within half a count.
    """
    spectra = [
        iid_spectrum(bernoulli(0.11), 2),
        iid_spectrum(bernoulli(0.11), 8),
        iid_spectrum(bernoulli(0.11), 32),
        iid_spectrum(uniform_distribution(3), 3),
        iid_spectrum(FiniteDistribution.from_probs((0.5, 0.3, 0.2)), 4),
        iid_spectrum(geometric_distribution(0.5), 1),
    ]
    points = 0
    for spec in spectra:
        infos = [float(v) for v in spec.infos]
        probs = [float(p) for p in spec.probs]
        # beyond ~2^45 a double cannot resolve half a count against beta * P,
        # so the grid stays inside the numerically meaningful range
        cap = min(infos[-1] + 1.0, 45.0)
        levels = set(np.linspace(0.0, cap, 60).tolist())
        levels.update(v for v in infos if v <= cap)  # exactly at jumps
        levels.update(
            (a + b) / 2 for a, b in zip(infos[:-1], infos[1:]) if (a + b) / 2 <= cap
        )
        for level in sorted(levels):
            if level <= 0.0:
                continue
            beta = 2.0 ** level
            expected = heavier_count_integral(infos, probs, beta)
            got = count_heavier(spec, beta)
            assert abs(got - expected) <= 0.5, f"count mismatch at beta=2^{level}"
            points += 1
    return points


class TestStandaloneSuites:
    def test_stochastic_dominance(self):
        assert check_stochastic_dominance(n_codes=60) == 60

    def test_converse_inequalities(self):
        assert check_converse_inequalities() > 0

    def test_count_integral_identity(self):
        assert check_count_integral_identity() > 300
