import tracemalloc

import numpy as np
import pytest

from complimits import binning
from complimits.errors import DistributionError
from complimits.sources import FiniteDistribution, bernoulli, geometric_distribution, uniform_distribution
from complimits.spectrum import iid_spectrum
from complimits.binning import (
    BinningProblem,
    binning_error_exact,
    binning_error_mc,
    mass_profile,
    _success_factor,
)

from _oracles import (
    exact_success_factor,
    exhaustive_binning_error,
    inmemory_binning_error_mc,
    log_space_success_factor,
)


class TestMassProfile:
    def test_classes_from_distribution(self):
        d = FiniteDistribution.from_probs((0.5, 0.25, 0.125, 0.125))
        classes = mass_profile(d)
        assert [(c.equal_count, c.heavier_count) for c in classes] == [(1, 0), (1, 1), (2, 2)]
        assert classes[2].per_string_prob == pytest.approx(0.125)

    def test_classes_from_spectrum(self):
        s = iid_spectrum(bernoulli(0.11), 2)
        classes = mass_profile(s)
        assert [(c.equal_count, c.heavier_count) for c in classes] == [(1, 0), (2, 1), (4 - 1, 3)][:2] + [(1, 3)]

    def test_heavier_strictly_monotone(self):
        rng = np.random.default_rng(2)
        d = FiniteDistribution.from_probs(rng.dirichlet(np.ones(8)))
        classes = mass_profile(d)
        heavier = [c.heavier_count for c in classes]
        assert heavier == sorted(set(heavier))


class TestExactFormula:
    def test_single_mass_always_decoded(self):
        d = FiniteDistribution.from_probs((1.0,))
        for n_bins in (1, 2, 7):
            assert binning_error_exact(BinningProblem(d, n_bins)) == pytest.approx(0.0, abs=1e-15)

    def test_two_equiprobable_masses_two_bins(self):
        assert binning_error_exact(BinningProblem(uniform_distribution(2), 2)) == pytest.approx(0.25)

    def test_single_bin_picks_argmax(self):
        d = FiniteDistribution.from_probs((0.5, 0.3, 0.2))
        # decoder always answers the heaviest outcome
        assert binning_error_exact(BinningProblem(d, 1)) == pytest.approx(0.5)

    def test_matches_exhaustive_enumeration_grid(self):
        rng = np.random.default_rng(7)
        cases = [uniform_distribution(4).probs, (0.5, 0.25, 0.125, 0.125)]
        cases += [tuple(rng.dirichlet(np.ones(m))) for m in (2, 3, 5, 6)]
        for probs in cases:
            d = FiniteDistribution.from_probs(probs)
            for n_bins in (1, 2, 3, 4):
                exact = binning_error_exact(BinningProblem(d, n_bins))
                brute = exhaustive_binning_error(d.probs, n_bins)
                assert exact == pytest.approx(brute, abs=1e-12)

    def test_spectrum_input_equivalent(self):
        d = bernoulli(0.3)
        s = iid_spectrum(d, 3)
        probs = []
        for p, c in zip(s.probs, s.counts):
            probs.extend([p / c] * c)
        flat = FiniteDistribution.from_probs(probs)
        for n_bins in (2, 5):
            a = binning_error_exact(BinningProblem(s, n_bins))
            b = binning_error_exact(BinningProblem(flat, n_bins))
            assert a == pytest.approx(b, abs=1e-12)

    def test_error_non_increasing_in_bins(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = FiniteDistribution.from_probs(rng.dirichlet(np.ones(6)))
            errs = [binning_error_exact(BinningProblem(d, n)) for n in range(1, 30)]
            assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_many_bins_small_error(self):
        for probs in [uniform_distribution(8).probs, (0.4, 0.3, 0.2, 0.1)]:
            d = FiniteDistribution.from_probs(probs)
            err = binning_error_exact(BinningProblem(d, len(d) * 64))
            assert err < 0.05

    def test_closed_form_matches_direct_sum(self):
        # against the exact Fraction direct sum, including bin counts where
        # 1 - q^J would cancel if q^J were formed first
        for n_bins in (1, 2, 3, 17, 10**6, 2**40):
            for m_heavier in (0, 5, 1000):
                for j in (1, 2, 10, 40, 64, 100):
                    exact = float(exact_success_factor(n_bins, j, m_heavier))
                    assert _success_factor(n_bins, j, m_heavier) == pytest.approx(exact, rel=1e-12)

    def test_closed_form_large_class(self):
        # the direct sum, taken through logs, stays tractable at J = 10^4 and must agree
        direct = log_space_success_factor(3, 10_000, 7)
        closed = _success_factor(3, 10_000, 7)
        assert closed == pytest.approx(direct, rel=1e-12)

    def test_counts_beyond_double_range(self):
        # at n = 1100 class sizes and heavier counts pass 2^1024; the success
        # probability is of order 0.89^n, so the error rounds to 1
        for n in (1000, 1100):
            assert binning_error_exact(BinningProblem(iid_spectrum(bernoulli(0.11), n), 2)) == 1.0

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            BinningProblem(uniform_distribution(2), 0)


class TestMonteCarlo:
    def test_single_mass_exact_zero(self):
        d = FiniteDistribution.from_probs((1.0,))
        est, err = binning_error_mc(BinningProblem(d, 3), 1000, seed=0)
        assert est == 0.0

    def test_two_masses_agreement(self):
        est, err = binning_error_mc(BinningProblem(uniform_distribution(2), 2), 1_000_000, seed=21)
        assert abs(est - 0.25) <= 4 * err

    def test_seed_determinism(self):
        problem = BinningProblem(FiniteDistribution.from_probs((0.5, 0.3, 0.2)), 2)
        a = binning_error_mc(problem, 50_000, seed=3)
        b = binning_error_mc(problem, 50_000, seed=3)
        assert a == b
        c = binning_error_mc(problem, 50_000, seed=4)
        assert a != c

    def test_spectrum_input_rejected(self):
        s = iid_spectrum(bernoulli(0.3), 2)
        with pytest.raises(DistributionError):
            binning_error_mc(BinningProblem(s, 2), 100, seed=0)


# laws with equal-probability classes, listed in and out of probability order,
# and the 78-symbol geometric law of the monte_carlo benchmark, which has none
TIE_LAWS = [
    uniform_distribution(4),
    FiniteDistribution.from_probs((0.4, 0.2, 0.2, 0.1, 0.1)),
    FiniteDistribution.from_probs((0.5, 0.125, 0.125, 0.125, 0.125)),
    FiniteDistribution.from_probs((0.1, 0.3, 0.3, 0.2, 0.1)),
    geometric_distribution(0.3),
]


def _assert_matches_inmemory(dist, trials_list, bins_list=(1, 2, 3, 5, 7, 16), seeds=(0, 1, 2)):
    for n_bins in bins_list:
        problem = BinningProblem(dist, n_bins)
        for trials in trials_list:
            for seed in seeds:
                expected = inmemory_binning_error_mc(problem, trials, seed)
                assert binning_error_mc(problem, trials, seed) == expected, (n_bins, trials, seed)


class TestMonteCarloStreaming:
    """The streamed estimate equals the one-array estimate bit for bit, at
    any block size, and its memory does not grow with trials x |support|."""

    @pytest.mark.parametrize("block_rows", [1, 7])
    @pytest.mark.parametrize("law", range(len(TIE_LAWS)))
    def test_any_block_size_matches_inmemory(self, monkeypatch, law, block_rows):
        dist = TIE_LAWS[law]
        monkeypatch.setattr(binning, "MC_BLOCK_CELLS", block_rows * len(dist))
        r = block_rows
        # one row short of, exactly at and one past a block edge, then several blocks and a part
        _assert_matches_inmemory(dist, sorted({1, r - 1, r, r + 1, 5 * r + 3} - {0}))

    @pytest.mark.parametrize("law", range(len(TIE_LAWS)))
    def test_shipped_block_size_matches_inmemory(self, law):
        dist = TIE_LAWS[law]
        r = max(1, binning.MC_BLOCK_CELLS // len(dist))
        _assert_matches_inmemory(dist, [1, 20_001])
        # each edge case draws about MC_BLOCK_CELLS bins twice, so fewer of them
        _assert_matches_inmemory(dist, [r - 1, r, r + 1], bins_list=(2, 7), seeds=(0,))

    def test_traced_peak_memory_bounded(self):
        # 40,000 x 400 bins would be 128 MB as one int64 array
        weights = 1.0 + np.arange(400) // 4
        problem = BinningProblem(FiniteDistribution.from_probs(weights / weights.sum()), 3)
        tracemalloc.start()
        try:
            binning_error_mc(problem, 40_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
