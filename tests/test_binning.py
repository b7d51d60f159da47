import tracemalloc

import numpy as np
import pytest

from complimits import binning
from complimits.errors import ConfigurationError, DistributionError
from complimits.sources import FiniteDistribution, bernoulli, geometric_distribution
from complimits.spectrum import iid_spectrum
from complimits.binning import (
    BinningProblem,
    binning_error_exact,
    binning_error_mc,
    mass_profile,
    _error_factor,
)

from _oracles import (
    brute_binning_mc,
    exact_success_factor,
    exhaustive_binning_error,
    inmemory_binning_error_mc,
    log_space_success_factor,
    uniform_distribution,
)


class TestMassProfile:
    def test_classes_from_distribution(self):
        d = FiniteDistribution((0.5, 0.25, 0.125, 0.125))
        classes = mass_profile(d)
        assert [(c.equal_count, c.heavier_count) for c in classes] == [(1, 0), (1, 1), (2, 2)]
        assert classes[2].class_prob / classes[2].equal_count == pytest.approx(0.125)

    def test_classes_from_spectrum(self):
        s = iid_spectrum(bernoulli(0.11), 2)
        classes = mass_profile(s)
        assert [(c.equal_count, c.heavier_count) for c in classes] == [(1, 0), (2, 1), (4 - 1, 3)][:2] + [(1, 3)]

    def test_heavier_strictly_monotone(self):
        rng = np.random.default_rng(2)
        d = FiniteDistribution(rng.dirichlet(np.ones(8)))
        classes = mass_profile(d)
        heavier = [c.heavier_count for c in classes]
        assert heavier == sorted(set(heavier))


class TestExactFormula:
    def test_single_mass_always_decoded(self):
        d = FiniteDistribution((1.0,))
        for n_bins in (1, 2, 7):
            assert binning_error_exact(BinningProblem(d, n_bins)) == pytest.approx(0.0, abs=1e-15)

    def test_two_equiprobable_masses_two_bins(self):
        assert binning_error_exact(BinningProblem(uniform_distribution(2), 2)) == pytest.approx(0.25)

    def test_single_bin_picks_argmax(self):
        d = FiniteDistribution((0.5, 0.3, 0.2))
        # decoder always answers the heaviest outcome
        assert binning_error_exact(BinningProblem(d, 1)) == pytest.approx(0.5)

    def test_matches_exhaustive_enumeration_grid(self):
        rng = np.random.default_rng(7)
        cases = [uniform_distribution(4).probs, (0.5, 0.25, 0.125, 0.125)]
        cases += [tuple(rng.dirichlet(np.ones(m))) for m in (2, 3, 5, 6)]
        for probs in cases:
            d = FiniteDistribution(probs)
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
        flat = FiniteDistribution(probs)
        for n_bins in (2, 5):
            a = binning_error_exact(BinningProblem(s, n_bins))
            b = binning_error_exact(BinningProblem(flat, n_bins))
            assert a == pytest.approx(b, abs=1e-12)

    def test_error_non_increasing_in_bins(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = FiniteDistribution(rng.dirichlet(np.ones(6)))
            errs = [binning_error_exact(BinningProblem(d, n)) for n in range(1, 30)]
            assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_many_bins_small_error(self):
        for probs in [uniform_distribution(8).probs, (0.4, 0.3, 0.2, 0.1)]:
            d = FiniteDistribution(probs)
            err = binning_error_exact(BinningProblem(d, len(d) * 64))
            assert err < 0.05

    def test_closed_form_matches_direct_sum(self):
        # the error side against 1 - the exact Fraction direct sum, including
        # bin counts where 1 - q^J, or 1 - the success factor, would cancel
        for n_bins in (1, 2, 3, 17, 10**6, 2**40):
            for m_heavier in (0, 5, 1000):
                for j in (1, 2, 10, 40, 64, 100):
                    exact = float(1 - exact_success_factor(n_bins, j, m_heavier))
                    assert _error_factor(n_bins, j, m_heavier) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_closed_form_large_class(self):
        # the direct sum, taken through logs, stays tractable at J = 10^4 and
        # must agree; its success factor is about 2e-5, so 1 - it cancels nothing
        direct = log_space_success_factor(3, 10_000, 7)
        closed = _error_factor(3, 10_000, 7)
        assert closed == pytest.approx(1.0 - direct, rel=1e-12)

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
        d = FiniteDistribution((1.0,))
        est, err = binning_error_mc(BinningProblem(d, 3), 1000, seed=0)
        assert est == 0.0

    def test_two_masses_agreement(self):
        est, err = binning_error_mc(BinningProblem(uniform_distribution(2), 2), 1_000_000, seed=21)
        assert abs(est - 0.25) <= 4 * err

    def test_seed_determinism(self):
        problem = BinningProblem(FiniteDistribution((0.5, 0.3, 0.2)), 2)
        a = binning_error_mc(problem, 50_000, seed=3)
        b = binning_error_mc(problem, 50_000, seed=3)
        assert a == b
        c = binning_error_mc(problem, 50_000, seed=4)
        assert a != c

    def test_spectrum_input_rejected(self):
        s = iid_spectrum(bernoulli(0.3), 2)
        with pytest.raises(DistributionError):
            binning_error_mc(BinningProblem(s, 2), 100, seed=0)

    def test_bins_past_the_limit_raise_before_any_draw(self, monkeypatch):
        # NumPy draws bins below at most 2^63; the exact error still answers
        problem = BinningProblem(FiniteDistribution((0.5, 0.5)), 2**64)
        assert binning.MC_MAX_BINS == 2**63
        assert 0.0 < binning_error_exact(problem) < 1e-19

        def no_generator(seed):
            raise AssertionError("drew bins")

        monkeypatch.setattr(np.random, "PCG64", no_generator)
        with pytest.raises(ConfigurationError, match=r"n_bins up to 2\^63, not 18446744073709551616"):
            binning_error_mc(problem, 10, 0)


# laws with equal-probability classes, listed in and out of probability order,
# and the 78-symbol geometric law of the monte_carlo benchmark, which has none
TIE_LAWS = [
    uniform_distribution(4),
    FiniteDistribution((0.4, 0.2, 0.2, 0.1, 0.1)),
    FiniteDistribution((0.5, 0.125, 0.125, 0.125, 0.125)),
    FiniteDistribution((0.1, 0.3, 0.3, 0.2, 0.1)),
    geometric_distribution(0.3),
]


# powers of two up to 2^63 are jumped past, 3, 5 and 7 drawn and dropped
def _assert_matches_inmemory(dist, trials_list, bins_list=(1, 2, 3, 5, 7, 16, 2**32, 2**33, 2**63), seeds=(0, 1, 2)):
    for n_bins in bins_list:
        problem = BinningProblem(dist, n_bins)
        for trials in trials_list:
            for seed in seeds:
                expected = inmemory_binning_error_mc(problem, trials, seed)
                assert binning_error_mc(problem, trials, seed) == expected, (n_bins, trials, seed)


def _next_draws(draw):
    return (draw.integers(0, 5, size=3).tolist(), draw.random(3).tolist(),
            draw.integers(0, 2**40, size=2).tolist(), draw.choice(4, size=3, p=[0.4, 0.3, 0.2, 0.1]).tolist())


class TestSkipBins:
    """After ``_skip_bins`` the stream continues exactly as after drawing the
    bins, in one block or in several, so a change to how NumPy's bounded
    integers consume PCG64 fails here rather than moving an estimate."""

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 7, 2**31, 2**32, 2**33, 2**63])
    @pytest.mark.parametrize("cells", [1, 2, 7, 8, 1001, 2**20 + 1])
    @pytest.mark.parametrize("blocks", ["one", "several"])
    def test_next_draws_equal_those_after_drawn_bins(self, monkeypatch, n_bins, cells, blocks):
        block = cells if blocks == "one" else cells // 4 | 1  # odd, so blocks end mid-word
        # the drawn-and-dropped path of 3 and 7 streams in blocks of MC_BLOCK_CELLS
        monkeypatch.setattr(binning, "MC_BLOCK_CELLS", block)
        drawn = np.random.Generator(np.random.PCG64(11))
        for a in range(0, cells, block):  # a half-word left by an odd block carries into the next
            drawn.integers(0, n_bins, size=min(block, cells - a))
        skipped = np.random.Generator(np.random.PCG64(11))
        binning._skip_bins(skipped, n_bins, cells)
        assert _next_draws(skipped) == _next_draws(drawn)


class TestMonteCarloStreaming:
    """The streamed estimate equals the one-array estimate bit for bit, at
    any block size, and its memory does not grow with trials x |support|."""

    @pytest.mark.parametrize("block_rows", [1, 7])
    @pytest.mark.parametrize("law", range(len(TIE_LAWS)))
    def test_any_block_size_matches_inmemory(self, monkeypatch, law, block_rows):
        dist = TIE_LAWS[law]
        monkeypatch.setattr(binning, "MC_BLOCK_CELLS", block_rows * len(dist))
        r = block_rows + block_rows * len(dist) % 2  # rows per block: an odd support takes an even count
        # one row short of, exactly at and one past a block edge, then several blocks and a part
        _assert_matches_inmemory(dist, sorted({1, r - 1, r, r + 1, 5 * r + 3} - {0}))

    @pytest.mark.parametrize("law", range(len(TIE_LAWS)))
    def test_shipped_block_size_matches_inmemory(self, law):
        dist = TIE_LAWS[law]
        r = max(1, binning.MC_BLOCK_CELLS // len(dist))
        r += r * len(dist) % 2
        _assert_matches_inmemory(dist, [1, 20_001])
        # each edge case draws about MC_BLOCK_CELLS bins (twice at 7), so fewer of them
        _assert_matches_inmemory(dist, [r - 1, r, r + 1], bins_list=(2, 7), seeds=(0,))

    def test_traced_peak_memory_bounded(self):
        # 40,000 x 400 bins would be 128 MB as one int64 array
        weights = 1.0 + np.arange(400) // 4
        problem = BinningProblem(FiniteDistribution(weights / weights.sum()), 3)
        tracemalloc.start()
        try:
            binning_error_mc(problem, 40_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestReplayBins:
    """The replayed bins are the ones ``Generator.integers`` draws, in one
    block or in several, so a change to how NumPy's bounded integers consume
    PCG64 fails here rather than moving an estimate.  N = 1 draws no bins;
    ``TestSkipBins`` checks that NumPy's draw below 1 reads nothing either."""

    @pytest.mark.parametrize("rows", [(3,), (4, 2), (4, 2, 3)])
    @pytest.mark.parametrize("j", [*range(1, 34), 63])
    def test_bins_equal_bounded_draws(self, j, rows):
        n_bins, m = 2**j, 7  # odd, so the blocks sized as binning_error_mc sizes them end in an odd one
        drawn = np.random.Generator(np.random.PCG64(5))
        replay = np.random.Generator(np.random.PCG64(5))
        blocks = [binning._replay_bins(replay, n_bins, r, m) for r in rows]
        assert np.concatenate(blocks).tolist() == drawn.integers(0, n_bins, size=(sum(rows), m)).tolist()
        if sum(rows) * m % 2 and j <= 32:
            # the replay drops the half-word that NumPy keeps buffered;
            # whole-word draws, as the realizations, read past it alike
            assert replay.random(3).tolist() == drawn.random(3).tolist()
        else:
            assert _next_draws(replay) == _next_draws(drawn)


# the monte_carlo workload's law, one with a tie class, and one listed out of
# probability order with three
ORACLE_LAWS = [
    geometric_distribution(0.3),
    FiniteDistribution((0.4, 0.2, 0.2, 0.1, 0.1)),
    FiniteDistribution((0.05, 0.3, 0.1, 0.2, 0.1, 0.2, 0.05)),
]


@pytest.mark.parametrize("trials", [7, 301])
@pytest.mark.parametrize("n_bins", [1, 2, 3, 4, 5, 8, 16, 2**32])
@pytest.mark.parametrize("law", range(len(ORACLE_LAWS)))
def test_estimate_equals_trial_by_trial_oracle(monkeypatch, law, n_bins, trials):
    # blocks of 3 rows (4 for the odd supports, to keep each block's cell
    # count even), so every run spans two blocks or more
    dist = ORACLE_LAWS[law]
    monkeypatch.setattr(binning, "MC_BLOCK_CELLS", 3 * len(dist))
    problem = BinningProblem(dist, n_bins)
    assert binning_error_mc(problem, trials, seed=law) == brute_binning_mc(problem, trials, seed=law)
