import math

import numpy as np
import pytest

from complimits.errors import DistributionError, StructuralError
from complimits.sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    binomial_distribution,
    entropy,
    geometric_distribution,
    iid_kernel,
    load_source,
    markov_entropy_rate,
    markov_varentropy_rate,
    poisson_distribution,
    stationary_distribution,
    third_abs_moment,
    uniform_distribution,
    varentropy,
)

from _oracles import enumerate_markov, tilted_varentropy_rate


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestFiniteDistribution:
    def test_zero_mass_symbols_dropped(self):
        d = FiniteDistribution.from_probs((0.5, 0.0, 0.5), symbols=("a", "b", "c"))
        assert d.symbols == ("a", "c")

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            FiniteDistribution.from_probs((1.1, -0.1))

    def test_rejects_bad_normalization(self):
        with pytest.raises(DistributionError):
            FiniteDistribution.from_probs((0.5, 0.4))

    def test_rejects_all_zero(self):
        with pytest.raises(DistributionError):
            FiniteDistribution.from_probs((0.0, 0.0))

    def test_rejects_duplicate_symbols(self):
        with pytest.raises(DistributionError):
            FiniteDistribution.from_probs((0.5, 0.5), symbols=("a", "a"))


class TestMoments:
    def test_entropy_fair_coin(self):
        assert entropy(bernoulli(0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_entropy_bernoulli_011(self):
        assert entropy(bernoulli(0.11)) == pytest.approx(0.4999, abs=5e-5)

    def test_entropy_uniform_8(self):
        assert entropy(uniform_distribution(8)) == pytest.approx(3.0, abs=1e-12)

    def test_varentropy_uniform_zero(self):
        for m in (2, 3, 7, 16):
            assert varentropy(uniform_distribution(m)) == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("p", [0.11, 0.3, 0.45, 0.02])
    def test_varentropy_bernoulli_closed_form(self, p):
        expected = p * (1 - p) * math.log2((1 - p) / p) ** 2
        assert varentropy(bernoulli(p)) == pytest.approx(expected, rel=1e-12)

    def test_varentropy_bernoulli_011_value(self):
        # two-point variance sum, written out
        h = entropy(bernoulli(0.11))
        direct = 0.89 * (-math.log2(0.89) - h) ** 2 + 0.11 * (-math.log2(0.11) - h) ** 2
        assert varentropy(bernoulli(0.11)) == pytest.approx(direct, rel=1e-14)
        assert direct == pytest.approx(0.8907, abs=1e-4)

    def test_third_moment_uniform_and_fair(self):
        assert third_abs_moment(uniform_distribution(5)) == 0.0
        assert third_abs_moment(bernoulli(0.5)) == 0.0

    def test_third_moment_two_term_sum(self):
        h = entropy(bernoulli(0.11))
        direct = 0.89 * abs(-math.log2(0.89) - h) ** 3 + 0.11 * abs(-math.log2(0.11) - h) ** 3
        assert third_abs_moment(bernoulli(0.11)) == pytest.approx(direct, rel=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(6))
            d1 = FiniteDistribution.from_probs(probs)
            perm = rng.permutation(6)
            d2 = FiniteDistribution.from_probs(probs[perm])
            assert entropy(d1) == pytest.approx(entropy(d2), rel=1e-12)
            assert varentropy(d1) == pytest.approx(varentropy(d2), rel=1e-9, abs=1e-13)

    def test_varentropy_zero_iff_uniform_support(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            probs = rng.dirichlet(np.ones(4))
            d = FiniteDistribution.from_probs(probs)
            spread = max(probs) - min(probs)
            if spread > 1e-6:
                assert varentropy(d) > 0.0
        # uniform with a zero symbol still counts as uniform on its support
        d = FiniteDistribution.from_probs((0.25, 0.25, 0.0, 0.25, 0.25))
        assert varentropy(d) == pytest.approx(0.0, abs=1e-20)


class TestCountable:
    def test_geometric_truncation_mass(self):
        d = geometric_distribution(0.5)
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)
        assert d.probs[0] == pytest.approx(0.5)

    def test_poisson_truncation(self):
        d = poisson_distribution(3.0)
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)
        assert len(d) > 10

    def test_fat_tail_bound_renormalizes(self):
        d = geometric_distribution(0.5, tail_bound=1e-3)  # pmf 0.5^(k+1)
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(DistributionError):
            geometric_distribution(1.5)
        with pytest.raises(DistributionError):
            poisson_distribution(-1.0)

    def test_binomial_matches_comb(self):
        d = binomial_distribution(10, 0.5)
        assert dict(zip(d.symbols, d.probs))[3] == pytest.approx(math.comb(10, 3) / 1024, rel=1e-12)


class TestMarkovStructure:
    def test_rejects_nonstochastic(self):
        with pytest.raises(StructuralError):
            MarkovSource(np.array([[0.5, 0.4], [0.2, 0.8]]))

    def test_rejects_reducible(self):
        with pytest.raises(StructuralError):
            MarkovSource(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_periodic_allowed_with_flag(self):
        cyc = MarkovSource(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert cyc.period == 2

    def test_aperiodic_flag(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert src.period == 1

    def test_initial_law_on_unknown_state_rejected(self):
        initial = FiniteDistribution.from_probs((0.5, 0.5), symbols=("a", "b"))
        with pytest.raises(StructuralError, match="unknown state 'a'"):
            MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]), initial=initial)


class TestStationary:
    def test_symmetric_two_state(self):
        src = MarkovSource(np.array([[0.7, 0.3], [0.3, 0.7]]))
        pi = stationary_distribution(src)
        assert pi.probs == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_iid_kernel_gives_marginal(self):
        q = FiniteDistribution.from_probs((0.2, 0.3, 0.5))
        pi = stationary_distribution(iid_kernel(q))
        assert pi.probs == pytest.approx(q.probs, abs=1e-12)

    def test_two_state_balance(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        pi = stationary_distribution(src)
        assert pi.probs == pytest.approx((2 / 3, 1 / 3), abs=1e-12)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(3)
        kern = rng.dirichlet(np.ones(5), size=5)
        src = MarkovSource(kern)
        pi = np.asarray(stationary_distribution(src).probs)
        assert float(np.abs(pi @ kern - pi).sum()) < 1e-12


class TestEntropyRate:
    def test_iid_kernel_reduces_to_marginal(self):
        d = bernoulli(0.11)
        assert markov_entropy_rate(iid_kernel(d)) == pytest.approx(entropy(d), abs=1e-12)

    def test_deterministic_permutation_is_zero(self):
        perm = MarkovSource(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        assert markov_entropy_rate(perm) == 0.0

    def test_two_state_formula_and_block_extrapolation(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        expected = (2 / 3) * binary_entropy(0.1) + (1 / 3) * binary_entropy(0.2)
        rate = markov_entropy_rate(src)
        assert rate == pytest.approx(expected, abs=1e-12)
        # oracle: block entropies by enumeration, H(X^n) - H(X^{n-1}) -> rate
        init = stationary_distribution(src).probs
        kern = src.kernel.tolist()

        def block_entropy(n):
            return math.fsum(p * i for p, i, _ in enumerate_markov(kern, init, n))

        assert block_entropy(12) - block_entropy(11) == pytest.approx(rate, abs=1e-9)


class TestVarentropyRate:
    def test_iid_kernel_matches_marginal(self):
        d = bernoulli(0.11)
        assert markov_varentropy_rate(iid_kernel(d)) == pytest.approx(varentropy(d), abs=1e-10)

    def test_deterministic_equipartition_cases_are_zero(self):
        # deterministic cycle: every transition surprisal is 0
        cyc = MarkovSource(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert markov_varentropy_rate(cyc) == pytest.approx(0.0, abs=1e-12)
        # fair-coin kernel: all strings of one length are equiprobable
        fair = iid_kernel(bernoulli(0.5))
        assert markov_varentropy_rate(fair) == pytest.approx(0.0, abs=1e-12)

    def test_two_state_matches_enumeration_extrapolation(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        init = stationary_distribution(src).probs
        kern = src.kernel.tolist()

        def block_var(n):
            masses = enumerate_markov(kern, init, n)
            mean = math.fsum(p * i for p, i, _ in masses)
            return math.fsum(p * (i - mean) ** 2 for p, i, _ in masses)

        diffs = {n: block_var(n) - block_var(n - 1) for n in (12, 13, 14)}
        rho = (diffs[14] - diffs[13]) / (diffs[13] - diffs[12])
        extrapolated = diffs[14] + (diffs[14] - diffs[13]) * rho / (1 - rho)
        assert markov_varentropy_rate(src) == pytest.approx(extrapolated, abs=1e-3)

    def test_variance_deviation_shrinks_with_n(self):
        # heuristic regression guard: |Var/n - sigma2| decreasing on the test chain
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        sigma2 = markov_varentropy_rate(src)
        init = stationary_distribution(src).probs
        kern = src.kernel.tolist()
        devs = []
        for n in range(4, 15):
            masses = enumerate_markov(kern, init, n)
            mean = math.fsum(p * i for p, i, _ in masses)
            var = math.fsum(p * (i - mean) ** 2 for p, i, _ in masses)
            devs.append(abs(var / n - sigma2))
        assert all(a >= b - 1e-12 for a, b in zip(devs, devs[1:]))

    @pytest.mark.parametrize(
        "kernel",
        [[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]],
        ids=["paper_chain", "three_state"],
    )
    def test_matches_large_deviations_oracle(self, kernel):
        rate = markov_varentropy_rate(MarkovSource(np.array(kernel)))
        assert rate == pytest.approx(tilted_varentropy_rate(kernel), rel=1e-6)

    def test_oscillating_chain_is_zero(self):
        # 2-cycle with unequal surprisals: the covariances never decay, but
        # every two steps carry exactly one bit, so Var(iota(X^n))/n -> 0
        cyc = MarkovSource(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        assert markov_varentropy_rate(cyc) == pytest.approx(0.0, abs=1e-12)


class TestJsonLoading:
    def test_memoryless(self):
        d = load_source('{"type": "memoryless", "probs": [0.89, 0.11]}')
        assert isinstance(d, FiniteDistribution)
        assert d.probs == (0.89, 0.11)

    def test_markov(self):
        src = load_source({"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]], "order": 1})
        assert isinstance(src, MarkovSource)
        assert src.order == 1

    def test_markov_with_initial(self):
        src = load_source(
            {"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]], "initial": [1.0, 0.0]}
        )
        assert src.initial_vector() == pytest.approx([1.0, 0.0])

    def test_geometric_and_poisson(self):
        g = load_source('{"type": "geometric", "param": 0.5}')
        assert isinstance(g, FiniteDistribution)
        p = load_source('{"type": "poisson", "param": 2.0}')
        assert isinstance(p, FiniteDistribution)

    def test_unknown_type(self):
        with pytest.raises(DistributionError):
            load_source('{"type": "gaussian"}')

    def test_missing_field(self):
        with pytest.raises(DistributionError):
            load_source('{"type": "memoryless"}')

    def test_invalid_json(self):
        with pytest.raises(DistributionError):
            load_source("{not json")
