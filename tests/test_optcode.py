import math
from fractions import Fraction

import numpy as np
import pytest

from complimits.budgets import Budgets
from complimits.errors import BudgetExceededError, DistributionError, UnsupportedSpectrumError
from complimits.sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    geometric_distribution,
    uniform_distribution,
)
from complimits.spectrum import iid_spectrum, markov_spectrum_mc
from complimits.optcode import (
    OptimalCode,
    R_star,
    R_star_via_counting,
    Rbar,
    decode,
    encode,
    epsilon_star,
    expected_length_equiprobable,
    integral_identity_check,
    length_distribution,
    max_codeword_length,
    prefix_R,
    prefix_epsilon,
    rank_cut,
    var_length_equiprobable,
)

from _oracles import (
    brute_R_star,
    brute_Rbar,
    brute_epsilon_star,
    brute_prefix_epsilon,
    brute_var_len,
    enumerate_iid,
    huffman_average,
    sorted_probs,
)

B11 = bernoulli(0.11)
S11_2 = iid_spectrum(B11, 2)


class TestRankCut:
    def test_zero_threshold(self):
        cut = rank_cut(S11_2, 0)
        assert cut.retained_prob == 0.0
        assert cut.excess_prob == pytest.approx(1.0, abs=1e-12)
        assert cut.per_string_prob == pytest.approx(0.7921, abs=1e-12)

    def test_zero_threshold_reports_per_string_prob(self):
        # Bernoulli(1/2) at n = 3 is one mass of 8 strings: 1/8 each, not the class mass 1
        cut = rank_cut(iid_spectrum(bernoulli(0.5), 3), 0)
        assert cut.per_string_prob == 0.125

    def test_full_threshold(self):
        cut = rank_cut(S11_2, 4)
        assert cut.excess_prob == 0.0

    def test_partial_tie_split(self):
        cut = rank_cut(S11_2, 2)  # second string sits inside the count-2 mass
        assert cut.index == 1
        assert cut.partial_count == 1
        assert cut.retained_prob == pytest.approx(0.7921 + 0.0979, abs=1e-12)
        assert cut.excess_prob == pytest.approx(0.0979 + 0.0121, abs=1e-12)

    def test_counts_monotone_in_threshold(self):
        s = iid_spectrum(B11, 6)
        cuts = [rank_cut(s, m) for m in range(0, 65, 7)]
        retained = [c.cum_count_below + c.partial_count for c in cuts]
        assert retained == sorted(retained)


class TestEpsilonStar:
    def test_k0_is_one(self):
        assert epsilon_star(S11_2, 0) == 1.0

    def test_uniform_binary_boundary(self):
        s = iid_spectrum(uniform_distribution(2), 4)
        assert epsilon_star(s, 4) == pytest.approx(1 / 16, abs=1e-15)
        assert epsilon_star(s, 5) == 0.0

    def test_bernoulli_n2_values(self):
        assert epsilon_star(S11_2, 1) == pytest.approx(0.2079, abs=1e-12)
        assert epsilon_star(S11_2, 2) == pytest.approx(0.0121, abs=1e-12)

    def test_non_increasing_and_terminal_zero(self):
        s = iid_spectrum(FiniteDistribution.from_probs((0.5, 0.3, 0.2)), 5)
        values = [epsilon_star(s, k) for k in range(0, max_codeword_length(s) + 2)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0

    def test_power_of_two_alphabet_min_mass(self):
        # at k = n log2|A| exactly one string is left out: the least likely
        s = iid_spectrum(B11, 5)
        assert epsilon_star(s, 5) == pytest.approx(0.11 ** 5, rel=1e-10)

    def test_mc_spectrum_rejected(self):
        mc = markov_spectrum_mc(MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]])), 4, 100, 0)
        with pytest.raises(UnsupportedSpectrumError):
            epsilon_star(mc, 1)


class TestRStar:
    def test_deterministic_source(self):
        # threshold convention: the smallest k with P[len >= k] <= eps is 1
        # even for a point mass (the excess probability at k = 0 is always 1)
        s = iid_spectrum(FiniteDistribution.from_probs((1.0,)), 3)
        assert R_star(s, 0.3) == pytest.approx(1 / 3)
        assert epsilon_star(s, 1) == 0.0

    def test_uniform_small_eps_branch(self):
        s = iid_spectrum(uniform_distribution(2), 4)
        assert R_star(s, 0.05) == pytest.approx(5 / 4)  # log2|A| + 1/n
        assert R_star(s, 0.0625) == pytest.approx(4 / 4)  # eps reaches the min mass

    def test_bernoulli_example(self):
        assert R_star(S11_2, 0.1) == pytest.approx(1.0)

    def test_eps_zero_allowed(self):
        s = iid_spectrum(FiniteDistribution.from_probs((0.5, 0.3, 0.2)), 2)
        assert R_star(s, 0.0) == pytest.approx(math.ceil(2 * math.log2(3)) / 2)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            R_star(S11_2, 1.0)
        with pytest.raises(ValueError):
            R_star(S11_2, -0.1)


class TestRStarViaCounting:
    def test_degenerate_zero_threshold(self):
        eps, rate = R_star_via_counting(S11_2, 0.0)
        assert eps == pytest.approx(1.0, abs=1e-12)
        assert rate == -1 / 2  # empty-string threshold, reported as-is

    def test_uniform_binary(self):
        s = iid_spectrum(uniform_distribution(2), 4)
        eps, rate = R_star_via_counting(s, 4.5)
        assert eps == 0.0
        assert rate == pytest.approx(1.0)  # all 16 strings counted as heavier
        eps, rate = R_star_via_counting(s, 4.0)  # strict count at the boundary
        assert eps == pytest.approx(1.0, abs=1e-12)
        assert rate == -1 / 4

    def test_bernoulli_jump(self):
        a = float(S11_2.infos[1])
        eps, rate = R_star_via_counting(S11_2, a)
        assert eps == pytest.approx(0.2079, abs=1e-12)
        assert rate == 0.0

    def test_coupled_to_R_star_on_jump_grid(self):
        # the counting form reports the open-threshold rate, one codelength
        # unit below the closed-threshold rate at every spectrum jump
        for n in (1, 3, 6, 9):
            s = iid_spectrum(B11, n)
            for a in s.infos:
                eps, rate = R_star_via_counting(s, float(a))
                if eps < 1.0:
                    assert R_star(s, eps) == pytest.approx(rate + 1.0 / n, abs=1e-12)


class TestRbar:
    def test_geometric_half(self):
        s = iid_spectrum(geometric_distribution(0.5).truncate(), 1)
        assert Rbar(s) == pytest.approx(0.632843, abs=1e-5)

    def test_uniform_7(self):
        s = iid_spectrum(uniform_distribution(7), 1)
        assert Rbar(s) == pytest.approx(10 / 7, abs=1e-12)

    def test_methods_agree(self):
        for n in (1, 4, 9):
            s = iid_spectrum(B11, n)
            assert Rbar(s, "lengths") == pytest.approx(Rbar(s, "excess"), abs=1e-12)

    def test_integral_identity(self):
        assert integral_identity_check(iid_spectrum(uniform_distribution(2), 2)) < 1e-12
        assert integral_identity_check(iid_spectrum(B11, 8)) < 1e-9
        assert integral_identity_check(iid_spectrum(FiniteDistribution.from_probs((0.5, 0.3, 0.2)), 4)) < 1e-9


class TestEquiprobableForms:
    def test_mean_small_cases(self):
        assert expected_length_equiprobable(1) == 0.0
        assert expected_length_equiprobable(7) == pytest.approx(10 / 7, abs=1e-14)
        assert expected_length_equiprobable(3) == pytest.approx(2 / 3, abs=1e-14)

    def test_mean_matches_rank_oracle(self):
        for m in (2, 5, 12, 33, 100):
            lengths = [r.bit_length() - 1 for r in range(1, m + 1)]
            assert expected_length_equiprobable(m) == pytest.approx(sum(lengths) / m, abs=1e-12)

    def test_power_of_two_simplification(self):
        # (M+1) log2(M+1) / M - 2 whenever M+1 is a power of 2
        for mpow in range(1, 22):
            m = (1 << mpow) - 1
            expected = Fraction(mpow * (1 << mpow) - 2 * (1 << mpow) + 2, (1 << mpow) - 1)
            assert expected_length_equiprobable(m) == pytest.approx(float(expected), abs=1e-12)

    def test_variance_small_cases(self):
        assert var_length_equiprobable(1) == 0.0
        assert var_length_equiprobable(3) == pytest.approx(2 / 9, abs=1e-12)

    def test_variance_matches_rank_oracle(self):
        for m in (2, 6, 13, 64, 100, 1000):
            lengths = [r.bit_length() - 1 for r in range(1, m + 1)]
            mean = sum(lengths) / m
            var = sum((l - mean) ** 2 for l in lengths) / m
            assert var_length_equiprobable(m) == pytest.approx(var, abs=1e-9)

    def test_oscillation_limit_points(self):
        assert var_length_equiprobable(1 << 20) == pytest.approx(2.0, abs=1e-3)
        assert var_length_equiprobable(round((1 << 20) * 2 / 3)) == pytest.approx(2.25, abs=1e-3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            expected_length_equiprobable(0)
        with pytest.raises(ValueError):
            var_length_equiprobable(0)


class TestPrefixCoupling:
    def test_shift_to_unconstrained(self):
        assert prefix_epsilon(S11_2, 2) == pytest.approx(epsilon_star(S11_2, 1), abs=1e-15)
        assert prefix_epsilon(S11_2, 1) == 1.0  # epsilon_star(n, 0)

    def test_zero_branch(self):
        s = iid_spectrum(uniform_distribution(2), 4)
        for k in (5, 6, 9):  # k - 1 >= n log2|A| = 4
            assert prefix_epsilon(s, k) == 0.0

    def test_kraft_oracle_agreement(self):
        for dist, n in [(B11, 6), (FiniteDistribution.from_probs((0.5, 0.3, 0.2)), 4)]:
            s = iid_spectrum(dist, n)
            probs = sorted_probs(enumerate_iid(dist.probs, n))
            total = len(dist) ** n
            for k in range(0, total.bit_length() + 2):
                assert prefix_epsilon(s, k) == pytest.approx(
                    brute_prefix_epsilon(probs, total, k), abs=1e-12
                )

    def test_prefix_rate_offset(self):
        assert prefix_R(S11_2, 0.1) == pytest.approx(R_star(S11_2, 0.1) + 1 / 2)

    def test_power_of_two_small_eps_equality(self):
        s = iid_spectrum(uniform_distribution(2), 4)
        assert prefix_R(s, 0.05) == pytest.approx(5 / 4)
        assert prefix_R(s, 0.05) == pytest.approx(R_star(s, 0.05))  # no +1/n here

    def test_non_power_alphabet_small_eps(self):
        d = uniform_distribution(3)
        for n in (2, 3, 5):
            s = iid_spectrum(d, n)
            eps = 0.5 * 3.0 ** -n  # below the least string mass
            assert R_star(s, eps) == pytest.approx(math.ceil(n * math.log2(3)) / n)
            assert prefix_R(s, eps) == pytest.approx((math.ceil(n * math.log2(3)) + 1) / n)


class TestEncodeDecode:
    def test_example_table_rows(self):
        # alphabet (b, w) with P(b) > P(w): all-b maps to the empty string,
        # b b b w to '0', all-w to '0000'
        d = FiniteDistribution.from_probs((0.7, 0.3), symbols=("b", "w"))
        assert encode(d, "bbbb") == ""
        assert encode(d, "bbbw") == "0"
        assert encode(d, "wwww") == "0000"
        assert decode(d, 4, "0") == ("b", "b", "b", "w")

    def test_single_symbol_alphabet(self):
        d = FiniteDistribution.from_probs((1.0,), symbols=("z",))
        assert encode(d, "zzz") == ""
        assert decode(d, 3, "") == ("z", "z", "z")

    def test_uniform_ties_lexicographic(self):
        d = uniform_distribution(2)
        words = [encode(d, x) for x in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        assert words == ["", "0", "1", "00"]

    def test_roundtrip_all_strings(self):
        d = FiniteDistribution.from_probs((0.5, 0.3, 0.2), symbols=("a", "b", "c"))
        code = OptimalCode(d, 3)
        seen = set()
        import itertools

        for x in itertools.product("abc", repeat=3):
            w = code.encode(x)
            assert code.decode(w) == x
            assert w not in seen  # injectivity
            seen.add(w)

    def test_zero_probability_symbol_rejected(self):
        d = FiniteDistribution.from_probs((0.5, 0.5, 0.0), symbols=("a", "b", "c"))
        with pytest.raises(DistributionError):
            encode(d, ("a", "c"))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            OptimalCode(uniform_distribution(2), 20, Budgets(enumeration=1000))

    def test_optimal_lengths_match_rank_rule(self):
        d = FiniteDistribution.from_probs((0.6, 0.4))
        code = OptimalCode(d, 4)
        spec = iid_spectrum(d, 4)
        dist_lengths = length_distribution(spec)
        import itertools

        observed = {}
        for x in itertools.product(range(2), repeat=4):
            l = len(code.encode(x))
            p = math.prod(d.probs[i] for i in x)
            observed[l] = observed.get(l, 0.0) + p
        for l, p in zip(dist_lengths.lengths, dist_lengths.probs):
            assert observed.get(l, 0.0) == pytest.approx(p, abs=1e-12)


class TestBruteForceEquivalence:
    """Rank machinery vs enumerate-and-sort on small alphabets."""

    CASES = [
        (bernoulli(0.11), 6),
        (bernoulli(0.3), 5),
        (uniform_distribution(2), 6),
        (FiniteDistribution.from_probs((0.5, 0.3, 0.2)), 4),
        (FiniteDistribution.from_probs((0.6, 0.2, 0.2)), 4),
        (uniform_distribution(3), 4),
    ]

    @pytest.mark.parametrize("dist,n", CASES)
    def test_all_quantities(self, dist, n):
        s = iid_spectrum(dist, n)
        probs = sorted_probs(enumerate_iid(dist.probs, n))
        assert s.total_count == len(dist) ** n
        for k in range(0, s.total_count.bit_length() + 2):
            assert epsilon_star(s, k) == pytest.approx(brute_epsilon_star(probs, k), abs=1e-12)
        for eps in (0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9):
            assert R_star(s, eps) == pytest.approx(brute_R_star(probs, n, eps), abs=1e-15)
        assert Rbar(s) == pytest.approx(brute_Rbar(probs, n), abs=1e-12)
        assert length_distribution(s).variance() == pytest.approx(brute_var_len(probs), abs=1e-12)


class TestOptimalityProperties:
    def test_length_bounded_by_surprisal(self):
        # optimal length never exceeds the surprisal, hence mean below entropy
        rng = np.random.default_rng(23)
        for _ in range(10):
            probs = rng.dirichlet(np.ones(4))
            d = FiniteDistribution.from_probs(probs)
            ranked = sorted_probs(enumerate_iid(d.probs, 3))
            for r, p in enumerate(ranked, start=1):
                assert r.bit_length() - 1 <= -math.log2(p) + 1e-9
            s = iid_spectrum(d, 3)
            assert 3 * Rbar(s) <= 3 * (-sum(p * math.log2(p) for p in probs)) + 1e-9

    def test_huffman_dominates_mean(self):
        worst = 0.0
        for n in range(1, 11):
            probs = [p for p, _, _ in enumerate_iid(B11.probs, n)]
            havg = huffman_average(probs) / n
            rb = Rbar(iid_spectrum(B11, n))
            assert havg >= rb - 1e-12
            worst = max(worst, (havg - rb) * n)
        # prefix overhead stays O(1/n): observed max ~2.68 over this range
        assert worst <= 4.0
