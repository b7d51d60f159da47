import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from complimits.errors import UnsupportedSpectrumError
from complimits.sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    geometric_distribution,
    uniform_distribution,
)
from complimits.spectrum import ccdf, iid_spectrum, markov_spectrum_exact, markov_spectrum_mc
from complimits.optcode import (
    R_star,
    Rbar,
    epsilon_star,
    expected_length_equiprobable,
    length_distribution,
    prefix_R,
    prefix_epsilon,
    prefix_epsilon_curve,
    rank_cut,
    rate_on_curve,
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
    pointer_epsilon_curve,
    sorted_probs,
    walk_length_distribution,
)

B11 = bernoulli(0.11)
S11_2 = iid_spectrum(B11, 2)


def count_heavier_at_level(spec, level_bits):
    """Number of strings with probability strictly above 2^(-level_bits),
    with the spectrum queries' relative tolerance of 1e-12."""
    i = int(np.searchsorted(spec.infos, level_bits - 1e-12 * max(1.0, abs(level_bits)), side="left"))
    return spec.cum_counts[i - 1] if i > 0 else 0


def R_star_via_counting(spec, a):
    """(eps, R) pair of the exact limit evaluated at surprisal threshold a.

    eps = P[surprisal >= a]; the optimal code reaches that excess probability
    at length ceil(log2(1 + M)) - 1 where M counts strings with probability
    strictly above 2^(-a).  At M = 0 the length is -1: the degenerate
    empty-string threshold, reported as-is together with eps = 1.
    """
    m_count = count_heavier_at_level(spec, a)
    length = m_count.bit_length() - 1 if m_count >= 1 else -1
    return ccdf(spec, a), length / spec.n


def integral_identity_check(spec):
    """Residual of the identity  Rbar = integral_0^1 R_star(x) dx - 1/n.

    The integral is evaluated exactly as a staircase sum over the intervals
    where R_star is constant, so the residual should vanish to rounding.
    """
    kmax = spec.total_count.bit_length()
    n = spec.n
    eps_prev = 1.0  # epsilon_star at k-1, starting from k = 1
    terms = []
    for k in range(1, kmax + 1):
        eps_k = epsilon_star(spec, k)
        terms.append((k / n) * (eps_prev - eps_k))
        eps_prev = eps_k
    integral = math.fsum(terms)
    return abs(Rbar(spec) - (integral - 1.0 / n))


class TestRankCut:
    def test_zero_threshold(self):
        assert rank_cut(S11_2, 0) == pytest.approx(1.0, abs=1e-12)

    def test_full_threshold(self):
        assert rank_cut(S11_2, 4) == 0.0

    def test_partial_tie_split(self):
        # second string sits inside the count-2 mass
        assert rank_cut(S11_2, 2) == pytest.approx(0.0979 + 0.0121, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_every_threshold_matches_brute_force_tail(self, n):
        # B(0.11) has a tie class of C(n, j) strings at every weight j
        probs, spec = sorted_probs(enumerate_iid(B11.probs, n)), iid_spectrum(B11, n)
        for threshold in range((1 << n) + 2):
            assert rank_cut(spec, threshold) == pytest.approx(
                math.fsum(probs[threshold:]), rel=1e-12, abs=1e-15
            )


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
        values = [epsilon_star(s, k) for k in range(0, s.total_count.bit_length() + 1)]
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


class TestEpsilonCurve:
    """The one-pass curve and the rates read off it, against the per-k path."""

    SPECTRA = {
        "bernoulli_n300": lambda: iid_spectrum(B11, 300),  # counts beyond 2^53
        "uniform2": lambda: iid_spectrum(uniform_distribution(2), 12),  # one class across every dyadic block
        "three_letter": lambda: iid_spectrum(FiniteDistribution.from_probs((0.6, 0.3, 0.1)), 20),
        "dyadic": lambda: iid_spectrum(FiniteDistribution.from_probs((0.5, 0.25, 0.125, 0.125)), 8),
        "markov": lambda: markov_spectrum_exact(MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]])), 10),
    }

    @pytest.mark.parametrize("name", SPECTRA)
    def test_bit_identical_to_per_k_path(self, name):
        s = self.SPECTRA[name]()
        kmax = s.total_count.bit_length()
        curve = list(length_distribution(s).tail)
        assert curve == [epsilon_star(s, k) for k in range(kmax + 1)]
        prefix = prefix_epsilon_curve(s, curve)
        assert prefix == [prefix_epsilon(s, k) for k in range(kmax + 2)]
        ladder = {x for v in set(curve) for x in (v, math.nextafter(v, -1.0), math.nextafter(v, 2.0))}
        for eps in sorted(x for x in ladder if 0.0 <= x < 1.0):
            assert rate_on_curve(curve, s.n, eps) == R_star(s, eps)
            assert rate_on_curve(prefix, s.n, eps) == prefix_R(s, eps)

    def test_mc_spectrum_rejected(self):
        mc = markov_spectrum_mc(MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]])), 4, 100, 0)
        with pytest.raises(UnsupportedSpectrumError):
            length_distribution(mc)


def _assert_matches_walk_references(spec):
    ld = length_distribution(spec)
    counts, infos = spec.counts, spec.infos.tolist()
    probs, mean, variance, gap2 = walk_length_distribution(counts, infos)
    assert ld.tail == tuple(pointer_epsilon_curve(counts, infos, spec.suffix_probs.tolist()))
    assert ld.lengths == tuple(range(len(probs)))
    assert ld.probs == tuple(probs)
    assert (ld.mean(), ld.variance(), ld.gap2) == (mean, variance, gap2)
    assert type(ld.gap2) is float


class TestOneWalk:
    """length_distribution's one walk against the per-piece walk and the
    pointer curve it replaces, bit for bit."""

    @pytest.mark.parametrize(
        "dist, n",
        [
            (uniform_distribution(3), 1),  # total 3 = 2^2 - 1: the last cut ends the last mass
            (uniform_distribution(7), 1),  # total 7 = 2^3 - 1
            (uniform_distribution(2), 12),  # one class across every dyadic block
            (uniform_distribution(1607), 1),  # a gap term where the C pow(x, 2) and x * x round apart
            (B11, 300),  # counts beyond 2^53
            (FiniteDistribution.from_probs((0.999, 0.001)), 2000),  # probabilities underflow to 0
        ],
    )
    def test_edge_spectra(self, dist, n):
        _assert_matches_walk_references(iid_spectrum(dist, n))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        letters=st.lists(
            st.one_of(st.sampled_from([1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 3]), st.floats(0.01, 0.5)),
            min_size=1,
            max_size=3,
        ),
        n=st.integers(1, 24),
    )
    def test_memoryless_laws(self, letters, n):
        # the last letter takes the rest, so dyadic draws tie whole classes
        rest = 1.0 - math.fsum(letters)
        assume(rest >= 0.01)
        _assert_matches_walk_references(iid_spectrum(FiniteDistribution.from_probs(letters + [rest]), n))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.lists(
            st.lists(st.one_of(st.just(1.0), st.floats(0.05, 1.0)), min_size=3, max_size=3),
            min_size=2,
            max_size=3,
        ),
        n=st.integers(1, 12),
    )
    def test_markov_spectra(self, rows, n):
        m = len(rows)
        kernel = np.array([row[:m] for row in rows])
        kernel /= kernel.sum(axis=1, keepdims=True)
        _assert_matches_walk_references(markov_spectrum_exact(MarkovSource(kernel), min(n, {2: 12, 3: 7}[m])))


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
        s = iid_spectrum(geometric_distribution(0.5), 1)
        assert Rbar(s) == pytest.approx(0.632843, abs=1e-5)

    def test_uniform_7(self):
        s = iid_spectrum(uniform_distribution(7), 1)
        assert Rbar(s) == pytest.approx(10 / 7, abs=1e-12)

    def test_methods_agree(self):
        # mean codelength = sum of the excess probabilities epsilon_star(k), k >= 1
        for n in (1, 4, 9):
            s = iid_spectrum(B11, n)
            kmax = s.total_count.bit_length()
            excess_sum = math.fsum(epsilon_star(s, k) for k in range(1, kmax + 1)) / n
            assert Rbar(s) == pytest.approx(excess_sum, abs=1e-12)

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
