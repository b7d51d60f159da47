import math

import numpy as np
import pytest

from complimits.errors import ConfigurationError
from complimits.sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    iid_kernel,
    third_abs_moment,
    uniform_distribution,
    varentropy,
)
from complimits.spectrum import iid_spectrum, markov_spectrum_exact, markov_spectrum_mc
from complimits.optcode import R_star, epsilon_star
from complimits.bounds import (
    GaussianParams,
    R_upper_quantile,
    achievability_iid,
    approx_Rstar,
    codelength_vs_info_check,
    converse_iid,
    converse_optimized,
    gaussian_Q,
    gaussian_Q_inv,
    gaussian_phi,
    markov_achievability,
    markov_be_calibrate,
    markov_converse,
    n_star_approx,
    n_star_exact,
    reference_expansion,
)

from _oracles import q_inv_bisect

B11 = bernoulli(0.11)
P11 = GaussianParams.from_distribution(B11)


class TestGaussian:
    def test_Q_at_zero(self):
        assert gaussian_Q(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_Q_inv_symmetry(self):
        assert gaussian_Q_inv(0.5) == pytest.approx(0.0, abs=1e-12)
        assert gaussian_Q_inv(0.9) == pytest.approx(-gaussian_Q_inv(0.1), abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.05, 0.2, 0.01, 0.4, 1e-6, 1 - 1e-6])
    def test_Q_inv_against_bisection(self, p):
        assert gaussian_Q_inv(p) == pytest.approx(q_inv_bisect(p), abs=1e-7)

    def test_Q_inv_value(self):
        assert gaussian_Q_inv(0.1) == pytest.approx(1.28155, abs=1e-5)

    def test_roundtrip_precision(self):
        for x in (-5.0, -1.3, 0.0, 0.7, 2.4, 6.0):
            assert gaussian_Q_inv(gaussian_Q(x)) == pytest.approx(x, abs=1e-10)

    # Q^-1(p) = sqrt(2) erfinv(1 - 2p) from mpmath 1.3.0 at mp.dps = 400, with
    # p the exact double shown; each value satisfies erfc(x/sqrt(2))/2 = p to
    # better than 1e-100 relative.  Printed to 25 digits.
    @pytest.mark.parametrize(
        "p, want",
        [
            (0.9999999999999254, -7.387857102112984271193459),
            (1e-300, 37.04709629936119923654704),
            (1e-20, 9.262340089798407579572095),
            (0.001, 3.090232306167813535358005),
            (0.1, 1.281551565544600435334517),
            (0.5, 0.0),
            (0.975, -1.959963984540053855604431),
        ],
    )
    def test_Q_inv_high_precision(self, p, want):
        assert gaussian_Q_inv(p) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                gaussian_Q_inv(p)


class TestUpperQuantile:
    def test_deterministic_source(self):
        s = iid_spectrum(FiniteDistribution.from_probs((1.0,)), 4)
        assert R_upper_quantile(s, 0.2).value == 0.0  # surprisal is identically 0

    def test_point_mass_uniform(self):
        s = iid_spectrum(uniform_distribution(2), 6)
        for eps in (0.01, 0.5, 0.99):
            assert R_upper_quantile(s, eps).value == pytest.approx(1.0)

    def test_bernoulli_staircase(self):
        s = iid_spectrum(B11, 2)
        report = R_upper_quantile(s, 0.1)
        assert report.value == pytest.approx(float(s.infos[1]) / 2, abs=1e-12)
        assert report.valid and report.kind == "achievability"

    def test_dominates_exact_rate(self):
        for n in (5, 17, 40):
            s = iid_spectrum(B11, n)
            for eps in (0.05, 0.1, 0.3):
                assert R_upper_quantile(s, eps).value >= R_star(s, eps) - 1e-12

    def test_works_on_mc_spectrum(self):
        src = iid_kernel(B11)
        s = markov_spectrum_mc(src, 30, 5000, seed=4)
        assert R_upper_quantile(s, 0.1).value > 0.0


class TestConverseOptimized:
    def test_k_beyond_max_reports_zero(self):
        s = iid_spectrum(B11, 3)
        assert converse_optimized(s, 50).value == 0.0

    def test_k0_sanity(self):
        s = iid_spectrum(B11, 3)
        rep = converse_optimized(s, 0)
        assert 0.0 <= rep.value <= 1.0

    def test_lower_bounds_excess_probability(self):
        for n in (4, 8, 12):
            s = iid_spectrum(B11, n)
            for k in range(0, n + 2):
                assert converse_optimized(s, k).value <= epsilon_star(s, k) + 1e-12

    def test_nontrivial_at_matched_threshold(self):
        s = iid_spectrum(B11, 64)
        k = int(64 * 0.5)
        assert converse_optimized(s, k).value > 0.0


class TestCodelengthVsInfo:
    def test_optimal_code_instance(self):
        d = FiniteDistribution.from_probs((0.4, 0.3, 0.2, 0.1))
        lengths = [r.bit_length() - 1 for r in range(1, 5)]
        order = sorted(range(4), key=lambda i: -d.probs[i])
        by_symbol = [0] * 4
        for rank_pos, sym in enumerate(order):
            by_symbol[sym] = lengths[rank_pos]
        for tau in (0.5, 1.0, 3.0):
            left, right = codelength_vs_info_check(d, by_symbol, tau)
            assert left <= right + 1e-12

    def test_tau_zero_vacuous(self):
        d = uniform_distribution(4)
        left, right = codelength_vs_info_check(d, [0, 1, 1, 2], 0.0)
        assert right >= 1.0

    def test_random_prefix_code_sixteen_symbols(self):
        rng = np.random.default_rng(10)
        probs = rng.dirichlet(np.ones(16))
        d = FiniteDistribution.from_probs(probs)
        # Shannon lengths of an independent random law satisfy Kraft
        q = rng.dirichlet(np.ones(16))
        lengths = [math.ceil(-math.log2(x)) for x in q]
        left, right = codelength_vs_info_check(d, lengths, 3.0, prefix=True)
        assert right == pytest.approx(2.0 ** -3)
        assert left <= right + 1e-12

    def test_prefix_kraft_violation_rejected(self):
        d = uniform_distribution(4)
        with pytest.raises(ValueError):
            codelength_vs_info_check(d, [1, 1, 1, 1], 1.0, prefix=True)


class TestApproxAndIidBounds:
    def test_approx_median_case(self):
        assert approx_Rstar(P11, 100, 0.5) == pytest.approx(
            P11.H - math.log2(100) / 200, abs=1e-12
        )

    def test_approx_value_n2000(self):
        assert approx_Rstar(P11, 2000, 0.1) == pytest.approx(0.5242, abs=5e-4)

    def test_approx_decreases_to_entropy(self):
        values = [approx_Rstar(P11, n, 0.1) for n in (10**2, 10**3, 10**4, 10**6)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(P11.H, abs=1e-2)

    def test_achievability_above_approx(self):
        # validity needs mu3/(sigma^3 sqrt(n)) < 1 - Phi(Q^-1(0.1)), i.e. n > 661
        for n in (700, 2000, 10_000):
            rep = achievability_iid(P11, n, 0.1)
            assert rep.valid
            assert rep.value >= approx_Rstar(P11, n, 0.1)

    def test_achievability_dominates_exact(self):
        s = iid_spectrum(B11, 2000)
        rep = achievability_iid(P11, 2000, 0.1)
        assert rep.valid
        assert math.isfinite(rep.value)
        assert rep.value >= R_star(s, 0.1)

    def test_achievability_invalid_when_moment_term_saturates(self):
        rep = achievability_iid(P11, 10, 0.1)  # Phi(Q^-1) + mu3 correction >= 1
        assert not rep.valid
        assert rep.value == math.inf

    def test_achievability_mu3_zero_reduction(self):
        params = GaussianParams(H=1.0, sigma2=0.25, mu3=0.0)
        rep = achievability_iid(params, 50, 0.2)
        expected = (
            1.0
            + 0.5 * gaussian_Q_inv(0.2) / math.sqrt(50)
            - math.log2(50) / 100
            + math.log2(math.log2(math.e) / math.sqrt(2 * math.pi * 0.25)) / 50
        )
        assert rep.value == pytest.approx(expected, abs=1e-12)

    def test_achievability_eps_domain(self):
        with pytest.raises(ValueError):
            achievability_iid(P11, 100, 0.6)

    def test_converse_validity_flag(self):
        rep = converse_iid(P11, 10, 0.1)
        assert not rep.valid and math.isfinite(rep.value)
        assert rep.n0 == pytest.approx(25.807, abs=1e-2)
        assert converse_iid(P11, 26, 0.1).valid

    def test_converse_below_exact_and_approx(self):
        s = iid_spectrum(B11, 2000)
        rep = converse_iid(P11, 2000, 0.1)
        assert rep.valid
        assert rep.value <= R_star(s, 0.1)
        assert rep.value < approx_Rstar(P11, 2000, 0.1)

    def test_converse_eps_domain(self):
        with pytest.raises(ValueError):
            converse_iid(P11, 100, 0.5)

    def test_zero_varentropy_rejected(self):
        degenerate = GaussianParams(H=1.0, sigma2=0.0, mu3=0.0)
        for fn in (approx_Rstar, lambda p, n, e: achievability_iid(p, n, e)):
            with pytest.raises(ValueError):
                fn(degenerate, 100, 0.1)


class TestReferenceExpansion:
    def test_median_reduction(self):
        n = 500
        expected = (
            P11.H
            - math.log2(2 * math.pi * P11.sigma2 * n) / (2 * n)
            - P11.mu3 / (6 * P11.sigma2 * n)
        )
        assert reference_expansion(P11, n, 0.5) == pytest.approx(expected, abs=1e-14)

    def test_close_to_approx_asymptotically(self):
        # difference times n approaches a constant; at eps=0.1 the constant is
        # |log2(2 pi sigma^2)/2 + lam^2 log2(e)/2 - mu3 (lam^2-1)/(6 sigma^2)| ~ 2.17
        lam = gaussian_Q_inv(0.1)
        const = (
            0.5 * (math.log2(2 * math.pi * P11.sigma2) + lam * lam * math.log2(math.e))
            - P11.mu3 * (lam * lam - 1) / (6 * P11.sigma2)
        )
        for n in (100, 2000, 100_000):
            gap = approx_Rstar(P11, n, 0.1) - reference_expansion(P11, n, 0.1)
            assert gap * n == pytest.approx(const, abs=1e-9)
        assert const == pytest.approx(2.167, abs=1e-3)


class TestPrefixTransfer:
    def test_sandwich_shifts_by_one_over_n(self):
        # prefix rates inherit the iid sandwich displaced by exactly 1/n
        from complimits.optcode import prefix_R

        for n in (50, 200, 1000):
            s = iid_spectrum(B11, n)
            for eps in (0.1, 0.2):
                r = R_star(s, eps)
                rp = prefix_R(s, eps)
                assert rp == pytest.approx(r + 1.0 / n, abs=1e-12)
                conv = converse_iid(P11, n, eps)
                if conv.valid:
                    assert conv.value + 1.0 / n <= rp + 1e-9
                assert rp <= R_upper_quantile(s, eps).value + 1.0 / n + 1e-9


class TestMarkovBounds:
    def test_requires_constant(self):
        with pytest.raises(ConfigurationError):
            markov_achievability(P11, 100, 0.1)

    def test_small_constant_limit(self):
        params = GaussianParams(H=P11.H, sigma2=P11.sigma2, mu3=0.0, be_constant=1e-12)
        rep = markov_achievability(params, 100, 0.1)
        two_term = P11.H + P11.sigma * gaussian_Q_inv(0.1) / 10
        assert rep.value == pytest.approx(two_term, abs=1e-9)

    def test_validity_flip_threshold(self):
        params = GaussianParams(H=P11.H, sigma2=P11.sigma2, mu3=0.0, be_constant=0.8)
        lam = gaussian_Q_inv(0.1)
        n_min = 8 * 0.8**2 / (math.pi * math.e * gaussian_phi(lam) ** 4)
        flip = math.ceil(n_min)
        assert not markov_achievability(params, flip - 1, 0.1).valid
        assert markov_achievability(params, flip, 0.1).valid

    def test_converse_below_achievability(self):
        params = GaussianParams(H=P11.H, sigma2=P11.sigma2, mu3=0.0, be_constant=0.8)
        for n in (700, 2000, 10_000):
            ach = markov_achievability(params, n, 0.1)
            conv = markov_converse(params, n, 0.1)
            assert ach.valid and conv.valid
            assert conv.value < ach.value

    def test_eps_near_half_never_valid(self):
        params = GaussianParams(H=P11.H, sigma2=P11.sigma2, mu3=0.0, be_constant=0.8)
        for n in (10, 10_000, 10**7):
            assert not markov_converse(params, n, 0.4999).valid

    def test_calibrated_bounds_bracket_exact_small_n(self):
        src = iid_kernel(B11)
        cal = markov_be_calibrate(src, [16, 64], 50_000, seed=11)
        params = GaussianParams(H=P11.H, sigma2=P11.sigma2, mu3=0.0, be_constant=cal.a_hat)
        for n in (8, 10, 12):
            exact = R_star(markov_spectrum_exact(src, n), 0.1)
            assert markov_achievability(params, n, 0.1).value >= exact
            assert markov_converse(params, n, 0.1).value <= exact


class TestCalibration:
    def test_zero_varentropy_error(self):
        src = iid_kernel(bernoulli(0.5))
        with pytest.raises(ValueError):
            markov_be_calibrate(src, [8], 1000, seed=0)

    def test_iid_kernel_within_be_envelope(self):
        src = iid_kernel(B11)
        cal = markov_be_calibrate(src, [16, 64, 256], 100_000, seed=11)
        envelope = third_abs_moment(B11) / (2 * varentropy(B11) ** 1.5)
        assert cal.a_hat <= envelope + 3 * cal.error_bar

    def test_deterministic_given_seed(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        a = markov_be_calibrate(src, [16, 32], 20_000, seed=5)
        b = markov_be_calibrate(src, [16, 32], 20_000, seed=5)
        assert a.a_hat == b.a_hat and a.per_n == b.per_n


class TestBlocklengthRequirement:
    def test_median_eps_reports_one(self):
        assert n_star_approx(P11, 1.2 * P11.H, 0.5) == 1

    def test_formula_value(self):
        # (sigma^2/H^2) (Q^-1(0.1)/0.2)^2 ~ 146.3, rounded up
        assert n_star_approx(P11, 1.2 * P11.H, 0.1) == 147

    def test_rate_below_entropy_rejected(self):
        with pytest.raises(ValueError):
            n_star_approx(P11, 0.9 * P11.H, 0.1)

    def test_exact_search_with_window(self):
        factory = lambda n: iid_spectrum(B11, n)
        n_star = n_star_exact(factory, 0.55, 0.1, window=50)
        # verify: run starts at n_star and every earlier n fails or is a fluke dip
        assert R_star(factory(n_star), 0.1) <= 0.55 + 1e-12
        for n in range(n_star, n_star + 50):
            assert R_star(factory(n), 0.1) <= 0.55 + 1e-12
        before = [R_star(factory(n), 0.1) <= 0.55 + 1e-12 for n in range(max(1, n_star - 60), n_star)]
        runs = 0
        best = 0
        for ok in before:
            runs = runs + 1 if ok else 0
            best = max(best, runs)
        assert best < 50  # no confirmed earlier run
