import math

import numpy as np
import pytest

from complimits.sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    third_abs_moment,
    varentropy,
)
from complimits.spectrum import iid_spectrum, markov_spectrum_exact, markov_spectrum_mc
from complimits.optcode import R_star, epsilon_star
from complimits.bounds import (
    GaussianParams,
    R_upper_quantile,
    achievability_iid,
    approx_Rstar,
    converse_iid,
    converse_optimized,
    gaussian_Q,
    gaussian_Q_inv,
    gaussian_phi,
    markov_achievability,
    markov_be_calibrate,
    markov_converse,
    n_star_approx,
)

from _oracles import codelength_vs_info_check, iid_kernel, q_inv_bisect, uniform_distribution

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
        s = iid_spectrum(FiniteDistribution((1.0,)), 4)
        assert R_upper_quantile(s, 0.2).value == 0.0  # surprisal is identically 0

    def test_point_mass_uniform(self):
        s = iid_spectrum(uniform_distribution(2), 6)
        for eps in (0.01, 0.5, 0.99):
            assert R_upper_quantile(s, eps).value == pytest.approx(1.0)

    def test_bernoulli_staircase(self):
        s = iid_spectrum(B11, 2)
        report = R_upper_quantile(s, 0.1)
        assert report.value == pytest.approx(float(s.infos[1]) / 2, abs=1e-12)
        assert report.valid

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
        d = FiniteDistribution((0.4, 0.3, 0.2, 0.1))
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
        d = FiniteDistribution(probs)
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

    @pytest.mark.parametrize(
        "bound",
        [
            approx_Rstar,
            achievability_iid,
            converse_iid,
            lambda p, n, e: markov_achievability(p, n, e, 0.8),
            lambda p, n, e: markov_converse(p, n, e, 0.8),
        ],
        ids=["approx", "achievability", "converse", "markov_achievability", "markov_converse"],
    )
    def test_blocklength_zero_rejected(self, bound):
        with pytest.raises(ValueError, match="n must be at least 1"):
            bound(P11, 0, 0.1)


class TestPrefixTransfer:
    def test_sandwich_shifts_by_one_over_n(self):
        # prefix rates inherit the iid sandwich displaced by exactly 1/n
        from _oracles import prefix_R

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
    def test_small_constant_limit(self):
        rep = markov_achievability(P11, 100, 0.1, 1e-12)
        two_term = P11.H + P11.sigma * gaussian_Q_inv(0.1) / 10
        assert rep.value == pytest.approx(two_term, abs=1e-9)

    def test_validity_flip_threshold(self):
        lam = gaussian_Q_inv(0.1)
        n_min = 8 * 0.8**2 / (math.pi * math.e * gaussian_phi(lam) ** 4)
        flip = math.ceil(n_min)
        assert not markov_achievability(P11, flip - 1, 0.1, 0.8).valid
        assert markov_achievability(P11, flip, 0.1, 0.8).valid

    def test_converse_below_achievability(self):
        for n in (700, 2000, 10_000):
            ach = markov_achievability(P11, n, 0.1, 0.8)
            conv = markov_converse(P11, n, 0.1, 0.8)
            assert ach.valid and conv.valid
            assert conv.value < ach.value

    def test_converse_closed_form(self):
        # H + sigma lam/sqrt(n) - log2(n)/(2n) - (sigma (A + 1)/phi(lam) + 1)/n
        a, lam = 0.8, gaussian_Q_inv(0.1)
        for n in (50, 700, 10_000):
            want = (
                P11.H
                + P11.sigma * lam / math.sqrt(n)
                - math.log2(n) / (2 * n)
                - (P11.sigma * (a + 1) / gaussian_phi(lam) + 1) / n
            )
            rep = markov_converse(P11, n, 0.1, a)
            assert rep.value == pytest.approx(want, rel=1e-14, abs=0.0)
            assert rep.n0 == pytest.approx(((a + 1) / (lam * gaussian_phi(lam))) ** 2, rel=1e-14, abs=0.0)

    def test_eps_near_half_never_valid(self):
        for n in (10, 10_000, 10**7):
            assert not markov_converse(P11, n, 0.4999, 0.8).valid

    def test_calibrated_bounds_bracket_exact_small_n(self):
        src = iid_kernel(B11)
        cal = markov_be_calibrate(src, [16, 64], 50_000, seed=11)
        params = GaussianParams(H=P11.H, sigma2=P11.sigma2, mu3=0.0)
        for n in (8, 10, 12):
            exact = R_star(markov_spectrum_exact(src, n), 0.1)
            assert markov_achievability(params, n, 0.1, cal.a_hat).value >= exact
            assert markov_converse(params, n, 0.1, cal.a_hat).value <= exact


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
