import math

import numpy as np
import pytest

from complimits.sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    entropy,
    geometric_distribution,
    markov_varentropy_rate,
    poisson_distribution,
    uniform_distribution,
    varentropy,
)
from complimits.spectrum import iid_spectrum, mean_info, var_info
from complimits.optcode import (
    Rbar,
    expected_length_equiprobable,
    length_distribution,
    var_length_equiprobable,
)
from complimits.dispersion import (
    dispersion_estimate,
    normalized_dispersion,
    rd_characterization_check,
)

from _oracles import brute_second_moment_gap, brute_var_len, enumerate_iid, sorted_probs

B11 = bernoulli(0.11)


class TestVarCodelength:
    def test_deterministic_source(self):
        s = iid_spectrum(FiniteDistribution.from_probs((1.0,)), 5)
        assert length_distribution(s).variance() == 0.0

    def test_uniform_three(self):
        s = iid_spectrum(uniform_distribution(3), 1)
        assert length_distribution(s).variance() == pytest.approx(2 / 9, abs=1e-12)

    def test_matches_equiprobable_closed_form(self):
        for m in (5, 12, 100, 1000):
            s = iid_spectrum(uniform_distribution(m), 1)
            assert length_distribution(s).variance() == pytest.approx(var_length_equiprobable(m), abs=1e-9)

    def test_matches_brute_force(self):
        for dist, n in [(B11, 7), (FiniteDistribution.from_probs((0.5, 0.3, 0.2)), 4)]:
            s = iid_spectrum(dist, n)
            probs = sorted_probs(enumerate_iid(dist.probs, n))
            assert length_distribution(s).variance() == pytest.approx(brute_var_len(probs), abs=1e-12)


class TestSecondMomentGap:
    def test_deterministic_source(self):
        s = iid_spectrum(FiniteDistribution.from_probs((1.0,)), 4)
        assert length_distribution(s).gap2 == 0.0

    def test_dyadic_uniform_closed_form(self):
        # binary uniform blocks: surprisal is exactly n, so the gap reduces to
        # the equiprobable codelength moments around n
        for n in (3, 6, 10):
            s = iid_spectrum(uniform_distribution(2), n)
            m = 1 << n
            mean = expected_length_equiprobable(m)
            var = var_length_equiprobable(m)
            expected = var + (mean - n) ** 2
            assert length_distribution(s).gap2 == pytest.approx(expected, rel=1e-9)

    def test_matches_brute_force(self):
        for dist, n in [(B11, 6), (FiniteDistribution.from_probs((0.6, 0.2, 0.2)), 4)]:
            s = iid_spectrum(dist, n)
            probs = sorted_probs(enumerate_iid(dist.probs, n))
            assert length_distribution(s).gap2 == pytest.approx(brute_second_moment_gap(probs), abs=1e-10)

    def test_log_squared_envelope(self):
        # observed: gap / log2(n)^2 stays bounded (observed max ~0.76 on 4..16)
        worst = max(
            length_distribution(iid_spectrum(B11, n)).gap2 / math.log2(n) ** 2 for n in range(4, 17)
        )
        assert worst <= 1.5


class TestDispersionTraces:
    def test_uniform_variance_vanishes(self):
        trace = dispersion_estimate(uniform_distribution(2), [2, 8, 32, 128])
        assert trace.sigma2_ref == 0.0
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in trace.var_info)
        # codelength variance stays O(1), so /n tends to zero
        assert trace.var_len[-1] < trace.var_len[0] or trace.var_len[-1] < 0.05

    def test_bernoulli_convergence(self):
        trace = dispersion_estimate(B11, [100, 400, 2000])
        assert trace.complete
        assert trace.var_len[-1] == pytest.approx(varentropy(B11), rel=0.1)
        assert trace.var_info[-1] == pytest.approx(varentropy(B11), rel=1e-9)

    def test_markov_trend(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        trace = dispersion_estimate(src, [6, 10, 14])
        sigma2 = markov_varentropy_rate(src)
        assert trace.sigma2_ref == pytest.approx(sigma2)
        devs = [abs(v - sigma2) for v in trace.var_len]
        assert devs[-1] < devs[0]

    def test_budget_marks_partial(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        trace = dispersion_estimate(src, [4, 8, 40])
        assert not trace.complete
        assert trace.n_list == (4, 8)

    def test_varexpand_inequality(self):
        # |Var(len) - Var(info)| <= 2 gap2 + 2 sqrt(gap2) sqrt(Var(info))
        for n in (10, 50, 200):
            s = iid_spectrum(B11, n)
            lhs = abs(length_distribution(s).variance() - var_info(s))
            gap2 = length_distribution(s).gap2
            rhs = 2 * gap2 + 2 * math.sqrt(gap2) * math.sqrt(var_info(s))
            assert lhs <= rhs + 1e-9


class TestMomentRatios:
    def test_ratios_at_n2000(self):
        s = iid_spectrum(B11, 2000)
        ld = length_distribution(s)
        mean_len, var_len = ld.mean(), ld.variance()
        mean_i, var_i = mean_info(s), var_info(s)
        second_len = var_len + mean_len**2
        second_i = var_i + mean_i**2
        assert 0.9 < second_len / second_i <= 1.0
        assert 0.97 <= mean_len / mean_i <= 1.0

    def test_entropy_dominates_mean_length(self):
        for dist, n in [(B11, 50), (FiniteDistribution.from_probs((0.5, 0.3, 0.2)), 8)]:
            s = iid_spectrum(dist, n)
            h_block = n * entropy(dist)
            mean_len = n * Rbar(s)
            assert mean_len <= h_block + 1e-9
            assert h_block - mean_len <= math.log2(h_block + 1) + math.log2(math.e)


class TestNormalizedDispersion:
    def test_fair_coin_zero(self):
        assert normalized_dispersion(bernoulli(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_bernoulli_closed_form(self):
        for p in (0.11, 0.3, 0.45):
            r = math.log(p) / math.log(1 - p)
            expected = (p - p * p) / (p + 1.0 / (r - 1.0)) ** 2
            assert normalized_dispersion(bernoulli(p)) == pytest.approx(expected, rel=1e-10)

    def test_geometric_closed_form(self):
        for q in (0.5, 0.3, 0.8):
            h_q = -q * math.log2(q) - (1 - q) * math.log2(1 - q)
            expected = (1 - q) * (math.log2(1 - q) / h_q) ** 2
            assert normalized_dispersion(geometric_distribution(q)) == pytest.approx(expected, rel=1e-6)
        assert normalized_dispersion(geometric_distribution(0.5)) == pytest.approx(0.5, rel=1e-6)

    def test_poisson_curve_sane(self):
        values = [normalized_dispersion(poisson_distribution(lam)) for lam in (0.5, 2.0, 8.0)]
        assert all(v > 0.0 for v in values)

    def test_zero_entropy_rejected(self):
        with pytest.raises(ValueError):
            normalized_dispersion(FiniteDistribution.from_probs((1.0,)))


class TestCountableSources:
    """A countable law, truncated when built, runs through every sweep."""

    def test_dispersion_estimate_on_geometric(self):
        trace = dispersion_estimate(geometric_distribution(0.3), [1, 2, 3])
        finite = geometric_distribution(0.3)
        assert trace == dispersion_estimate(finite, [1, 2, 3])
        assert trace.complete and trace.n_list == (1, 2, 3)
        assert trace.sigma2_ref == varentropy(finite)
        assert trace.var_info[-1] == pytest.approx(varentropy(finite), rel=1e-9)

    def test_rd_characterization_on_geometric(self):
        rows = rd_characterization_check(geometric_distribution(0.3), [0.1], [1, 2, 3])
        finite = geometric_distribution(0.3)
        assert rows == rd_characterization_check(finite, [0.1], [1, 2, 3])
        assert all(r["sigma2_bits2"] == varentropy(finite) for r in rows)


class TestRdCharacterization:
    def test_converges_toward_varentropy(self):
        rows = rd_characterization_check(B11, [0.1], [200, 2000])
        by_n = {r["n"]: r for r in rows}
        # log-blocklength bias keeps the ratio below 1 at desk scale, but it
        # must shrink with n (observed: ~0.66 at n=200, ~0.79 at n=2000)
        assert 0.5 < by_n[200]["ratio"] < 1.0
        assert by_n[200]["ratio"] < by_n[2000]["ratio"] < 1.05
        assert by_n[2000]["value_bits2"] == pytest.approx(varentropy(B11), rel=0.25)

    def test_zero_varentropy_excluded(self):
        with pytest.raises(ValueError):
            rd_characterization_check(uniform_distribution(4), [0.1], [10])

    def test_smaller_eps_diagnostic_rows(self):
        rows = rd_characterization_check(B11, [0.01, 0.1], [500])
        assert len(rows) == 2
        assert all(math.isfinite(r["value_bits2"]) for r in rows)

