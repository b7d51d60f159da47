import decimal
import math
import sys

import numpy as np
import pytest

from complimits import sources
from complimits.bounds import GaussianParams
from complimits.dispersion import dispersion_estimate
from complimits.errors import DistributionError, StructuralError
from complimits.spectrum import markov_spectrum_mc
from complimits.sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    binomial_distribution,
    entropy,
    geometric_distribution,
    load_source,
    markov_entropy_rate,
    markov_varentropy_rate,
    poisson_distribution,
    third_abs_moment,
    varentropy,
)

from _oracles import (
    enumerate_markov,
    exact_binomial,
    iid_kernel,
    relative_error,
    stationary_distribution,
    tilted_varentropy_rate,
    uniform_distribution,
)


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestFiniteDistribution:
    def test_zero_mass_symbols_dropped(self):
        d = FiniteDistribution((0.5, 0.0, 0.5))
        assert d.probs == (0.5, 0.5)

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            FiniteDistribution((1.1, -0.1))

    def test_rejects_bad_normalization(self):
        with pytest.raises(DistributionError):
            FiniteDistribution((0.5, 0.4))

    def test_rejects_all_zero(self):
        with pytest.raises(DistributionError):
            FiniteDistribution((0.0, 0.0))

    @pytest.mark.parametrize("probs", [5, [[0.5, 0.5]], (0.5, math.nan, 0.5), (1.0, math.inf)])
    def test_rejects_malformed(self, probs):
        with pytest.raises(DistributionError):
            FiniteDistribution(probs)


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
        assert varentropy(bernoulli(0.11)) == pytest.approx(direct, rel=1e-14, abs=0.0)
        assert direct == pytest.approx(0.8907, abs=1e-4)

    def test_third_moment_uniform_and_fair(self):
        assert third_abs_moment(uniform_distribution(5)) == 0.0
        assert third_abs_moment(bernoulli(0.5)) == 0.0

    def test_third_moment_two_term_sum(self):
        h = entropy(bernoulli(0.11))
        direct = 0.89 * abs(-math.log2(0.89) - h) ** 3 + 0.11 * abs(-math.log2(0.11) - h) ** 3
        assert third_abs_moment(bernoulli(0.11)) == pytest.approx(direct, rel=1e-14, abs=0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(6))
            d1 = FiniteDistribution(probs)
            perm = rng.permutation(6)
            d2 = FiniteDistribution(probs[perm])
            assert entropy(d1) == pytest.approx(entropy(d2), rel=1e-12)
            assert varentropy(d1) == pytest.approx(varentropy(d2), rel=1e-9, abs=1e-13)

    def test_varentropy_zero_iff_uniform_support(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            probs = rng.dirichlet(np.ones(4))
            d = FiniteDistribution(probs)
            spread = max(probs) - min(probs)
            if spread > 1e-6:
                assert varentropy(d) > 0.0
        # uniform with a zero symbol still counts as uniform on its support
        d = FiniteDistribution((0.25, 0.25, 0.0, 0.25, 0.25))
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

    @pytest.mark.parametrize("tail_bound", [-1.0, 0.0, 1.5, math.nan])
    @pytest.mark.parametrize(
        "law",
        [lambda t: geometric_distribution(0.3, t), lambda t: poisson_distribution(2.0, t)],
        ids=["geometric", "poisson"],
    )
    def test_tail_bound_outside_unit_interval(self, law, tail_bound):
        with pytest.raises(DistributionError, match="tail_bound must lie in"):
            law(tail_bound)

    @pytest.mark.parametrize(
        "law, needed",
        [(lambda: geometric_distribution(1e-6), r"geometric\(1e-06\) to 1 - 1e-12 needs at least 2763100\d"),
         (lambda: poisson_distribution(1e8), r"poisson\(100000000.0\) to 1 - 1e-12 needs at least 10000001")],
        ids=["geometric", "poisson"],
    )
    def test_law_past_max_support_is_rejected_before_its_pmf_runs(self, law, needed):
        # evaluating the pmf symbol by symbol up to MAX_SUPPORT would take seconds
        with pytest.raises(DistributionError, match=rf"{needed} symbols, more than {sources.MAX_SUPPORT}"):
            law()

    @pytest.mark.parametrize("q", [1e-4, 1e-5, 5e-5, 2e-5, 0.3, 0.9, 0.99])
    def test_geometric_keeps_the_fewest_symbols_whose_dropped_tail_meets_the_bound(self, q):
        # the exact tail (1-q)^k of the double q, at 60 digits; a float sum of
        # the masses stopped up to 186,529 symbols early (1e-5) or never (2e-5)
        kept = len(geometric_distribution(q))
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            tail = lambda k: (1 - decimal.Decimal(q)) ** k
            assert tail(kept) <= decimal.Decimal(1e-12) < tail(kept - 1)
        assert kept == math.ceil(math.log(1e-12) / math.log1p(-q))

    def test_geometric_masses_hold_to_a_few_dozen_ulps(self):
        # q (1-q)^k of the double q, at 60 digits.  Through log1p the error is
        # about |k log(1-q)| ulps; a power of fl(1-q) would carry the rounding of
        # 1 - q k times, 1.2e-10 relative at the last symbol.  A tail bound of 1e-13
        # keeps the sum off the renormalization threshold, so the masses are read as formed.
        q = 1e-5
        probs = geometric_distribution(q, tail_bound=1e-13).probs
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for k in [*range(0, len(probs), 9973), len(probs) - 1]:
                exact = decimal.Decimal(q) * (1 - decimal.Decimal(q)) ** k
                assert abs(decimal.Decimal(probs[k]) - exact) <= 48 * decimal.Decimal(math.ulp(float(exact)))

    def test_monte_carlo_geometric_law_keeps_78_symbols(self):
        assert len(geometric_distribution(0.3)) == 78

    @pytest.mark.parametrize("lam", [3.0, 30.0, 1000.0])
    def test_poisson_stops_where_the_exact_sum_of_its_masses_reaches_the_bound(self, lam):
        probs = poisson_distribution(lam).probs
        assert math.fsum(probs) >= 1.0 - 1e-12 > math.fsum(probs[:-1])

    @pytest.mark.parametrize("lam", [0.1, 10.0, 3000.0, 3e5])
    def test_poisson_masses_below_the_chernoff_cut_are_not_evaluated(self, monkeypatch, lam):
        # below lam - sqrt(2 * 746 lam) every mass is under e^-746 < 2^-1075, so
        # it is 0 without evaluating Loader's form there (at 3e5 the cut is
        # 278,843 and the first nonzero mass 279,206), and the law is the one
        # that evaluating every k from 0 gives, bit for bit
        def every_k(k):
            k1 = np.maximum(k, 1)
            return np.where(
                k == 0, math.exp(-lam), np.exp(-sources._stirlerr(k1) - sources._bd0(k1, lam)) / np.sqrt(math.tau * k1)
            )

        expected = sources._truncated(every_k, 1e-12, "poisson", lambda t: 0, False).probs
        bd0, read = sources._bd0, []
        monkeypatch.setattr(sources, "_bd0", lambda k, lam: read.extend(k[:1].tolist()) or bd0(k, lam))
        probs = poisson_distribution(lam).probs
        assert np.array_equal(np.array(probs), np.array(expected))
        assert min(read) >= lam - math.sqrt(2 * 746 * lam)

    @pytest.mark.parametrize("lam", [0.1, 10.0, 3000.0, 3e5])
    def test_poisson_masses_hold_to_the_rounding_of_their_exponent(self, lam):
        # e^-lam lam^k / k! of the double lam, at 60 digits.  Loader's form
        # exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k) errs by about the
        # rounding of its exponent, at most 77 ulps where the mass passes 1e-20
        # and 2,200 in the far tail, where bd0 is k log(k/lam) + lam - k with
        # terms near 10^3.  exp(k log lam - lam - lgamma(k + 1)) lost about
        # k log2(lam) ulps and so never reached the 1 - 1e-12 stop at 3000.
        probs = poisson_distribution(lam).probs
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emin, ctx.Emax = 60, decimal.MIN_EMIN, decimal.MAX_EMAX
            lam_d = decimal.Decimal(lam)
            exact, k = (-lam_d).exp(), 0
            while float(exact) == 0.0:  # masses that round to 0 are dropped
                k += 1
                exact = exact * lam_d / k
            for p in probs:
                if exact >= sys.float_info.min:
                    bound = 2.0**-45 if exact >= 1e-20 else 2.0**-40
                    assert abs(decimal.Decimal(p) - exact) <= decimal.Decimal(bound) * exact, k
                k += 1
                exact = exact * lam_d / k

    def test_binomial_masses_hold_to_loaders_form(self):
        # C(n, k) / 2^n at n = 10^4, exactly.  2.0 ** (log2 C + ...) was up to
        # 6.3e-13 relative off near the mode; Loader's form is within 1.0e-14
        # where the mass passes 1e-20 and 1.5e-12 in the far tail, where bd0 is
        # k log(k / np) + np - k with terms near 10^3
        n = 10_000
        column = sources._binomial_pmf(n, 0.5, 0.5)
        assert binomial_distribution(n, 0.5).probs == tuple(column[column > 0.0].tolist())
        nums, scale = exact_binomial(n, 0.5, 0.5)
        for k, (x, num) in enumerate(zip(column.tolist(), nums)):
            exact = num / 2**scale
            if exact >= sys.float_info.min:
                bound = 2.0**-45 if exact >= 1e-20 else 2.0**-38
                assert relative_error(x, num, scale) <= bound, k

    def test_binomial_matches_comb(self):
        d = binomial_distribution(10, 0.5)
        assert d.probs[3] == pytest.approx(math.comb(10, 3) / 1024, rel=1e-12, abs=0.0)


class TestMarkovStructure:
    def test_rejects_nonstochastic(self):
        with pytest.raises(StructuralError):
            MarkovSource(np.array([[0.5, 0.4], [0.2, 0.8]]))

    def test_rejects_reducible(self):
        with pytest.raises(StructuralError):
            MarkovSource(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_periodic_allowed_with_flag(self):
        cyc = MarkovSource(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert tuple(cyc.pi) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_initial_law_of_wrong_length_rejected(self):
        # stochastic vectors, but not one probability per state
        for kernel, initial in (
            ([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0, 0.0]),
            ([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], [0.5, 0.5]),
        ):
            with pytest.raises(StructuralError, match="one probability per state"):
                MarkovSource(np.array(kernel), initial=initial)

    @pytest.mark.parametrize("initial", [[0.5, 0.4], [1.5, -0.5], [[1.0, 0.0]], [math.nan, 1.0]])
    def test_initial_law_must_be_stochastic(self, initial):
        with pytest.raises(StructuralError):
            MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]), initial=initial)

    def test_initial_law_kept_in_row_order(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]), initial=(0.0, 1.0))
        assert src.initial_vector().tolist() == [0.0, 1.0]
        assert not src.initial_vector().flags.writeable

    def test_sources_compare_by_identity(self):
        kern = np.array([[0.9, 0.1], [0.2, 0.8]])
        a, b = MarkovSource(kern), MarkovSource(kern)
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1


class TestStationary:
    def test_symmetric_two_state(self):
        src = MarkovSource(np.array([[0.7, 0.3], [0.3, 0.7]]))
        pi = stationary_distribution(src)
        assert pi.probs == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_iid_kernel_gives_marginal(self):
        q = FiniteDistribution((0.2, 0.3, 0.5))
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


class TestChainTables:
    def test_stationary_law_solved_once_per_chain(self, monkeypatch):
        calls = []
        solve = sources._stationary_vector
        monkeypatch.setattr(sources, "_stationary_vector", lambda kern: calls.append(1) or solve(kern))
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        GaussianParams.from_markov(src)
        dispersion_estimate(src, [4, 8, 12])
        markov_spectrum_mc(src, 20, 100, seed=0)
        assert len(calls) == 1

    def test_tables_are_read_only(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        for table in (src.pi, src.surprisal):
            with pytest.raises(ValueError):
                table[0] = 0.5

    def test_surprisal_zero_off_support(self):
        kern = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.25, 0.0, 0.75]])
        f = MarkovSource(kern).surprisal
        assert f[kern == 0.0].tolist() == [0.0] * 4
        assert f[kern > 0.0] == pytest.approx(-np.log2(kern[kern > 0.0]), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_entropy_rate_matches_fsum_oracle(self, m):
        rng = np.random.default_rng(m)
        for _ in range(10):
            src = MarkovSource(rng.dirichlet(np.ones(m), size=m))
            oracle = math.fsum(
                src.pi[i] * math.fsum(-p * math.log2(p) for p in row) for i, row in enumerate(src.kernel.tolist())
            )
            assert markov_entropy_rate(src) == pytest.approx(oracle, rel=1e-15, abs=0.0)


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
        src = load_source({"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]]})
        assert isinstance(src, MarkovSource)
        np.testing.assert_array_equal(src.kernel, [[0.9, 0.1], [0.2, 0.8]])

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

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"type": "memoryless", "probs": [0.5, 0.5], "symbols": ["a", "b"]}, "symbols"),
            ({"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]], "intial": [1, 0]}, "intial"),
            ({"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]], "states": ["a", "b"]}, "states"),
            ({"type": "geometric", "param": 0.5, "order": 1}, "order"),
            ({"type": "poisson", "param": 2.0, "probs": [1.0]}, "probs"),
        ],
    )
    def test_unknown_key_rejected_by_name(self, doc, key):
        with pytest.raises(DistributionError, match=f"unknown key.*'{key}'"):
            load_source(doc)

    def test_invalid_json(self):
        with pytest.raises(DistributionError):
            load_source("{not json")
