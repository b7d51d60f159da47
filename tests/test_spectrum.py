import decimal
import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complimits import sources, spectrum
from complimits.errors import BudgetExceededError, DistributionError, UnsupportedSpectrumError
from complimits.sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    entropy,
    varentropy,
)
from complimits.spectrum import (
    MERGE_TOL,
    InformationSpectrum,
    _finish,
    ccdf,
    cdf_values,
    count_times_pstring,
    iid_spectrum,
    markov_spectrum_exact,
    markov_spectrum_mc,
    mean_info,
    var_info,
)

from _oracles import (
    count_heavier,
    dyadic,
    enumerate_iid,
    enumerate_markov,
    exact_binomial,
    exact_multinomial,
    iid_kernel,
    relative_error,
    spectrum_self_check,
    uniform_distribution,
)

B11 = bernoulli(0.11)
# brute-force masses of two Bernoulli(0.11) draws
I_HH = -2 * math.log2(0.89)
I_HT = -math.log2(0.89) - math.log2(0.11)
I_TT = -2 * math.log2(0.11)
PAPER_CHAIN = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))


# ---------------------------------------------------------------------------
# Per-mass reference path: one (info, prob, count) triple per type class or
# path, sorted and merged one mass at a time.  The column constructors must
# match its surprisals, counts and cumulative counts bit for bit.  Its masses
# are the exact multinomial n!/prod(c_a!) prod(p_a^c_a) of the law's doubles
# for a memoryless law of two or more letters at n >= 2, which Loader's form
# and the Pascal steps from it must meet to 2^-40 relative, and the masses
# themselves otherwise, which must match bit for bit.  Suffix and prefix sums
# must lie within one ulp of the exact sums of the stored masses.
# Enumeration order cannot show: tied masses carry equal surprisals and exact
# sums, so compositions are listed here in their own order.
# ---------------------------------------------------------------------------


def _ref_compositions(n, m):
    if m == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _ref_compositions(n - k, m - 1):
            yield (k,) + rest


def _ref_iid_triples(probs, n):
    m = len(probs)
    iotas = [-math.log2(p) for p in probs]
    if m == 1:
        yield (n * iotas[0], 1.0, 1)
        return
    if n == 1:
        for p, iota in zip(probs, iotas):
            yield (iota, p, 1)
        return
    # exact masses, as (numerator, scale) pairs
    comps = list(_ref_compositions(n, m))
    nums, scale = exact_binomial(n, probs[0], probs[1]) if m == 2 else exact_multinomial(comps, probs)
    for comp, num in zip(comps, nums):
        count = math.factorial(n)
        for c in comp:
            count //= math.factorial(c)
        yield (math.fsum(c * it for c, it in zip(comp, iotas)), (num, scale), count)


def _ref_markov_triples(src, n):
    kern, init, m = src.kernel, src.initial_vector(), src.n_states
    stack = [(s, 1, float(init[s]), -math.log2(init[s])) for s in range(m - 1, -1, -1) if init[s] > 0.0]
    while stack:
        state, depth, prob, info = stack.pop()
        if depth == n:
            yield (info, prob, 1)
            continue
        for nxt in range(m - 1, -1, -1):
            p = float(kern[state, nxt])
            if p > 0.0:
                stack.append((nxt, depth + 1, prob * p, info - math.log2(p)))


def _reference(triples):
    infos, groups, counts = [], [], []
    for info, prob, count in sorted(triples, key=lambda t: t[0]):
        if infos and info - infos[-1] <= MERGE_TOL:
            groups[-1].append(prob)
            counts[-1] += count
        else:
            infos.append(info)
            groups.append([prob])
            counts.append(count)
    probs = [math.fsum(g) if isinstance(g[0], float) else (sum(num for num, _ in g), g[0][1]) for g in groups]
    cum_counts, run = [], 0
    for c in counts:
        run += c
        cum_counts.append(run)
    return {"infos": np.array(infos), "probs": probs, "counts": tuple(counts), "cum_counts": tuple(cum_counts)}


def _assert_sums_hold_to_an_ulp(spec):
    stored = list(map(dyadic, spec.probs.tolist()))
    for got, exact in (
        (spec.suffix_probs.tolist(), list(itertools.accumulate(stored[::-1], initial=0))[::-1]),
        (cdf_values(spec).tolist(), list(itertools.accumulate(stored))),
    ):
        assert len(got) == len(exact)
        for i, (x, e) in enumerate(zip(got, exact)):
            assert abs(dyadic(x) - e) <= dyadic(math.ulp(e / 2**1074)), i


def _assert_matches_reference(spec, triples):
    ref = _reference(triples)
    assert np.array_equal(spec.infos, ref["infos"])
    assert spec.counts == ref["counts"]
    assert spec.cum_counts == ref["cum_counts"]
    if isinstance(ref["probs"][0], tuple):
        assert max(relative_error(x, *exact) for x, exact in zip(spec.probs.tolist(), ref["probs"])) <= 2.0**-40
    else:
        assert np.array_equal(spec.probs, np.array(ref["probs"]))
    _assert_sums_hold_to_an_ulp(spec)


class TestIidSpectrum:
    def test_fair_coin_single_mass(self):
        s = iid_spectrum(bernoulli(0.5), 4)
        assert len(s) == 1
        assert s.infos[0] == pytest.approx(4.0, abs=1e-12)
        assert s.probs[0] == pytest.approx(1.0, abs=1e-12)
        assert s.counts == (16,)

    def test_bernoulli_011_n2_brute_force(self):
        s = iid_spectrum(B11, 2)
        assert len(s) == 3
        assert list(s.infos) == pytest.approx([I_HH, I_HT, I_TT], abs=1e-12)
        assert list(s.probs) == pytest.approx([0.7921, 0.1958, 0.0121], abs=1e-12)
        assert s.counts == (1, 2, 1)

    def test_uniform4_n3_merges_to_point_mass(self):
        s = iid_spectrum(uniform_distribution(4), 3)
        assert len(s) == 1
        assert s.infos[0] == pytest.approx(6.0, abs=1e-12)
        assert s.counts == (64,)

    def test_three_symbol_counts_are_multinomials(self):
        d = FiniteDistribution((0.5, 0.3, 0.2))
        s = iid_spectrum(d, 4)
        assert s.total_count == 3 ** 4
        brute = enumerate_iid(d.probs, 4)
        # group brute infos and compare multiset of counts
        infos = sorted(i for _, i, _ in brute)
        groups = []
        for i in infos:
            if groups and i - groups[-1][0] <= 1e-12:
                groups[-1][1] += 1
            else:
                groups.append([i, 1])
        assert len(groups) == len(s)
        assert [g[1] for g in groups] == list(s.counts)

    def test_budget_exceeded_suggests_raising_budget(self, monkeypatch):
        monkeypatch.setenv("COMPLIMITS_TYPE_CLASS_BUDGET", "1000")
        d = FiniteDistribution((0.25,) * 4)
        with pytest.raises(BudgetExceededError) as err:
            iid_spectrum(d, 500)
        assert "COMPLIMITS_TYPE_CLASS_BUDGET" in err.value.suggestion
        assert "markov_spectrum_mc" not in err.value.suggestion  # sampling takes Markov sources only

    def test_moments_match_source(self):
        for n in (1, 7, 40):
            s = iid_spectrum(B11, n)
            assert mean_info(s) == pytest.approx(n * entropy(B11), rel=1e-9)
            assert var_info(s) == pytest.approx(n * varentropy(B11), rel=1e-9)

    def test_self_check_log_space_consistency(self):
        assert spectrum_self_check(iid_spectrum(B11, 64)) < 1e-9
        # exact counts whose least masses are subnormal (about 1e-322): those
        # carry too few bits for a relative residual and must not count
        skewed = iid_spectrum(FiniteDistribution((0.98, 0.01, 0.01)), 300)
        assert any(0.0 < p < sys.float_info.min for p in skewed.probs.tolist())
        assert spectrum_self_check(skewed) < 1e-9

    def test_huge_blocklength_probabilities_survive(self):
        s = iid_spectrum(bernoulli(0.5), 4000)  # per-string prob 2^-4000 underflows alone
        assert s.probs[0] == pytest.approx(1.0, abs=1e-9)


class TestColumnConstructors:
    @pytest.mark.parametrize(
        "probs, n",
        [((0.89, 0.11), n) for n in (1, 2, 59, 300, 1100, 2000)]  # log2 of >1024-bit counts, >1000-bit flush
        + [
            ((0.5, 0.5), 40),  # one tie class
            ((0.3, 0.7), 59),  # surprisal falls as k grows
            ((0.999, 0.001), 2000),  # probabilities underflow to 0
            ((0.25,) * 4, 3),  # every class merges into one mass
            ((0.5, 0.25, 0.25), 30),  # tie merges
            ((0.6, 0.3, 0.1), 50),
        ],
    )
    def test_iid_matches_the_exact_per_mass_reference(self, probs, n):
        dist = FiniteDistribution(probs)
        _assert_matches_reference(iid_spectrum(dist, n), _ref_iid_triples(dist.probs, n))

    def test_markov_matches_the_per_mass_reference(self):
        _assert_matches_reference(markov_spectrum_exact(PAPER_CHAIN, 10), _ref_markov_triples(PAPER_CHAIN, 10))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        letters=st.lists(
            st.one_of(st.sampled_from([1 / 2, 1 / 4, 1 / 8, 1 / 3]), st.floats(0.01, 0.5)),
            min_size=1,
            max_size=3,
        ),
        n=st.integers(1, 12),
    )
    def test_random_laws_match_the_exact_per_mass_reference(self, letters, n):
        # the last letter takes the rest, so dyadic or third draws leave exact
        # ties and near-ties within MERGE_TOL (1 - 2/3 is not 1/3)
        rest = 1.0 - math.fsum(letters)
        if rest < 0.01:
            return
        dist = FiniteDistribution(letters + [rest])
        _assert_matches_reference(iid_spectrum(dist, n), _ref_iid_triples(dist.probs, n))

    def test_merge_joins_the_first_mass_of_a_group(self):
        # 1.2e-12 is within MERGE_TOL of 0.6e-12 but not of 0.0, the first
        # surprisal of its group, so it starts a new mass
        s = _finish(np.array([1.2e-12, 0.0, 0.6e-12]), [0.7, 0.1, 0.2], [5, 1, 2], n=1)
        assert s.infos.tolist() == [0.0, 1.2e-12]
        assert s.probs.tolist() == [math.fsum([0.1, 0.2]), 0.7]
        assert s.counts == (3, 5)

    def test_binomial_rows_do_not_depend_on_call_order(self, monkeypatch):
        # a row of counts comes by Pascal's rule only when row n - 1 was the
        # last one built, a binary row of masses only from a cached row of the
        # same law within its anchor block, and the stirlerr table grows with
        # the largest n; shuffled blocklengths with repeats, n - 1 right after
        # n + 5, rows across the anchors at 64 and 128, and 3-letter laws
        # (which build rows 0..n) between 2-letter ones must all give what the
        # reference gives, and the same spectra, bit for bit, as a build in
        # order from empty caches
        ns = list(range(1, 41)) * 2
        random.Random(3).shuffle(ns)
        ns += [20, 20, 21, 27, 21, 22, 2, 1, 2, 3, 63, 64, 65, 64, 66, 130, 127, 128, 126, 70]
        laws = [(0.89, 0.11), (0.2, 0.8), (0.5, 0.5), (0.6, 0.3, 0.1)]  # sorted, reversed, one merged mass
        built = []
        for i, n in enumerate(ns):
            dist = FiniteDistribution(laws[i % len(laws)])
            s = iid_spectrum(dist, n)
            _assert_matches_reference(s, _ref_iid_triples(dist.probs, n))
            if dist.probs == (0.5, 0.5):
                assert s.counts == (2**n,)
            last, half = spectrum._half_row_cache  # one row is kept, never more
            assert n == 1 or (last == n and len(half) == n // 2 + 1)
            law, last, row = spectrum._binary_row_cache  # and one row of masses
            assert len(dist.probs) != 2 or n == 1 or (law == dist.probs[::-1] and last == n and len(row) == n + 1)
            built.append((dist, n, s))
        monkeypatch.setattr(spectrum, "_half_row_cache", (0, [1]))
        monkeypatch.setattr(spectrum, "_binary_row_cache", ((), 0, np.ones(1)))
        monkeypatch.setattr(sources, "_stirlerr_table", sources._STIRLERR_EXACT)
        for dist, n, s in sorted(built, key=lambda b: b[1]):
            fresh = iid_spectrum(dist, n)
            for field in ("infos", "probs", "suffix_probs"):
                assert np.array_equal(getattr(s, field), getattr(fresh, field)), field
            assert s.counts == fresh.counts

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 1999, 2000])
    def test_cold_binary_row_is_the_swept_one(self, monkeypatch, n):
        # Loader's column at n - n mod 64, then Pascal steps: a build from empty
        # caches equals, bit for bit, the row a sweep from n = 10 reaches, and
        # lies within 2^-40 relative of the exact binomial (1.3e-13 measured at
        # n = 1999; Loader's column alone reaches 3.9e-13 there)
        monkeypatch.setattr(spectrum, "_binary_row_cache", ((), 0, np.ones(1)))
        for r in range(10, n + 1):
            swept = iid_spectrum(B11, r).probs
        monkeypatch.setattr(spectrum, "_binary_row_cache", ((), 0, np.ones(1)))
        cold = iid_spectrum(B11, n).probs
        assert np.array_equal(cold.view(np.int64), swept.view(np.int64))
        nums, scale = exact_binomial(n, *B11.probs[::-1])
        assert max(relative_error(x, num, scale) for x, num in zip(cold.tolist(), nums)) <= 2.0**-40

    def test_stirlerr_table_does_not_depend_on_how_it_grew(self, monkeypatch):
        monkeypatch.setattr(sources, "_stirlerr_table", sources._STIRLERR_EXACT)
        for n in (3, 17, 40, 100, 2000):
            stepped = sources._stirlerr_upto(n)
        monkeypatch.setattr(sources, "_stirlerr_table", sources._STIRLERR_EXACT)
        assert np.array_equal(sources._stirlerr_upto(len(stepped) - 1), stepped)

    @pytest.mark.parametrize("q", [0.11, 0.7, 0.001, 0.5, 0.4, 0.01])
    @pytest.mark.parametrize("n", [2, 3, 16, 17, 300, 1792, 2000])
    def test_binary_masses_hold_to_the_exact_binomial(self, q, n):
        # C(n, k) q^k (1-q)^(n-k) of the law's doubles: Loader's columns at
        # multiples of 64 (1792 is one) and the Pascal rows between stay within
        # 5.6e-13 relative for every normal mass (2^-40 is 9.1e-13); log2 C(n, k)
        # from lgamma left masses 4e-12 off
        dist = bernoulli(q)
        _assert_matches_reference(iid_spectrum(dist, n), _ref_iid_triples(dist.probs, n))

    def test_certain_symbol_has_positive_zero_surprisal(self):
        s = iid_spectrum(FiniteDistribution((1.0, 0.0)), 3)
        assert s.counts == (1,)
        assert math.copysign(1.0, float(s.infos[0])) == 1.0

    def test_certain_path_has_positive_zero_surprisal(self):
        cyc = MarkovSource(np.array([[0.0, 1.0], [1.0, 0.0]]), initial=(1.0, 0.0))
        s = markov_spectrum_exact(cyc, 4)
        assert s.counts == (1,)
        assert math.copysign(1.0, float(s.infos[0])) == 1.0


# (count, info) pairs on each side of every branch of count_times_pstring
PSTRING_CASES = [
    (2**53 - 1, 3.5), (2**53, 3.5), (2**53 + 1, 3.5), (2**54 - 1, 60.25),  # 53 and 54 bits
    (7, 1000.0), (7, math.nextafter(1000.0, math.inf)), (2**53, 1000.0), (2**53 + 1, 1000.0),
    (3, 1070.0), (1, 1079.5), (1, 1080.0), (1, math.nextafter(1080.0, math.inf)), (5, 1100.0),  # subnormal, cut
    (2**60 - 1, 1140.0), (2**60 - 1, math.nextafter(1140.0, math.inf)),  # log2 rounds up to the bit length
    (2**1100 + 12345, 1100.5), (3**700, 1109.5), (3**700, 2300.0), (2**1024, 1023.0),  # counts above 2^1024
    (0, 0.0), (0, 1200.0), (5, 0.0), (2**70, 0.0), (-3, 2.0),
]


def _assert_piece_is_exact(count, info):
    # count * 2^(-info) at 60 digits: within 2^-40 relative, or the least
    # subnormal where the mass is cut or rounds to the subnormal grid; a
    # count <= 0 is +0.0
    got = count_times_pstring(count, info)
    if count <= 0:
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        return
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 60, decimal.MIN_EMIN, decimal.MAX_EMAX
        exact = decimal.Decimal(count) * decimal.Decimal(2) ** -decimal.Decimal(info)
        assert abs(decimal.Decimal(got) - exact) <= exact * decimal.Decimal(2.0**-40) + decimal.Decimal(2.0**-1074)


class TestPstringColumn:
    """``count_times_pstring``, the piece mass that rank cuts and the dyadic
    walk of ``optcode`` map over their columns, against exact values."""

    @pytest.mark.parametrize("count, info", PSTRING_CASES)
    def test_one_mass(self, count, info):
        _assert_piece_is_exact(count, info)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(st.integers(0, 2**60), st.integers(0, 2**1200)),
                st.one_of(st.floats(0.0, 2500.0), st.sampled_from([1000.0, 1080.0, 1140.0, 0.0])),
            ),
            max_size=30,
        )
    )
    def test_random_masses(self, pairs):
        for count, info in pairs:
            if count.bit_length() - info <= 1020:  # no overflow past 2^1024
                _assert_piece_is_exact(count, info)

    def test_overflow_raises_as_the_scalar_does(self):
        with pytest.raises(OverflowError):
            count_times_pstring(2**1100, 0.0)


class TestSpectrumChecks:
    @pytest.mark.parametrize(
        "probs", [[math.nan, 1.0], [1.0, math.nan], [0.0, 0.0], [math.inf, 1.0], [0.5, 0.4]],
        ids=["nan_first", "nan_last", "zeros", "inf", "short"],
    )
    def test_probabilities_must_sum_to_one(self, probs):
        with pytest.raises(DistributionError, match="sum to"):
            InformationSpectrum([0.0, 1.0], probs, [1, 1], n=1, exact=True)


class TestMarkovSpectrum:
    KERNEL = np.array([[0.9, 0.1], [0.2, 0.8]])

    def test_iid_kernel_reduces_to_iid(self):
        d = FiniteDistribution((0.2, 0.3, 0.5))
        s_markov = markov_spectrum_exact(iid_kernel(d), 3)
        s_iid = iid_spectrum(d, 3)
        assert len(s_markov) == len(s_iid)
        assert list(s_markov.infos) == pytest.approx(list(s_iid.infos), abs=1e-10)
        assert list(s_markov.probs) == pytest.approx(list(s_iid.probs), abs=1e-12)
        assert s_markov.counts == s_iid.counts

    def test_deterministic_cycle_single_mass(self):
        cyc = MarkovSource(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for n in (1, 3, 6):
            s = markov_spectrum_exact(cyc, n)
            assert len(s) == 1
            assert s.infos[0] == pytest.approx(1.0, abs=1e-12)  # surprisal of the start state

    def test_two_state_n2_hand_oracle(self):
        # four paths, but the two mixed ones carry probability exactly 1/15
        # each ((2/3)*0.1 == (1/3)*0.2), so the merge rule fuses them
        src = MarkovSource(self.KERNEL)  # stationary initial (2/3, 1/3)
        s = markov_spectrum_exact(src, 2)
        brute = enumerate_markov(self.KERNEL.tolist(), [2 / 3, 1 / 3], 2)
        expected = []
        for i, p in sorted((i, p) for p, i, _ in brute):
            if expected and i - expected[-1][0] <= 1e-12:
                expected[-1][1] += p
                expected[-1][2] += 1
            else:
                expected.append([i, p, 1])
        assert len(brute) == 4 and len(expected) == 3
        assert len(s) == 3
        assert list(s.infos) == pytest.approx([e[0] for e in expected], abs=1e-12)
        assert list(s.probs) == pytest.approx([e[1] for e in expected], abs=1e-12)
        assert list(s.counts) == [e[2] for e in expected]

    def test_budget_guard(self):
        src = MarkovSource(self.KERNEL)
        with pytest.raises(BudgetExceededError):
            markov_spectrum_exact(src, 30)


class TestMonteCarloSpectrum:
    def test_deterministic_chain_single_mass(self):
        cyc = MarkovSource(np.array([[0.0, 1.0], [1.0, 0.0]]), initial=(1.0, 0.0))
        s = markov_spectrum_mc(cyc, 5, 1000, seed=1)
        assert len(s) == 1
        assert s.probs[0] == 1.0
        assert s.sample_size == 1000 and not s.exact

    def test_mean_within_clt_tolerance(self):
        d = bernoulli(0.11)
        src = iid_kernel(d)
        n, samples = 100, 100_000
        s = markov_spectrum_mc(src, n, samples, seed=123)
        h, s2 = entropy(d), varentropy(d)
        tol = 3.0 * math.sqrt(s2 / (samples * n))
        assert mean_info(s) / n == pytest.approx(h, abs=tol)

    def test_seed_determinism(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        a = markov_spectrum_mc(src, 50, 20_000, seed=9)
        b = markov_spectrum_mc(src, 50, 20_000, seed=9)
        assert np.array_equal(a.infos, b.infos)
        assert np.array_equal(a.probs, b.probs)
        c = markov_spectrum_mc(src, 50, 20_000, seed=10)
        assert not np.array_equal(a.probs, c.probs)

    def test_ccdf_converges_to_exact(self):
        # 4-sigma agreement at a fixed threshold across a batch of seeds
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        exact = markov_spectrum_exact(src, 10)
        a = 6.0
        target = ccdf(exact, a)
        samples = 20_000
        tol = 4.0 * math.sqrt(target * (1 - target) / samples)
        for seed in range(12):
            emp = ccdf(markov_spectrum_mc(src, 10, samples, seed=seed), a)
            assert abs(emp - target) <= tol

    def test_exact_only_queries_rejected(self):
        src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
        s = markov_spectrum_mc(src, 5, 100, seed=0)
        with pytest.raises(UnsupportedSpectrumError):
            count_heavier(s, 4.0)


class TestQueries:
    def test_ccdf_edges(self):
        s = iid_spectrum(B11, 2)
        assert ccdf(s, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert ccdf(s, float(s.infos[-1]) + 1.0) == 0.0

    def test_ccdf_interior(self):
        s = iid_spectrum(B11, 2)
        assert ccdf(s, 1.0) == pytest.approx(0.2079, abs=1e-12)

    def test_ccdf_is_one_at_the_lightest_surprisal_whatever_the_float_total(self):
        s = InformationSpectrum([0.5, 2.0], [0.75, 0.25 - 1e-12], [1, 2], n=1, exact=True)
        assert s.suffix_probs[0] < 1.0
        assert ccdf(s, 0.5) == ccdf(s, -3.0) == 1.0
        assert ccdf(s, 0.6) == s.suffix_probs[1]

    def test_count_heavier_boundaries(self):
        s = iid_spectrum(B11, 2)
        assert count_heavier(s, 1.0) == 0  # nothing exceeds probability 1
        assert count_heavier(s, 1 / 0.05) == 3
        assert count_heavier(s, 1 / 0.7921) == 0  # strict at the boundary

    def test_count_uniform_boundary(self):
        s = iid_spectrum(uniform_distribution(8), 1)
        assert count_heavier(s, 16.0) == 8
        assert count_heavier(s, 4.0) == 0  # beta below 1/max_prob

    def test_query_validation(self):
        s = iid_spectrum(B11, 2)
        with pytest.raises(ValueError):
            count_heavier(s, 0.5)

