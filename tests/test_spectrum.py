import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complimits.budgets import Budgets
from complimits.errors import BudgetExceededError, UnsupportedSpectrumError
from complimits.sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    entropy,
    iid_kernel,
    uniform_distribution,
    varentropy,
)
from complimits.spectrum import (
    MERGE_TOL,
    _finish,
    ccdf,
    cdf_values,
    count_heavier,
    count_times_pstring,
    iid_spectrum,
    markov_spectrum_exact,
    markov_spectrum_mc,
    mean_info,
    var_info,
)

from _oracles import enumerate_iid, enumerate_markov

B11 = bernoulli(0.11)
# brute-force masses of two Bernoulli(0.11) draws
I_HH = -2 * math.log2(0.89)
I_HT = -math.log2(0.89) - math.log2(0.11)
I_TT = -2 * math.log2(0.11)
PAPER_CHAIN = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))


# ---------------------------------------------------------------------------
# Per-mass reference path: one (info, prob, count) triple per type class or
# path, sorted and merged one mass at a time, with the cumulative arrays
# summed over NumPy scalars.  The column constructors must match it bit for
# bit.  Enumeration order cannot show: tied masses carry equal surprisals and
# math.fsum is exact, so compositions are listed here in their own order.
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
    if m == 2:
        i0, i1 = iotas
        count = 1
        for k in range(n + 1):
            info = math.fsum(((n - k) * i0, k * i1))
            yield (info, count_times_pstring(count, info), count)
            count = count * (n - k) // (k + 1)
        return
    for comp in _ref_compositions(n, m):
        count = math.factorial(n)
        for c in comp:
            count //= math.factorial(c)
        info = math.fsum(c * it for c, it in zip(comp, iotas))
        yield (info, count_times_pstring(count, info), count)


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


def _ref_kahan(values):
    out = np.empty(len(values))
    s = c = 0.0
    for i, x in enumerate(values):
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
        out[i] = s
    return out


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
    probs = np.array([math.fsum(g) for g in groups])
    cum_counts, run = [], 0
    for c in counts:
        run += c
        cum_counts.append(run)
    return {
        "infos": np.array(infos),
        "probs": probs,
        "counts": tuple(counts),
        "cum_probs": _ref_kahan(probs),
        "suffix_probs": np.concatenate([_ref_kahan(probs[::-1])[::-1], [0.0]]),
        "cum_counts": tuple(cum_counts),
    }


def _assert_matches_reference(spec, triples):
    ref = _reference(triples)
    for field in ("infos", "probs", "suffix_probs"):
        assert np.array_equal(getattr(spec, field), ref[field]), field
    assert np.array_equal(cdf_values(spec), ref["cum_probs"])
    assert spec.counts == ref["counts"]
    assert spec.cum_counts == ref["cum_counts"]


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
        d = FiniteDistribution.from_probs((0.5, 0.3, 0.2))
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

    def test_budget_exceeded_suggests_raising_budget(self):
        d = FiniteDistribution.from_probs((0.25,) * 4)
        with pytest.raises(BudgetExceededError) as err:
            iid_spectrum(d, 500, Budgets(type_classes=1000))
        assert "COMPLIMITS_TYPE_CLASS_BUDGET" in err.value.suggestion
        assert "markov_spectrum_mc" not in err.value.suggestion  # sampling takes Markov sources only

    def test_moments_match_source(self):
        for n in (1, 7, 40):
            s = iid_spectrum(B11, n)
            assert mean_info(s) == pytest.approx(n * entropy(B11), rel=1e-9)
            assert var_info(s) == pytest.approx(n * varentropy(B11), rel=1e-9)

    def test_self_check_log_space_consistency(self):
        assert iid_spectrum(B11, 64).self_check() < 1e-9
        # exact counts whose least masses are subnormal (about 1e-322): those
        # carry too few bits for a relative residual and must not count
        skewed = iid_spectrum(FiniteDistribution.from_probs((0.98, 0.01, 0.01)), 300)
        assert any(0.0 < p < sys.float_info.min for p in skewed.probs.tolist())
        assert skewed.self_check() < 1e-9

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
    def test_iid_bit_identical_to_per_mass_path(self, probs, n):
        dist = FiniteDistribution.from_probs(probs)
        _assert_matches_reference(iid_spectrum(dist, n), _ref_iid_triples(dist.probs, n))

    def test_markov_bit_identical_to_per_mass_path(self):
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
    def test_random_laws_bit_identical_to_per_mass_path(self, letters, n):
        # the last letter takes the rest, so dyadic or third draws leave exact
        # ties and near-ties within MERGE_TOL (1 - 2/3 is not 1/3)
        rest = 1.0 - math.fsum(letters)
        if rest < 0.01:
            return
        dist = FiniteDistribution.from_probs(letters + [rest])
        _assert_matches_reference(iid_spectrum(dist, n), _ref_iid_triples(dist.probs, n))

    def test_merge_joins_the_first_mass_of_a_group(self):
        # 1.2e-12 is within MERGE_TOL of 0.6e-12 but not of 0.0, the first
        # surprisal of its group, so it starts a new mass
        s = _finish(np.array([1.2e-12, 0.0, 0.6e-12]), [0.7, 0.1, 0.2], [5, 1, 2], n=1)
        assert s.infos.tolist() == [0.0, 1.2e-12]
        assert s.probs.tolist() == [math.fsum([0.1, 0.2]), 0.7]
        assert s.counts == (3, 5)

    def test_certain_symbol_has_positive_zero_surprisal(self):
        s = iid_spectrum(FiniteDistribution.from_probs((1.0, 0.0)), 3)
        assert s.counts == (1,)
        assert math.copysign(1.0, float(s.infos[0])) == 1.0

    def test_certain_path_has_positive_zero_surprisal(self):
        cyc = MarkovSource(np.array([[0.0, 1.0], [1.0, 0.0]]), initial=FiniteDistribution.from_probs((1.0, 0.0)))
        s = markov_spectrum_exact(cyc, 4)
        assert s.counts == (1,)
        assert math.copysign(1.0, float(s.infos[0])) == 1.0


class TestMarkovSpectrum:
    KERNEL = np.array([[0.9, 0.1], [0.2, 0.8]])

    def test_iid_kernel_reduces_to_iid(self):
        d = FiniteDistribution.from_probs((0.2, 0.3, 0.5))
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
        cyc = MarkovSource(np.array([[0.0, 1.0], [1.0, 0.0]]), initial=FiniteDistribution.from_probs((1.0, 0.0)))
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

