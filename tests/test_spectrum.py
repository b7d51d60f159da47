import json
import math

import numpy as np
import pytest

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
    ccdf,
    count_heavier,
    count_heavier_eq,
    iid_spectrum,
    markov_spectrum_exact,
    markov_spectrum_mc,
    mean_info,
    quantile,
    var_info,
    write_csv,
)

from _oracles import enumerate_iid, enumerate_markov

B11 = bernoulli(0.11)
# brute-force masses of two Bernoulli(0.11) draws
I_HH = -2 * math.log2(0.89)
I_HT = -math.log2(0.89) - math.log2(0.11)
I_TT = -2 * math.log2(0.11)


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

    def test_budget_exceeded_suggests_sampling(self):
        d = FiniteDistribution.from_probs((0.25,) * 4)
        with pytest.raises(BudgetExceededError) as err:
            iid_spectrum(d, 500, Budgets(type_classes=1000))
        assert "markov_spectrum_mc" in err.value.suggestion

    def test_moments_match_source(self):
        for n in (1, 7, 40):
            s = iid_spectrum(B11, n)
            assert mean_info(s) == pytest.approx(n * entropy(B11), rel=1e-9)
            assert var_info(s) == pytest.approx(n * varentropy(B11), rel=1e-9)

    def test_self_check_log_space_consistency(self):
        assert iid_spectrum(B11, 64).self_check() < 1e-9

    def test_huge_blocklength_probabilities_survive(self):
        s = iid_spectrum(bernoulli(0.5), 4000)  # per-string prob 2^-4000 underflows alone
        assert s.probs[0] == pytest.approx(1.0, abs=1e-9)


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
        assert count_heavier_eq(s, 1 / 0.7921) == 1
        assert count_heavier_eq(s, 1 / (0.89 * 0.11)) == 3

    def test_count_uniform_boundary(self):
        s = iid_spectrum(uniform_distribution(8), 1)
        assert count_heavier_eq(s, 8.0) == 8
        assert count_heavier(s, 16.0) == 8
        assert count_heavier(s, 4.0) == 0  # beta below 1/max_prob

    def test_quantile_conventions(self):
        s = iid_spectrum(B11, 2)
        assert quantile(s, 1.0) == pytest.approx(I_TT, abs=1e-12)
        assert quantile(s, 0.9) == pytest.approx(I_HT, abs=1e-12)  # inside the jump
        assert quantile(s, 0.7921) == pytest.approx(I_HH, abs=1e-12)  # attained on plateau
        single = iid_spectrum(bernoulli(0.5), 3)
        for p in (0.1, 0.5, 1.0):
            assert quantile(single, p) == pytest.approx(3.0, abs=1e-12)

    def test_query_validation(self):
        s = iid_spectrum(B11, 2)
        with pytest.raises(ValueError):
            quantile(s, 0.0)
        with pytest.raises(ValueError):
            count_heavier(s, 0.5)


class TestExport:
    def test_csv_and_sidecar(self, tmp_path):
        s = iid_spectrum(B11, 2)
        path = tmp_path / "spec.csv"
        write_csv(s, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "info_value_bits,probability,count"
        assert len(lines) == 4
        meta = json.loads((tmp_path / "spec.csv.meta.json").read_text())
        assert meta["n"] == 2 and meta["exact"] is True
        assert meta["total_string_count"] == "4"

    def test_csv_counts_are_exact_decimals(self, tmp_path):
        s = iid_spectrum(bernoulli(0.11), 300)
        path = tmp_path / "big.csv"
        write_csv(s, str(path))
        row = path.read_text().strip().split("\n")[151]
        assert int(row.split(",")[2]) == math.comb(300, 150)
