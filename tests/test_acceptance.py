"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1's expected-length target is asserted exactly as stated
even though the published scalar it comes from is internally inconsistent
with the optimal-length convention used everywhere else (see the companion
diagnosis test and the decisions ledger); that single assertion fails
honestly.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from complimits.sources import (
    FiniteDistribution,
    MarkovSource,
    bernoulli,
    binomial_distribution,
    entropy,
    geometric_distribution,
    markov_entropy_rate,
    markov_varentropy_rate,
    stationary_distribution,
    uniform_distribution,
    varentropy,
)
from complimits.spectrum import (
    cdf_values,
    iid_spectrum,
    markov_spectrum_exact,
    markov_spectrum_mc,
    var_info,
)
from complimits.optcode import (
    R_star,
    Rbar,
    epsilon_star,
    expected_length_equiprobable,
    length_distribution,
    prefix_R,
    prefix_epsilon,
    var_length_equiprobable,
)
from complimits.bounds import (
    GaussianParams,
    R_upper_quantile,
    achievability_iid,
    approx_Rstar,
    converse_iid,
    gaussian_Q_inv,
    gaussian_phi,
)
from complimits.binning import BinningProblem, binning_error_exact, binning_error_mc

from _oracles import (
    brute_R_star,
    brute_Rbar,
    brute_epsilon_star,
    brute_var_len,
    enumerate_iid,
    enumerate_markov,
    exhaustive_binning_error,
    ks_sup_distance,
    sorted_probs,
)
from test_properties import (
    check_converse_inequalities,
    check_count_integral_identity,
    check_stochastic_dominance,
)

B11 = bernoulli(0.11)


def _report(criterion, message):
    print(f"\n[criterion {criterion}] {message}", flush=True)


# ---------------------------------------------------------------------------
# 1. Figure-1 scalars
# ---------------------------------------------------------------------------


def test_criterion_01_figure1_scalars():
    t0 = time.time()
    dist = binomial_distribution(10_000, 0.5)
    spec = iid_spectrum(dist, 1)
    h = entropy(dist)
    mean_len = length_distribution(spec).mean()
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"figure-1 computation took {elapsed:.1f}s"
    ok_h = abs(h - 7.69) <= 0.005
    ok_l = abs(mean_len - 6.29) <= 0.005
    _report(1, f"H(X) = {h:.4f} (target 7.69 +- 0.005): {'PASS' if ok_h else 'FAIL'}")
    _report(
        1,
        f"E[len] = {mean_len:.4f} (target 6.29 +- 0.005): "
        f"{'PASS' if ok_l else 'FAIL - published scalar is the rank bit-length mean, '}"
        f"{'' if ok_l else 'i.e. floor(log2 r)+1; see decisions ledger'}",
    )
    assert ok_h, f"H(X) = {h}"
    assert ok_l, (
        f"E[len(optimal)] = {mean_len:.4f}; the 6.29 target equals this value + 1 "
        f"exactly (bit-length convention), and the optimal-length convention is "
        f"pinned by the geometric source value 0.632843 (criterion 2)"
    )


def test_criterion_01_diagnosis_is_verified():
    # machine-checked analysis of the criterion-1 failure: the exact mean
    # matches an independent brute-force oracle, and shifting every length
    # by one reproduces the published 6.29
    dist = binomial_distribution(10_000, 0.5)
    spec = iid_spectrum(dist, 1)
    mean_len = length_distribution(spec).mean()
    probs = np.sort(np.asarray(dist.probs))[::-1]
    ranks = np.arange(1, len(probs) + 1)
    brute = float((probs * np.floor(np.log2(ranks))).sum())
    assert mean_len == pytest.approx(brute, abs=1e-9)
    assert abs((mean_len + 1.0) - 6.29) <= 0.005
    _report(1, f"diagnosis: exact E[len] = {mean_len:.4f} = brute force; +1 = {mean_len+1:.4f} ~ 6.29 PASS")


# ---------------------------------------------------------------------------
# 2. Geometric source
# ---------------------------------------------------------------------------


def test_criterion_02_geometric():
    dist = geometric_distribution(0.5)
    rbar = Rbar(iid_spectrum(dist, 1))
    assert rbar == pytest.approx(0.632843, abs=1e-5)
    # prefix oracle: runs of zeros terminated by a one, length j for the j-th
    # outcome; exact rational average over the full geometric law equals 2
    terms = [Fraction(j, 2**j) for j in range(1, 41)]
    tail = Fraction(42, 2**40)  # sum_{j>40} j 2^-j
    unary_average = sum(terms, start=Fraction(0)) + tail
    assert unary_average == 2
    _report(2, f"Rbar = {rbar:.6f} (target 0.632843 +- 1e-5); unary prefix average = 2 exactly: PASS")


# ---------------------------------------------------------------------------
# 3 & 4. Exact-limit oracle equivalence and prefix coupling
# ---------------------------------------------------------------------------

MEMORYLESS_BATTERY = [
    bernoulli(0.11),
    bernoulli(0.3),
    uniform_distribution(2),
    FiniteDistribution.from_probs((0.5, 0.3, 0.2)),
    FiniteDistribution.from_probs((0.6, 0.2, 0.2)),
    uniform_distribution(3),
    FiniteDistribution.from_probs(np.random.default_rng(41).dirichlet(np.ones(2))),
    FiniteDistribution.from_probs(np.random.default_rng(42).dirichlet(np.ones(3))),
]

MARKOV_BATTERY = [
    MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]])),
    MarkovSource(np.array([[0.5, 0.5], [0.3, 0.7]]),
                 initial=FiniteDistribution.from_probs((1.0, 0.0))),
    MarkovSource(np.random.default_rng(43).dirichlet(np.ones(2), size=2)),
]

EPS_GRID = (0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9)


def _rate_eps_grid(spec):
    """Midpoints of the excess-probability ladder, plus zero.

    R_star jumps exactly at the epsilon_star values, where two differently
    ordered (but individually correctly rounded) summations may disagree by
    one ulp, so fixed eps values are unusable for cross-implementation
    equality (they can land on a jump of the source at hand).  Midpoints
    between consecutive ladder values are safely interior and cover every
    decision region of R_star.
    """
    ladder = sorted({epsilon_star(spec, k) for k in range(spec.total_count.bit_length() + 1)})
    mids = [0.5 * (a + b) for a, b in zip(ladder, ladder[1:]) if b - a > 1e-9]
    return [0.0] + [e for e in mids if e < 1.0]


def _check_against_brute(spec, enumerated, n):
    probs = sorted_probs(enumerated)
    assert spec.total_count == len(probs)
    for k in range(0, spec.total_count.bit_length() + 2):
        assert epsilon_star(spec, k) == pytest.approx(brute_epsilon_star(probs, k), abs=1e-12)
    for eps in _rate_eps_grid(spec):
        assert R_star(spec, eps) == pytest.approx(brute_R_star(probs, n, eps), abs=1e-15)
    assert Rbar(spec) == pytest.approx(brute_Rbar(probs, n), abs=1e-12)
    assert length_distribution(spec).variance() == pytest.approx(brute_var_len(probs), abs=1e-12)


def test_criterion_03_exact_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for dist in MEMORYLESS_BATTERY:
        for n in range(1, 9):
            spec = iid_spectrum(dist, n)
            _check_against_brute(spec, enumerate_iid(dist.probs, n), n)
            checked += 1
    for src in MARKOV_BATTERY:
        init = src.initial_vector().tolist()
        kern = src.kernel.tolist()
        for n in range(1, 13):
            spec = markov_spectrum_exact(src, n)
            _check_against_brute(spec, enumerate_markov(kern, init, n), n)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"oracle-equivalence suite took {elapsed:.1f}s"
    _report(3, f"rank machinery == brute force on {checked} (source, n) cases in {elapsed:.1f}s: PASS")


def test_criterion_04_prefix_coupling():
    checked = 0
    for dist in MEMORYLESS_BATTERY:
        alphabet = len(dist)
        power_of_two = alphabet & (alphabet - 1) == 0
        for n in range(1, 9):
            spec = iid_spectrum(dist, n)
            total = spec.total_count
            for k in range(0, total.bit_length() + 3):
                expected = epsilon_star(spec, k) if (1 << k) < total else 0.0
                assert prefix_epsilon(spec, k + 1) == pytest.approx(expected, abs=1e-15)
            min_mass = min(dist.probs) ** n
            for eps in EPS_GRID:
                r = R_star(spec, eps)
                rp = prefix_R(spec, eps)
                if power_of_two and eps < min_mass:
                    assert rp == pytest.approx(r, abs=1e-15)
                    assert r == pytest.approx(math.log2(alphabet) + 1.0 / n, abs=1e-12)
                else:
                    assert rp == pytest.approx(r + 1.0 / n, abs=1e-12)
            checked += 1
    _report(4, f"prefix coupling exact on {checked} (source, n) cases: PASS")


# ---------------------------------------------------------------------------
# 5 & 6. Sandwich with bracket, and the 4% approximation claim
# ---------------------------------------------------------------------------


def test_criterion_05_sandwich_and_bracket():
    t0 = time.time()
    params = GaussianParams.from_distribution(B11)
    eps_list = (0.05, 0.1, 0.2)
    lam = {e: gaussian_Q_inv(e) for e in eps_list}
    c_converse = {
        e: -(params.mu3 / 2 + params.sigma**3) / (params.sigma2 * gaussian_phi(lam[e]))
        for e in eps_list
    }
    points = valid_lb = valid_ub = 0
    for n in range(10, 2001):
        spec = iid_spectrum(B11, n)
        for eps in eps_list:
            exact = R_star(spec, eps)
            upper = R_upper_quantile(spec, eps).value
            ach = achievability_iid(params, n, eps)
            conv = converse_iid(params, n, eps)
            approx = approx_Rstar(params, n, eps)
            ceiling = min(upper, ach.value if ach.valid else math.inf)
            assert exact <= ceiling + 1e-9, f"upper sandwich broken at n={n}, eps={eps}"
            if conv.valid:
                assert conv.value <= exact + 1e-9, f"lower sandwich broken at n={n}, eps={eps}"
                valid_lb += 1
                # explicit-constant bracket, lower side
                assert n * (exact - approx) >= c_converse[eps] - 1e-9
            if ach.valid:
                valid_ub += 1
                # explicit-constant bracket, upper side (n-dependent constant)
                assert n * (exact - approx) <= n * (ach.value - approx) + 1e-9
            points += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"sandwich sweep took {elapsed:.1f}s"
    _report(
        5,
        f"sandwich + bracket hold at {points} (n, eps) points "
        f"({valid_lb} with valid converse, {valid_ub} with valid achievability) "
        f"in {elapsed:.1f}s: PASS",
    )


def test_criterion_06_four_percent_claim():
    params = GaussianParams.from_distribution(B11)
    worst = 0.0
    for n in range(61, 201):
        exact = R_star(iid_spectrum(B11, n), 0.1)
        approx = approx_Rstar(params, n, 0.1)
        worst = max(worst, abs(exact - approx) / exact)
    assert worst <= 0.04, f"worst relative discrepancy {worst:.4f}"
    _report(6, f"max |R* - approx|/R* over n in (60, 200] = {worst:.4f} <= 0.04: PASS")


# ---------------------------------------------------------------------------
# 7. Berry-Esseen instance
# ---------------------------------------------------------------------------


def test_criterion_07_berry_esseen_instance():
    h, s2 = entropy(B11), varentropy(B11)
    mu3 = GaussianParams.from_distribution(B11).mu3
    sigma = math.sqrt(s2)
    worst_ratio = 0.0
    for n in range(4, 65):
        spec = iid_spectrum(B11, n)
        scale = sigma * math.sqrt(n)
        sup = ks_sup_distance(
            [float(v) for v in spec.infos],
            cdf_values(spec).tolist(),
            lambda v: (v - n * h) / scale,
        )
        bound = mu3 / (2 * sigma**3 * math.sqrt(n))
        assert sup <= bound, f"Berry-Esseen bound violated at n={n}: {sup} > {bound}"
        worst_ratio = max(worst_ratio, sup / bound)
    _report(7, f"exact sup-distance <= mu3/(2 sigma^3 sqrt(n)) on n=4..64 (worst ratio {worst_ratio:.3f}): PASS")


# ---------------------------------------------------------------------------
# 8. Binning
# ---------------------------------------------------------------------------


def test_criterion_08_binning_exact_and_mc():
    rng = np.random.default_rng(77)
    # exact vs exhaustive enumeration over the (|X| <= 8, N <= 4) grid
    grid_points = 0
    for m in range(2, 9):
        sources = [rng.dirichlet(np.ones(m)), np.full(m, 1.0 / m)]
        for probs in sources:
            dist = FiniteDistribution.from_probs(probs)
            for n_bins in range(1, 5):
                exact = binning_error_exact(BinningProblem(dist, n_bins))
                brute = exhaustive_binning_error(dist.probs, n_bins)
                assert exact == pytest.approx(brute, abs=1e-12)
                grid_points += 1
    # Monte-Carlo agreement at 4 standard errors for 20 random pairs
    for trial in range(20):
        m = int(rng.integers(2, 9))
        dist = FiniteDistribution.from_probs(rng.dirichlet(np.ones(m)))
        n_bins = int(rng.integers(1, 9))
        problem = BinningProblem(dist, n_bins)
        exact = binning_error_exact(problem)
        estimate, stderr = binning_error_mc(problem, 1_000_000, seed=1000 + trial)
        assert abs(estimate - exact) <= 4 * stderr + 1e-9, (
            f"MC disagrees at trial {trial}: {estimate} vs {exact} (stderr {stderr})"
        )
    _report(8, f"exact == exhaustive on {grid_points} grid points; 20/20 MC runs within 4 stderr: PASS")


# ---------------------------------------------------------------------------
# 9. Dispersion convergence
# ---------------------------------------------------------------------------


def test_criterion_09_dispersion_convergence():
    sigma2 = 0.11 * 0.89 * math.log2(0.89 / 0.11) ** 2
    spec = iid_spectrum(B11, 2000)
    v_len = length_distribution(spec).variance() / 2000
    assert abs(v_len - sigma2) / sigma2 <= 0.10
    # envelope: |Var(len) - Var(info)| = O(sqrt(n) log n); observed ratios
    # stay below 0.02, pinned at 1.0 as the regression guard
    worst = 0.0
    for n in (50, 100, 200, 400, 800, 1400, 2000):
        s = iid_spectrum(B11, n)
        ratio = abs(length_distribution(s).variance() - var_info(s)) / (math.sqrt(n) * math.log2(n))
        worst = max(worst, ratio)
    assert worst <= 1.0
    _report(
        9,
        f"Var(len)/n at 2000 = {v_len:.4f} vs sigma2 = {sigma2:.4f} "
        f"({abs(v_len-sigma2)/sigma2:.2%}); envelope ratio max {worst:.4f} <= 1.0: PASS",
    )


# ---------------------------------------------------------------------------
# 10. Equiprobable oscillation
# ---------------------------------------------------------------------------


def test_criterion_10_equiprobable_oscillation():
    upper_point = round((1 << 20) * 2 / 3)  # dyadic position 3/2: variance -> 2.25
    lower_point = 1 << 20  # dyadic position 2: variance -> 2
    v_up = var_length_equiprobable(upper_point)
    v_lo = var_length_equiprobable(lower_point)
    assert v_up == pytest.approx(2.25, abs=1e-3)
    assert v_lo == pytest.approx(2.0, abs=1e-3)
    for mpow in range(1, 22):
        m = (1 << mpow) - 1  # M + 1 is a power of two
        simplified = (m + 1) * math.log2(m + 1) / m - 2.0
        assert expected_length_equiprobable(m) == pytest.approx(simplified, abs=1e-12)
    _report(
        10,
        f"variance attains {v_up:.4f} ~ 2.25 and {v_lo:.4f} ~ 2.0 on the predicted "
        f"subsequences; power-of-two mean identity exact for 21 sizes: PASS",
    )


# ---------------------------------------------------------------------------
# 11. Property suites (standalone in tests/test_properties.py)
# ---------------------------------------------------------------------------


def test_criterion_11_property_suites_full_scale():
    codes = check_stochastic_dominance(n_codes=200)
    pairs = check_converse_inequalities()
    points = check_count_integral_identity()
    assert codes == 200
    _report(
        11,
        f"stochastic dominance over {codes} random injective codes, "
        f"{pairs} converse-inequality instances, count-integral identity at "
        f"{points} grid points (within 0.5 counts): PASS",
    )


# ---------------------------------------------------------------------------
# Monte-Carlo CLT shape check (stands in for pointwise asymptotics)
# ---------------------------------------------------------------------------


def test_clt_shape_check_monte_carlo():
    src = MarkovSource(np.array([[0.9, 0.1], [0.2, 0.8]]))
    n, samples, seed = 10_000, 100_000, 20240
    rate = markov_entropy_rate(src)
    sigma2 = markov_varentropy_rate(src)
    start_entropy = entropy(stationary_distribution(src))
    spec = markov_spectrum_mc(src, n, samples, seed)
    mean_exact = start_entropy + (n - 1) * rate  # stationary start
    scale = math.sqrt(sigma2 * n)
    ks = ks_sup_distance(
        [float(v) for v in spec.infos],
        cdf_values(spec).tolist(),
        lambda v: (v - mean_exact) / scale,
    )
    assert ks < 0.02, f"Kolmogorov distance {ks:.4f}"
    _report("CLT", f"standardized surprisal vs normal: KS = {ks:.4f} < 0.02 at n=10^4, 10^5 samples: PASS")
