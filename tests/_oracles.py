"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written against the definitions (enumerate,
sort, sum) rather than the library's rank machinery, so tests compare two
independent routes to the same quantity.
"""

import heapq
import itertools
import math
import operator
import sys
from fractions import Fraction

import numpy as np

from complimits.optcode import _least_k, epsilon_star
from complimits.errors import DistributionError
from complimits.sources import FiniteDistribution, MarkovSource
from complimits.spectrum import _query_tol


def uniform_distribution(m):
    """Equiprobable distribution on m symbols."""
    if m < 1:
        raise DistributionError("support size must be at least 1")
    return FiniteDistribution((1.0 / m,) * m)


def iid_kernel(dist):
    """Chain whose every row, and whose initial law, equals ``dist`` (memoryless in Markov clothing)."""
    row = dist.prob_array()
    return MarkovSource(np.tile(row, (len(row), 1)), initial=row)


def enumerate_iid(probs, n):
    """All strings of n symbols: list of (prob, info, string) tuples."""
    out = []
    for t in itertools.product(range(len(probs)), repeat=n):
        p = 1.0
        for i in t:
            p *= probs[i]
        out.append((p, -math.log2(p), t))
    return out


def enumerate_markov(kernel, init, n):
    """All positive-probability state paths of length n: (prob, info, path)."""
    m = len(init)
    paths = [((s,), init[s]) for s in range(m) if init[s] > 0.0]
    for _ in range(n - 1):
        nxt = []
        for path, p in paths:
            for s in range(m):
                q = kernel[path[-1]][s]
                if q > 0.0:
                    nxt.append((path + (s,), p * q))
        paths = nxt
    return [(p, -math.log2(p), path) for path, p in paths]


def tilted_varentropy_rate(kernel, h=1e-4):
    """Varentropy rate of an irreducible aperiodic chain, in bits^2 per step.

    Large-deviation route, independent of the covariance series: the log
    spectral radius Lambda(theta) = ln rho(P^(1-theta)) of the entrywise-tilted
    kernel is the scaled cumulant generating function of the surprisal in nats
    (Dembo & Zeitouni, *Large Deviations*, sec. 3.1), so the rate is
    Lambda''(0) / (ln 2)^2, taken here by central differences with step h.
    """
    kern = np.asarray(kernel, dtype=np.float64)

    def log_rho(theta):
        tilted = np.where(kern > 0.0, kern ** (1.0 - theta), 0.0)
        return math.log(float(np.max(np.abs(np.linalg.eigvals(tilted)))))

    return (log_rho(h) - 2.0 * log_rho(0.0) + log_rho(-h)) / (h * h * math.log(2.0) ** 2)


def sorted_probs(enumerated):
    """String probabilities in decreasing order."""
    return sorted((p for p, _, _ in enumerated), reverse=True)


def brute_epsilon_star(probs_desc, k):
    """P[optimal length >= k] by dropping the 2^k - 1 most likely strings."""
    if k == 0:
        return 1.0
    return math.fsum(probs_desc[(1 << k) - 1:])


def brute_R_star(probs_desc, n, eps):
    k = 0
    while brute_epsilon_star(probs_desc, k) > eps:
        k += 1
    return k / n


def brute_lengths(probs_desc):
    return [r.bit_length() - 1 for r in range(1, len(probs_desc) + 1)]


def brute_Rbar(probs_desc, n):
    lengths = brute_lengths(probs_desc)
    return math.fsum(p * l for p, l in zip(probs_desc, lengths)) / n


def brute_var_len(probs_desc):
    lengths = brute_lengths(probs_desc)
    mean = math.fsum(p * l for p, l in zip(probs_desc, lengths))
    return math.fsum(p * (l - mean) ** 2 for p, l in zip(probs_desc, lengths))


def brute_second_moment_gap(probs_desc):
    lengths = brute_lengths(probs_desc)
    return math.fsum(p * (l + math.log2(p)) ** 2 for p, l in zip(probs_desc, lengths))


def _count_times_pstring(count, info):
    """count * 2^(-info), through log space for counts beyond 53 bits or
    surprisals beyond 1000 bits (the library's piece-mass formula)."""
    if count <= 0:
        return 0.0
    if count.bit_length() <= 53 and info <= 1000.0:
        return count * 2.0 ** (-info)
    lp = math.log2(count) - info
    return 0.0 if lp < -1080.0 else 2.0 ** lp


def dyadic(x, scale=1074):
    """The double x exactly, as an integer over 2^scale (every double is one for scale >= 1074)."""
    num, den = float(x).as_integer_ratio()
    return num << (scale - den.bit_length() + 1)


def exact_binomial(n, p, q):
    """C(n, k) p^k q^(n - k) of the doubles p and q for k = 0..n, exactly:
    (numerators, scale), each mass its numerator over 2^scale, scale >= 1074."""
    (a, den_a), (b, den_b) = p.as_integer_ratio(), q.as_integer_ratio()
    ea, eb = den_a.bit_length() - 1, den_b.bit_length() - 1
    scale = max(1074, n * max(ea, eb))
    nums, num = [0] * (n + 1), a**n
    for k in range(n, -1, -1):  # C(n, k - 1) a^(k-1) b^(n-k+1) from C(n, k) a^k b^(n-k), an exact division
        nums[k] = num << (scale - ea * k - eb * (n - k))
        num = num * k * b // ((n - k + 1) * a)
    return nums, scale


def exact_multinomial(comps, probs):
    """n! / prod(c_a!) prod(p_a^c_a) of the doubles p_a for each composition
    c of n in ``comps``, exactly: (numerators, scale), each mass its numerator
    over 2^scale, scale >= 1074."""
    ratios = [p.as_integer_ratio() for p in probs]
    exps = [den.bit_length() - 1 for _, den in ratios]
    n = sum(comps[0])
    scale = max(1074, n * max(exps))
    factorials = list(itertools.accumulate(range(1, n + 1), operator.mul, initial=1))
    nums = []
    for comp in comps:
        num, shift = factorials[n], scale
        for c, (a, _), e in zip(comp, ratios, exps):
            num, shift = num // factorials[c] * a**c, shift - e * c  # each quotient a multinomial, exact
        nums.append(num << shift)
    return nums, scale


def relative_error(x, exact, scale):
    """|x - exact / 2^scale| over the larger of exact / 2^scale and the least
    normal double, for a double x: a relative error for normal masses."""
    return abs(dyadic(x, scale) - exact) / max(exact, 1 << (scale - 1022))


def dyadic_pieces(counts, infos):
    """Per-piece walk over sorted spectrum masses: (length j, strings taken,
    surprisal) for each part of a mass whose ranks fall in [2^j, 2^(j+1))."""
    consumed = 0
    for count, info in zip(counts, infos):
        span = count
        while span > 0:
            j = (consumed + 1).bit_length() - 1
            take = min((1 << (j + 1)) - 1, consumed + span) - consumed
            yield j, take, info
            consumed += take
            span -= take


def walk_length_distribution(counts, infos):
    """(P[len = j] per length j, mean, variance, E[(len - surprisal)^2]),
    each piece's mass summed by ``math.fsum`` per length and overall."""
    buckets = [[] for _ in range(sum(counts).bit_length())]
    gap_terms = []
    for j, take, info in dyadic_pieces(counts, infos):
        mass = _count_times_pstring(take, info)
        buckets[j].append(mass)
        gap_terms.append(mass * (j - info) ** 2)
    probs = [math.fsum(b) for b in buckets]
    mean = math.fsum(l * p for l, p in enumerate(probs))
    variance = math.fsum(p * (l - mean) ** 2 for l, p in enumerate(probs))
    return probs, mean, variance, math.fsum(gap_terms)


def pointer_epsilon_curve(counts, infos, suffix_probs):
    """[epsilon_star(k) for k in 0..L], L = total.bit_length(), by a forward
    pointer to the mass holding each cut 2^k - 1: the mass ranked after that
    mass plus the part of it past the cut."""
    cum_counts = list(itertools.accumulate(counts))
    curve, i = [1.0], 0
    for k in range(1, cum_counts[-1].bit_length()):
        threshold = (1 << k) - 1
        while cum_counts[i] < threshold:
            i += 1
        curve.append(suffix_probs[i + 1] + _count_times_pstring(cum_counts[i] - threshold, infos[i]))
    return curve + [0.0]


def brute_prefix_epsilon(probs_desc, alphabet_total, k_threshold):
    """Best prefix-code P[len >= k_threshold], via the explicit construction.

    The minimizing prefix code gives length k = k_threshold - 1 to the
    2^k - 1 heaviest strings and one common feasible length to the rest;
    Kraft feasibility of that completion is asserted.
    """
    if k_threshold <= 0:
        return 1.0
    k = k_threshold - 1
    if (1 << k) >= alphabet_total:
        return 0.0
    l_max = math.ceil(k + math.log2(alphabet_total - (1 << k) + 1))
    kraft = ((1 << k) - 1) * 2.0 ** (-k) + (alphabet_total - (1 << k) + 1) * 2.0 ** (-l_max)
    assert kraft <= 1.0 + 1e-9, "prefix completion violates Kraft"
    return math.fsum(probs_desc[(1 << k) - 1:])


def huffman_average(probs):
    """Mean codeword length of a Huffman code for ``probs``."""
    if len(probs) == 1:
        return 0.0
    heap = [(p, i) for i, p in enumerate(probs)]
    heapq.heapify(heap)
    depth = {i: 0 for i in range(len(probs))}
    members = {i: [i] for i in range(len(probs))}
    nxt = len(probs)
    while len(heap) > 1:
        p1, g1 = heapq.heappop(heap)
        p2, g2 = heapq.heappop(heap)
        for i in members[g1] + members[g2]:
            depth[i] += 1
        members[nxt] = members.pop(g1) + members.pop(g2)
        heapq.heappush(heap, (p1 + p2, nxt))
        nxt += 1
    return math.fsum(p * depth[i] for i, p in enumerate(probs))


def q_inv_bisect(p, tol=1e-8):
    """Inverse Gaussian tail by bisection on erfc."""
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def count_heavier(spec, beta):
    """Number of strings with probability strictly greater than 1/beta, read
    off the spectrum's cumulative counts."""
    spec.require_exact("count_heavier")
    if beta < 1.0:
        raise ValueError("beta must be at least 1")
    level = math.log2(beta)
    i = int(np.searchsorted(spec.infos, level - _query_tol(level), side="left"))
    return spec.cum_counts[i - 1] if i > 0 else 0


def prefix_epsilon(spec, k):
    """Smallest P[len >= k] over prefix codes, one k at a time.

    Coupled one-for-one to the unconstrained limit: the best prefix code
    gives length k-1 codewords to the 2^(k-1) - 1 most likely strings, so
    prefix_epsilon(k) = epsilon_star(k-1) until k-1 bits already index every
    positive-probability string, after which it is exactly 0.
    """
    spec.require_exact("prefix_epsilon")
    if k <= 0:
        return 1.0
    if (1 << (k - 1)) >= spec.total_count:
        return 0.0
    return epsilon_star(spec, k - 1)


def prefix_R(spec, eps):
    """Smallest prefix-code rate i/n with excess probability at most eps.

    Generally equal to R_star + 1/n; when the alphabet size is a power of two
    and eps is below the least string mass the two rates coincide instead.
    Both branches fall out of searching prefix_epsilon directly.
    """
    spec.require_exact("prefix_R")
    return _least_k(lambda k: prefix_epsilon(spec, k), spec.total_count.bit_length() + 1, eps) / spec.n


def stationary_distribution(src):
    """Unique stationary law of an irreducible chain, pi with pi P = pi."""
    return FiniteDistribution(src.pi)


def heavier_count_integral(infos, probs, beta):
    """Count of strictly-heavier strings via the tail-integral identity.

    M(beta) = beta * P[iota < log2 beta] - integral_1^beta P[iota <= log2 t] dt,
    the integral evaluated exactly by breakpoint decomposition of the
    piecewise-constant CDF.
    """
    level = math.log2(beta)
    cdf_strict = math.fsum(p for v, p in zip(infos, probs) if v < level - 1e-12 * max(1.0, abs(level)))
    # breakpoints of t -> P[iota <= log2 t] inside [1, beta]
    points = [1.0]
    for v in infos:
        t = 2.0 ** v
        if 1.0 < t < beta:
            points.append(t)
    points.append(beta)
    points.sort()
    terms = []
    for lo, hi in zip(points[:-1], points[1:]):
        mid = math.sqrt(lo * hi)
        f_mid = math.fsum(p for v, p in zip(infos, probs) if 2.0 ** v <= mid)
        terms.append(f_mid * (hi - lo))
    return beta * cdf_strict - math.fsum(terms)


def exhaustive_binning_error(probs, n_bins):
    """Average binning error over all assignments, by direct enumeration."""
    m = len(probs)
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(-probs, kind="stable")
    # equality classes with relative tolerance, in probability order
    class_id = np.zeros(m, dtype=np.int64)
    cid = 0
    for j, idx in enumerate(order):
        if j > 0 and abs(probs[idx] - probs[order[j - 1]]) > 1e-12 * probs[order[j - 1]]:
            cid += 1
        class_id[idx] = cid
    grids = np.indices((n_bins,) * m).reshape(m, -1).T  # all assignments
    total = np.zeros(len(grids))
    for x in range(m):
        own = grids[:, x]
        heavier_idx = [y for y in range(m) if class_id[y] < class_id[x]]
        peer_idx = [y for y in range(m) if class_id[y] == class_id[x] and y != x]
        if heavier_idx:
            heavier = (grids[:, heavier_idx] == own[:, None]).any(axis=1)
        else:
            heavier = np.zeros(len(grids), dtype=bool)
        if peer_idx:
            ties = (grids[:, peer_idx] == own[:, None]).sum(axis=1)
        else:
            ties = np.zeros(len(grids), dtype=np.int64)
        err_x = np.where(heavier, 1.0, ties / (1.0 + ties))
        total += probs[x] * err_x
    return float(total.mean())


def ks_sup_distance(infos, cum_probs, standardize):
    """sup_z |CDF - Phi(z)| over both sides of every jump.

    ``standardize`` maps a surprisal value to its z-score; the normal CDF is
    evaluated through erfc directly.
    """
    sup = 0.0
    prev = 0.0
    for v, c in zip(infos, cum_probs):
        z = standardize(v)
        phi_z = 0.5 * math.erfc(-z / math.sqrt(2.0))
        sup = max(sup, abs(c - phi_z), abs(prev - phi_z))
        prev = c
    return sup


def broadcast_initial_step(u, init_cum, init_info, states, acc):
    """Reference initial step: compare every variate with every cumulative
    probability at once and count the ones it reaches."""
    np.sum(u[:, None] >= init_cum[None, :], axis=1, out=states)
    acc[:] = init_info[states]


def broadcast_markov_step(u, cum_rows, info_rows, states, acc):
    """Reference transition: gather each sample's whole cumulative row, count
    the entries its variate reaches, then add the transition surprisal."""
    rows = cum_rows[states]
    nxt = np.sum(u[:, None] >= rows, axis=1)
    acc += info_rows[states, nxt]
    states[:] = nxt


def exact_success_factor(n_bins, j, m_heavier):
    """Binning success factor of one class as an exact Fraction: the direct
    sum over l peers sharing the bin, C(J-1, l) / (N^l (1+l)) q^(M+J-l-1),
    with q = 1 - 1/N."""
    q = 1 - Fraction(1, n_bins)
    return sum(Fraction(math.comb(j - 1, l), n_bins ** l * (1 + l)) * q ** (m_heavier + j - l - 1) for l in range(j))


def log_space_success_factor(n_bins, j, m_heavier):
    """Direct binning success sum with each term taken through logs, so that
    classes far beyond the direct-sum limit need no huge integers."""
    q = 1.0 - 1.0 / n_bins
    if q == 0.0:
        return (1.0 / j) if m_heavier == 0 else 0.0
    log_q = math.log(q)
    log_n = math.log(n_bins)
    terms = []
    for l in range(j):
        log_term = (
            math.lgamma(j) - math.lgamma(l + 1) - math.lgamma(j - l)
            - l * log_n - math.log1p(l)
            + (m_heavier + j - l - 1) * log_q
        )
        terms.append(math.exp(log_term) if log_term > -745.0 else 0.0)
    return math.fsum(terms)


def inmemory_binning_error_mc(problem, trials, seed):
    """Monte-Carlo binning error from one trials x |support| bin array.

    The reference for the streamed ``binning_error_mc``: the same PCG64
    stream (all bins, then realizations, then tie picks), scored symbol by
    symbol against explicit heavier and peer index sets.
    """
    dist = problem.dist
    m = len(dist)
    probs = dist.prob_array()
    order = sorted(range(m), key=lambda i: -probs[i])
    # equality classes: a string joins while within 1e-12 of its class's first
    class_of = {}
    ci, group_p = 0, probs[order[0]]
    for i in order:
        if abs(probs[i] - group_p) > 1e-12 * group_p:
            ci, group_p = ci + 1, probs[i]
        class_of[i] = ci

    rng = np.random.Generator(np.random.PCG64(seed))
    bins = rng.integers(0, problem.n_bins, size=(trials, m))
    realization = rng.choice(m, size=trials, p=probs)
    tie_pick = rng.random(trials)

    errors = np.zeros(trials, dtype=bool)
    own_bin = bins[np.arange(trials), realization]
    for s in range(m):
        mask = realization == s
        if not np.any(mask):
            continue
        ci = class_of[s]
        heavier_idx = [i for i in range(m) if class_of[i] < ci]
        peer_idx = [i for i in range(m) if class_of[i] == ci and i != s]
        sub_bins = bins[mask]
        b0 = own_bin[mask]
        if heavier_idx:
            heavier_hit = (sub_bins[:, heavier_idx] == b0[:, None]).any(axis=1)
        else:
            heavier_hit = np.zeros(mask.sum(), dtype=bool)
        if peer_idx:
            ties = (sub_bins[:, peer_idx] == b0[:, None]).sum(axis=1)
        else:
            ties = np.zeros(mask.sum(), dtype=np.int64)
        lose_tie = tie_pick[mask] >= 1.0 / (1.0 + ties)
        errors[mask] = heavier_hit | lose_tie
    estimate = float(errors.mean())
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)
    return estimate, stderr


def brute_binning_mc(problem, trials, seed):
    """Monte-Carlo binning error decoded trial by trial.

    The PCG64 stream is read as ``binning_error_mc`` documents it: the full
    trials x |support| bin matrix from ``Generator.integers``, then the
    realizations, then the tie picks.  Each trial lists the probabilities in
    the realized symbol's bin and loses when a heavier one is there, or else
    when the tie pick misses 1 over the number of equally heavy ones (equal
    as floats, so laws with near-ties are outside its reach).
    """
    probs = problem.dist.probs
    m = len(probs)
    rng = np.random.Generator(np.random.PCG64(seed))
    bins = rng.integers(0, problem.n_bins, size=(trials, m)).tolist()
    realization = rng.choice(m, size=trials, p=problem.dist.prob_array()).tolist()
    tie_pick = rng.random(trials).tolist()
    errors = 0
    for row, x, u in zip(bins, realization, tie_pick):
        in_bin = [probs[y] for y in range(m) if row[y] == row[x]]
        best = max(in_bin)
        errors += probs[x] < best or u >= 1.0 / in_bin.count(best)
    estimate = errors / trials
    return estimate, math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)


def expected_length_equiprobable(m_outcomes):
    """Mean optimal codelength for a uniform distribution on m outcomes.

    Closed form  floor(log2 M) + (2 + floor(log2 M) - 2^(floor(log2 M)+1))/M.
    """
    if m_outcomes < 1:
        raise ValueError("need at least one outcome")
    level = m_outcomes.bit_length() - 1
    return level + (2 + level - (1 << (level + 1))) / m_outcomes


def var_length_equiprobable(m_outcomes):
    """Variance of the optimal codelength for a uniform law on m outcomes.

    Uses the exact second moment built from s(K) = sum_{i<=K} i^2 2^i
    = -6 + 2^(K+1) (3 - 2K + K^2); the variance oscillates with the dyadic
    position of M and never converges (limit points 2 and 2.25).
    """
    if m_outcomes < 1:
        raise ValueError("need at least one outcome")
    level = m_outcomes.bit_length() - 1
    s = -6 + (1 << (level + 1)) * (3 - 2 * level + level * level)
    second = (s - level * level * ((1 << (level + 1)) - m_outcomes - 1)) / m_outcomes
    mean = expected_length_equiprobable(m_outcomes)
    return second - mean * mean


def codelength_vs_info_check(dist, lengths, tau, prefix=False):
    """Probability that a code undershoots the surprisal, and its ceiling.

    For an arbitrary injective code: P[len(f(X)) <= iota(X) - tau] is at most
    2^(-tau) (floor(log2 |support|) + 1).  For a prefix code the event is the
    strict undershoot P[len < iota - tau] and the ceiling improves to
    2^(-tau) by Kraft's inequality (checked).  Returns (left side, ceiling).
    """
    if len(lengths) != len(dist):
        raise ValueError("need one codeword length per support symbol")
    if prefix:
        kraft = math.fsum(2.0 ** -l for l in lengths)
        if kraft > 1.0 + 1e-12:
            raise ValueError(f"not a prefix code: Kraft sum {kraft}")
    undershoots = operator.lt if prefix else operator.le
    left = math.fsum(p for p, l in zip(dist.probs, lengths) if undershoots(l, -math.log2(p) - tau))
    return left, (2.0 ** (-tau) if prefix else 2.0 ** (-tau) * len(dist).bit_length())


def spectrum_self_check(spec):
    """Max relative mismatch between a spectrum's stored probs and count * 2^(-info).

    Masses below the smallest normal double (``sys.float_info.min``) are
    skipped: subnormals carry too few significant bits for a relative
    residual to mean anything.
    """
    ref = np.array(list(map(_count_times_pstring, spec.counts, spec.infos.tolist())), dtype=np.float64)
    scale = np.maximum(ref, spec.probs)
    normal = scale >= sys.float_info.min
    return float(np.max(np.abs(ref - spec.probs)[normal] / scale[normal], initial=0.0))
