"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written against the definitions (enumerate,
sort, sum) rather than the library's rank machinery, so tests compare two
independent routes to the same quantity.
"""

import heapq
import itertools
import math

import numpy as np


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
