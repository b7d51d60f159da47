"""Output checks for the benchmark's CLI commands.

Every output is checked for its exact row count, its metadata sidecar and
invariants that hold for any seed.  Binary rows with n <= 14 are compared
with the brute-force oracles in ``tests/_oracles.py``.  At the default seed a
recorded reference adds a value comparison: integer-valued outputs (n, k,
counts, flags and n * rate) must match exactly, floats within ``RTOL``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
from statistics import NormalDist

import numpy as np

RTOL = 1e-9  # relative tolerance for float outputs (reference and oracles)
ATOL = 1e-300  # absorbs only underflow to zero
ORACLE_MAX_N = 14
BINNING_SIGMAS = 4.0  # Monte-Carlo binning estimate vs exact value
SPECTRUM_SIGMAS = 6.0  # Monte-Carlo spectrum mean vs exact expected surprisal
REFERENCE_ROWS = 250  # rows kept per command in the recorded reference

# Column kinds used for reference comparison: "int" compares exactly,
# "rate" compares n * value exactly (n is column 0), "float" within RTOL.
_COLUMN_KINDS = {
    "figure2": ["int", "rate", "float", "float"],
    "bounds": ["int", "rate", "float", "float", "float", "float", "int", "int"],
    "dispersion": ["int", "float", "float", "float", "float"],
    "spectrum_mc": ["float", "float", "int"],
    "binning": ["int", "float", "float", "float"],
}


def column_kinds(cmd) -> list:
    if cmd.kind == "limits":
        return ["int", "int", "float", "float", "float"] + ["rate"] * (2 * len(cmd.params["eps"]))
    return _COLUMN_KINDS[cmd.kind]


def read_output(path: str) -> tuple:
    """(header, float matrix, sidecar dict) of one CSV output."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.split(",") for line in fh.read().splitlines()]
    data = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    with open(path + ".meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    return header, data, meta


def _close(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf
        return (a == b) | (np.abs(a - b) <= RTOL * np.maximum(np.abs(a), np.abs(b)) + ATOL)


def _rate_bits(n, rate) -> np.ndarray:
    """Integer k from a rate column k/n; raises if n * rate is not integral."""
    scaled = np.asarray(n) * np.asarray(rate)
    k = np.rint(scaled)
    if not np.all(np.abs(scaled - k) <= 1e-9 * np.maximum(1.0, k)):
        raise CheckError("n * rate is not an integer")
    return k.astype(np.int64)


class CheckError(Exception):
    """An output violates a check."""


class Oracles:
    """Brute-force values from tests/_oracles.py, cached per (law, n)."""

    def __init__(self, root: str):
        spec = importlib.util.spec_from_file_location("_bench_oracles", os.path.join(root, "tests", "_oracles.py"))
        self.mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.mod)
        self._desc = {}

    def probs_desc(self, probs, n):
        key = (tuple(probs), n)
        if key not in self._desc:
            self._desc[key] = self.mod.sorted_probs(self.mod.enumerate_iid(list(probs), n))
        return self._desc[key]


class Checker:
    """Checks every output of one workload; ``reference`` is used only at the
    seed it was recorded for."""

    def __init__(self, workload, root: str, reference: dict | None):
        self.oracles = Oracles(root)
        self.reference = reference if reference and reference.get("seed") == workload.seed else None
        self._passed = {}  # digest of an output that passed -> its row count

    def check(self, cmd, path: str) -> tuple:
        """(rows written, list of failure messages) for one command output.

        An output byte-identical to one that already passed is not parsed again.
        """
        try:
            digest = _digest(path)
            if digest in self._passed:
                return self._passed[digest], []
            header, data, meta = read_output(path)
        except (OSError, ValueError) as exc:
            return 0, [f"{cmd.name}: unreadable output: {exc}"]
        failures = []
        try:
            if meta.get("command") != cmd.argv[0] or meta.get("columns") != header:
                failures.append(f"{cmd.name}: sidecar does not describe the output")
            if "truncated_at_n" in meta:
                failures.append(f"{cmd.name}: budget hit, rows dropped from n={meta['truncated_at_n']}")
            if cmd.rows is not None and len(data) != cmd.rows:
                failures.append(f"{cmd.name}: {len(data)} rows, expected {cmd.rows}")
            else:
                getattr(self, "_" + cmd.kind)(cmd, data, meta)
                if self.reference is not None:
                    self._against_reference(cmd, data)
        except CheckError as exc:
            failures.append(f"{cmd.name}: {exc}")
        if not failures:
            self._passed[digest] = len(data)
        return len(data), failures

    # -- reference --------------------------------------------------------

    def _against_reference(self, cmd, data):
        ref = self.reference["commands"][cmd.name]
        if len(data) != ref["rows"]:
            raise CheckError(f"{len(data)} rows, reference has {ref['rows']}")
        for index, raw in ref["sample"]:
            want = np.array(raw, dtype=np.float64)
            got = data[index]
            for col, kind in enumerate(column_kinds(cmd)):
                if kind == "float":
                    ok = bool(_close(got[col], want[col]))
                elif kind == "rate":
                    ok = _rate_bits(got[0], got[col]) == _rate_bits(want[0], want[col])
                else:
                    ok = got[col] == want[col]
                if not ok:
                    raise CheckError(f"row {index} column {col}: {got[col]!r} differs from reference {want[col]!r}")

    # -- per-command invariants and oracles -------------------------------

    @staticmethod
    def _grid(data, n_values):
        if not np.array_equal(data[:, 0], np.asarray(n_values, dtype=np.float64)):
            raise CheckError("n column does not match the requested blocklengths")

    @staticmethod
    def _approx(probs, n, eps):
        """Three-term Gaussian approximation, computed independently."""
        p = np.asarray(probs)
        h = float(-(p * np.log2(p)).sum())
        sigma = math.sqrt(float((p * (-np.log2(p) - h) ** 2).sum()))
        lam = NormalDist().inv_cdf(1.0 - eps)
        return h + sigma * lam / np.sqrt(n) - np.log2(n) / (2.0 * n)

    def _oracle_r_star(self, probs, n_col, k_col, eps):
        for n, k in zip(n_col, k_col):
            if n > ORACLE_MAX_N:
                break
            n = int(n)
            brute = self.oracles.mod.brute_R_star(self.oracles.probs_desc(probs, n), n, eps)
            if round(brute * n) != k:
                raise CheckError(f"n={n}: R* = {k}/n, brute force gives {brute}")

    def _figure2(self, cmd, data, meta):
        p = cmd.params
        n = data[:, 0]
        self._grid(data, range(p["n"][0], p["n"][1] + 1))
        k = _rate_bits(n, data[:, 1])
        if not np.all(data[:, 1] <= data[:, 3] + 1e-12):
            raise CheckError("exact rate above the spectrum-quantile achievability bound")
        if not np.all(_close(data[:, 2], self._approx(p["probs"], n, p["eps"]))):
            raise CheckError("Gaussian approximation column is wrong")
        self._oracle_r_star(p["probs"], n, k, p["eps"])

    def _bounds(self, cmd, data, meta):
        p = cmd.params
        n, rate = data[:, 0], data[:, 1]
        self._grid(data, range(p["n"][0], p["n"][1] + 1))
        _rate_bits(n, rate)
        ach_ok, conv_ok = data[:, 6], data[:, 7]
        if not np.all(np.isin(ach_ok, (0, 1)) & np.isin(conv_ok, (0, 1))):
            raise CheckError("validity flags must be 0 or 1")
        if np.any((ach_ok == 1) & (data[:, 3] < rate - 1e-12)):
            raise CheckError("valid achievability bound below the exact rate")
        if np.any((conv_ok == 1) & (data[:, 4] > rate + 1e-12)):
            raise CheckError("valid converse bound above the exact rate")
        if not np.all(rate <= data[:, 5] + 1e-12):
            raise CheckError("exact rate above the spectrum-quantile achievability bound")
        if not np.all(_close(data[:, 2], self._approx(p["probs"], n, p["eps"]))):
            raise CheckError("Gaussian approximation column is wrong")

    def _limits(self, cmd, data, meta):
        p = cmd.params
        n_eps = len(p["eps"])
        ns = range(p["n"][0], p["n"][1] + 1)
        want_n = np.concatenate([np.full(n + 2, n) for n in ns])
        want_k = np.concatenate([np.arange(n + 2) for n in ns])
        if not (np.array_equal(data[:, 0], want_n) and np.array_equal(data[:, 1], want_k)):
            raise CheckError("(n, k) grid does not match k = 0..n+1 per n")
        n, k = data[:, 0], data[:, 1].astype(np.int64)
        eps_k, prefix_k1, rbar = data[:, 2], data[:, 3], data[:, 4]
        starts = np.flatnonzero(k == 0)
        if not (np.all(eps_k[starts] == 1.0) and np.all(eps_k[starts - 1] == 0.0)):
            raise CheckError("epsilon_star(0) must be 1 and epsilon_star(n+1) must be 0")
        step_up = np.diff(eps_k) > 1e-12 * eps_k[:-1]  # compensated sums still round
        if np.any(step_up & (k[1:] != 0)):
            raise CheckError("epsilon_star increases with k")
        # prefix_epsilon(k+1) = epsilon_star(k) while 2^k < 2^n, then 0
        if not np.array_equal(prefix_k1, np.where(k < n, eps_k, 0.0)):
            raise CheckError("prefix coupling prefix_epsilon(k+1) = epsilon_star(k) broken")
        bounds = np.append(starts, len(data))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            nn = int(n[lo])
            block = data[lo:hi]
            if not np.all(block[:, 4:] == block[0, 4:]):
                raise CheckError(f"n={nn}: Rbar or a rate varies with k")
            if not _close(math.fsum(block[1:, 2]) / nn, block[0, 4]):
                raise CheckError(f"n={nn}: Rbar differs from sum_k epsilon_star(k) / n")
            for j, eps in enumerate(p["eps"]):
                k_star = int(np.argmax(block[:, 2] <= eps))
                k_prefix = 1 + int(np.argmax(block[:, 3] <= eps))  # prefix_epsilon(0) = 1
                got = _rate_bits(nn, block[0, 5 + j]), _rate_bits(nn, block[0, 5 + n_eps + j])
                if got != (k_star, k_prefix):
                    raise CheckError(f"n={nn} eps={eps}: rates {got} disagree with the table {(k_star, k_prefix)}")
            if nn <= ORACLE_MAX_N:
                self._limits_oracle(p, nn, block)
        if not np.all(np.isfinite(rbar)):
            raise CheckError("Rbar is not finite")

    def _limits_oracle(self, p, n, block):
        mod = self.oracles.mod
        desc = self.oracles.probs_desc(p["probs"], n)
        total = 1 << n
        for row in block:
            k = int(row[1])
            want = (mod.brute_epsilon_star(desc, k), mod.brute_prefix_epsilon(desc, total, k + 1), mod.brute_Rbar(desc, n))
            if not np.all(_close(row[2:5], want)):
                raise CheckError(f"n={n} k={k}: {row[2:5].tolist()} differ from brute force {list(want)}")
        for j, eps in enumerate(p["eps"]):
            k_star = round(mod.brute_R_star(desc, n, eps) * n)
            k_prefix = next(i for i in range(n + 2) if mod.brute_prefix_epsilon(desc, total, i) <= eps)
            got = _rate_bits(n, block[0, 5 + j]), _rate_bits(n, block[0, 5 + len(p["eps"]) + j])
            if got != (k_star, k_prefix):
                raise CheckError(f"n={n} eps={eps}: rates {got}, brute force gives {(k_star, k_prefix)}")

    def _dispersion(self, cmd, data, meta):
        p = cmd.params
        self._grid(data, p["n"])
        probs = np.asarray(p["probs"])
        h = float(-(probs * np.log2(probs)).sum())
        sigma2 = float((probs * (-np.log2(probs) - h) ** 2).sum())
        if not np.all(_close(data[:, 4], sigma2)):
            raise CheckError(f"sigma2_ref differs from the varentropy {sigma2!r}")
        # for a memoryless source Var(iota)/n is the varentropy at every n
        if not np.all(np.abs(data[:, 2] - sigma2) <= 1e-12 * sigma2):
            raise CheckError("Var(iota)/n differs from the varentropy")
        if not (np.all(data[:, 1] > 0.0) and np.all(data[:, 3] >= 0.0)):
            raise CheckError("codelength variance or gap moment negative")
        if meta.get("complete") is not True:
            raise CheckError("dispersion trace incomplete")

    def _spectrum_mc(self, cmd, data, meta):
        p = cmd.params
        infos, probs, counts = data[:, 0], data[:, 1], data[:, 2]
        samples = p["samples"]
        if meta.get("exact") is not False or meta.get("sample_size") != samples or meta.get("n") != p["n"]:
            raise CheckError("sidecar does not describe a Monte-Carlo spectrum of the requested size")
        if not (np.all(np.diff(infos) > 0.0) and np.all(counts == 1.0)):
            raise CheckError("surprisal values not strictly increasing, or counts not 1")
        mult = probs * samples
        if not (np.all(np.abs(mult - np.rint(mult)) <= 1e-6) and int(np.rint(mult).sum()) == samples):
            raise CheckError("probabilities are not multiplicities / samples")
        mean = float((probs * infos).sum())
        stderr = math.sqrt(float((probs * (infos - mean) ** 2).sum()) / samples)
        want = _expected_surprisal(np.asarray(p["kernel"]), p["n"])
        if abs(mean - want) > SPECTRUM_SIGMAS * stderr:
            raise CheckError(f"mean surprisal {mean} is {abs(mean - want) / stderr:.1f} standard errors from {want}")

    def _binning(self, cmd, data, meta):
        p = cmd.params
        self._grid(data, p["bins"])
        exact, est, err = data[:, 1], data[:, 2], data[:, 3]
        if not np.all((exact >= 0.0) & (exact <= 1.0)):
            raise CheckError("exact binning error outside [0, 1]")
        if not np.all(_close(err, np.sqrt(est * (1.0 - est) / p["trials"]))):
            raise CheckError("standard error is not sqrt(p(1-p)/trials)")
        if np.any(np.abs(est - exact) > BINNING_SIGMAS * err):
            raise CheckError("Monte-Carlo binning error more than 4 standard errors from the exact value")


def _digest(path: str) -> tuple:
    digests = []
    for name in (path, path + ".meta.json"):
        with open(name, "rb") as fh:
            digests.append(hashlib.file_digest(fh, "sha256").hexdigest())
    return tuple(digests)


def _expected_surprisal(kernel: np.ndarray, n: int) -> float:
    """E[log2 1/P(X^n)] for the chain started in its stationary law."""
    m = len(kernel)
    a = np.vstack([kernel.T - np.eye(m), np.ones(m)])
    pi = np.linalg.lstsq(a, np.append(np.zeros(m), 1.0), rcond=None)[0]
    row_entropy = -(kernel * np.log2(kernel)).sum(axis=1)
    return float(-(pi * np.log2(pi)).sum() + (n - 1) * pi @ row_entropy)


def sample_reference(cmd, data) -> dict:
    """Reference entry for one output: its row count and evenly spaced rows."""
    stride = max(1, -(-len(data) // REFERENCE_ROWS))
    return {
        "rows": len(data),
        "sample": [[i, [repr(float(v)) for v in data[i]]] for i in range(0, len(data), stride)],
    }
