import numpy as np
import pytest

from complimits._kernels import backend_name, initial_step, markov_step

from _oracles import broadcast_initial_step, broadcast_markov_step

PAPER_CHAIN = np.array([[0.9, 0.1], [0.2, 0.8]])
_rows = np.random.Generator(np.random.PCG64(8)).random((8, 8))
EIGHT_STATE_CHAIN = _rows / _rows.sum(axis=1, keepdims=True)
ZERO_TRANSITIONS_CHAIN = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.3, 0.7, 0.0]])


def _surprisal(p):
    return np.where(p > 0.0, -np.log2(np.where(p > 0.0, p, 1.0)), 0.0)


def _run(init_step, step, kern, seed, steps=40, samples=5000):
    m = len(kern)
    cum = np.cumsum(kern, axis=1)
    cum[:, -1] = 1.0
    init = np.full(m, 1.0 / m)
    init_cum = np.cumsum(init)
    init_cum[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    states = np.empty(samples, dtype=np.int64)
    acc = np.zeros(samples)
    init_step(rng.random(samples), init_cum, _surprisal(init), states, acc)
    for _ in range(steps):
        step(rng.random(samples), cum, _surprisal(kern), states, acc)
    return states, acc


class TestBackends:
    def test_python_backend_deterministic(self):
        s1, a1 = _run(initial_step, markov_step, PAPER_CHAIN, 7)
        s2, a2 = _run(initial_step, markov_step, PAPER_CHAIN, 7)
        assert np.array_equal(s1, s2) and np.array_equal(a1, a2)

    @pytest.mark.parametrize("kern", [PAPER_CHAIN, EIGHT_STATE_CHAIN, ZERO_TRANSITIONS_CHAIN],
                             ids=["paper", "eight_state", "zero_transitions"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_broadcast_reference(self, kern, seed):
        states, acc = _run(initial_step, markov_step, kern, seed)
        ref_states, ref_acc = _run(broadcast_initial_step, broadcast_markov_step, kern, seed)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(acc, ref_acc)  # bitwise: same comparisons, same adds

    def test_backend_name_reported(self):
        assert backend_name() == "python"

    def test_initial_step_respects_zero_mass(self):
        rng = np.random.Generator(np.random.PCG64(0))
        init = np.array([0.0, 1.0, 0.0])
        init_cum = np.cumsum(init)
        init_cum[-1] = 1.0
        states = np.empty(1000, dtype=np.int64)
        acc = np.zeros(1000)
        initial_step(rng.random(1000), init_cum, _surprisal(init), states, acc)
        assert set(states.tolist()) == {1}
        assert np.all(acc == 0.0)
