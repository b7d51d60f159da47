"""NumPy Monte-Carlo sampling kernels.

Each step consumes one uniform variate per sample.  The next state is the
number of inclusive-cumulative probabilities that the variate reaches, found
by one vectorized comparison per cumulative column (the last column is 1.0
and is never reached), so the cost per transition is O(|S|) comparisons
with no per-sample Python work and no samples x |S| temporaries.
"""

import numpy as np


def backend_name() -> str:
    """Kernel name that benchmark records carry: always the NumPy kernel."""
    return "python"


def initial_step(u, init_cum, init_info, states, acc):
    """Pick initial states from inclusive-cumulative probabilities.

    states[i] becomes the first index j with u[i] < init_cum[j]; acc[i] is
    initialized with that state's surprisal.
    """
    states[:] = 0
    for j in range(len(init_cum) - 1):
        states += u >= init_cum[j]
    np.take(init_info, states, out=acc)


def markov_step(u, cum_rows, info_rows, states, acc):
    """Advance every chain one transition, accumulating transition surprisal."""
    s = cum_rows.shape[1]
    nxt = np.zeros_like(states)
    for j in range(s - 1):
        nxt += u >= np.take(cum_rows[:, j], states)
    states *= s
    states += nxt  # flat index of (state, next) in info_rows
    acc += np.take(info_rows.ravel(), states)
    states[:] = nxt
