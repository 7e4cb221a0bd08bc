"""Multiplicative weights (Freund & Schapire 1999) for the maximizing side of a
two-player zero-sum game, against a caller-supplied best-response oracle.

The adversary runs MWU over its `num_rows` pure strategies, with payoffs in
[0, payoff_bound]. After T = ceil(4 ln R / eps'^2) rounds, eps' = epsilon /
payoff_bound, the regret bound guarantees that the average of the
minimizer's responses concedes at most (game value) + epsilon against every
row.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

CHECK_EVERY = 1000  # rounds between calls of the caller's stop_check


class CertificationError(RuntimeError):
    """A solve hit its round cap without reaching the requested guarantee."""


class MwuResult(NamedTuple):
    row_mix: np.ndarray  # the adversary's mix, averaged over the rounds
    rounds: int


def mwu_solve(num_rows: int, payoff_bound: float,
              best_response: Callable[[np.ndarray], np.ndarray], epsilon: float,
              stop_check: Optional[Callable[[np.ndarray], bool]] = None) -> MwuResult:
    """Run MWU for T rounds; `best_response(mix)` returns the payoff vector,
    over the adversary's rows, of the minimizer's answer to `mix`.
    `stop_check(avg_payoffs)` is asked every CHECK_EVERY rounds and after
    round T; a true answer ends the run. Deterministic given the inputs.
    """
    if not (num_rows >= 1 and 0 < payoff_bound < math.inf and epsilon > 0):
        raise ValueError("need num_rows >= 1, a positive finite payoff bound "
                         "and a positive epsilon")
    R = num_rows
    eps_norm = epsilon / payoff_bound
    T = 1 if R == 1 else math.ceil(4.0 * math.log(R) / eps_norm**2)
    eta = math.sqrt(math.log(R) / T)
    high = payoff_bound * (1 + 1e-9)

    log_weights = np.zeros(R)
    payoff_sum = np.zeros(R)
    mix_sum = np.zeros(R)
    for t in range(1, T + 1):
        mix = np.exp(log_weights - log_weights.max())
        mix /= mix.sum()
        payoffs = np.asarray(best_response(mix), dtype=np.float64)
        # NaN fails both comparisons
        if payoffs.shape != (R,) or not (payoffs.min() >= -1e-9 and payoffs.max() <= high):
            raise ValueError(f"payoff vector must have shape ({R},) and entries in "
                             f"[0, {payoff_bound}]")
        payoff_sum += payoffs
        mix_sum += mix
        log_weights += eta * (payoffs / payoff_bound)
        if stop_check is not None and (t % CHECK_EVERY == 0 or t == T):
            if stop_check(payoff_sum / t):
                break
    return MwuResult(row_mix=mix_sum / t, rounds=t)
