"""Stable lotteries over committees, the stable lottery rule, approximately
stable committees, and the stable committee rule.

A lottery round is either an i.i.d. sampling distribution z (the committee is
k draws from z, deduplicated and filled to size k) or a fixed committee. The
stability certificate sums, per round, an upper bound on the expected number
of agents preferring an outsider to the whole committee:

    iid round:   sum_i z(L_i(a*))^k          (filling only lowers V)
    fixed round: V(a*, X) exactly

A lottery is certified stable when the per-alternative average stays strictly
below n/k. `compute_stable_lottery` returns one round: a sampler or a fixed
committee.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mwu import CertificationError, mwu_solve
from .profiles import Distribution, PreferenceProfile, prefix_mass_matrix
from .rules import harmonic_scores


@dataclass(frozen=True)
class LotteryRound:
    """Exactly one of `z` (i.i.d. sampling distribution) or `members` is set."""

    z: Optional[tuple[float, ...]] = None
    members: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if (self.z is None) == (self.members is None):
            raise ValueError("a round is either a sampling distribution or a fixed committee")
        if self.z is not None:
            if any(p < 0 for p in self.z) or abs(sum(self.z) - 1.0) > 1e-9:
                raise ValueError("sampling distribution must lie in the simplex")
        else:
            if len(set(self.members)) != len(self.members):
                raise ValueError("committee members must be distinct")


@dataclass(frozen=True)
class StableLottery:
    k: int
    rounds: tuple[LotteryRound, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("committee size must be positive")
        if not self.rounds:
            raise ValueError("a lottery needs at least one round")


@dataclass(frozen=True)
class Committee:
    members: tuple[int, ...]
    achieved_c: float


def _iid_bound(z: np.ndarray, profile: PreferenceProfile, k: int) -> np.ndarray:
    """Per-alternative sum_i w_i z(L_i(a))^k, with z(L_i(a)) taken as
    1 - z(h_i(a)) and clipped into [0, 1] against rounding."""
    below = np.clip(1.0 - prefix_mass_matrix(z, profile), 0.0, 1.0)
    return profile.weight_array() @ below ** k


def stability_certificate(lottery: StableLottery, profile: PreferenceProfile) -> np.ndarray:
    """Recompute the per-alternative certified bound from scratch, one round
    at a time: z-rounds through `_iid_bound`, fixed committees by counting
    V(a*, X) exactly from the ranks."""
    ranks = profile.rank_matrix()
    total = np.zeros(profile.m)
    for rnd in lottery.rounds:
        if rnd.z is not None:
            total += _iid_bound(np.asarray(rnd.z), profile, lottery.k)
        else:
            member_ranks = ranks[:, list(rnd.members)].min(axis=1)
            total += profile.weight_array() @ (ranks < member_ranks[:, None])
    return total / len(lottery.rounds)


def _top_set_fast_path(profile: PreferenceProfile, k: int) -> Optional[tuple[int, ...]]:
    """When all distinct top choices fit in the committee, that committee has
    V(a*, X) = 0 for every outsider: every agent's favourite is inside."""
    tops = sorted({order[0] for order in profile.orders})
    if len(tops) > k:
        return None
    if len(tops) < k:
        scores = harmonic_scores(profile)
        filler = sorted((a for a in range(profile.m) if a not in tops),
                        key=lambda a: (-scores[a], a))
        tops = sorted(tops + filler[: k - len(tops)])
    return tuple(tops)


def compute_stable_lottery(profile: PreferenceProfile, k: int) -> StableLottery:
    """Compute a certified stable lottery of committee size k.

    The adversary runs multiplicative weights (Freund & Schapire 1999) over
    alternatives with payoff f_a(z) = sum_i z(L_i(a*))^k; the minimizer
    answers any adversary mix z with the i.i.d. sampler drawn from z itself,
    whose realized value is at most n/(k+1). Target gap
    epsilon = (n/k - n/(k+1)) / 2, and MWU stops once the average of the
    responses' payoffs lies strictly below n/k.

    The lottery is one round: the mean response z-bar (MWU's averaged mix).
    Each f_a is a k-th power of a nonnegative linear form of z, hence convex,
    so by Jensen f_a(z-bar) <= avg_t f_a(z_t): the single sampler certifies
    at least as well as the lottery of all rounds. The certificate is
    recomputed from scratch on the returned lottery.
    """
    if not 1 <= k <= profile.m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={profile.m}")
    n = profile.n
    budget = n / k

    fixed = _top_set_fast_path(profile, k)
    if fixed is not None:
        lottery = StableLottery(k=k, rounds=(LotteryRound(members=fixed),))
        cert = stability_certificate(lottery, profile)
        assert cert.max() < budget
        return lottery

    epsilon = 0.5 * (n / k - n / (k + 1))

    def best_response(mix: np.ndarray) -> np.ndarray:
        # the response is the mix itself, so row_mix is the mean response
        return _iid_bound(mix, profile, k)

    def certified(avg_payoffs: np.ndarray) -> bool:
        # small relative margin so the from-scratch recompute (different
        # summation order) cannot flip a borderline certificate
        return float(avg_payoffs.max()) < budget * (1.0 - 1e-9)

    result = mwu_solve(profile.m, float(n), best_response, epsilon, stop_check=certified)
    z_bar = tuple(float(p) for p in result.row_mix)
    lottery = StableLottery(k=k, rounds=(LotteryRound(z=z_bar),))
    cert = stability_certificate(lottery, profile)
    if not cert.max() < budget:
        raise CertificationError(
            f"lottery certificate {cert.max():.6g} did not fall below n/k = {budget:.6g} "
            f"after {result.rounds} rounds")
    return lottery


def lottery_marginals(lottery: StableLottery, m: int) -> np.ndarray:
    """Sampled-part inclusion probabilities q(a) = avg_t [1 - (1 - z_t(a))^k]
    (indicator for fixed rounds); fill is excluded, so sum(q) <= k."""
    total = np.zeros(m)
    for rnd in lottery.rounds:
        if rnd.members is not None:
            inc = np.zeros(m)
            inc[list(rnd.members)] = 1.0
        else:
            z = np.asarray(rnd.z)
            inc = 1.0 - (1.0 - z) ** lottery.k
        total += inc
    return total / len(lottery.rounds)


def committee_size(m: int) -> int:
    return math.isqrt(m) if math.isqrt(m) ** 2 == m else math.isqrt(m) + 1


def distribution_from_lottery(lottery: StableLottery, m: int) -> Distribution:
    """Half the mass follows the lottery's inclusion probabilities, half is
    uniform; the mass the sampled part leaves unused, (k - sum q)/(2k), is
    spread uniformly so the total is 1."""
    q = lottery_marginals(lottery, m)
    k = lottery.k
    leftover = (k - float(q.sum())) / (2.0 * k)
    probs = q / (2.0 * k) + 1.0 / (2.0 * m) + leftover / m
    probs = probs / probs.sum()  # remove float dust only
    return Distribution(tuple(float(p) for p in probs))


def stable_lottery_rule(profile: PreferenceProfile) -> Distribution:
    """Stable-lottery rule with k = ceil(sqrt(m))."""
    m = profile.m
    if m == 1:
        return Distribution((1.0,))
    lottery = compute_stable_lottery(profile, committee_size(m))
    return distribution_from_lottery(lottery, m)


def committee_stability_factor(profile: PreferenceProfile, members: tuple[int, ...],
                               k: Optional[int] = None) -> float:
    """max over outsiders of V(a*, X) * k / n; 0 when there are no outsiders."""
    k = len(members) if k is None else k
    ranks = profile.rank_matrix()
    weights = profile.weight_array()
    member_ranks = ranks[:, list(members)].min(axis=1)
    prefers = ranks < member_ranks[:, None]
    counts = weights @ prefers
    counts[list(members)] = 0.0
    return float(counts.max()) * k / profile.n


def find_stable_committee(profile: PreferenceProfile, k: int,
                          mode: str = "exhaustive", seed: int = 0) -> Committee:
    """Committee minimizing (exhaustive) or locally minimizing (swap-based
    local search) the stability factor; achieved_c is the exact factor of the
    returned committee. Exhaustive mode requires C(m, k) <= 1e6."""
    if not 1 <= k <= profile.m:
        raise ValueError(f"need 1 <= k <= m, got k={k}")
    if mode == "exhaustive":
        if math.comb(profile.m, k) > 10**6:
            raise ValueError("C(m, k) exceeds 1e6; use local_search mode")
        best_members = None
        best_factor = math.inf
        for members in itertools.combinations(range(profile.m), k):
            factor = committee_stability_factor(profile, members, k)
            if factor < best_factor:
                best_factor, best_members = factor, members
        return Committee(members=best_members, achieved_c=best_factor)
    if mode != "local_search":
        raise ValueError(f"unknown mode {mode!r}")

    best_members = None
    best_factor = math.inf
    for restart in range(8):
        rng = np.random.default_rng((seed, restart))
        current = tuple(sorted(int(a) for a in rng.permutation(profile.m)[:k]))
        factor = committee_stability_factor(profile, current, k)
        improved = True
        while improved:
            improved = False
            outside = [a for a in range(profile.m) if a not in current]
            for pos in range(k):
                for cand in outside:
                    trial = tuple(sorted(current[:pos] + current[pos + 1:] + (cand,)))
                    trial_factor = committee_stability_factor(profile, trial, k)
                    if trial_factor < factor:
                        current, factor, improved = trial, trial_factor, True
                        break
                if improved:
                    break
        if factor < best_factor or (factor == best_factor and
                                    (best_members is None or current < best_members)):
            best_factor, best_members = factor, current
    return Committee(members=best_members, achieved_c=best_factor)


def stable_committee_rule(profile: PreferenceProfile, seed: int = 0,
                          mode: str = "auto") -> Distribution:
    """x(a) = I[a in X] / (2k) + 1/(2m) with k = ceil(sqrt(m)) and X a
    (approximately) stable committee."""
    m = profile.m
    if m == 1:
        return Distribution((1.0,))
    k = committee_size(m)
    if mode == "auto":
        mode = "exhaustive" if math.comb(m, k) <= 10**6 else "local_search"
    committee = find_stable_committee(profile, k, mode=mode, seed=seed)
    probs = np.full(m, 1.0 / (2.0 * m))
    probs[list(committee.members)] += 1.0 / (2.0 * k)
    probs = probs / probs.sum()
    return Distribution(tuple(float(p) for p in probs))
