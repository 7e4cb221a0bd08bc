"""Closed-form probabilistic voting rules.

The harmonic rule mixes the uniform distribution with selection proportional
to harmonic scores. Point-voting and supporting-size schemes are the two
building blocks of anonymous, neutral, strategyproof rules; the four
two-alternative rules are instance-optimal for their respective objectives.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .profiles import Distribution, Number, PreferenceProfile, SUM_TOLERANCE, _is_exact


def harmonic_number(m: int, exact: bool = False) -> Number:
    if exact:
        return sum((Fraction(1, r) for r in range(1, m + 1)), Fraction(0))
    return math.fsum(1.0 / r for r in range(1, m + 1))


def harmonic_scores(profile: PreferenceProfile, exact: bool = False) -> list:
    """harm(a) = sum_i 1/rank_i(a), weight-aware."""
    zero: Number = Fraction(0) if exact else 0.0
    scores = [zero] * profile.m
    for order, w in zip(profile.orders, profile.weights):
        for pos, a in enumerate(order, start=1):
            scores[a] = scores[a] + (Fraction(w, pos) if exact else w / pos)
    return scores


def harmonic_rule(profile: PreferenceProfile, exact: bool = False) -> Distribution:
    """x(a) = 1/(2m) + harm(a) / (2 n H_m)."""
    m, n = profile.m, profile.n
    scores = harmonic_scores(profile, exact=exact)
    hm = harmonic_number(m, exact=exact)
    if exact:
        probs = tuple(Fraction(1, 2 * m) + s / (2 * n * hm) for s in scores)
    else:
        probs = tuple(1.0 / (2 * m) + s / (2.0 * n * hm) for s in scores)
    return Distribution(probs)


@dataclass(frozen=True)
class PointVotingWeights:
    """Non-increasing rank weights summing to 1."""

    w: tuple[Number, ...]

    def __post_init__(self):
        if not self.w:
            raise ValueError("empty weight vector")
        if any(a < b for a, b in zip(self.w, self.w[1:])):
            raise ValueError("point-voting weights must be non-increasing")
        if self.w[-1] < 0:
            raise ValueError("point-voting weights must be nonnegative")
        total = sum(self.w)
        if all(_is_exact(v) for v in self.w):
            if total != 1:
                raise ValueError(f"weights sum to {total}, not 1")
        elif abs(float(total) - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"weights sum to {total!r}")

    @property
    def m(self) -> int:
        return len(self.w)


def harmonic_point_weights(m: int, exact: bool = False) -> PointVotingWeights:
    """The weight vector w_r = 1/(2m) + 1/(2 H_m r); point_voting_rule with
    these weights reproduces harmonic_rule exactly on every profile."""
    hm = harmonic_number(m, exact=exact)
    if exact:
        w = tuple(Fraction(1, 2 * m) + Fraction(1, 2) / (hm * r) for r in range(1, m + 1))
    else:
        w = tuple(1.0 / (2 * m) + 1.0 / (2.0 * hm * r) for r in range(1, m + 1))
    return PointVotingWeights(w)


def point_voting_rule(profile: PreferenceProfile, weights: PointVotingWeights) -> Distribution:
    """x(a) = (1/n) sum_i w[rank_i(a)]."""
    if weights.m != profile.m:
        raise ValueError(f"weight vector has length {weights.m}, profile has m={profile.m}")
    exact = all(_is_exact(v) for v in weights.w)
    zero: Number = Fraction(0) if exact else 0.0
    probs = [zero] * profile.m
    for order, wt in zip(profile.orders, profile.weights):
        for pos, a in enumerate(order):
            probs[a] = probs[a] + wt * weights.w[pos]
    n = profile.n
    if exact:
        return Distribution(tuple(Fraction(p, n) if isinstance(p, int) else p / n for p in probs))
    return Distribution(tuple(p / n for p in probs))


@dataclass(frozen=True)
class SupportingSizeWeights:
    """Vector z_0..z_n with z_n >= ... >= z_0 and z_k + z_{n-k} = 1."""

    z: tuple[Number, ...]

    def __post_init__(self):
        if len(self.z) < 2:
            raise ValueError("supporting-size vector needs length n+1 >= 2")
        if any(a > b for a, b in zip(self.z, self.z[1:])):
            raise ValueError("supporting-size weights must be non-decreasing in k")
        n = len(self.z) - 1
        exact = all(_is_exact(v) for v in self.z)
        for k in range(n + 1):
            s = self.z[k] + self.z[n - k]
            if exact:
                if s != 1:
                    raise ValueError(f"z_{k} + z_{n - k} = {s}, not 1")
            elif abs(float(s) - 1.0) > SUM_TOLERANCE:
                raise ValueError(f"z_{k} + z_{n - k} = {s!r}")

    @property
    def n(self) -> int:
        return len(self.z) - 1


def pairwise_tallies(profile: PreferenceProfile) -> list[list[int]]:
    """V[a][b] = number of agents preferring a to b (weight-aware)."""
    ranks = profile.rank_matrix()
    w = np.array(profile.weights, dtype=object)  # exact Python-int sums
    return [(w @ (ranks[:, [a]] < ranks)).tolist() for a in range(profile.m)]


def supporting_size_rule(profile: PreferenceProfile, weights: SupportingSizeWeights) -> Distribution:
    """x(a) = (1 / C(m,2)) sum_{b != a} z_{V(a,b)}."""
    m, n = profile.m, profile.n
    if m < 2:
        raise ValueError("supporting-size schemes need m >= 2")
    if weights.n != n:
        raise ValueError(f"weight vector indexed 0..{weights.n} but profile has n={n}")
    tallies = pairwise_tallies(profile)
    pairs = m * (m - 1) // 2
    exact = all(_is_exact(v) for v in weights.z)
    probs = []
    for a in range(m):
        total = sum(weights.z[tallies[a][b]] for b in range(m) if b != a)
        probs.append(Fraction(total) / pairs if exact else total / pairs)
    return Distribution(tuple(probs))


class TwoAltObjective(enum.Enum):
    UNIT_SUM_SW = "unit-sum-sw"
    UNIT_RANGE_SW = "unit-range-sw"
    NASH = "nash"
    PF = "pf"


def nash_mixing_curve(x: float) -> float:
    """g(x) = ln(1-x) / (ln x + ln(1-x)), strictly increasing on (0,1)."""
    if not 0.0 < x < 1.0:
        raise ValueError("g is defined on the open interval (0,1)")
    return math.log1p(-x) / (math.log(x) + math.log1p(-x))


def two_alt_rule(alpha: Union[float, Fraction], objective: TwoAltObjective) -> float:
    """Probability placed on the first alternative when an `alpha` fraction of
    agents prefers it, instance-optimal for the given objective. At alpha in
    {0, 1} the unanimous alternative is selected for every objective."""
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    if a in (0.0, 1.0):
        return a
    if objective is TwoAltObjective.UNIT_SUM_SW:
        return ((2.0 - a) * a) / (1.0 + 2.0 * a * (1.0 - a))
    if objective is TwoAltObjective.UNIT_RANGE_SW:
        return a
    if objective is TwoAltObjective.PF:
        ra, rb = math.sqrt(a), math.sqrt(1.0 - a)
        return ra / (ra + rb)
    if objective is TwoAltObjective.NASH:
        lo, hi = 0.0, 1.0
        # g is strictly increasing with g(0+) = 0, g(1-) = 1; bisect to 1e-12
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2.0
            if nash_mixing_curve(mid) < a:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0
    raise ValueError(f"unknown objective {objective}")


def two_block_profile(prefer_first: int, prefer_second: int) -> PreferenceProfile:
    """m=2 profile with the given numbers of a1-first and a2-first agents."""
    orders = []
    weights = []
    if prefer_first > 0:
        orders.append((0, 1))
        weights.append(prefer_first)
    if prefer_second > 0:
        orders.append((1, 0))
        weights.append(prefer_second)
    return PreferenceProfile(m=2, orders=tuple(orders), weights=tuple(weights))
