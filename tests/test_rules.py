import math
from fractions import Fraction as F

import numpy as np
import pytest

import fairvote as fv
from fairvote import rules
from fairvote.rules import TwoAltObjective, two_block_profile


class TestHarmonicRule:
    def test_triad_exact(self, triad):
        x = fv.harmonic_rule(triad, exact=True)
        assert x.probs == (F(13, 33), F(1, 3), F(3, 11))

    def test_unanimous_m2(self):
        p = fv.from_rankings([(0, 1)] * 4)
        x = fv.harmonic_rule(p, exact=True)
        assert x.probs == (F(7, 12), F(5, 12))

    def test_single_alternative(self):
        assert fv.harmonic_rule(fv.parse_profile("2 1\n1\n1")).probs == (1.0,)

    def test_uniform_floor(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = fv.random_profile(int(rng.integers(1, 7)), int(rng.integers(1, 8)), rng)
            x = fv.harmonic_rule(p)
            assert min(x.probs) >= 1.0 / (2 * p.m) - 1e-15

    def test_scores_sum_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = fv.random_profile(int(rng.integers(1, 7)), int(rng.integers(1, 8)), rng)
            total = sum(fv.harmonic_scores(p, exact=True), F(0))
            assert total == p.n * fv.harmonic_number(p.m, exact=True)


class TestPointVoting:
    def test_plurality_weights(self):
        p = fv.parse_profile("4 3\n2: 1 2 3\n1: 2 1 3\n1: 3 1 2")
        w = fv.PointVotingWeights((F(1), F(0), F(0)))
        assert fv.point_voting_rule(p, w).probs == (F(1, 2), F(1, 4), F(1, 4))

    def test_harmonic_identity_on_random_profiles(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = fv.random_profile(int(rng.integers(1, 6)), int(rng.integers(1, 7)), rng)
            w = fv.harmonic_point_weights(p.m, exact=True)
            assert fv.point_voting_rule(p, w).probs == fv.harmonic_rule(p, exact=True).probs

    def test_uniform_weights(self, triad):
        w = fv.PointVotingWeights((F(1, 3),) * 3)
        assert fv.point_voting_rule(triad, w).probs == (F(1, 3),) * 3

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            fv.PointVotingWeights((0.2, 0.5, 0.3))  # not monotone
        with pytest.raises(ValueError):
            fv.PointVotingWeights((0.9, 0.05))      # bad sum

    def test_anonymous_and_neutral(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            p = fv.random_profile(n, m, rng)
            draws = np.sort(rng.exponential(size=m))[::-1]
            w = fv.PointVotingWeights(tuple(float(v) for v in draws / draws.sum()))
            x = fv.point_voting_rule(p, w)
            # anonymity: permuting ballots leaves the output unchanged
            perm = rng.permutation(n)
            shuffled = fv.PreferenceProfile(
                m=m, orders=tuple(p.orders[i] for i in perm),
                weights=tuple(p.weights[i] for i in perm))
            assert fv.point_voting_rule(shuffled, w).probs == pytest.approx(x.probs)
            # neutrality: relabeling alternatives permutes the output
            relabel = list(rng.permutation(m))
            relabeled = fv.PreferenceProfile(
                m=m, orders=tuple(tuple(relabel[a] for a in o) for o in p.orders),
                weights=p.weights)
            y = fv.point_voting_rule(relabeled, w)
            for a in range(m):
                assert y.probs[relabel[a]] == pytest.approx(x.probs[a])


class TestSupportingSize:
    def test_majority_step_m2(self):
        p = two_block_profile(3, 1)
        n = p.n
        z = tuple(F(0) if k < n / 2 else F(1, 2) if k * 2 == n else F(1) for k in range(n + 1))
        x = fv.supporting_size_rule(p, fv.SupportingSizeWeights(z))
        assert x.probs == (F(1), F(0))

    def test_linear_z_is_random_dictatorship_m2(self):
        p = two_block_profile(3, 7)
        z = fv.SupportingSizeWeights(tuple(F(k, 10) for k in range(11)))
        assert fv.supporting_size_rule(p, z).probs == (F(3, 10), F(7, 10))

    def test_constant_half_gives_uniform(self, triad):
        z = fv.SupportingSizeWeights((F(1, 2),) * 4)
        assert fv.supporting_size_rule(triad, z).probs == (F(1, 3),) * 3

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            fv.SupportingSizeWeights((1.0, 0.5, 0.0))    # decreasing in k
        with pytest.raises(ValueError):
            fv.SupportingSizeWeights((0.1, 0.5, 1.0))    # z_k + z_{n-k} != 1

    def test_outputs_are_distributions(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            p = fv.random_profile(n, m, rng)
            half = np.sort(rng.uniform(0.5, 1.0, size=(n + 1) // 2))
            z = np.concatenate([1.0 - half[::-1], [0.5] if n % 2 == 0 else [], half])
            x = fv.supporting_size_rule(p, fv.SupportingSizeWeights(tuple(float(v) for v in z)))
            assert abs(sum(x.probs) - 1) < 1e-12 and min(x.probs) >= 0


def loop_pairwise_tallies(profile):
    """The earlier `pairwise_tallies`, kept verbatim but for its name: a
    Python triple loop over ballots and pairs. It now makes one comparison of
    the rank matrix per alternative."""
    m = profile.m
    tallies = [[0] * m for _ in range(m)]
    for order, w in zip(profile.orders, profile.weights):
        for i, a in enumerate(order):
            row = tallies[a]
            for b in order[i + 1:]:
                row[b] += w
    return tallies


class TestPairwiseTallies:
    def test_matches_earlier_loop(self):
        rng = np.random.default_rng(60)
        for trial in range(60):
            m, ballots = int(rng.integers(1, 13)), int(rng.integers(1, 25))
            orders = [tuple(int(a) for a in rng.permutation(m)) for _ in range(ballots)]
            weights = [int(w) for w in rng.integers(1, 50, size=ballots)]
            if trial % 10 == 0:  # a total weight beyond int64
                weights[0] = 2**70 + trial
            p = fv.from_rankings(orders, m=m, weights=weights)
            tallies = rules.pairwise_tallies(p)
            assert tallies == loop_pairwise_tallies(p)
            assert all(type(v) is int for row in tallies for v in row)


class TestTwoAlternativeRules:
    def test_half_is_half_everywhere(self):
        for obj in TwoAltObjective:
            assert fv.two_alt_rule(0.5, obj) == pytest.approx(0.5, abs=1e-11)

    def test_unit_sum_at_06(self):
        assert fv.two_alt_rule(0.6, TwoAltObjective.UNIT_SUM_SW) == pytest.approx(0.84 / 1.48)

    def test_extremes_exact(self):
        for obj in TwoAltObjective:
            assert fv.two_alt_rule(0.0, obj) == 0.0
            assert fv.two_alt_rule(1.0, obj) == 1.0

    def test_nash_inverse_on_grid(self):
        for j in range(1, 100):
            alpha = j / 100
            beta = fv.two_alt_rule(alpha, TwoAltObjective.NASH)
            assert abs(fv.nash_mixing_curve(beta) - alpha) < 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fv.two_alt_rule(1.2, TwoAltObjective.PF)


def test_all_rules_emit_valid_distributions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = int(rng.integers(1, 7)), int(rng.integers(2, 7))
        p = fv.random_profile(n, m, rng)
        for x in (fv.harmonic_rule(p), fv.harmonic_rule(p, exact=True),
                  fv.point_voting_rule(p, fv.harmonic_point_weights(m))):
            assert isinstance(x, fv.Distribution)  # constructor enforces invariants
