import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

import fairvote as fv
from fairvote.stable import LotteryRound, StableLottery


def brute_force_min_factor(profile, k):
    """Independent recomputation of the best stability factor."""
    best = math.inf
    for members in itertools.combinations(range(profile.m), k):
        worst = 0.0
        for a_star in range(profile.m):
            if a_star in members:
                continue
            count = 0
            for order, w in zip(profile.orders, profile.weights):
                pos = {a: i for i, a in enumerate(order)}
                if all(pos[a_star] < pos[c] for c in members):
                    count += w
            worst = max(worst, count * k / profile.n)
        best = min(best, worst)
    return best


class TestStableLottery:
    def test_unanimous_any_k(self):
        p = fv.from_rankings([(2, 0, 1, 3)] * 5)
        for k in (1, 2, 3, 4):
            lottery = fv.compute_stable_lottery(p, k)
            assert len(lottery.rounds) == 1
            cert = fv.stability_certificate(lottery, p)
            assert cert.max() == 0.0  # everyone's favourite sits in the committee

    def test_triad_k1_certified_below_three(self, triad):
        lottery = fv.compute_stable_lottery(triad, 1)
        cert = fv.stability_certificate(lottery, triad)
        assert cert.max() < 3.0

    def test_point_mass_round_counts_exact_preferences(self, triad):
        # z concentrated on a1: only agent i2 prefers an outsider (a2) to it
        lottery = StableLottery(k=1, rounds=(LotteryRound(z=(1.0, 0.0, 0.0)),))
        cert = fv.stability_certificate(lottery, triad)
        assert cert.tolist() == [0.0, 1.0, 0.0]

    def test_opposite_pair_m2(self):
        p = fv.from_rankings([(0, 1), (1, 0)])
        lottery = fv.compute_stable_lottery(p, 1)
        cert = fv.stability_certificate(lottery, p)
        assert cert.max() <= 1.0 + 1e-12  # any z concedes at most one agent
        assert cert.max() < 2.0

    def test_value_bound_from_existence_proof(self):
        # certified value <= n/(k+1) + epsilon with the target gap epsilon
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, m = int(rng.integers(2, 12)), int(rng.integers(2, 8))
            p = fv.random_profile(n, m, rng)
            k = fv.committee_size(m)
            lottery = fv.compute_stable_lottery(p, k)
            cert = fv.stability_certificate(lottery, p)
            eps = 0.5 * (n / k - n / (k + 1))
            assert cert.max() <= n / (k + 1) + eps + 1e-9

    def test_certificates_on_random_sweep(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            n = int(rng.integers(2, 51))
            m = (4, 9, 16, 25, 36, 49)[trial % 6]
            p = fv.random_profile(n, m, rng)
            k = fv.committee_size(m)
            lottery = fv.compute_stable_lottery(p, k)
            cert = fv.stability_certificate(lottery, p)
            assert cert.max() < n / k



def per_round_certificate(lottery, profile):
    """Reference: the bound summed one round at a time, z(L_i(a)) taken as
    1 - z(h_i(a)) from a running sum in each ballot's rank order."""
    weights = profile.weight_array()
    ranks = profile.rank_matrix()
    orders = profile.order_matrix()
    rows = np.arange(profile.num_ballots)[:, None]
    total = np.zeros(profile.m)
    for rnd in lottery.rounds:
        if rnd.members is not None:
            member_ranks = ranks[:, list(rnd.members)].min(axis=1)
            total += weights @ (ranks < member_ranks[:, None])
            continue
        above = np.cumsum(np.asarray(rnd.z)[orders], axis=1)
        below = np.empty_like(above)
        below[rows, orders] = 1.0 - above
        total += weights @ np.clip(below, 0.0, 1.0) ** lottery.k
    return total / len(lottery.rounds)


def definition_certificate(lottery, profile):
    """Reference from the definition, one agent, alternative and round at a time."""
    total = [0.0] * profile.m
    for rnd in lottery.rounds:
        for order, w in zip(profile.orders, profile.weights):
            for pos, a in enumerate(order):
                if rnd.members is not None:
                    total[a] += w * all(order.index(c) > pos for c in rnd.members)
                else:
                    total[a] += w * sum(rnd.z[c] for c in order[pos + 1:]) ** lottery.k
    return np.array(total) / len(lottery.rounds)


def mixed_lottery(m, k, num_rounds, rng):
    rounds = []
    for t in range(num_rounds):
        if t % 5 == 2:
            members = rng.choice(m, size=k, replace=False)
            rounds.append(LotteryRound(members=tuple(int(a) for a in members)))
        else:
            z = rng.dirichlet(np.ones(m))
            rounds.append(LotteryRound(z=tuple(float(p) for p in z / z.sum())))
    return StableLottery(k=k, rounds=tuple(rounds))


class TestStabilityCertificate:
    @pytest.mark.parametrize("m,k,num_rounds", [(1, 1, 3), (2, 1, 40), (5, 1, 70),
                                                (9, 3, 70), (16, 4, 33), (7, 7, 5)])
    def test_batched_matches_per_round_sum(self, m, k, num_rounds):
        rng = np.random.default_rng(1000 * m + k)
        n = 12
        p = fv.random_profile(n, m, rng)
        lottery = mixed_lottery(m, k, num_rounds, rng)
        cert = fv.stability_certificate(lottery, p)
        np.testing.assert_allclose(cert, per_round_certificate(lottery, p),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(cert, definition_certificate(lottery, p),
                                   rtol=0.0, atol=1e-12)

    def test_weighted_ballots(self):
        rng = np.random.default_rng(4)
        p = fv.from_rankings([(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2)], weights=(3, 1, 5))
        lottery = mixed_lottery(4, 2, 45, rng)
        np.testing.assert_allclose(fv.stability_certificate(lottery, p),
                                   per_round_certificate(lottery, p), rtol=1e-12, atol=0.0)

    def test_computed_lottery_matches_per_round_sum(self):
        rng = np.random.default_rng(21)
        p = fv.random_profile(20, 9, rng)
        lottery = fv.compute_stable_lottery(p, 3)
        assert len(lottery.rounds) == 1 and lottery.rounds[0].z is not None
        np.testing.assert_allclose(fv.stability_certificate(lottery, p),
                                   per_round_certificate(lottery, p), rtol=1e-12, atol=0.0)

    def test_mean_sampler_certifies_at_least_as_well(self):
        # each f_a(z) = sum_i w_i z(L_i(a))^k is convex in z, so by Jensen the
        # lottery's mean sampler certifies no worse than the lottery itself
        rng = np.random.default_rng(22)
        for trial in range(40):
            m = int(rng.integers(1, 10))
            k = int(rng.integers(1, m + 1))
            p = fv.random_profile(int(rng.integers(1, 15)), m, rng)
            zs = rng.dirichlet(np.full(m, 0.3 if trial % 2 else 1.0),
                               size=int(rng.integers(2, 30)))
            lottery = StableLottery(k=k, rounds=tuple(
                LotteryRound(z=tuple(float(q) for q in z)) for z in zs))
            mean = StableLottery(k=k, rounds=(
                LotteryRound(z=tuple(float(q) for q in zs.mean(axis=0))),))
            assert np.all(fv.stability_certificate(mean, p)
                          <= fv.stability_certificate(lottery, p) + 1e-12)


class TestLotteryMarginals:
    def test_point_mass_round(self):
        lottery = StableLottery(k=3, rounds=(LotteryRound(z=(1.0, 0.0, 0.0, 0.0)),))
        assert fv.lottery_marginals(lottery, 4).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_uniform_round_m4_k2(self):
        lottery = StableLottery(k=2, rounds=(LotteryRound(z=(0.25,) * 4),))
        q = fv.lottery_marginals(lottery, 4)
        assert q == pytest.approx(np.full(4, 7 / 16))

    def test_unanimous_lottery_is_top_k_indicator(self):
        p = fv.from_rankings([(1, 3, 0, 2)] * 4)
        lottery = fv.compute_stable_lottery(p, 2)
        q = fv.lottery_marginals(lottery, 4)
        assert q.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_total_mass_at_most_k(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = fv.random_profile(4, 6, rng)
            lottery = fv.compute_stable_lottery(p, 2)
            q = fv.lottery_marginals(lottery, 6)
            assert np.all(q >= 0) and np.all(q <= 1) and q.sum() <= 2 + 1e-9


class TestStableLotteryRule:
    def test_unanimous_m4(self):
        p = fv.from_rankings([(0, 1, 2, 3)] * 3)
        assert fv.stable_lottery_rule(p).probs == (0.375, 0.375, 0.125, 0.125)

    def test_single_alternative(self):
        assert fv.stable_lottery_rule(fv.parse_profile("2 1\n1\n1")).probs == (1.0,)

    def test_triad_shape_and_bound(self, triad):
        x = fv.stable_lottery_rule(triad)
        assert x.probs[0] >= x.probs[2]
        report = fv.distortion(x, triad, fv.UtilityClass.BALANCED)
        assert float(report.value) <= 2 * math.sqrt(3) + 1e-9

    def test_uniform_floor(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n, m = int(rng.integers(2, 10)), int(rng.integers(2, 10))
            p = fv.random_profile(n, m, rng)
            x = fv.stable_lottery_rule(p)
            assert min(x.probs) >= 1.0 / (2 * m) - 1e-12

    def test_deterministic(self):
        # no random draws: repeated calls on an equal profile agree exactly
        p = fv.random_profile(20, 9, np.random.default_rng(3))
        a = fv.stable_lottery_rule(p)
        b = fv.stable_lottery_rule(fv.parse_profile(fv.serialize_profile(p)))
        assert a.probs == b.probs


class TestStableCommittee:
    def test_unanimous_top_k(self):
        p = fv.from_rankings([(0, 1, 2, 3)] * 4)
        committee = fv.find_stable_committee(p, 2)
        assert committee.achieved_c == 0.0
        assert committee.members == (0, 1)

    def test_unanimous_contains_common_top(self):
        # every zero-factor committee contains the unanimous favourite; the
        # lexicographic tie-break then picks the smallest such committee
        p = fv.from_rankings([(3, 1, 0, 2)] * 4)
        committee = fv.find_stable_committee(p, 2)
        assert committee.achieved_c == 0.0
        assert 3 in committee.members

    def test_triad_k1(self, triad):
        committee = fv.find_stable_committee(triad, 1)
        assert committee.members == (0,)
        assert committee.achieved_c == pytest.approx(1 / 3)

    def test_sqrt_instance_minimum(self):
        bundle = fv.gen_sqrt_lb(4)
        committee = fv.find_stable_committee(bundle.profile, 2)
        brute = brute_force_min_factor(bundle.profile, 2)
        assert committee.achieved_c == pytest.approx(brute) == pytest.approx(0.5)
        # the group-alternative committee attains the same optimum
        assert fv.committee_stability_factor(bundle.profile, (4, 5)) == pytest.approx(brute)

    def test_exhaustive_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 8))
            k = int(rng.integers(1, m + 1))
            p = fv.random_profile(n, m, rng)
            committee = fv.find_stable_committee(p, k)
            assert committee.achieved_c == pytest.approx(brute_force_min_factor(p, k))

    def test_local_search_reports_honest_factor(self):
        rng = np.random.default_rng(14)
        p = fv.random_profile(8, 7, rng)
        committee = fv.find_stable_committee(p, 3, mode="local_search", seed=1)
        direct = fv.committee_stability_factor(p, committee.members)
        assert committee.achieved_c == pytest.approx(direct)
        assert committee.achieved_c >= brute_force_min_factor(p, 3) - 1e-12

    def test_exhaustive_scale_guard(self):
        p = fv.random_profile(2, 40, np.random.default_rng(0))
        with pytest.raises(ValueError):
            fv.find_stable_committee(p, 12, mode="exhaustive")


class TestStableCommitteeRule:
    def test_unanimous_m4(self):
        p = fv.from_rankings([(0, 1, 2, 3)] * 3)
        assert fv.stable_committee_rule(p).probs == (0.375, 0.375, 0.125, 0.125)

    def test_single_alternative(self):
        assert fv.stable_committee_rule(fv.parse_profile("1 1\n1")).probs == (1.0,)

    def test_triad(self, triad):
        x = fv.stable_committee_rule(triad)
        # exhaustive k=2 search finds {a1, a2} (stability factor 0)
        assert x.probs[0] == pytest.approx(F(1, 4) + F(1, 6))
        assert x.probs[1] == pytest.approx(5 / 12)
        assert x.probs[2] == pytest.approx(1 / 6)
