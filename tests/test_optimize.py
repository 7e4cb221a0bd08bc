import itertools
import math

import numpy as np
import pytest

import fairvote as fv
from fairvote import metrics, optimize
from fairvote.optimize import _PFObjective, _project_array, pf_bound, pf_region
from fairvote.profiles import PreferenceProfile
from fairvote.rules import TwoAltObjective, two_block_profile
from test_metrics import parent_dinkelbach


# ---------------------------------------------------------------------------
# Oracle: the earlier projection and PF objective, kept verbatim. They built
# the prefix masses twice per iterate (once for the value, once for the
# subgradient), the argmax mask on every step and the region's floor array on
# every projection; the optimizers now do each once. Every iterate must stay
# the same to the last bit.
# ---------------------------------------------------------------------------

def project_to_scaled_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Project v onto {w >= 0, sum(w) = total} in Euclidean norm.

    Standard sort-based algorithm: threshold tau is the largest value such
    that sum(max(v - tau, 0)) = total.
    """
    if total < 0:
        raise ValueError("simplex scale must be nonnegative")
    v = np.asarray(v, dtype=np.float64)
    if total == 0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    thresholds = (cumulative - total) / np.arange(1, v.size + 1)
    k = np.nonzero(u > thresholds)[0][-1]
    return np.maximum(v - thresholds[k], 0.0)


def parent_project_array(v: np.ndarray, region: fv.FeasibleRegion) -> np.ndarray:
    lb = np.asarray(region.lower_bounds)
    slack = 1.0 - float(lb.sum())
    if slack < 0:
        slack = 0.0
    w = project_to_scaled_simplex(v - lb, slack)
    return lb + w


def prefix_mass_matrix(x: np.ndarray, profile: PreferenceProfile) -> np.ndarray:
    """(num_ballots, m) float array H with H[b, a] = x(h_b(a)): the running
    sum of x down each ballot, gathered back to alternatives."""
    return np.cumsum(x[profile.order_matrix()], axis=1).take(profile._rank_index)


class ParentPFObjective:
    def __init__(self, profile: PreferenceProfile):
        self.profile = profile
        self.n = float(profile.n)

    def prefix_masses(self, x: np.ndarray) -> np.ndarray:
        return prefix_mass_matrix(x, self.profile)

    def payoffs(self, x: np.ndarray) -> np.ndarray:
        H = self.prefix_masses(x)
        return (self.profile.weight_array() @ (1.0 / H)) / self.n

    def value_and_argmax(self, x: np.ndarray) -> tuple[float, int]:
        p = self.payoffs(x)
        a = int(np.argmax(p))  # lowest index on ties
        return float(p[a]), a

    def subgradient(self, x: np.ndarray, a_star: int) -> np.ndarray:
        H = self.prefix_masses(x)
        coeff = self.profile.weight_array() / (self.n * H[:, a_star] ** 2)
        ranks = self.profile.rank_matrix()
        return -(coeff @ (ranks <= ranks[:, a_star][:, None]))


def parent_run(monkeypatch, solve, *args, **kwargs):
    """`solve` with the earlier projection, PF objective and distortion kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_project_array", parent_project_array)
        patch.setattr(optimize, "_PFObjective", ParentPFObjective)
        patch.setattr(metrics, "_dinkelbach", parent_dinkelbach)
        return solve(*args, **kwargs)


def sample_profiles(rng, count):
    """Seeded profiles with m 2-9 and n <= 30 (1-15 ballots of weight 1-2)."""
    for _ in range(count):
        m, ballots = int(rng.integers(2, 10)), int(rng.integers(1, 16))
        orders = [tuple(int(a) for a in rng.permutation(m)) for _ in range(ballots)]
        yield fv.from_rankings(orders, m=m,
                               weights=[int(w) for w in rng.integers(1, 3, size=ballots)])


def assert_same_result(result, oracle):
    assert result.distribution.probs == oracle.distribution.probs
    assert result.value == oracle.value
    assert result.iterations == oracle.iterations
    assert result.certified == oracle.certified


class TestProjection:
    def test_water_filling_example(self):
        region = fv.FeasibleRegion((0.0, 0.0, 0.0))
        x = fv.project(np.array([0.6, 0.6, -0.2]), region)
        assert x.probs == pytest.approx((0.5, 0.5, 0.0), abs=1e-12)

    def test_idempotent_inside_region(self):
        region = fv.FeasibleRegion((0.1, 0.0, 0.05))
        v = np.array([0.3, 0.5, 0.2])
        assert fv.project(v, region).probs == pytest.approx(tuple(v), abs=1e-12)

    def test_forced_point(self):
        region = fv.FeasibleRegion((1.0, 0.0, 0.0))
        for v in ([9.0, -3.0, 1.0], [0.0, 0.0, 0.0]):
            assert fv.project(np.array(v), region).probs == pytest.approx((1.0, 0.0, 0.0))

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            fv.FeasibleRegion((0.7, 0.7))

    def test_feasibility_exact(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            lb = rng.dirichlet(np.ones(m)) * 0.6
            region = fv.FeasibleRegion(tuple(float(b) for b in lb))
            x = fv.project(rng.normal(size=m), region)
            assert all(p >= b for p, b in zip(x.probs, region.lower_bounds))

    def test_projection_is_closest_point(self):
        # cross-check against a dense grid on the 2-simplex
        region = fv.FeasibleRegion((0.2, 0.0, 0.1))
        rng = np.random.default_rng(27)
        for _ in range(10):
            v = rng.normal(size=3)
            proj = np.asarray(fv.project(v, region).probs)
            best = None
            for i in range(101):
                for j in range(101 - i):
                    cand = np.array([i, j, 100 - i - j]) / 100
                    if np.all(cand >= np.array(region.lower_bounds) - 1e-12):
                        d = float(((cand - v) ** 2).sum())
                        best = d if best is None else min(best, d)
            assert float(((proj - v) ** 2).sum()) <= best + 1e-3


class TestPFSubgradient:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(28)
        checked = 0
        while checked < 50:
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            profile = fv.random_profile(n, m, rng)
            raw = rng.dirichlet(np.ones(m)) * 0.8 + 0.2 / m
            x = raw / raw.sum()
            obj = _PFObjective(profile)
            payoffs = obj.payoffs(x)
            top_two = np.sort(payoffs)[-2:]
            if m > 1 and top_two[1] - top_two[0] < 1e-4:
                continue  # need a unique argmax for differentiability
            g = fv.pf_subgradient(fv.Distribution(tuple(x)), profile)
            h = 1e-6
            for a in range(m):
                e = np.zeros(m)
                e[a] = h
                fd = (obj.payoffs(x + e).max() - obj.payoffs(x - e).max()) / (2 * h)
                assert abs(fd - g[a]) <= 1e-5
            checked += 1

    def test_single_agent_closed_form(self):
        profile = fv.parse_profile("1 2\n1 2")
        q = 0.3
        x = fv.Distribution((q, 1 - q))
        g = fv.pf_subgradient(x, profile, a_star=0)
        assert g == pytest.approx([-1 / q**2, 0.0])

    def test_symmetric_profile_symmetric_subgradient(self):
        # at x = (1/2, 1/2) both alternatives tie for the payoff argmax; the
        # tie-break picks the a1 piece, whose gradient mirrors the a2 piece
        # under swapping alternatives (the subdifferential is symmetric)
        profile = fv.from_rankings([(0, 1), (1, 0)])
        x = fv.Distribution((0.5, 0.5))
        g0 = fv.pf_subgradient(x, profile, a_star=0)
        g1 = fv.pf_subgradient(x, profile, a_star=1)
        assert g0.tolist() == pytest.approx(g1[::-1].tolist())
        centroid = 0.5 * (g0 + g1)
        assert centroid[0] == pytest.approx(centroid[1])
        assert fv.pf_subgradient(x, profile).tolist() == pytest.approx(g0.tolist())

    def test_zero_prefix_rejected(self):
        profile = fv.parse_profile("1 2\n1 2")
        with pytest.raises(ValueError):
            fv.pf_subgradient(fv.Distribution((0.0, 1.0)), profile, a_star=0)


class TestOptimizePF:
    def test_triad_reaches_known_optimum(self, triad):
        result = fv.optimize_pf(triad, 1e-3)
        assert result.value == pytest.approx(1 + math.sqrt(2) / 3, abs=1e-3)
        assert result.distribution.probs == pytest.approx((0.586, 0.414, 0.0), abs=1e-2)

    def test_unanimous_point_mass(self):
        p = fv.from_rankings([(2, 0, 1)] * 5)
        result = fv.optimize_pf(p, 1e-3)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.distribution.probs[2] == pytest.approx(1.0, abs=1e-9)

    def test_m2_matches_closed_form(self):
        for j in (2, 5, 8):
            profile = two_block_profile(j, 10 - j)
            result = fv.optimize_pf(profile, 2e-4)
            beta = fv.two_alt_rule(j / 10, TwoAltObjective.PF)
            assert float(result.distribution.probs[0]) == pytest.approx(beta, abs=1e-3)

    def test_every_iterate_feasible_value_finite(self, triad):
        result = fv.optimize_pf(triad, 1e-2, max_iters=500)
        region = pf_region(triad)
        assert all(p >= b - 1e-15 for p, b in
                   zip(result.distribution.probs, region.lower_bounds))
        assert math.isfinite(result.value)

    def test_value_within_guarantee(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            p = fv.random_profile(int(rng.integers(2, 12)), int(rng.integers(2, 10)), rng)
            result = fv.optimize_pf(p, 0.05, max_iters=20_000)
            assert result.value <= pf_bound(p.m) + 1e-9

    def test_reported_value_is_evaluated_at_returned_point(self):
        # best *visited* iterate, never an unevaluated average
        rng = np.random.default_rng(35)
        for _ in range(5):
            p = fv.random_profile(int(rng.integers(2, 8)), int(rng.integers(2, 7)), rng)
            result = fv.optimize_pf(p, 0.01, max_iters=5000)
            direct = float(fv.pf_distortion(result.distribution, p).value)
            assert result.value == pytest.approx(direct, rel=1e-12)

    def test_region_contains_grid_optima(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            p = fv.random_profile(int(rng.integers(2, 5)), 3, rng)
            obj = _PFObjective(p)
            best, arg = math.inf, None
            for i in range(51):
                for j in range(51 - i):
                    cand = np.array([i, j, 50 - i - j]) / 50
                    masses = obj.prefix_masses(cand)
                    val = math.inf if masses.min() == 0 else float(obj.payoffs(cand).max())
                    if val < best:
                        best, arg = val, cand
            lb = np.array(pf_region(p).lower_bounds)
            assert np.all(arg >= lb - 1 / 50 - 1e-12)


class TestOptimizeDistortion:
    def test_triad_unit_sum(self, triad):
        result = fv.optimize_distortion(triad, fv.UtilityClass.UNIT_SUM, 1e-4, guard=1e-3)
        assert result.value == pytest.approx(1.54, abs=0.01)
        assert result.distribution.probs == pytest.approx((0.5882, 0.4118, 0.0), abs=1e-2)

    def test_m2_matches_closed_forms(self):
        for j in (3, 7):
            profile = two_block_profile(j, 10 - j)
            alpha = j / 10
            r = fv.optimize_distortion(profile, fv.UtilityClass.UNIT_SUM, 2e-4)
            assert float(r.distribution.probs[0]) == pytest.approx(
                fv.two_alt_rule(alpha, TwoAltObjective.UNIT_SUM_SW), abs=1e-3)
            r = fv.optimize_distortion(profile, fv.UtilityClass.UNIT_RANGE, 2e-4)
            assert float(r.distribution.probs[0]) == pytest.approx(
                fv.two_alt_rule(alpha, TwoAltObjective.UNIT_RANGE_SW), abs=1e-3)

    def test_unanimous_guard_degradation(self):
        p = fv.from_rankings([(0, 1, 2)] * 3)
        guard = 1e-3
        result = fv.optimize_distortion(p, fv.UtilityClass.UNIT_SUM, 1e-4, guard=guard)
        assert result.value <= 1.0 / (1.0 - guard) + 1e-4

    def test_guard_validation(self, triad):
        with pytest.raises(ValueError):
            fv.optimize_distortion(triad, fv.UtilityClass.UNIT_SUM, 1e-3, guard=0.7)

    def test_approval_and_balanced_classes(self, triad):
        for cls in (fv.UtilityClass.APPROVAL, fv.UtilityClass.BALANCED):
            result = fv.optimize_distortion(triad, cls, 1e-3, max_iters=20_000)
            # at least as good as a coarse feasible grid, and honestly reported
            grid_best = min(
                float(fv.distortion(fv.Distribution((a / 20, b / 20, (20 - a - b) / 20)),
                                    triad, cls).value)
                for a in range(21) for b in range(21 - a))
            assert result.value <= grid_best + 1e-9
            direct = float(fv.distortion(result.distribution, triad, cls).value)
            assert result.value == pytest.approx(direct, rel=1e-12)


class TestPFCertificate:
    """The barrier solver against the earlier subgradient loop, run as the
    oracle at a tight tolerance: its lower bound must hold and a certified
    value must lie within epsilon of the oracle's."""

    def test_against_subgradient_oracle(self, monkeypatch):
        rng = np.random.default_rng(43)
        for i, p in enumerate(sample_profiles(rng, 30)):
            epsilon = (1e-3, 0.05, 5.0)[i % 3]
            result = fv.optimize_pf(p, epsilon)
            region = pf_region(p)
            obj = ParentPFObjective(p)
            x0 = parent_project_array(np.asarray(p.top_fractions()), region)
            _, oracle, _, _ = parent_run(monkeypatch, optimize._subgradient_minimize,
                                         obj.value_and_argmax, obj.subgradient, region, x0,
                                         1e-6, 20_000)
            assert result.lower_bound <= oracle
            if result.certified:
                assert result.value <= oracle + epsilon
            direct = float(fv.pf_distortion(result.distribution, p).value)
            assert result.value == pytest.approx(direct, rel=1e-12)

    def test_lower_bound_below_grid_minimum(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            p = fv.random_profile(int(rng.integers(2, 5)), 3, rng)
            obj = _PFObjective(p)
            best = math.inf
            for i in range(51):
                for j in range(51 - i):
                    cand = np.array([i, j, 50 - i - j]) / 50
                    if obj.prefix_masses(cand).min() > 0:
                        best = min(best, float(obj.payoffs(cand).max()))
            assert fv.optimize_pf(p, 1e-3).lower_bound <= best

    def test_ends_promptly_when_epsilon_is_unreachable(self):
        rng = np.random.default_rng(21)
        p = fv.random_profile(20, 6, rng)
        result = fv.optimize_pf(p, 1e-12)
        assert result.iterations <= 1_000
        assert math.isfinite(result.value)
        assert all(x >= b for x, b in zip(result.distribution.probs,
                                          pf_region(p).lower_bounds))
        assert result.value <= fv.optimize_pf(p, 1e-3).value
        # a stage that fails to shrink its proven gap ends the solve
        assert result.iterations <= 1.5 * fv.optimize_pf(p, 1e-6).iterations

    def test_floor_snap(self, triad):
        # the optimum (2 - sqrt 2, sqrt 2 - 1, 0) puts a3 on its floor, which
        # the barrier's iterates only approach
        result = fv.optimize_pf(triad, 1e-3)
        assert result.distribution.probs[2] == pf_region(triad).lower_bounds[2] == 0.0


class TestSameIteratesAsBefore:
    """The distortion optimizer against its earlier projection and
    distortion kernel: every result field equal to the last bit."""

    def test_optimize_distortion(self, monkeypatch):
        rng = np.random.default_rng(44)
        classes = (fv.UtilityClass.UNIT_SUM, fv.UtilityClass.APPROVAL,
                   fv.UtilityClass.BALANCED)
        for i, p in enumerate(sample_profiles(rng, 24)):
            cls, epsilon = classes[i % 3], (1e-3, 0.05, 5.0)[i // 3 % 3]
            guard = 0.1 if i % 2 else 1e-3
            result = fv.optimize_distortion(p, cls, epsilon, guard=guard, max_iters=15)
            assert_same_result(result, parent_run(monkeypatch, fv.optimize_distortion, p, cls,
                                                  epsilon, guard=guard, max_iters=15))
        p = fv.from_rankings([(0, 1), (1, 0), (0, 1)])  # phase B, with its restarts
        for cls in classes:
            result = fv.optimize_distortion(p, cls, 1e-4, max_iters=2_150)
            assert_same_result(result, parent_run(monkeypatch, fv.optimize_distortion, p, cls,
                                                  1e-4, max_iters=2_150))


class TestBudgetValidation:
    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_bad_epsilon(self, triad, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            fv.optimize_pf(triad, epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            fv.optimize_distortion(triad, fv.UtilityClass.UNIT_SUM, epsilon)

    def test_negative_max_iters(self, triad):
        with pytest.raises(ValueError, match="max_iters"):
            fv.optimize_pf(triad, 1e-3, max_iters=-3)
        with pytest.raises(ValueError, match="max_iters"):
            fv.optimize_distortion(triad, fv.UtilityClass.UNIT_SUM, 1e-3, max_iters=-1)

    def test_zero_max_iters_returns_the_start(self, triad):
        result = fv.optimize_pf(triad, 1e-3, max_iters=0)
        assert result.iterations == 0
        start = _project_array(np.asarray(triad.top_fractions()), pf_region(triad))
        assert result.distribution.probs == tuple(start.tolist())
