import dataclasses
import itertools
import math
import warnings
from fractions import Fraction
from fractions import Fraction as F
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np
import pytest

import fairvote as fv
from fairvote import metrics
from fairvote.metrics import (CoreReport, DistortionReport, OracleScaleError,
                              _vertex_depth_values, _witness_from_combo, _witness_ratio,
                              social_welfare)
from fairvote.profiles import Distribution, Number, PreferenceProfile, UtilityClass

DISTORTION_CLASSES = (fv.UtilityClass.UNIT_SUM, fv.UtilityClass.APPROVAL,
                      fv.UtilityClass.UNIT_RANGE, fv.UtilityClass.BALANCED)


def random_exact_distribution(m, rng, digits=9):
    nums = [int(v) for v in rng.integers(0, digits + 1, size=m)]
    if sum(nums) == 0:
        nums[int(rng.integers(0, m))] = 1
    total = sum(nums)
    return fv.Distribution(tuple(F(v, total) for v in nums))


def float_copy(x):
    return fv.Distribution(tuple(float(p) for p in x.probs))


def witness_ratio(x, report):
    u = report.witness_utilities
    sw_star = sum(w * row[report.witness_alternative] for w, row in zip(u.weights, u.utils))
    return sw_star / float(fv.social_welfare(x, u))


# ---------------------------------------------------------------------------
# Oracle: the earlier rational path of `distortion`, kept verbatim. It ran the
# ratio iteration once per candidate a*, in Python loops over each ballot's
# vertex list; `distortion` now runs the shared-t kernel on Fraction arrays.
# ---------------------------------------------------------------------------

def _ballot_vertices_exact(order: Sequence[int], x_probs: Sequence[Number],
                           a_star: int, cls: UtilityClass) -> list[tuple[Fraction, Fraction, int, bool]]:
    """Per-ballot vertex list [(A, B, depth, uniform)] with exact arithmetic."""
    use_ind, use_uni = _vertex_depth_values(cls)
    r_star = order.index(a_star) + 1
    out = []
    mass = Fraction(0)
    for j, a in enumerate(order, start=1):
        mass += Fraction(x_probs[a])
        hit = 1 if j >= r_star else 0
        if use_ind:
            out.append((Fraction(hit), mass, j, False))
        if use_uni:
            out.append((Fraction(hit, j), mass / j, j, True))
    return out


def _max_term_exact(vertices, t: Fraction) -> tuple[Fraction, tuple]:
    """max (A - t B) over a ballot's vertices; ties prefer larger A so the
    ratio iteration lands on the value-attaining witness."""
    best = None
    best_vertex = None
    for A, B, depth, uniform in vertices:
        val = A - t * B
        if best is None or val > best or (val == best and A > best_vertex[0]):
            best = val
            best_vertex = (A, B, depth, uniform)
    return best, best_vertex


def _distortion_at_exact(x: Distribution, profile: PreferenceProfile, cls: UtilityClass,
                         a_star: int) -> tuple[Number, Optional[list[tuple[int, bool]]]]:
    """Exact sup_u SW(a*, u)/SW(x, u); returns (value, per-ballot (depth, uniform))."""
    tables = [_ballot_vertices_exact(order, x.probs, a_star, cls) for order in profile.orders]
    weights = profile.weights

    def aggregate(t: Fraction):
        total = Fraction(0)
        combo = []
        sum_a = Fraction(0)
        sum_b = Fraction(0)
        for w, verts in zip(weights, tables):
            val, (A, B, depth, uniform) = _max_term_exact(verts, t)
            total += w * val
            sum_a += w * A
            sum_b += w * B
            combo.append((depth, uniform))
        return total, sum_a, sum_b, combo

    t = Fraction(0)
    prev_combo = None
    for _ in range(10_000):  # combinatorial bound; iterations cross distinct pieces
        g, sum_a, sum_b, combo = aggregate(t)
        if g <= 0:
            return t, (prev_combo if prev_combo is not None else combo)
        if sum_b == 0:
            return math.inf, combo
        ratio = sum_a / sum_b
        if ratio == t:
            return t, combo
        t, prev_combo = ratio, combo
    raise RuntimeError("ratio iteration failed to terminate")  # pragma: no cover


def per_a_star_distortion(x: Distribution, profile: PreferenceProfile,
                          cls: UtilityClass) -> DistortionReport:
    """The rational branch of the earlier `distortion`, verbatim."""
    best_val: Number = -1
    best: Optional[tuple[int, list]] = None
    for a_star in range(profile.m):
        val, combo = _distortion_at_exact(x, profile, cls, a_star)
        if val == math.inf:
            best_val, best = math.inf, (a_star, combo)
            break
        if val > best_val:
            best_val, best = val, (a_star, combo)
    a_star, combo = best
    witness = _witness_from_combo(profile, combo, cls, exact=True)
    if best_val != math.inf:
        s = social_welfare(x, witness)
        best_val = math.inf if s == 0 else _witness_ratio(witness, a_star, s)
    return DistortionReport(best_val, cls, a_star, witness)


# ---------------------------------------------------------------------------
# Oracle: the earlier `core_check`, kept verbatim but for its imports. It
# screened each coalition with an MWU estimate of its game value before the
# LP; `core_check` now screens on one mat-vec and lets the LP decide.
# ---------------------------------------------------------------------------

def _mwu_coalition_game_value(M: np.ndarray, epsilon: float) -> float:
    """Certified-from-below estimate of max_y min_i (M y) via mwu_solve on the
    negated game; returns lo with true value in [lo, lo + epsilon]."""
    rows, m = M.shape
    shift = float(np.abs(M).max())
    if shift == 0.0:
        return 0.0
    P = shift - M  # in [0, 2*shift]; adversary maximizes P <=> minimizes M
    y_sum = np.zeros(m)

    def best_response(mix: np.ndarray) -> np.ndarray:
        col = int(np.argmin(mix @ P))
        y_sum[col] += 1.0
        return P[:, col]

    y_avg = y_sum / fv.mwu_solve(rows, 2.0 * shift, best_response, epsilon).rounds
    return float((M @ y_avg).min())


def mwu_screened_core_check(x: Distribution, u: fv.UtilityProfile, alpha: float,
                            tol: float = 1e-9) -> CoreReport:
    """Search all coalitions of stored ballots for an alpha-core violation.

    A coalition S violates when some deviation y satisfies
    (|S|/n) u_i(y) >= alpha * u_i(x) for all i in S with one strict. Each
    coalition's max-min game is screened with mwu_solve; the strict witness is
    then resolved by maximizing total slack (exact LP), and any returned
    witness is re-verified against the definition.
    """
    from scipy.optimize import linprog

    if x.m != u.m:
        raise ValueError("distribution/utility dimension mismatch")
    if u.n > 20:
        raise ValueError("core_check enumerates coalitions; capped at n <= 20")
    U = u.as_array()
    n = float(u.n)
    c = np.array([float(e) for e in u.expected(x)])
    B = u.num_ballots
    block_w = np.asarray(u.weights, dtype=np.float64)

    for mask in range(1, 1 << B):
        members = [b for b in range(B) if mask >> b & 1]
        W = float(block_w[members].sum())
        M = (W / n) * U[members] - alpha * c[members][:, None]
        if np.any(M.max(axis=1) < -tol):
            continue  # some member cannot be compensated by any deviation
        scale = float(np.abs(M).max())
        if scale > 0 and len(members) > 1:
            lo = _mwu_coalition_game_value(M, epsilon=0.25 * scale)
            if lo + 0.25 * scale < -tol:
                continue
        # slack maximization: max sum_i M_i . y  s.t.  M y >= 0, y in simplex
        res = linprog(c=-(M.sum(axis=0)), A_ub=-M, b_ub=np.zeros(len(members)),
                      A_eq=np.ones((1, U.shape[1])), b_eq=[1.0], bounds=(0.0, 1.0),
                      method="highs")
        if not res.success:
            continue
        y = np.maximum(res.x, 0.0)
        y = y / y.sum()
        slacks = M @ y
        if slacks.min() >= -tol and slacks.max() > tol:
            return CoreReport(alpha=alpha, violated=True,
                              witness_agents=tuple(members),
                              witness_deviation=Distribution(tuple(float(v) for v in y)))
    return CoreReport(alpha=alpha, violated=False)


# ---------------------------------------------------------------------------
# Oracle: the earlier `_dinkelbach`, kept verbatim but for its name. It read
# its per-alternative entries with np.take_along_axis and picked depths from
# stacked arrays; `_dinkelbach` now selects them with flat `take` and
# `np.choose`. The two must agree exactly, in float and in Fraction mode.
# ---------------------------------------------------------------------------

def parent_dinkelbach(probs: np.ndarray, weights: np.ndarray, profile: PreferenceProfile,
                cls: UtilityClass, one: Number) -> tuple[Number, int, list[tuple[int, bool]]]:
    """sup over a* and vertex profiles u of SW(a*, u)/SW(x, u); returns
    (value, a*, per-ballot (depth, uniform)).

    The one kernel of both modes: `probs` and `weights` are float64 arrays
    with `one` = 1.0, or object arrays of Fraction and int with `one` =
    Fraction(1), and every operation below keeps that type.

    One Dinkelbach ratio iteration shared by every a*: at t, for all a at
    once, g_a(t) = sum_b w_b max_v [A_v(a) - t B_v]; the argmax a* (lowest
    index on ties) and its per-ballot argmax vertices (larger A on ties) give
    the next t = sum w A / sum w B. t rises strictly over the finitely many
    vertex ratios until it stops rising, and the value is the last combo's
    own ratio, so its witness reproduces it.
    """
    use_ind, use_uni = _vertex_depth_values(cls)
    col = profile.rank_matrix() - 1                    # (B, m): 0-based rank of a on b
    prefix = np.cumsum(probs[profile.order_matrix()], axis=1)  # mass of b's top j+1
    rows = np.arange(col.shape[0])
    depths = np.arange(1, profile.m + 1)

    if not prefix[:, 0].any():
        # every top has zero mass: a zero-mass prefix reaching a* has SW(x) = 0
        reach = col < (prefix == 0).sum(axis=1)[:, None]
        a_star = int(np.argmax(reach.any(axis=0)))
        depth = np.where(reach[:, a_star], col[:, a_star] + 1, 1)
        return math.inf, a_star, [(int(d), not use_ind) for d in depth]

    # A vertex whose prefix stops above a (depth < r) has A = 0, so the best
    # one minimises B whatever t is. A ballot's top (r = 1) has none; there
    # the gathers give a depth-1 vertex with A = 0, which the depth-1 vertex
    # with A = 1 beats by 1, so it never wins and needs no mask.
    at_rank = np.take_along_axis(prefix, col, axis=1)  # B of the indicator at depth r
    if use_uni:
        per_depth = prefix / depths                    # B of the uniform vertex at j+1
        low_uni = np.take_along_axis(np.minimum.accumulate(per_depth, axis=1),
                                     np.maximum(col - 1, 0), axis=1)

    t = 0 * one
    best = None
    while True:
        terms = []
        if use_ind:
            terms.append(np.maximum(one - t * at_rank, -t * prefix[:, :1]))
        if use_uni:
            scaled = (one - t * prefix) / depths
            suffix = np.maximum.accumulate(scaled[:, ::-1], axis=1)[:, ::-1]
            terms.append(np.maximum(np.take_along_axis(suffix, col, axis=1), -t * low_uni))
        a_star = int(np.argmax(weights @ np.maximum.reduce(terms)))

        # a*'s per-ballot candidate vertices (value, depth, uniform), in order
        # of non-increasing A so that argmax's first maximum wins ties
        c = col[:, a_star]
        cands = []
        if use_ind:
            cands.append((one - t * at_rank[:, a_star], c + 1, False))
        if use_uni:
            top = suffix[rows, c]
            first = np.argmax((scaled >= top[:, None]) & (depths > c[:, None]), axis=1)
            cands.append((top, first + 1, True))
        if use_ind:
            cands.append((-t * prefix[:, 0], 1, False))
        if use_uni:
            low = low_uni[:, a_star]
            first = np.argmax((per_depth <= low[:, None]) & (depths <= c[:, None]), axis=1)
            cands.append((-t * low, first + 1, True))
        values, depth_opts, uniform_opts = zip(*cands)
        pick = np.argmax(np.stack(values), axis=0)
        depth = np.stack(np.broadcast_arrays(*depth_opts))[pick, rows]
        uniform = np.array(uniform_opts)[pick]

        scale = np.where(uniform, depth, 1)
        ratio = (weights @ (np.where(depth > c, one, 0 * one) / scale)) / (
            weights @ (prefix[rows, depth - 1] / scale))
        if ratio <= t:
            return best
        t = ratio
        best = (ratio, a_star, list(zip(depth.tolist(), uniform.tolist())))


class TestSocialWelfare:
    def test_reference_value(self, x_half, u2):
        assert fv.social_welfare(x_half, u2) == F(23, 24)

    def test_point_mass(self, u2):
        x = fv.Distribution.point_mass(3, 1, exact=True)
        assert fv.social_welfare(x, u2) == sum(row[1] for row in u2.utils)

    def test_all_zero(self):
        u = fv.UtilityProfile(utils=((0, 0),), class_tag=fv.UtilityClass.ALL, weights=(1,))
        assert fv.social_welfare(fv.Distribution((0.5, 0.5)), u) == 0

    def test_weight_aware(self):
        u = fv.UtilityProfile(utils=((1, 0),), class_tag=fv.UtilityClass.APPROVAL, weights=(5,))
        assert fv.social_welfare(fv.Distribution((F(1, 2), F(1, 2))), u) == F(5, 2)


class TestNashWelfare:
    def test_level_witness_uniform(self):
        bundle = fv.gen_nash_lb(4)
        u4 = bundle.witnesses[3].utilities
        x = fv.Distribution.uniform(15, exact=True)
        assert fv.nash_welfare(x, u4) == F(4, 15)

    def test_zero_agent(self):
        u = fv.UtilityProfile(utils=((1, 0), (0, 1)), class_tag=fv.UtilityClass.APPROVAL,
                              weights=(1, 1))
        assert fv.nash_welfare(fv.Distribution((1.0, 0.0)), u) == 0

    def test_identical_agents(self):
        u = fv.UtilityProfile(utils=((F(1, 2), F(1, 2)),) * 3,
                              class_tag=fv.UtilityClass.UNIT_SUM, weights=(1, 1, 1))
        x = fv.Distribution((F(1, 4), F(3, 4)))
        assert fv.nash_welfare(x, u) == F(1, 2)


class TestDistortion:
    def test_unit_sum_reference_exact(self, triad, x_half, u2):
        report = fv.distortion(x_half, triad, fv.UtilityClass.UNIT_SUM)
        assert report.value == F(44, 23)
        assert report.witness_alternative == 1
        assert report.witness_utilities.utils == tuple(tuple(r) for r in u2.utils)

    def test_single_agent_top_mass(self):
        p = fv.parse_profile("1 3\n2 1 3")
        x = fv.Distribution.point_mass(3, 1, exact=True)
        for cls in (fv.UtilityClass.UNIT_SUM, fv.UtilityClass.APPROVAL,
                    fv.UtilityClass.UNIT_RANGE, fv.UtilityClass.BALANCED):
            assert fv.distortion(x, p, cls).value == 1

    def test_rejects_class_all(self, triad, x_half):
        with pytest.raises(ValueError):
            fv.distortion(x_half, triad, fv.UtilityClass.ALL)

    def test_approval_matches_bruteforce_triad(self, triad, x_half):
        report = fv.distortion(x_half, triad, fv.UtilityClass.APPROVAL)
        assert report.value == fv.distortion_bruteforce(x_half, triad, fv.UtilityClass.APPROVAL)

    def test_unit_range_equals_approval(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            p = fv.random_profile(int(rng.integers(1, 4)), int(rng.integers(2, 5)), rng)
            x = random_exact_distribution(p.m, rng)
            for x in (x, float_copy(x)):
                a = fv.distortion(x, p, fv.UtilityClass.APPROVAL).value
                r = fv.distortion(x, p, fv.UtilityClass.UNIT_RANGE).value
                assert a == r

    def test_witness_reproduces_value(self, triad):
        rng = np.random.default_rng(16)
        for _ in range(10):
            x = fv.Distribution(tuple(rng.dirichlet(np.ones(3))))
            for cls in (fv.UtilityClass.UNIT_SUM, fv.UtilityClass.BALANCED):
                report = fv.distortion(x, triad, cls)
                assert float(report.value) == pytest.approx(witness_ratio(x, report), abs=1e-9)

    def test_witness_reproduces_value_at_scale(self):
        rng = np.random.default_rng(26)
        orders = [tuple(int(a) for a in rng.permutation(49)) for _ in range(200)]
        p = fv.from_rankings(orders, weights=[int(w) for w in rng.integers(1, 20, size=200)])
        x = fv.Distribution(tuple(rng.dirichlet(np.ones(49))))
        for cls in DISTORTION_CLASSES:
            report = fv.distortion(x, p, cls)
            assert fv.check_consistency(report.witness_utilities, p)[0]
            assert witness_ratio(x, report) == pytest.approx(report.value, rel=1e-12)

    def test_class_containment_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            p = fv.random_profile(int(rng.integers(1, 4)), int(rng.integers(2, 5)), rng)
            x = random_exact_distribution(p.m, rng)
            balanced = fv.distortion(x, p, fv.UtilityClass.BALANCED).value
            assert fv.distortion(x, p, fv.UtilityClass.UNIT_SUM).value <= balanced
            assert fv.distortion(x, p, fv.UtilityClass.APPROVAL).value <= balanced

    def test_opposite_pair_point_mass(self):
        p = fv.parse_profile("2 2\n1 2\n2 1")
        x = fv.Distribution((F(1), F(0)))
        # the a1-lover always approves a1, so welfare stays positive; the
        # worst case has both agents approving a2
        report = fv.distortion(x, p, fv.UtilityClass.APPROVAL)
        assert report.value == 2
        assert report.witness_alternative == 1

    def test_infinite_distortion_with_witness(self):
        # x avoids the lone agent's top entirely: approving just the top
        # gives zero welfare while a1 still has welfare 1
        p = fv.parse_profile("1 2\n1 2")
        x = fv.Distribution((F(0), F(1)))
        report = fv.distortion(x, p, fv.UtilityClass.APPROVAL)
        assert report.value == math.inf
        assert fv.social_welfare(x, report.witness_utilities) == 0
        assert fv.distortion_bruteforce(x, p, fv.UtilityClass.APPROVAL) == math.inf

    def test_float_matches_exact(self, triad):
        rng = np.random.default_rng(18)
        profiles = [triad] + [fv.random_profile(int(rng.integers(1, 13)),
                                                int(rng.integers(1, 9)), rng)
                              for _ in range(30)]
        for p in profiles:
            x_exact = random_exact_distribution(p.m, rng)
            x_float = float_copy(x_exact)
            for cls in DISTORTION_CLASSES:
                exact = fv.distortion(x_exact, p, cls).value
                approx = fv.distortion(x_float, p, cls).value
                if exact == math.inf:
                    assert approx == math.inf
                else:
                    assert approx == pytest.approx(float(exact), rel=1e-12)

    def test_float_matches_bruteforce(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            p = fv.random_profile(int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng)
            x = fv.Distribution(tuple(rng.dirichlet(np.ones(p.m))))
            for cls in DISTORTION_CLASSES:
                value = fv.distortion(x, p, cls).value
                assert value == pytest.approx(fv.distortion_bruteforce(x, p, cls), rel=1e-12)

    def test_exact_matches_per_a_star_oracle(self):
        """The shared-t kernel on Fraction arrays against the earlier per-a*
        path, past criterion 10's sizes (m up to 10, up to 15 weighted
        ballots): equal values, witnesses that reproduce them exactly, and a
        witness a* that differs only where the per-a* path attains the value
        at it too."""
        rng = np.random.default_rng(29)
        sizes = [(10, 15), (10, 1), (1, 15)] + [
            (int(rng.integers(1, 11)), int(rng.integers(1, 16))) for _ in range(37)]
        for m, ballots in sizes:
            orders = [tuple(int(a) for a in rng.permutation(m)) for _ in range(ballots)]
            p = fv.from_rankings(orders, m=m,
                                 weights=[int(w) for w in rng.integers(1, 4, size=ballots)])
            kind = int(rng.integers(0, 3))
            if kind == 0:
                x = fv.Distribution.point_mass(m, int(rng.integers(0, m)), exact=True)
            else:
                x = random_exact_distribution(m, rng, digits=2 if kind == 1 else 9)
            for cls in DISTORTION_CLASSES:
                report = fv.distortion(x, p, cls)
                oracle = per_a_star_distortion(x, p, cls)
                assert report.value == oracle.value
                u, a_star = report.witness_utilities, report.witness_alternative
                sw_x = fv.social_welfare(x, u)
                sw_star = sum(w * row[a_star] for w, row in zip(u.weights, u.utils))
                if report.value == math.inf:
                    assert sw_x == 0 and sw_star > 0
                else:
                    assert isinstance(report.value, (int, F))
                    assert sw_star / sw_x == report.value
                if a_star != oracle.witness_alternative:
                    assert _distortion_at_exact(x, p, cls, a_star)[0] == report.value

    def test_kernel_matches_earlier_kernel_exactly(self):
        """`_dinkelbach` against its earlier form on a seeded sample (m 2-9,
        n <= 30): the same (value, a*, combo) to the last bit in float mode
        and exactly in Fraction mode, zero-mass and point-mass x included."""
        rng = np.random.default_rng(41)
        classes = (fv.UtilityClass.UNIT_SUM, fv.UtilityClass.APPROVAL,
                   fv.UtilityClass.BALANCED)
        for trial in range(60):
            m, ballots = int(rng.integers(2, 10)), int(rng.integers(1, 16))
            orders = [tuple(int(a) for a in rng.permutation(m)) for _ in range(ballots)]
            p = fv.from_rankings(orders, m=m,
                                 weights=[int(w) for w in rng.integers(1, 3, size=ballots)])
            probs = rng.dirichlet(np.ones(m))
            kind = trial % 4
            if kind == 1:    # some alternatives without mass
                probs[rng.random(m) < 0.5] = 0.0
                if not probs.any():
                    probs[int(rng.integers(0, m))] = 1.0
                probs /= probs.sum()
            elif kind == 2:  # a point mass
                probs = np.eye(m)[int(rng.integers(0, m))]
            elif kind == 3:  # no mass on any ballot's top: the infinite case
                tops = {order[0] for order in orders}
                probs[list(tops)] = 0.0
                if not probs.any():
                    probs = np.full(m, 1.0 / m)
                probs /= probs.sum()
            exact = random_exact_distribution(m, rng, digits=2 if trial % 2 else 9)
            exact_probs = np.array(exact.probs, dtype=object)
            exact_weights = np.array(p.weights, dtype=object)
            for cls in classes:
                args = (probs, p.weight_array(), p, cls, 1.0)
                assert metrics._dinkelbach(*args) == parent_dinkelbach(*args)
                args = (exact_probs, exact_weights, p, cls, F(1))
                assert metrics._dinkelbach(*args) == parent_dinkelbach(*args)

    @pytest.mark.parametrize("text, probs", [
        ("3 3\n1 2 3\n2 1 3\n1 3 2\n", (0.0, 0.5, 0.5)),
        ("3 3\n1 2 3\n2 1 3\n1 3 2\n", (1.0, 0.0, 0.0)),
        ("2 3\n2 1 3\n3 2 1\n", (1.0, 0.0, 0.0)),
        ("2 1\n1\n1\n", (1.0,)),
    ], ids=["zero-mass-top", "point-mass", "infinite", "one-alternative"])
    def test_degenerate_inputs_raise_no_warnings(self, text, probs):
        p = fv.parse_profile(text)
        x = fv.Distribution(probs)
        for cls in DISTORTION_CLASSES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = fv.distortion(x, p, cls)
            assert not math.isnan(report.value)
            assert report.value == pytest.approx(fv.distortion_bruteforce(x, p, cls),
                                                 rel=1e-12)
            if report.value == math.inf:
                assert fv.social_welfare(x, report.witness_utilities) == 0
            else:
                assert witness_ratio(x, report) == pytest.approx(report.value, rel=1e-12)


class TestPFValue:
    def test_reference_values(self, x_half, u1, u2):
        assert fv.pf_value(x_half, u1) == F(11, 9)
        assert fv.pf_value(x_half, u2) == F(19, 9)

    def test_nash_optimum_has_pf_one(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            p = fv.random_profile(int(rng.integers(1, 5)), int(rng.integers(2, 5)), rng)
            u = fv.random_consistent_utilities(p, fv.UtilityClass.APPROVAL, rng)
            y = fv.nash_opt(u)
            assert float(fv.pf_value(y, u)) <= 1 + 1e-6

    def test_single_agent_point_mass(self):
        u = fv.UtilityProfile(utils=((F(1), F(1, 2), F(0)),),
                              class_tag=fv.UtilityClass.UNIT_RANGE, weights=(1,))
        x = fv.Distribution.point_mass(3, 0, exact=True)
        assert fv.pf_value(x, u) == 1

    def test_zero_utility_gives_infinity(self):
        u = fv.UtilityProfile(utils=((0, 1),), class_tag=fv.UtilityClass.APPROVAL, weights=(1,))
        assert fv.pf_value(fv.Distribution((F(1), F(0))), u) == math.inf


class TestPFDistortion:
    def test_reference_value(self, triad, x_half):
        report = fv.pf_distortion(x_half, triad)
        assert report.value == F(19, 9)
        assert report.witness_alternative == 1

    def test_unanimous_point_mass(self):
        p = fv.from_rankings([(1, 0, 2)] * 4)
        x = fv.Distribution.point_mass(3, 1, exact=True)
        assert fv.pf_distortion(x, p).value == 1

    def test_footnote_optimum(self, triad):
        s = math.sqrt(2)
        x = fv.Distribution((2 - s, s - 1, 0.0))
        assert float(fv.pf_distortion(x, triad).value) == pytest.approx(1 + s / 3, abs=1e-12)

    def test_witness_attains_value(self, triad, x_half):
        report = fv.pf_distortion(x_half, triad)
        assert fv.pf_value(x_half, report.witness_utilities) == report.value

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            p = fv.random_profile(int(rng.integers(1, 4)), int(rng.integers(2, 5)), rng)
            x = random_exact_distribution(p.m, rng)
            assert fv.pf_distortion(x, p).value == fv.pf_distortion_bruteforce(x, p)

    def test_convexity_smoke(self):
        rng = np.random.default_rng(21)
        p = fv.random_profile(4, 5, rng)
        for _ in range(50):
            x1 = 0.5 * rng.dirichlet(np.ones(5)) + 0.1
            x2 = 0.5 * rng.dirichlet(np.ones(5)) + 0.1
            x1, x2 = x1 / x1.sum(), x2 / x2.sum()
            lam = float(rng.uniform())
            f = lambda arr: float(fv.pf_distortion(fv.Distribution(tuple(arr)), p).value)
            mix = lam * x1 + (1 - lam) * x2
            assert f(mix / mix.sum()) <= lam * f(x1) + (1 - lam) * f(x2) + 1e-12

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
    def test_zero_mass_gives_infinite_payoff(self, zero):
        from fairvote.optimize import _PFObjective

        p = fv.parse_profile("2 2\n1 2\n2 1\n")
        x = fv.Distribution((zero, 1.0))
        assert fv.pf_payoffs(x, p)[0] == math.inf
        assert fv.pf_distortion(x, p).value == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _PFObjective(p).payoffs(x.as_array())[0] == math.inf


class TestLazyWitness:
    """`distortion` and `pf_distortion` keep the witness as per-ballot arrays
    and build its UtilityProfile on first read. The report must read, compare,
    hash and print as the one built with the rows at once (`eager_report`)."""

    @staticmethod
    def eager_report(x, p, cls):
        """The report as built before: the witness rows built at once by
        `_witness_from_combo`; cls None is `pf_distortion`."""
        exact = x.exact
        if cls is None:
            payoffs = fv.pf_payoffs(x, p)
            a_star = payoffs.index(max(payoffs))
            combo = [(order.index(a_star) + 1, False) for order in p.orders]
            witness = _witness_from_combo(p, combo, UtilityClass.APPROVAL, exact)
            return DistortionReport(payoffs[a_star], UtilityClass.ALL, a_star, witness)
        entry = metrics._distortion_at_exact if exact else metrics._distortion_float
        value, a_star, combo = entry(x, p, cls)
        witness = _witness_from_combo(p, combo, cls, exact)
        if exact and value != math.inf:
            sw_x = social_welfare(x, witness)
            value = math.inf if sw_x == 0 else _witness_ratio(witness, a_star, sw_x)
        return DistortionReport(value, cls, a_star, witness)

    @staticmethod
    def lazy_report(x, p, cls):
        return fv.pf_distortion(x, p) if cls is None else fv.distortion(x, p, cls)

    def test_same_witness_equality_hash_and_repr(self):
        rng = np.random.default_rng(59)
        for trial in range(40):
            m, ballots = int(rng.integers(1, 10)), int(rng.integers(1, 9))
            orders = [tuple(int(a) for a in rng.permutation(m)) for _ in range(ballots)]
            p = fv.from_rankings(orders, m=m,
                                 weights=[int(w) for w in rng.integers(1, 4, size=ballots)])
            exact = random_exact_distribution(m, rng, digits=2 if trial % 3 else 9)
            for x in (exact, float_copy(exact)):
                for cls in DISTORTION_CLASSES + (None,):
                    eager = self.eager_report(x, p, cls)
                    lazy = self.lazy_report(x, p, cls)
                    assert lazy.vertex_witness is not None
                    assert lazy == eager and eager == lazy  # the first read is ==
                    assert hash(self.lazy_report(x, p, cls)) == hash(eager)
                    assert repr(self.lazy_report(x, p, cls)) == repr(eager)
                    u, v = lazy.witness_utilities, eager.witness_utilities
                    assert u.utils == v.utils and u.class_tag is v.class_tag
                    assert u.weights == v.weights
                    assert [type(e) for row in u.utils for e in row] == [
                        type(e) for row in v.utils for e in row]
                    assert type(lazy.value) is type(eager.value)
                    assert (lazy.vertex_witness.as_array().tobytes()
                            == v.as_array().tobytes())
                    assert lazy.witness_utilities is u  # built once

    def test_equality_between_reports_as_before(self, triad):
        xs = [fv.Distribution((F(1, 2), F(1, 4), F(1, 4))), fv.Distribution((0.5, 0.25, 0.25)),
              fv.Distribution((F(1, 3),) * 3), fv.Distribution((1.0, 0.0, 0.0)),
              fv.Distribution((0.0, 0.0, 1.0))]
        cases = [(x, cls) for x in xs for cls in DISTORTION_CLASSES + (None,)]
        cases += cases[:7]  # the same inputs twice
        eager = [self.eager_report(x, triad, cls) for x, cls in cases]
        for i, (x_i, cls_i) in enumerate(cases):
            for j, (x_j, cls_j) in enumerate(cases):
                lazy_i = self.lazy_report(x_i, triad, cls_i)
                lazy_j = self.lazy_report(x_j, triad, cls_j)
                assert (lazy_i == lazy_j) == (eager[i] == eager[j])
                if eager[i] == eager[j]:
                    assert hash(lazy_i) == hash(lazy_j)
        lazy = [self.lazy_report(x, triad, cls) for x, cls in cases]
        assert len(set(lazy)) == len(set(eager)) < len(cases)

    def test_still_a_frozen_dataclass(self, triad, x_half):
        report = fv.distortion(x_half, triad, fv.UtilityClass.BALANCED)
        assert [f.name for f in dataclasses.fields(report)] == [
            "value", "utility_class", "witness_alternative", "witness_utilities",
            "witness_deviation"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.witness_utilities = None
        copy = dataclasses.replace(report, value=F(7))
        assert copy.witness_utilities == report.witness_utilities
        assert copy.vertex_witness is None  # given the built profile
        with pytest.raises(TypeError):
            DistortionReport(F(1), fv.UtilityClass.BALANCED, 0)  # the witness has no default
        nash = fv.nash_distortion_smallscale(float_copy(x_half), triad)
        assert nash.vertex_witness is None and nash.witness_utilities is not None


class TestNashOpt:
    def test_single_agent(self):
        u = fv.UtilityProfile(utils=((0.2, 0.9, 0.1),), class_tag=fv.UtilityClass.ALL,
                              weights=(1,))
        y = fv.nash_opt(u)
        assert y.probs[1] == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_approvals(self):
        u = fv.UtilityProfile(utils=((1, 0), (0, 1)), class_tag=fv.UtilityClass.APPROVAL,
                              weights=(1, 1))
        y = fv.nash_opt(u)
        assert y.probs == pytest.approx((0.5, 0.5), abs=1e-6)

    def test_core_example(self):
        u = fv.UtilityProfile(utils=((1, 0, 0), (0, 1, 0), (1, 0, 0)),
                              class_tag=fv.UtilityClass.APPROVAL, weights=(1, 1, 1))
        y = fv.nash_opt(u)
        assert y.probs == pytest.approx((2 / 3, 1 / 3, 0.0), abs=1e-5)

    def test_requires_positive_utility(self):
        u = fv.UtilityProfile(utils=((0, 0),), class_tag=fv.UtilityClass.ALL, weights=(1,))
        with pytest.raises(ValueError):
            fv.nash_opt(u)


class TestNashDistortion:
    def test_unanimous_point_mass(self):
        p = fv.from_rankings([(0, 1, 2)] * 2)
        x = fv.Distribution.point_mass(3, 0)
        assert fv.nash_distortion_smallscale(x, p).value == pytest.approx(1.0, abs=1e-6)

    def test_sandwich_on_triad(self, triad, x_half_float):
        report = fv.nash_distortion_smallscale(x_half_float, triad)
        pf = float(fv.pf_distortion(x_half_float, triad).value)
        assert 1 - 1e-9 <= report.value <= pf + 1e-9

    def test_single_agent_equals_pf_distortion(self):
        p = fv.parse_profile("1 4\n3 1 4 2")
        rng = np.random.default_rng(22)
        for _ in range(5):
            x = fv.Distribution(tuple(rng.dirichlet(np.ones(4))))
            nd = fv.nash_distortion_smallscale(x, p).value
            pf = float(fv.pf_distortion(x, p).value)
            assert nd == pytest.approx(pf, rel=1e-6)

    def test_scale_refusal(self):
        p = fv.random_profile(12, 6, np.random.default_rng(1))
        with pytest.raises(OracleScaleError):
            fv.nash_distortion_smallscale(fv.Distribution.uniform(6), p)


class TestCoreCheck:
    @pytest.fixture()
    def top_approvals(self):
        return fv.UtilityProfile(utils=((1, 0, 0), (0, 1, 0), (1, 0, 0)),
                                 class_tag=fv.UtilityClass.APPROVAL, weights=(1, 1, 1))

    @pytest.fixture()
    def x_core(self):
        return fv.Distribution((F(2, 3), F(1, 3), F(0)))

    def test_unique_one_core_point(self, top_approvals, x_core):
        assert not fv.core_check(x_core, top_approvals, 1.0).violated

    def test_indifferent_agent_breaks_it(self, x_core):
        u = fv.UtilityProfile(utils=((1, 0, 0), (1, 1, 1), (1, 0, 0)),
                              class_tag=fv.UtilityClass.ALL, weights=(1, 1, 1))
        report = fv.core_check(x_core, u, 1.0)
        assert report.violated
        assert report.witness_agents == (0, 1, 2)
        assert report.witness_deviation.probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_huge_alpha_never_violates(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = fv.random_profile(int(rng.integers(1, 5)), int(rng.integers(2, 5)), rng)
            u = fv.random_consistent_utilities(p, fv.UtilityClass.UNIT_SUM, rng)
            x = fv.Distribution(tuple(rng.dirichlet(np.ones(p.m)) * 0.5 + 0.5 / p.m))
            assert not fv.core_check(x, u, 10.0 * p.m).violated

    def test_witness_satisfies_definition(self, x_core):
        u = fv.UtilityProfile(utils=((1, 0, 0), (1, 1, 1), (1, 0, 0)),
                              class_tag=fv.UtilityClass.ALL, weights=(1, 1, 1))
        report = fv.core_check(x_core, u, 1.0)
        share = len(report.witness_agents) / 3
        strict = 0
        for b in report.witness_agents:
            lhs = share * sum(float(v) * float(q) for v, q
                              in zip(u.utils[b], report.witness_deviation.probs))
            rhs = float(sum(v * q for v, q in zip(u.utils[b], x_core.probs)))
            assert lhs >= rhs - 1e-9
            strict += lhs > rhs + 1e-9
        assert strict >= 1

    def test_dimension_mismatch_raises(self, top_approvals):
        # utilities over 3 alternatives against a 2-alternative distribution
        with pytest.raises(ValueError, match="dimension"):
            fv.core_check(fv.Distribution((F(1, 2), F(1, 2))), top_approvals, 1.0)

    def test_scale_guard(self):
        p = fv.random_profile(21, 3, np.random.default_rng(2))
        u = fv.random_consistent_utilities(p, fv.UtilityClass.APPROVAL,
                                           np.random.default_rng(3))
        with pytest.raises(ValueError):
            fv.core_check(fv.Distribution.uniform(3), u, 1.0)


    def test_matches_the_mwu_screened_check(self):
        # same verdicts, witness coalitions and deviations, bit for bit
        rng = np.random.default_rng(26)
        classes = (fv.UtilityClass.UNIT_SUM, fv.UtilityClass.UNIT_RANGE,
                   fv.UtilityClass.APPROVAL)
        verdicts = []
        for trial in range(240):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            p = fv.random_profile(n, m, rng)
            u = fv.random_consistent_utilities(p, classes[trial % 3], rng)
            if trial % 4 == 0:  # a uniform lottery over some alternatives
                support = rng.permutation(m)[:int(rng.integers(1, m + 1))]
                x = fv.Distribution(tuple(1.0 / len(support) if a in support else 0.0
                                          for a in range(m)))
            else:
                x = fv.Distribution(tuple(rng.dirichlet(np.ones(m))))
            alpha = float(rng.uniform(0.5, 1.5))
            new, old = fv.core_check(x, u, alpha), mwu_screened_core_check(x, u, alpha)
            assert new.violated == old.violated
            assert new.witness_agents == old.witness_agents
            assert new.witness_deviation == old.witness_deviation
            verdicts.append(new.violated)
        assert 0.2 < np.mean(verdicts) < 0.8

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
    def test_alpha_must_be_finite_and_nonnegative(self, top_approvals, x_core, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            fv.core_check(x_core, top_approvals, alpha)

    def test_zero_alpha_is_accepted(self, top_approvals, x_core):
        # any coalition gains by deviating to its own favourite
        assert fv.core_check(x_core, top_approvals, 0.0).violated

    def test_lp_failure_is_a_certification_error(self, top_approvals, monkeypatch):
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            return SimpleNamespace(status=4, success=False, x=None,
                                   message="numerical difficulties")

        monkeypatch.setattr(metrics, "linprog", failing)
        with pytest.raises(fv.CertificationError, match="status 4"):
            fv.core_check(fv.Distribution.uniform(3), top_approvals, 1.0)
        assert calls == [1]

    def test_infeasible_lp_means_no_deviation(self, top_approvals, monkeypatch):
        calls = []

        def infeasible(*args, **kwargs):
            calls.append(1)
            return SimpleNamespace(status=2, success=False, x=None, message="infeasible")

        monkeypatch.setattr(metrics, "linprog", infeasible)
        assert not fv.core_check(fv.Distribution.uniform(3), top_approvals, 1.0).violated
        assert calls


def core_coalition_matrices(rng, instances: int):
    """Every coalition's payoff matrix M, built as core_check builds it, on
    random unit-sum, unit-range and approval instances (n, m in [2, 6] x
    [2, 5]); alpha is 0 on every tenth instance, else in [0.5, 1.5]."""
    classes = (fv.UtilityClass.UNIT_SUM, fv.UtilityClass.UNIT_RANGE,
               fv.UtilityClass.APPROVAL)
    for trial in range(instances):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        p = fv.random_profile(n, m, rng)
        u = fv.random_consistent_utilities(p, classes[trial % 3], rng)
        if trial % 4 == 0:  # a uniform lottery over some alternatives
            support = rng.permutation(m)[:int(rng.integers(1, m + 1))]
            x = fv.Distribution(tuple(1.0 / len(support) if a in support else 0.0
                                      for a in range(m)))
        else:
            x = fv.Distribution(tuple(rng.dirichlet(np.ones(m))))
        alpha = 0.0 if trial % 10 == 0 else float(rng.uniform(0.5, 1.5))
        U = u.as_array()
        c = np.array([float(e) for e in u.expected(x)])
        block_w = np.asarray(u.weights, dtype=np.float64)
        for mask in range(1, 1 << u.num_ballots):
            members = [b for b in range(u.num_ballots) if mask >> b & 1]
            W = float(block_w[members].sum())
            yield (W / float(u.n)) * U[members] - alpha * c[members][:, None]


def scipy_core_lp(M: np.ndarray):
    """The coalition LP through scipy's public linprog front end."""
    from scipy.optimize import linprog

    k, m = M.shape
    return linprog(c=-(M.sum(0)), A_ub=-M, b_ub=np.zeros(k), A_eq=np.ones((1, m)),
                   b_eq=[1.0], bounds=(0.0, 1.0), method="highs")


def highs_options_with(**settings):
    """A fresh copy of metrics' HiGHS options with some settings changed."""
    options = metrics._highs_options.__wrapped__()
    for name, value in settings.items():
        setattr(options, name, value)
    return options


class TestCoreLP:
    """`metrics.linprog` calls HiGHS directly; scipy's `linprog` is the reference."""

    def test_matches_scipy_linprog(self):
        # same status and the same vertex, bit for bit; this also catches
        # drift in scipy's private HiGHS module or in linprog's defaults
        rng = np.random.default_rng(27)
        matrices = list(core_coalition_matrices(rng, 100))
        for _ in range(200):  # larger ones, with exact zeros
            k, m = int(rng.integers(1, 13)), int(rng.integers(2, 50))
            M = rng.uniform(-1.0, 1.0, (k, m)) * (rng.random((k, m)) < 0.7)
            matrices.append(M - float(rng.uniform(0.0, 0.6)) * (rng.random((k, 1)) < 0.5))
        statuses = []
        for M in matrices:
            new, ref = metrics.linprog(M), scipy_core_lp(M)
            assert new.status == ref.status and new.success == ref.success
            if ref.x is None:
                assert new.x is None
            else:
                assert new.x.tobytes() == ref.x.tobytes()
            statuses.append(new.status)
        assert len(matrices) >= 2200
        assert 0.1 < np.mean(np.equal(statuses, 2)) < 0.9
        assert set(statuses) == {0, 2}

    def test_non_finite_matrix_is_refused(self, monkeypatch):
        def unreachable():
            raise AssertionError("HiGHS was called")

        monkeypatch.setattr(metrics, "_highs_options", unreachable)
        for bad in (math.nan, math.inf, -math.inf):
            M = np.array([[0.5, -0.2, 0.1], [0.1, bad, -0.3]])
            res = metrics.linprog(M)
            assert (res.status, res.success, res.x) == (4, False, None)
            assert "not finite" in res.message

    def test_limit_status_is_a_failure(self, monkeypatch):
        M = np.array([[0.5, -0.2, 0.1], [-0.1, 0.4, -0.3]])
        options = highs_options_with(presolve="off", simplex_iteration_limit=0)
        monkeypatch.setattr(metrics, "_highs_options", lambda: options)
        res = metrics.linprog(M)
        assert (res.status, res.success, res.x) == (1, False, None)
        assert res.message == "Iteration limit reached"

    def test_model_error_is_not_infeasible(self, monkeypatch):
        # scipy's front end reads kModelError as status 2, "infeasible"; here
        # it is a failure, so core_check cannot take it for "no deviation"
        options = highs_options_with(simplex_strategy=99)
        monkeypatch.setattr(metrics, "_highs_options", lambda: options)
        res = metrics.linprog(np.array([[0.5, -0.2, 0.1]]))
        assert (res.status, res.success, res.x) == (4, False, None)
        assert res.message == "Model error"
        u = fv.UtilityProfile(utils=((1, 0, 0), (0, 1, 0), (1, 0, 0)),
                              class_tag=fv.UtilityClass.APPROVAL, weights=(1, 1, 1))
        with pytest.raises(fv.CertificationError, match="status 4.*Model error"):
            fv.core_check(fv.Distribution.uniform(3), u, 1.0)

    @pytest.mark.parametrize("drift", ["x_negative", "x_nan", "row_violated", "sum_off"])
    def test_post_solve_check(self, drift, monkeypatch):
        from scipy.optimize._highspy import _core as highs

        class Drifting(highs._Highs):
            def getSolution(self):
                solution = super().getSolution()
                x, row = list(solution.col_value), list(solution.row_value)
                if drift == "x_negative":
                    x[0] = -1e-3
                elif drift == "x_nan":
                    x[0] = math.nan
                elif drift == "row_violated":
                    row[0] = 1e-3
                else:
                    row[-1] += 1e-3
                return SimpleNamespace(col_value=x, row_value=row)

        M = np.array([[0.5, -0.2, 0.1], [-0.1, 0.4, -0.3]])
        assert metrics.linprog(M).success
        monkeypatch.setattr(highs, "_Highs", Drifting)
        res = metrics.linprog(M)
        assert (res.status, res.success, res.x) == (4, False, None)
        assert "misses the constraints" in res.message


class TestCoreLPSolverReuse:
    def test_one_solver_in_sequence_matches_fresh_solvers(self):
        # the matrices of TestCoreLP.test_matches_scipy_linprog, in order
        rng = np.random.default_rng(27)
        matrices = list(core_coalition_matrices(rng, 100))
        for _ in range(200):
            k, m = int(rng.integers(1, 13)), int(rng.integers(2, 50))
            M = rng.uniform(-1.0, 1.0, (k, m)) * (rng.random((k, m)) < 0.7)
            matrices.append(M - float(rng.uniform(0.0, 0.6)) * (rng.random((k, 1)) < 0.5))
        solver = metrics._highs()._Highs()
        statuses = []
        for M in matrices:
            reused, fresh = metrics.linprog(M, solver), metrics.linprog(M)
            assert (reused.status, reused.success) == (fresh.status, fresh.success)
            if fresh.x is None:
                assert reused.x is None
            else:
                assert reused.x.tobytes() == fresh.x.tobytes()
            statuses.append(reused.status)
        assert len(matrices) >= 2200 and set(statuses) == {0, 2}

    def test_core_check_makes_one_solver(self, monkeypatch):
        highs = metrics._highs()
        made, used = [], []

        class Counted(highs._Highs):
            def __init__(self):
                super().__init__()
                made.append(self)

        solve = metrics.linprog
        monkeypatch.setattr(highs, "_Highs", Counted)
        monkeypatch.setattr(metrics, "linprog",
                            lambda M, solver=None: used.append(solver) or solve(M, solver))
        rng = np.random.default_rng(28)
        lps = 0
        for _ in range(20):
            u = fv.UtilityProfile(utils=tuple(tuple(rng.dirichlet(np.ones(4))) for _ in range(4)),
                                  class_tag=fv.UtilityClass.UNIT_SUM, weights=(1, 1, 1, 1))
            made.clear()
            used.clear()
            fv.core_check(fv.Distribution.uniform(4), u, 1.0)
            assert len(made) == (1 if used else 0)
            assert all(solver is made[0] for solver in used)
            lps += len(used)
        assert lps > 20


class TestCrossMetricLinks:
    def test_prop_nash_below_pf(self):
        rng = np.random.default_rng(24)
        for _ in range(8):
            p = fv.random_profile(int(rng.integers(1, 4)), int(rng.integers(2, 5)), rng)
            x = fv.Distribution(tuple(rng.dirichlet(np.ones(p.m)) * 0.6 + 0.4 / p.m))
            nd = fv.nash_distortion_smallscale(x, p).value
            pf = float(fv.pf_distortion(x, p).value)
            assert nd <= pf + 1e-9

    def test_prop_pf_bound_implies_core(self):
        rng = np.random.default_rng(25)
        for _ in range(8):
            p = fv.random_profile(int(rng.integers(2, 5)), int(rng.integers(2, 5)), rng)
            x = fv.Distribution(tuple(rng.dirichlet(np.ones(p.m)) * 0.6 + 0.4 / p.m))
            alpha = float(fv.pf_distortion(x, p).value)
            for depths in itertools.product(range(1, p.m + 1), repeat=p.num_ballots):
                rows = tuple(fv.profiles.prefix_utility_row(order, d, p.m)
                             for order, d in zip(p.orders, depths))
                u = fv.UtilityProfile(utils=rows, class_tag=fv.UtilityClass.APPROVAL,
                                      weights=p.weights)
                assert not fv.core_check(x, u, alpha + 1e-7).violated
