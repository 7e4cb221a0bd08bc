"""Instance-optimal proportional fairness by a barrier method, plus a
guarded projected-subgradient optimizer for utilitarian distortion.

`optimize_pf` minimizes max_a g_a(x), g_a(x) = (1/n) sum_b w_b / H_ab(x),
over the floored simplex {x(a) >= p_a / beta} through its epigraph: the
constraints r_ab H_ab(x) >= 1 are rotated second-order cones (Lobo,
Vandenberghe, Boyd & Lebret, Linear Algebra Appl. 284, 1998), so the log
barrier is self-concordant (Nesterov & Nemirovskii, 1994) and damped Newton
steps follow the central path. Its result is certified by a closed-form lower
bound that holds for any weights on the alternatives, so the proven gap needs
no trust in the solver. `iterations` counts Newton steps; `certified` means
the proven gap is at most epsilon.

`optimize_distortion` runs projected subgradient descent over a
lower-bounded simplex: projection substitutes x = lb + w and water-fills w
onto the scaled simplex, so region constraints hold exactly at every
iterate. Each iterate is evaluated once: its value comes with the distortion
report that the subgradient reads. Steps are adaptive (AdaGrad-norm),
followed by a restarted Polyak refinement that handles the kinks where this
piecewise objective attains its minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .metrics import DistortionReport, distortion, pf_payoffs_of_masses
from .profiles import (CertificationError, Distribution, PreferenceProfile, UtilityClass,
                       prefix_mass_matrix)
from .simplex import project_to_scaled_simplex

DIAMETER = math.sqrt(2.0)  # upper bound on distances within the simplex


@dataclass(frozen=True)
class FeasibleRegion:
    """{x in simplex : x(a) >= lower_bounds(a)}; nonempty iff the floors sum
    to at most 1."""

    lower_bounds: tuple[float, ...]

    def __post_init__(self):
        if any(b < 0 for b in self.lower_bounds):
            raise ValueError("lower bounds must be nonnegative")
        if sum(self.lower_bounds) > 1.0 + 1e-12:
            raise ValueError("empty region: lower bounds sum beyond 1")
        lb = np.asarray(self.lower_bounds)  # floors and slack, read by every projection
        lb.flags.writeable = False
        object.__setattr__(self, "_lb", lb)
        object.__setattr__(self, "_slack", max(1.0 - float(lb.sum()), 0.0))

    @property
    def m(self) -> int:
        return len(self.lower_bounds)


def pf_bound(m: int) -> float:
    """Worst-case proportional-fairness guarantee 2(1 + ln(2m))."""
    return 2.0 * (1.0 + math.log(2 * m))


def pf_region(profile: PreferenceProfile) -> FeasibleRegion:
    """Floors p_a / beta with p_a the top-choice fraction; the instance-optimal
    distribution always lies inside."""
    beta = pf_bound(profile.m)
    return FeasibleRegion(tuple(p / beta for p in profile.top_fractions()))


def guarded_region(m: int, guard: float) -> FeasibleRegion:
    if not 0.0 < guard < 0.5:
        raise ValueError("guard must lie in (0, 1/2)")
    return FeasibleRegion((guard / m,) * m)


def project(v: np.ndarray, region: FeasibleRegion) -> Distribution:
    """Euclidean projection onto the region (exact feasibility by construction)."""
    x = _project_array(np.asarray(v, dtype=np.float64), region)
    return Distribution(tuple(float(p) for p in x))


def _project_array(v: np.ndarray, region: FeasibleRegion) -> np.ndarray:
    lb = region._lb
    return lb + project_to_scaled_simplex(v - lb, region._slack)


# ---------------------------------------------------------------------------
# proportional fairness objective on raw arrays
# ---------------------------------------------------------------------------

class _PFObjective:
    def __init__(self, profile: PreferenceProfile):
        self.profile = profile
        self.n = float(profile.n)
        self.weights = profile.weight_array()
        ranks = profile.rank_matrix()  # above[a][b, a'] is True iff b ranks a' weakly above a
        self.above = ranks[None, :, :] <= ranks.T[:, :, None]

    def prefix_masses(self, x: np.ndarray) -> np.ndarray:
        return prefix_mass_matrix(x, self.profile)

    def payoffs(self, x: np.ndarray, H: Optional[np.ndarray] = None) -> np.ndarray:
        if H is None:
            H = self.prefix_masses(x)
        return pf_payoffs_of_masses(H, self.weights, self.n)

    def subgradient(self, a_star: int, H: np.ndarray) -> np.ndarray:
        coeff = self.weights / (self.n * H[:, a_star] ** 2)
        return -(coeff @ self.above[a_star])


def pf_subgradient(x: Distribution, profile: PreferenceProfile,
                   a_star: Optional[int] = None) -> np.ndarray:
    """A subgradient of x -> max_a payoff(x, a): the gradient of payoff(., a*)
    at the (lowest-index) argmax; component a' collects
    -(1/n) sum over agents ranking a' weakly above a* of 1/x(h_i(a*))^2."""
    obj = _PFObjective(profile)
    arr = x.as_array()
    H = obj.prefix_masses(arr)
    if a_star is None:
        a_star = int(np.argmax(obj.payoffs(arr, H)))
    if H[:, a_star].min() <= 0.0:
        raise ValueError("zero prefix mass at the argmax alternative")
    return obj.subgradient(a_star, H)


def _pf_lower_bound(obj: _PFObjective, region: FeasibleRegion, x: np.ndarray,
                    mu: np.ndarray) -> float:
    """L = mu.g(x) + min over the region of G.(y - x) with G = sum_a mu_a
    grad g_a(x), for payoffs g_a and weights mu >= 0 scaled onto the simplex.
    Each g_a is convex, so max_a g_a(y) >= mu.g(y) >= L at every y of the
    region: L bounds the optimum from below whatever produced x and mu."""
    mu = mu / mu.sum()
    H = obj.prefix_masses(x)
    G = sum(float(mu[a]) * obj.subgradient(a, H) for a in range(x.size))
    return (float(mu @ obj.payoffs(x, H)) + float(region._lb @ G)
            + region._slack * float(G.min()) - float(G @ x))


@dataclass
class OptimizationResult:
    """`lower_bound` is a proven lower bound on the optimum (`optimize_pf`)."""

    distribution: Distribution
    value: float
    iterations: int
    certified: bool
    lower_bound: Optional[float] = None


def _subgradient_minimize(value_argmax: Callable[[np.ndarray], tuple[float, object]],
                          subgrad: Callable[[np.ndarray, object], np.ndarray],
                          region: FeasibleRegion, x0: np.ndarray, epsilon: float,
                          max_iters: int) -> tuple[np.ndarray, float, int, bool]:
    """Projected subgradient loop. Returns the best visited iterate and its
    evaluated value (never an unevaluated average). `certified` is set only
    when the adaptive regret bound 1.5 D sqrt(sum ||g||^2) / t fell below
    epsilon."""
    x = x0.copy()
    f, tag = value_argmax(x)
    best_f, best_x = f, x.copy()
    sq_norm_sum = 0.0
    iters = 0
    certified = False

    # Phase A: AdaGrad-norm steps make global progress from arbitrary starts.
    phase_a = min(max_iters, 2000)
    while iters < phase_a:
        g = subgrad(x, tag)
        gn2 = float(g @ g)
        if gn2 == 0.0:
            certified = True
            break
        sq_norm_sum += gn2
        x = _project_array(x - (DIAMETER / math.sqrt(sq_norm_sum)) * g, region)
        f, tag = value_argmax(x)
        iters += 1
        if f < best_f:
            best_f, best_x = f, x.copy()
        if 1.5 * DIAMETER * math.sqrt(sq_norm_sum) / iters <= epsilon:
            certified = True
            break

    # Phase B: restarted Polyak targeting best - delta; delta halves on stall.
    if not certified and iters < max_iters:
        x = best_x.copy()
        f, tag = value_argmax(x)
        delta = max(epsilon, 0.05 * max(best_f, 1.0))
        stall_window = 60
        since_progress = 0
        anchor = best_f
        while iters < max_iters and delta > epsilon / 8.0:
            g = subgrad(x, tag)
            gn2 = float(g @ g)
            if gn2 == 0.0:
                certified = True
                break
            step = (f - (best_f - delta)) / gn2
            if step <= 0.0:
                step = delta / gn2
            x = _project_array(x - step * g, region)
            f, tag = value_argmax(x)
            iters += 1
            if f < best_f:
                best_f, best_x = f, x.copy()
            if anchor - best_f >= delta / 4.0:
                anchor = best_f
                since_progress = 0
            else:
                since_progress += 1
                if since_progress >= stall_window:
                    delta *= 0.5
                    since_progress = 0
                    x = best_x.copy()
                    f, tag = value_argmax(x)
    return best_x, best_f, iters, certified


def _barrier_minimize(obj: _PFObjective, region: FeasibleRegion, x0: np.ndarray,
                      epsilon: float, max_iters: int
                      ) -> tuple[np.ndarray, float, int, bool, Optional[float]]:
    """Barrier method for min_x max_a g_a(x) over the region, g_a the payoffs.

    Epigraph: min t s.t. s_a = n t - w.r_a >= 0, q_ab = r_ab H_ab(x) - 1 >= 0,
    d = x - lb >= 0, sum(x) = 1. Each r_ab H_ab >= 1 is a rotated second-order
    cone, so phi = tau t - sum log s - sum log q - sum log d is self-concordant.
    A damped Newton step eliminates alternative a's r block
    diag(H_a^2/q_a^2) + w w^T/s_a^2 by Sherman-Morrison and solves one
    (m + 2)-square KKT system in (t, x, nu); backtracking keeps phi falling
    and every slack above a tenth of itself. After each stage (tau x10
    between stages) the stage point, or its floor snap if that is no worse,
    is evaluated and `_pf_lower_bound` with mu_a ~ 1/s_a bounds the optimum.
    Returns the best evaluated point (x0 first), its value, the Newton steps
    taken, whether the proven gap met epsilon, and the best lower bound
    (None if no stage ran)."""
    lb, slack = region._lb, region._slack
    n, w = obj.n, obj.weights
    m, B = lb.size, w.size
    A3 = obj.above.astype(np.float64)
    A = A3.reshape(m * B, m)  # row a*B + b selects the alternatives summed in H_ab

    best_x, best_f = x0, float(obj.payoffs(x0).max())
    if max_iters == 0:
        return best_x, best_f, 0, False, None

    def slacks(t: float, r: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
        return n * t - r @ w, r * (A @ x).reshape(m, B) - 1.0, x - lb

    def phi(t: float, s: np.ndarray, q: np.ndarray, d: np.ndarray) -> float:
        return tau * t - np.log(s).sum() - np.log(q).sum() - np.log(d).sum()

    # interior start halfway to the analytic centre, with (t, r) centred for
    # it: r_ab = 1/H_ab + s_a/w_b and s_a = n (t - g_a)/(B + 1)
    x = 0.5 * (x0 + lb) + 0.5 * slack / m
    H = (A @ x).reshape(m, B)
    g = (1.0 / H) @ w / n
    tau = m * (B + 2.0) / float(g.max())  # barrier parameter over the start's value
    t = float(g.max()) + m * (B + 1.0) / tau
    r = 1.0 / H + (n * (t - g) / (B + 1.0))[:, None] / w

    K = np.zeros((m + 2, m + 2))
    K[m + 1, 1:m + 1] = K[1:m + 1, m + 1] = 1.0
    rhs = np.zeros(m + 2)
    lower, gap, iters, stalled = -math.inf, math.inf, 0, False
    while True:
        while iters < max_iters:  # centre for this tau
            H = (A @ x).reshape(m, B)
            s, q, d = slacks(t, r, x)
            Hi2 = 1.0 / (H * H)
            g_t = tau - n * (1.0 / s).sum()
            g_r = w / s[:, None] - H / q
            g_x = -(A.T @ (r / q).ravel()) - 1.0 / d
            # r block inverse: diag(Dinv) - u u^T gamma_a^-1 per alternative
            Dinv = q * q * Hi2
            u = w * Dinv
            gi = 1.0 / (s * s + u @ w)
            ug = (u * g_r).sum(axis=1) * gi
            V = np.matmul((w * Hi2)[:, None, :], A3)[:, 0, :]  # V[a] = -n grad g_a
            K[0, 0] = n * n * gi.sum()
            K[0, 1:m + 1] = K[1:m + 1, 0] = n * (gi @ V)
            K[1:m + 1, 1:m + 1] = ((A.T * ((r * H + 1.0) * Hi2 / q).ravel()) @ A
                                   + np.diag(1.0 / (d * d)) + (V.T * gi) @ V)
            rhs[0] = -(g_t + n * ug.sum())
            rhs[1:m + 1] = A.T @ (1.0 / H + w * Hi2 / s[:, None]).ravel() + 1.0 / d - ug @ V
            try:
                step = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                stalled = True
                break
            dt, dx = step[0], step[1:m + 1]
            dH = (A @ dx).reshape(m, B)
            rr = -g_r + (n * dt) * w / (s * s)[:, None] - dH / (q * q)
            dr = Dinv * rr - u * ((u * rr).sum(axis=1) * gi)[:, None]
            lam2 = -(g_t * dt + g_x @ dx + (g_r * dr).sum())  # Newton decrement squared
            iters += 1
            f0, alpha = phi(t, s, q, d), 1.0
            while alpha >= 1e-12:
                trial = t + alpha * dt, r + alpha * dr, x + alpha * dx
                s1, q1, d1 = slacks(*trial)
                # no slack falls to a tenth of itself in one step, so none
                # jams against its boundary
                if (s1 > 0.1 * s).all() and (q1 > 0.1 * q).all() and (d1 > 0.1 * d).all():
                    f1 = phi(trial[0], s1, q1, d1)
                    # full steps in the quadratic region, where late stages'
                    # decreases fall below what phi resolves
                    if lam2 <= 0.1 or (f1 <= f0 - 0.25 * alpha * lam2 and f1 < f0):
                        break
                alpha *= 0.5
            else:  # phi no longer resolves the step
                stalled = True
                break
            t, r, x = trial
            if lam2 <= 1e-3:
                break

        d = x - lb
        point = lb + d * (slack / d.sum())
        f = float(obj.payoffs(point).max())
        small = d <= 1e-3 * d.max()
        if small.any():
            snap = lb + np.where(small, 0.0, d) * (slack / d[~small].sum())
            f_snap = float(obj.payoffs(snap).max())
            if f_snap <= f:
                point, f = snap, f_snap
        if f < best_f:
            best_x, best_f = point, f
        stage_lower = _pf_lower_bound(obj, region, point, 1.0 / slacks(t, r, x)[0])
        lower = max(lower, stage_lower)
        if best_f - lower <= epsilon:
            return best_x, best_f, iters, True, lower
        # a stage whose own gap does not shrink is past the float resolution
        # of the central path: later stages only cost steps
        if stalled or iters >= max_iters or f - stage_lower >= gap:
            return best_x, best_f, iters, False, lower
        gap = f - stage_lower
        tau *= 10.0


def _check_budget(epsilon: float, max_iters: int) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")


def optimize_pf(profile: PreferenceProfile, epsilon: float,
                max_iters: int = 1_000_000) -> OptimizationResult:
    """Minimize the proportional-fairness distortion over the floored region.

    The projected top-choice fractions are evaluated first, then
    `_barrier_minimize` runs at most `max_iters` Newton steps. The result is
    the best point evaluated, with its closed-form value; `lower_bound` is
    the best proven lower bound on the optimum and `certified` means
    value - lower_bound <= epsilon. The solve ends uncertified when the
    budget runs out or floating point stops the gap from shrinking (near
    1e-7 relative at these scales). A value above the guarantee
    2(1 + ln(2m)) raises CertificationError."""
    _check_budget(epsilon, max_iters)
    m = profile.m
    beta = pf_bound(m)
    if m == 1:
        return OptimizationResult(Distribution((1.0,)), 1.0, 0, True, 1.0)
    region = pf_region(profile)
    x0 = _project_array(np.asarray(profile.top_fractions()), region)
    best_x, best_f, iters, certified, lower = _barrier_minimize(
        _PFObjective(profile), region, x0, epsilon, max_iters)
    if best_f > beta + 1e-9:
        raise CertificationError(
            f"optimizer value {best_f:.6g} exceeds the guaranteed bound {beta:.6g}; "
            "increase the iteration budget")
    return OptimizationResult(Distribution(tuple(float(p) for p in best_x)),
                              best_f, iters, certified, lower)


def optimize_distortion(profile: PreferenceProfile, cls: UtilityClass, epsilon: float,
                        guard: float = 1e-3, max_iters: int = 200_000) -> OptimizationResult:
    """Minimize x -> distortion(x, profile, cls) over {x : x(a) >= guard/m}.

    The guard keeps welfare bounded away from zero; mixing the true optimum
    with uniform shows the guarded minimum is at most (true min)/(1 - guard).
    Subgradients come from the report witness: the active ratio
    SW(a*, u)/SW(x, u) has gradient -(value / SW(x, u)) * swvec with
    swvec(a') = sum_i u_i(a')."""
    _check_budget(epsilon, max_iters)
    region = guarded_region(profile.m, guard)
    weights = profile.weight_array()

    def value_argmax(x_arr: np.ndarray) -> tuple[float, DistortionReport]:
        report = distortion(Distribution(tuple(x_arr.tolist())), profile, cls)
        return float(report.value), report

    def subgrad(x_arr: np.ndarray, report: DistortionReport) -> np.ndarray:
        swvec = weights @ report.vertex_witness.as_array()
        sw_x = float(swvec @ x_arr)
        return -(float(report.value) / sw_x) * swvec

    x0 = _project_array(np.asarray(profile.top_fractions()), region)
    best_x, best_f, iters, certified = _subgradient_minimize(
        value_argmax, subgrad, region, x0, epsilon, max_iters)
    return OptimizationResult(Distribution(tuple(float(p) for p in best_x)),
                              best_f, iters, certified)
