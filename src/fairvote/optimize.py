"""Projected subgradient descent for instance-optimal proportional fairness,
plus a guarded variant minimizing utilitarian distortion.

Both optimizers run over a lower-bounded simplex: projection substitutes
x = lb + w and water-fills w onto the scaled simplex, so region constraints
hold exactly at every iterate. Each iterate is evaluated once: its value
comes with a tag (the PF argmax and prefix masses, or the distortion report)
that the subgradient reads. Steps are adaptive (AdaGrad-norm), followed by a
restarted Polyak refinement that handles the kinks where these piecewise
objectives attain their minima; the fixed schedule D/(G sqrt(T)) with the
region-floor G is astronomically small at this scale and is kept only inside
the certification accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .metrics import DistortionReport, distortion
from .mwu import CertificationError
from .profiles import Distribution, PreferenceProfile, UtilityClass, prefix_mass_matrix
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
        return (self.weights @ (1.0 / H)) / self.n

    def value_and_argmax(self, x: np.ndarray) -> tuple[float, tuple[int, np.ndarray]]:
        """f(x) and the tag (a*, H) that `subgradient` reads."""
        H = self.prefix_masses(x)
        p = self.payoffs(x, H)
        a = int(p.argmax())  # lowest index on ties
        return float(p[a]), (a, H)

    def subgradient(self, x: np.ndarray, tag: tuple[int, np.ndarray]) -> np.ndarray:
        a_star, H = tag
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
    return obj.subgradient(arr, (a_star, H))


@dataclass
class OptimizationResult:
    distribution: Distribution
    value: float
    iterations: int
    certified: bool


def _subgradient_minimize(value_argmax: Callable[[np.ndarray], tuple[float, object]],
                          subgrad: Callable[[np.ndarray, object], np.ndarray],
                          region: FeasibleRegion, x0: np.ndarray, epsilon: float,
                          max_iters: int, norm_bound: Optional[float] = None
                          ) -> tuple[np.ndarray, float, int, bool]:
    """Shared descent loop. Returns the best visited iterate and its evaluated
    value (never an unevaluated average). `certified` is set only when the
    adaptive regret bound 1.5 D sqrt(sum ||g||^2) / t fell below epsilon."""
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
        if norm_bound is not None and gn2 > norm_bound**2 * (1 + 1e-9):
            raise AssertionError("subgradient norm exceeded its region-floor bound")
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
            if norm_bound is not None and gn2 > norm_bound**2 * (1 + 1e-9):
                raise AssertionError("subgradient norm exceeded its region-floor bound")
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


def _check_budget(epsilon: float, max_iters: int) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")


def optimize_pf(profile: PreferenceProfile, epsilon: float,
                max_iters: int = 1_000_000) -> OptimizationResult:
    """Minimize the proportional-fairness distortion over the floored region,
    starting from the top-choice fractions. The best visited iterate is
    returned; its value is checked against the 2(1 + ln(2m)) guarantee."""
    _check_budget(epsilon, max_iters)
    m = profile.m
    beta = pf_bound(m)
    if m == 1:
        return OptimizationResult(Distribution((1.0,)), 1.0, 0, True)
    region = pf_region(profile)
    obj = _PFObjective(profile)
    x0 = _project_array(np.asarray(profile.top_fractions()), region)

    floors = region._lb[profile.order_matrix()[:, 0]]
    norm_bound = math.sqrt(m) * float(profile.weight_array() @ (1.0 / floors**2)) / profile.n

    best_x, best_f, iters, certified = _subgradient_minimize(
        obj.value_and_argmax, obj.subgradient, region, x0, epsilon, max_iters,
        norm_bound=norm_bound)
    if best_f > beta + 1e-9:
        raise CertificationError(
            f"optimizer value {best_f:.6g} exceeds the guaranteed bound {beta:.6g}; "
            "increase the iteration budget")
    return OptimizationResult(Distribution(tuple(float(p) for p in best_x)),
                              best_f, iters, certified)


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
        swvec = weights @ report.witness_utilities.as_array()
        sw_x = float(swvec @ x_arr)
        return -(float(report.value) / sw_x) * swvec

    x0 = _project_array(np.asarray(profile.top_fractions()), region)
    best_x, best_f, iters, certified = _subgradient_minimize(
        value_argmax, subgrad, region, x0, epsilon, max_iters)
    return OptimizationResult(Distribution(tuple(float(p) for p in best_x)),
                              best_f, iters, certified)
