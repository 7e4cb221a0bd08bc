"""Welfare functions, worst-case distortion evaluators, proportional fairness,
Nash-welfare oracles, and core checking.

The utilitarian worst case over a utility class is the largest ratio
SW(a*, u)/SW(x, u) over candidate alternatives a* and per-agent class
vertices u, which is the root of

    g(t) = max over a* of  sum_i  max over the agent's class vertices of  [u_i(a*) - t * u_i(x)],

where the per-agent vertex sets are the extreme points of the consistent
class polytope: prefix indicators (1 on the agent's top j) for approval and
unit-range, uniform prefixes (1/j on the top j) for unit-sum, and the union
of both for balanced. One kernel, `_dinkelbach`, finds the root by
Dinkelbach's ratio iteration (t <- the ratio of the vertex profile attaining
g(t)), which ends after finitely many linear pieces. It runs one iteration
for all a* at once on (ballot, alternative) arrays, with a shared t, in both
modes: on float64 arrays in float mode and on object arrays of Fraction in
rational mode, where the value is then recomputed from the witness alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .mwu import CertificationError
from .profiles import (
    Distribution,
    Number,
    PreferenceProfile,
    UtilityClass,
    UtilityProfile,
    at_ranks,
    prefix_mass_matrix,
    prefix_utility_row,
)
from .simplex import project_to_scaled_simplex

ORACLE_COMBO_CAP = 100_000


class OracleScaleError(ValueError):
    """An exact oracle was asked to enumerate beyond its combinatorial budget."""


@dataclass(frozen=True, eq=False)
class VertexWitness:
    """A vertex utility profile as per-ballot arrays: ballot b values its top
    depth[b] alternatives at 1/depth[b] when uniform[b], else at 1, and the
    rest at 0, in Fraction when `exact` (as `prefix_utility_row` does).
    `utilities` builds the rows on first read; `as_array` and `json_table`
    work from the arrays alone."""

    profile: PreferenceProfile
    depth: np.ndarray      # (B,) int, 1..m
    uniform: np.ndarray    # (B,) bool
    utility_class: UtilityClass
    exact: bool

    @functools.cached_property
    def utilities(self) -> UtilityProfile:
        return _witness_from_combo(self.profile, zip(self.depth.tolist(), self.uniform.tolist()),
                                   self.utility_class, self.exact)

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(scale, approve): ballot b's nonzero entry is 1/scale[b], and
        approve[b, a] says whether alternative a gets it."""
        return (np.where(self.uniform, self.depth, 1),
                self.profile.rank_matrix() <= self.depth[:, None])

    def as_array(self) -> np.ndarray:
        """The float64 matrix of `utilities.as_array()`, entry for entry."""
        scale, approve = self._rows()
        return np.where(approve, (1.0 / scale)[:, None], 0.0)

    def json_table(self) -> tuple[list, np.ndarray]:
        """(entries, codes): the distinct entries of the rows, zero first, and
        the (B, m) int array whose [b, a] indexes entry [b][a] among them."""
        scale, approve = self._rows()
        used, inverse = np.unique(scale, return_inverse=True)
        if self.exact:
            entries = [Fraction(0)] + [Fraction(1, s) for s in used.tolist()]
        else:
            entries = [0.0] + [1.0 / s for s in used.tolist()]
        return entries, np.where(approve, inverse[:, None] + 1, 0)


class _WitnessField:
    """`DistortionReport.witness_utilities`. Given a VertexWitness, the field
    reads as that witness's UtilityProfile, built on the first read; equality,
    hashing and repr read the field, so they see the same profile as when one
    is given."""

    def __get__(self, report, owner=None):
        if report is None:  # read as the class attribute: the field has no default
            raise AttributeError("witness_utilities")
        value = report.__dict__["witness_utilities"]
        return value.utilities if isinstance(value, VertexWitness) else value

    def __set__(self, report, value):
        report.__dict__["witness_utilities"] = value


@dataclass(frozen=True)
class DistortionReport:
    value: Number
    utility_class: UtilityClass
    witness_alternative: Optional[int]
    witness_utilities: Optional[UtilityProfile] = _WitnessField()  # or a VertexWitness
    witness_deviation: Optional[Distribution] = None

    @property
    def infinite(self) -> bool:
        return self.value == math.inf

    @property
    def vertex_witness(self) -> Optional[VertexWitness]:
        """The witness as per-ballot arrays, when the report was given one."""
        value = self.__dict__["witness_utilities"]
        return value if isinstance(value, VertexWitness) else None


@dataclass(frozen=True)
class CoreReport:
    alpha: float
    violated: bool
    witness_agents: Optional[tuple[int, ...]] = None   # stored-ballot indices
    witness_deviation: Optional[Distribution] = None


# ---------------------------------------------------------------------------
# welfare functions
# ---------------------------------------------------------------------------

def social_welfare(x: Distribution, u: UtilityProfile) -> Number:
    """SW(x, u) = sum_i u_i(x), weight-aware."""
    if x.m != u.m:
        raise ValueError("distribution/utility dimension mismatch")
    return sum(w * e for w, e in zip(u.weights, u.expected(x)))


def nash_welfare(x: Distribution, u: UtilityProfile) -> Number:
    """NW(x, u) = (prod_i u_i(x))^(1/n); 0 if any agent has zero utility.

    Returns the common value exactly when all expected utilities coincide
    (the geometric mean of equal numbers); otherwise computes in log space.
    """
    if x.m != u.m:
        raise ValueError("distribution/utility dimension mismatch")
    expected = u.expected(x)
    if any(e == 0 for e in expected):
        return 0 if all(e == 0 or isinstance(e, (int, Fraction)) for e in expected) else 0.0
    if all(e == expected[0] for e in expected):
        return expected[0]
    n = u.n
    log_sum = math.fsum(w * math.log(float(e)) for w, e in zip(u.weights, expected))
    return math.exp(log_sum / n)


# ---------------------------------------------------------------------------
# utilitarian distortion: vertex tables and root finding
# ---------------------------------------------------------------------------

def _vertex_depth_values(cls: UtilityClass) -> tuple[bool, bool]:
    """(use approval prefix indicators, use uniform prefixes) for the class."""
    if cls in (UtilityClass.APPROVAL, UtilityClass.UNIT_RANGE):
        return True, False
    if cls is UtilityClass.UNIT_SUM:
        return False, True
    if cls is UtilityClass.BALANCED:
        return True, True
    raise ValueError(f"utilitarian distortion is degenerate or unsupported for {cls}")


def _witness_from_combo(profile: PreferenceProfile, combo, cls: UtilityClass,
                        exact: bool) -> UtilityProfile:
    rows = []
    for order, (depth, uniform) in zip(profile.orders, combo):
        rows.append(prefix_utility_row(order, depth, profile.m, uniform=uniform, exact=exact))
    return UtilityProfile(utils=tuple(rows), class_tag=cls, weights=profile.weights)


def _dinkelbach(probs: np.ndarray, weights: np.ndarray, profile: PreferenceProfile,
                cls: UtilityClass, one: Number) -> tuple[Number, int, list[tuple[int, bool]]]:
    """sup over a* and vertex profiles u of SW(a*, u)/SW(x, u); returns
    (value, a*, per-ballot (depth, uniform)).

    The one kernel of both modes: `probs` and `weights` are float64 arrays
    with `one` = 1.0, or object arrays of Fraction and int with `one` =
    Fraction(1), and every operation below keeps that type. The gathers
    (`at_ranks`, `np.choose`, row indexing) only select entries, so both
    modes stay exact.

    One Dinkelbach ratio iteration shared by every a*: at t, for all a at
    once, g_a(t) = sum_b w_b max_v [A_v(a) - t B_v]; the argmax a* (lowest
    index on ties) and its per-ballot argmax vertices (larger A on ties) give
    the next t = sum w A / sum w B. t rises strictly over the finitely many
    vertex ratios until it stops rising, and the value is the last combo's
    own ratio, so its witness reproduces it.
    """
    use_ind, use_uni = _vertex_depth_values(cls)
    col = profile.rank_matrix() - 1                    # (B, m): 0-based rank of a on b
    prefix = probs[profile.order_matrix()].cumsum(axis=1)  # mass of b's top j+1
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
    at_rank = at_ranks(prefix, profile)                # B of the indicator at depth r
    if use_uni:
        per_depth = prefix / depths                    # B of the uniform vertex at j+1
        low_uni = at_ranks(np.minimum.accumulate(per_depth, axis=1), profile, above=True)

    t = 0 * one
    best = None
    while True:
        terms = []
        if use_ind:
            terms.append(np.maximum(one - t * at_rank, -t * prefix[:, :1]))
        if use_uni:
            scaled = (one - t * prefix) / depths
            suffix = np.maximum.accumulate(scaled[:, ::-1], axis=1)[:, ::-1]
            terms.append(np.maximum(at_ranks(suffix, profile), -t * low_uni))
        a_star = int((weights @ np.maximum.reduce(terms)).argmax())

        # a*'s per-ballot candidate vertices (value, depth, uniform), in order
        # of non-increasing A so that argmax's first maximum wins ties
        c = col[:, a_star]
        cands = []
        if use_ind:
            cands.append((one - t * at_rank[:, a_star], c + 1, False))
        if use_uni:
            top = suffix[rows, c]
            first = ((scaled >= top[:, None]) & (depths > c[:, None])).argmax(axis=1)
            cands.append((top, first + 1, True))
        if use_ind:
            cands.append((-t * prefix[:, 0], 1, False))
        if use_uni:
            low = low_uni[:, a_star]
            first = ((per_depth <= low[:, None]) & (depths <= c[:, None])).argmax(axis=1)
            cands.append((-t * low, first + 1, True))
        values, depth_opts, uniform_opts = zip(*cands)
        pick = np.array(values).argmax(axis=0)
        depth = np.choose(pick, depth_opts)
        uniform = np.array(uniform_opts)[pick]

        scale = np.where(uniform, depth, 1)
        ratio = (weights @ (np.where(depth > c, one, 0 * one) / scale)) / (
            weights @ (prefix[rows, depth - 1] / scale))
        if ratio <= t:
            return best
        t = ratio
        best = (ratio, a_star, list(zip(depth.tolist(), uniform.tolist())))


def _distortion_float(x: Distribution, profile: PreferenceProfile, cls: UtilityClass
                      ) -> tuple[float, int, list[tuple[int, bool]]]:
    """The kernel on float64 arrays."""
    value, a_star, combo = _dinkelbach(x.as_array(), profile.weight_array(), profile, cls, 1.0)
    return float(value), a_star, combo


def _distortion_at_exact(x: Distribution, profile: PreferenceProfile, cls: UtilityClass
                         ) -> tuple[Number, int, list[tuple[int, bool]]]:
    """The kernel on object arrays of Fraction, in exact arithmetic."""
    probs = np.array([Fraction(p) for p in x.probs], dtype=object)
    return _dinkelbach(probs, np.array(profile.weights, dtype=object), profile, cls,
                       Fraction(1))


def distortion(x: Distribution, profile: PreferenceProfile, cls: UtilityClass) -> DistortionReport:
    """Worst-case utilitarian distortion of x over consistent class utilities.

    Rejects UtilityClass.ALL (degenerate for utilitarian welfare). The report
    carries the maximizing alternative and an attaining vertex utility
    profile; recomputing the witness ratio reproduces the value. In exact
    mode the reported value is that recomputation.
    """
    if cls is UtilityClass.ALL:
        raise ValueError("utilitarian distortion over the unrestricted class is degenerate")
    if x.m != profile.m:
        raise ValueError("distribution/profile dimension mismatch")

    exact = x.exact
    entry = _distortion_at_exact if exact else _distortion_float
    value, a_star, combo = entry(x, profile, cls)
    pairs = np.array(combo, dtype=np.int64)  # per-ballot (depth, uniform)
    witness = VertexWitness(profile, pairs[:, 0], pairs[:, 1].astype(bool), cls, exact)
    if exact and value != math.inf:
        u = witness.utilities
        s = social_welfare(x, u)
        value = math.inf if s == 0 else _witness_ratio(u, a_star, s)
    return DistortionReport(value, cls, a_star, witness)


def _witness_ratio(witness: UtilityProfile, a_star: int, sw_x: Number) -> Number:
    sw_star = sum(w * row[a_star] for w, row in zip(witness.weights, witness.utils))
    return sw_star / sw_x


def distortion_bruteforce(x: Distribution, profile: PreferenceProfile,
                          cls: UtilityClass) -> Number:
    """Independent oracle: enumerate every per-ballot vertex profile and every
    point-mass deviation; exact when x is exact. Scale-capped."""
    use_ind, use_uni = _vertex_depth_values(cls)
    per_ballot = []
    for order in profile.orders:
        options = []
        for depth in range(1, profile.m + 1):
            if use_ind:
                options.append((depth, False))
            if use_uni:
                options.append((depth, True))
        per_ballot.append(options)
    count = 1
    for options in per_ballot:
        count *= len(options)
        if count > ORACLE_COMBO_CAP:
            raise OracleScaleError(f"{count}+ vertex profiles exceed the oracle budget")
    exact = x.exact
    best: Number = 0
    for combo in itertools.product(*per_ballot):
        witness = _witness_from_combo(profile, combo, cls, exact=exact)
        sw_x = social_welfare(x, witness)
        for a_star in range(profile.m):
            sw_star = sum(w * row[a_star] for w, row in zip(witness.weights, witness.utils))
            if sw_x == 0:
                if sw_star > 0:
                    return math.inf
                continue
            ratio = sw_star / sw_x
            if ratio > best:
                best = ratio
    return best


# ---------------------------------------------------------------------------
# proportional fairness
# ---------------------------------------------------------------------------

def pf_value(x: Distribution, u: UtilityProfile) -> Number:
    """PF(x, u) = max_a (1/n) sum_i u_i(a)/u_i(x); +inf when some u_i(x) = 0."""
    if x.m != u.m:
        raise ValueError("dimension mismatch")
    expected = u.expected(x)
    if any(e == 0 for e in expected):
        return math.inf
    n = u.n
    best: Number = 0
    for a in range(u.m):
        total = sum(w * row[a] / e for w, row, e in zip(u.weights, u.utils, expected))
        val = total / n
        if val > best:
            best = val
    return best


def pf_payoffs(x: Distribution, profile: PreferenceProfile) -> list:
    """payoff(x, a) = (1/n) sum_i 1 / x(h_i(a)) for every alternative a."""
    if x.m != profile.m:
        raise ValueError("dimension mismatch")
    n = profile.n
    if x.exact:
        payoffs: list[Number] = [Fraction(0)] * profile.m
        for order, w in zip(profile.orders, profile.weights):
            mass = Fraction(0)
            for a in order:
                mass += Fraction(x.probs[a])
                if mass == 0 or payoffs[a] == math.inf:
                    payoffs[a] = math.inf
                else:
                    payoffs[a] += Fraction(w) / mass
        return [p if p == math.inf else p / n for p in payoffs]
    H = prefix_mass_matrix(x.as_array(), profile)
    w = profile.weight_array()
    with np.errstate(divide="ignore"):
        inv = np.where(H > 0.0, 1.0 / np.where(H > 0.0, H, 1.0), np.inf)
    vals = (w @ inv) / n
    return [float(v) for v in vals]


def pf_distortion(x: Distribution, profile: PreferenceProfile) -> DistortionReport:
    """Closed-form worst case over all consistent utilities:
    D^PF(x) = max_a (1/n) sum_i 1/x(h_i(a)), witnessed by the prefix-approval
    profile that saturates each agent's bound at the argmax alternative."""
    payoffs = pf_payoffs(x, profile)
    a_star = payoffs.index(max(payoffs))  # lowest index on ties
    witness = VertexWitness(profile, profile.rank_matrix()[:, a_star],
                            np.zeros(profile.num_ballots, dtype=bool),
                            UtilityClass.APPROVAL, x.exact)
    return DistortionReport(payoffs[a_star], UtilityClass.ALL, a_star, witness)


def pf_distortion_bruteforce(x: Distribution, profile: PreferenceProfile) -> Number:
    """Oracle: max of pf_value over every per-ballot prefix-approval profile."""
    count = profile.m ** profile.num_ballots
    if count > ORACLE_COMBO_CAP:
        raise OracleScaleError(f"{count} approval profiles exceed the oracle budget")
    exact = x.exact
    best: Number = 0
    for depths in itertools.product(range(1, profile.m + 1), repeat=profile.num_ballots):
        rows = tuple(prefix_utility_row(order, d, profile.m, exact=exact)
                     for order, d in zip(profile.orders, depths))
        u = UtilityProfile(utils=rows, class_tag=UtilityClass.APPROVAL, weights=profile.weights)
        val = pf_value(x, u)
        if val == math.inf:
            return math.inf
        if val > best:
            best = val
    return best


# ---------------------------------------------------------------------------
# Nash-welfare optimum and Nash distortion oracle
# ---------------------------------------------------------------------------

def nash_opt(u: UtilityProfile, tol: float = 1e-6, max_iters: int = 50_000,
             strict: bool = True) -> Distribution:
    """Maximize sum_i w_i log u_i(y) over the simplex by projected gradient
    ascent with backtracking; stops once PF(result, u) <= 1 + tol, which is a
    verifiable optimality certificate."""
    U = u.as_array()
    w = u.weight_array()
    if np.any(U.max(axis=1) <= 0):
        raise ValueError("every agent needs positive utility for some alternative")
    n = float(u.n)
    m = u.m
    y = np.full(m, 1.0 / m)

    def objective(vec):
        vals = U @ vec
        if np.any(vals <= 0):
            return -math.inf
        return float(w @ np.log(vals))

    current = objective(y)
    step = 1.0
    for _ in range(max_iters):
        vals = U @ y
        grad = U.T @ (w / vals)
        if grad.max() <= n * (1.0 + tol):
            return Distribution(tuple(float(v) for v in y))
        improved = False
        trial_step = step * 2.0
        for _ in range(80):
            cand = project_to_scaled_simplex(y + trial_step * grad, 1.0)
            cand_val = objective(cand)
            if cand_val > current + 1e-18:
                y, current, step, improved = cand, cand_val, trial_step, True
                break
            trial_step *= 0.5
        if not improved:
            break
    message = "nash_opt stopped before reaching its PF certificate"
    if strict:
        grad = U.T @ (w / (U @ y))
        if grad.max() > n * (1.0 + 10 * tol):
            raise CertificationError(message)
    else:
        warnings.warn(message, RuntimeWarning)
    return Distribution(tuple(float(v) for v in y))


def nash_distortion_smallscale(x: Distribution, profile: PreferenceProfile) -> DistortionReport:
    """Exact Nash-welfare distortion by enumerating prefix-approval choices per
    stored ballot (the worst case is an approval profile, and identical agents
    share a worst-case prefix, so block-pure profiles suffice).

    Refuses instances with more than 1e5 combinations; callers should fall
    back to pf_distortion as an upper bound.
    """
    B = profile.num_ballots
    count = profile.m ** B
    if count > ORACLE_COMBO_CAP:
        raise OracleScaleError(
            f"m^blocks = {count} exceeds the Nash oracle budget; use pf_distortion as an upper bound")
    x_arr = x.as_array()
    orders = profile.order_matrix()
    prefix = np.cumsum(x_arr[orders], axis=1)  # prefix[b, j-1] = x(top-j of ballot b)
    w = profile.weight_array()
    n = float(profile.n)

    best_val = -math.inf
    best_combo = None
    best_dev = None
    for depths in itertools.product(range(1, profile.m + 1), repeat=B):
        rows = tuple(prefix_utility_row(order, d, profile.m)
                     for order, d in zip(profile.orders, depths))
        u = UtilityProfile(utils=rows, class_tag=UtilityClass.APPROVAL, weights=profile.weights)
        opt = nash_opt(u)
        nw_opt = nash_welfare(opt, u)
        e_x = np.array([prefix[b, depths[b] - 1] for b in range(B)])
        if np.any(e_x == 0.0):
            if nw_opt > 0:
                return DistortionReport(math.inf, UtilityClass.APPROVAL, None, u, opt)
            continue
        nw_x = math.exp(float(w @ np.log(e_x)) / n)
        ratio = float(nw_opt) / nw_x
        if ratio > best_val:
            best_val, best_combo, best_dev = ratio, u, opt
    return DistortionReport(best_val, UtilityClass.APPROVAL, None, best_combo, best_dev)


# ---------------------------------------------------------------------------
# core checking
# ---------------------------------------------------------------------------

@functools.cache
def _highs_options():
    """The five options scipy's linprog(method="highs") sets, built once."""
    from scipy.optimize._highspy import _core as highs

    options = highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


def linprog(M: np.ndarray) -> SimpleNamespace:
    """max sum_i (M y)_i  s.t.  M y >= 0, y on the simplex, by one HiGHS call.

    The model and options are those scipy.optimize.linprog(c=-M.sum(0),
    A_ub=-M, b_ub=0, A_eq=ones, b_eq=[1], bounds=(0, 1), method="highs")
    hands to HiGHS, so the solution is the same vertex, bit for bit, without
    the front end that costs ~5x the solve. The result has scipy's `status`
    (0 optimal, 1 limit, 2 infeasible, 3 unbounded, 4 other), `success`, `x`
    and `message`. Only HiGHS's kInfeasible reads as status 2; a model HiGHS
    refuses, a non-finite M and a solution that fails linprog's post-solve
    check (x within [0, 1], rows and the sum within sqrt(1e-9) * 10) are
    failures. HiGHS is imported on first call: only core checking needs it,
    and importing scipy costs most of the CLI's start-up.
    """
    if not np.isfinite(M).all():
        return SimpleNamespace(status=4, success=False, x=None,
                               message="the coalition matrix is not finite")
    from scipy.optimize._highspy import _core as highs

    k, m = M.shape
    A = np.vstack((-M, np.ones((1, m))))
    nonzero = A.T != 0  # column-major pattern, exact zeros dropped
    cols, rows = np.nonzero(nonzero)
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = m
    lp.num_row_ = lp.a_matrix_.num_row_ = k + 1
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(m + 1)).astype(np.int32)
    lp.a_matrix_.index_ = rows.astype(np.int32)
    lp.a_matrix_.value_ = A.T[nonzero]
    lp.col_cost_ = -M.sum(axis=0)
    lp.col_lower_, lp.col_upper_ = np.zeros(m), np.ones(m)
    lp.row_lower_ = np.append(np.full(k, -highs.kHighsInf), 1.0)
    lp.row_upper_ = np.append(np.zeros(k), 1.0)

    ms = highs.HighsModelStatus
    h = highs._Highs()
    error = highs.HighsStatus.kError
    if h.passOptions(_highs_options()) == error or h.passModel(lp) == error:
        model_status = ms.kModelError
    elif h.run() == error:
        model_status = ms.kSolveError
    else:
        model_status = h.getModelStatus()
    message = h.modelStatusToString(model_status)
    if model_status != ms.kOptimal:
        status = {ms.kInfeasible: 2, ms.kTimeLimit: 1, ms.kIterationLimit: 1,
                  ms.kUnbounded: 3}.get(model_status, 4)
        return SimpleNamespace(status=status, success=False, x=None, message=message)
    solution = h.getSolution()
    x, row = np.array(solution.col_value), np.array(solution.row_value)
    tol = math.sqrt(1e-9) * 10  # linprog's post-solve tolerance
    # written so that a NaN fails every comparison
    if not ((x >= -tol).all() and (x <= 1 + tol).all() and (row[:k] <= tol).all()
            and abs(row[k] - 1.0) <= tol):
        return SimpleNamespace(status=4, success=False, x=None,
                               message=f"{message}, but the solution misses the "
                                       f"constraints by more than {tol:.2e}")
    return SimpleNamespace(status=0, success=True, x=x, message=message)


def _coalition_game_value(M: np.ndarray) -> float:
    """An upper bound on the game value max_y min_i (M y)_i over the simplex,
    by weak duality against the coalition's average member: one mat-vec."""
    return float(M.mean(axis=0).max())


def core_check(x: Distribution, u: UtilityProfile, alpha: float,
               tol: float = 1e-9) -> CoreReport:
    """Search all coalitions of stored ballots for an alpha-core violation.

    A coalition S violates when some deviation y satisfies
    (|S|/n) u_i(y) >= alpha * u_i(x) for all i in S with one strict. With
    M the coalition's (|S|, m) payoff matrix, a screen of O(|S| m) work
    skips the coalition on one of two Farkas certificates: a member for whom
    every alternative falls short (a row of M below -tol), or the average
    member for whom every alternative does (`_coalition_game_value`). So it
    never skips a coalition that has a witness. One HiGHS LP that maximizes
    total slack decides every other coalition, and a returned witness is
    re-verified against the definition. An LP that ends neither solved nor
    infeasible raises CertificationError. alpha must be finite and >= 0.
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
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
        if np.any(M.max(axis=1) < -tol) or _coalition_game_value(M) < -tol:
            continue  # no deviation compensates every member
        # slack maximization: max sum_i M_i . y  s.t.  M y >= 0, y in simplex
        res = linprog(M)
        if res.status == 2:  # infeasible: this coalition cannot deviate
            continue
        if not res.success:
            raise CertificationError(
                f"core LP for the coalition of ballots {[b + 1 for b in members]} "
                f"failed (status {res.status}): {res.message}")
        y = np.maximum(res.x, 0.0)
        y = y / y.sum()
        slacks = M @ y
        if slacks.min() >= -tol and slacks.max() > tol:
            return CoreReport(alpha=alpha, violated=True,
                              witness_agents=tuple(members),
                              witness_deviation=Distribution(tuple(float(v) for v in y)))
    return CoreReport(alpha=alpha, violated=False)
