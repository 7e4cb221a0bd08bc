"""Output checks made apart from fairvote.

Every quantity is recomputed here from the generated instance with numpy or
exact fractions; nothing in this module imports or calls the program. An
instance is a pair (orders, weights): `orders` is a (B, m) int array of
0-indexed ballots listed best to worst, `weights` a (B,) int array of ballot
multiplicities. Program outputs arrive as parsed JSON, with alternatives
1-indexed as the CLI prints them. Each check raises CheckFailure.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

# The CLI prints floats with 12 significant digits, so values recomputed from
# printed numbers agree only to about 1e-11 relative.
PRINT_RTOL = 1e-9
CLASSES = ("approval", "unit-range", "unit-sum", "balanced")


class CheckFailure(AssertionError):
    """A program output contradicts a value recomputed by the benchmark."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def close(a: float, b: float, rtol: float = PRINT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def number(token):
    """A printed number: exact "p/q" strings become Fractions."""
    if isinstance(token, str):
        if token in ("inf", "-inf"):
            return float(token)
        return Fraction(token)
    return token


def committee_size(m: int) -> int:
    """k = ceil(sqrt(m))."""
    root = math.isqrt(m)
    return root if root * root == m else root + 1


def positions(orders: np.ndarray) -> np.ndarray:
    """pos[b, a] = 0-based place of alternative a on ballot b."""
    pos = np.empty_like(orders)
    np.put_along_axis(pos, orders, np.arange(orders.shape[1])[None, :], axis=1)
    return pos


def mass_at_or_above(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H[..., b, a] = x-mass of the alternatives ballot b ranks at or above a;
    x may carry leading batch axes."""
    ranked = np.cumsum(x[..., orders], axis=-1)
    pos = np.broadcast_to(positions(orders), ranked.shape)
    return np.take_along_axis(ranked, pos, axis=-1)


def harmonic(orders: np.ndarray, weights: np.ndarray, exact: bool = False):
    """The harmonic rule x(a) = 1/(2m) + harm(a) / (2 n H_m), used to make the
    distributions the evaluators receive."""
    B, m = orders.shape
    n = int(weights.sum())
    if exact:
        scores = [Fraction(0)] * m
        for order, w in zip(orders.tolist(), weights.tolist()):
            for place, a in enumerate(order, start=1):
                scores[a] += Fraction(w, place)
        h = sum(Fraction(1, r) for r in range(1, m + 1))
        return [Fraction(1, 2 * m) + s / (2 * n * h) for s in scores]
    scores = weights.astype(float) @ (1.0 / (positions(orders) + 1.0))
    h = math.fsum(1.0 / r for r in range(1, m + 1))
    return 1.0 / (2 * m) + scores / (2.0 * n * h)


# ---------------------------------------------------------------------------
# utility profiles consistent with the rankings
# ---------------------------------------------------------------------------

def place_sorted(orders: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Utility matrix U with U[b, orders[b, j]] = values[b, j]."""
    U = np.empty(values.shape, dtype=float)
    np.put_along_axis(U, orders, values, axis=1)
    return U


def sample_utilities(orders: np.ndarray, cls: str, rng: np.random.Generator) -> np.ndarray:
    """A random utility matrix in class `cls` consistent with every ballot.
    Half the draws are smooth, half are random vertices of the class."""
    B, m = orders.shape
    depth = np.arange(1, m + 1)
    if rng.random() < 0.5:
        d = rng.integers(1, m + 1, size=B)[:, None]
        top = (depth[None, :] <= d).astype(float)
        uniform = {"approval": False, "unit-range": False, "unit-sum": True,
                   "balanced": rng.random() < 0.5}[cls]
        return place_sorted(orders, top / d if uniform else top)
    if cls == "approval":
        d = rng.integers(1, m + 1, size=B)[:, None]
        return place_sorted(orders, (depth[None, :] <= d).astype(float))
    if cls == "unit-sum" or (cls == "balanced" and rng.random() < 0.5):
        draws = -np.sort(-rng.exponential(size=(B, m)), axis=1)
        return place_sorted(orders, draws / draws.sum(axis=1, keepdims=True))
    rest = -np.sort(-rng.random(size=(B, m - 1)), axis=1)
    return place_sorted(orders, np.hstack([np.ones((B, 1)), rest]))


def check_utilities(orders: np.ndarray, U, cls: str, tol: float) -> None:
    """U is consistent with the rankings and lies inside class `cls`."""
    U = np.asarray(U, dtype=object if isinstance(U[0][0], Fraction) else float)
    ranked = np.take_along_axis(U, orders, axis=1)
    require(all(ranked[b, j] >= ranked[b, j + 1] - tol
                for b in range(ranked.shape[0]) for j in range(ranked.shape[1] - 1)),
            "witness utilities disagree with a ranking")
    rows_min = [min(r) for r in ranked.tolist()]
    rows_max = [max(r) for r in ranked.tolist()]
    rows_sum = [sum(r) for r in ranked.tolist()]
    require(min(rows_min) >= -tol, "negative witness utility")
    if cls == "approval":
        require(all(v == 0 or v == 1 for v in ranked.ravel().tolist()),
                "approval witness has an entry outside {0, 1}")
        require(all(v == 1 for v in rows_max), "approval witness row without a 1")
    elif cls == "unit-range":
        require(all(abs(v - 1) <= tol for v in rows_max), "unit-range witness row max != 1")
    elif cls == "unit-sum":
        require(all(abs(s - 1) <= tol for s in rows_sum), "unit-sum witness row sum != 1")
    elif cls == "balanced":
        require(all(v <= 1 + tol for v in rows_max), "balanced witness row max > 1")
        require(all(s >= 1 - tol for s in rows_sum), "balanced witness row sum < 1")
    else:
        raise ValueError(f"unknown class {cls!r}")


def welfare_ratio(U, weights, x, a: int):
    """SW(a, U) / SW(x, U); exact when every input is exact."""
    sw = [sum(w * row[c] for w, row in zip(weights, U)) for c in range(len(x))]
    sw_x = sum(s * p for s, p in zip(sw, x))
    return sw[a] / sw_x


def best_sampled_ratio(orders, weights, x, cls, rng, samples: int) -> float:
    """Largest max_a SW(a)/SW(x) over random consistent utilities in `cls`."""
    w = np.asarray(weights, dtype=float)
    best = 0.0
    for _ in range(samples):
        sw = w @ sample_utilities(orders, cls, rng)
        best = max(best, float(sw.max() / (sw @ x)))
    return best


def vertex_enumeration(orders: np.ndarray, weights, x, cls: str):
    """sup over consistent class utilities of max_a SW(a)/SW(x), by trying
    every per-ballot choice of class vertex. The vertices of each ballot's
    class polytope are its prefix indicators (approval, unit-range), its
    uniform prefixes 1/j (unit-sum), or both (balanced). Exact when x holds
    Fractions. Only for tiny instances: the work is (vertices per ballot)^B."""
    B, m = orders.shape
    kinds = {"approval": (False,), "unit-range": (False,), "unit-sum": (True,),
             "balanced": (False, True)}[cls]
    one = Fraction(1) if isinstance(x[0], Fraction) else 1.0
    best = 0 * one
    for a in range(m):
        options = []
        for order, w in zip(orders.tolist(), weights):
            place = order.index(a)
            mass = 0 * one
            opts = []
            for depth, c in enumerate(order, start=1):
                mass += x[c]
                for uniform in kinds:
                    value = one / depth if uniform else one
                    opts.append((w * value * (depth > place), w * value * mass))
            options.append(opts)
        for combo in itertools.product(*options):
            num = sum(c[0] for c in combo)
            den = sum(c[1] for c in combo)
            if num > best * den:
                best = num / den
    return best


def pf_closed_form(orders: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """payoff(a) = (1/n) sum_b w_b / x(h_b(a)) for every alternative."""
    H = mass_at_or_above(orders, np.asarray(x, dtype=float))
    return (weights.astype(float) @ (1.0 / H)) / float(weights.sum())


def check_distribution(probs, m: int) -> np.ndarray:
    x = np.asarray([float(p) for p in probs])
    require(x.shape == (m,), f"distribution has {x.size} entries, expected {m}")
    require(x.min() >= 0.0, "negative probability")
    require(abs(x.sum() - 1.0) <= 1e-9, f"probabilities sum to {x.sum()!r}")
    return x


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_slr(orders, weights, out: dict, dump: dict, rng, samples: int = 20) -> None:
    """`rule slr --dump-lottery`: the certificate recomputed from the dumped
    rounds is strictly below n/k; the output is the lottery's marginals mixed
    half-and-half with uniform; x(a) >= 1/(2m); sampled balanced utilities
    never give a welfare ratio above 2 sqrt(m)."""
    B, m = orders.shape
    n = int(weights.sum())
    x = check_distribution(out["probs"], m)
    k = dump["k"]
    require(k == committee_size(m), f"committee size {k} != ceil(sqrt({m}))")
    iid = [r["z"] for r in dump["rounds"] if "z" in r]
    fixed = [[a - 1 for a in r["members"]] for r in dump["rounds"] if "members" in r]
    require(len(iid) + len(fixed) == len(dump["rounds"]) > 0, "malformed lottery rounds")
    w = weights.astype(float)
    cert = np.zeros(m)
    inclusion = np.zeros(m)
    if iid:
        Z = np.asarray(iid, dtype=float)
        require(Z.min() >= 0 and np.all(np.abs(Z.sum(axis=1) - 1) <= 1e-9),
                "a sampling round leaves the simplex")
        below = np.clip(Z.sum(axis=1)[:, None, None] - mass_at_or_above(orders, Z), 0, 1)
        cert += np.einsum("b,tba->a", w, below ** k)
        inclusion += (1.0 - (1.0 - Z) ** k).sum(axis=0)
    pos = positions(orders)
    for members in fixed:
        require(len(set(members)) == len(members) == k, "bad fixed committee")
        best_member = pos[:, members].min(axis=1)
        cert += w @ (pos < best_member[:, None])
        inclusion[members] += 1.0
    rounds = len(dump["rounds"])
    cert /= rounds
    q = inclusion / rounds
    budget = n / k
    require(cert.max() < budget, f"recomputed certificate {cert.max():.9g} >= n/k = {budget:.9g}")
    printed = np.asarray(dump["certificate"]["per_alternative"], dtype=float)
    require(np.allclose(printed, cert, rtol=1e-7, atol=1e-9),
            "dumped certificate disagrees with the recomputed one")
    require(close(float(dump["certificate"]["bound"]), budget), "dumped bound != n/k")
    expected = q / (2 * k) + 1.0 / (2 * m) + (k - q.sum()) / (2.0 * k * m)
    expected /= expected.sum()
    require(np.allclose(x, expected, rtol=0, atol=1e-10),
            "output is not the lottery marginals mixed with uniform")
    require(x.min() >= 1.0 / (2 * m) - 1e-12, "some x(a) < 1/(2m)")
    ratio = best_sampled_ratio(orders, weights, x, "balanced", rng, samples)
    require(ratio <= 2.0 * math.sqrt(m), f"sampled welfare ratio {ratio:.6g} > 2 sqrt(m)")


def check_distortion(orders, weights, x, out: dict, cls: str, rng, samples: int,
                     exact_value=None) -> None:
    """`eval distortion`: the witness is consistent and inside its class, its
    own ratio reproduces the value, sampled consistent utilities never exceed
    it, and on tiny instances it equals the vertex enumeration (exactly, when
    the output is rational)."""
    require(out["class"] == cls, f"report class {out['class']!r} != {cls!r}")
    value = number(out["value"])
    require(value != math.inf and value >= 1, f"distortion value {value} out of range")
    a = out["witness_alternative"] - 1
    exact = isinstance(value, Fraction)
    U = [[number(v) for v in row] for row in out["witness_utilities"]]
    require(len(U) == orders.shape[0], "witness has the wrong number of rows")
    check_utilities(orders, U, cls, 0 if exact else 1e-9)
    ratio = welfare_ratio(U, weights.tolist(), x, a)
    if exact:
        require(ratio == value, f"witness ratio {ratio} != value {value}")
    else:
        require(close(float(ratio), float(value)), f"witness ratio {ratio!r} != value {value!r}")
    if exact_value is not None:
        if exact:
            require(value == exact_value, f"value {value} != enumerated {exact_value}")
        else:
            require(close(float(value), float(exact_value)),
                    f"value {value!r} != enumerated {float(exact_value)!r}")
    if samples:
        xf = np.asarray([float(p) for p in x])
        sampled = best_sampled_ratio(orders, weights, xf, cls, rng, samples)
        require(sampled <= float(value) * (1 + PRINT_RTOL),
                f"sampled utilities reach {sampled!r} > value {value!r}")


def check_class_order(values: dict) -> None:
    """approval <= unit-range <= balanced and unit-sum <= balanced."""
    tol = 1 + PRINT_RTOL
    v = {c: float(number(values[c])) for c in CLASSES}
    require(v["approval"] <= v["unit-range"] * tol, "approval > unit-range distortion")
    require(v["unit-range"] <= v["balanced"] * tol, "unit-range > balanced distortion")
    require(v["unit-sum"] <= v["balanced"] * tol, "unit-sum > balanced distortion")


def check_pf_distortion(orders, weights, x, out: dict) -> None:
    """`eval pf-distortion` equals max_a (1/n) sum_i w_i / x(h_i(a))."""
    payoffs = pf_closed_form(orders, weights, x)
    value = float(number(out["value"]))
    require(close(value, float(payoffs.max())),
            f"pf-distortion {value!r} != closed form {payoffs.max()!r}")
    a = out["witness_alternative"] - 1
    require(close(float(payoffs[a]), value), "pf witness alternative is not an argmax")


def pf_bound(m: int) -> float:
    return 2.0 * (1.0 + math.log(2 * m))


def check_opt_pf(orders, weights, out: dict) -> None:
    """`opt pf`: x lies in {x(a) >= p_a / beta}, sums to 1, its value is the
    closed form at x and stays <= beta = 2(1 + ln 2m)."""
    B, m = orders.shape
    x = check_distribution(out["distribution"]["probs"], m)
    tops = np.bincount(orders[:, 0], weights=weights, minlength=m) / weights.sum()
    beta = pf_bound(m)
    require(np.all(x >= tops / beta - 1e-12), "opt pf left the region x(a) >= p_a/beta")
    value = float(out["value"])
    closed = float(pf_closed_form(orders, weights, x).max())
    require(close(value, closed, 1e-8), f"opt pf value {value!r} != closed form {closed!r}")
    require(value <= beta + 1e-9, f"opt pf value {value!r} > bound {beta!r}")


def check_opt_distortion(orders, weights, out: dict, cls: str, guard: float, rng,
                         samples: int, enumerate_exact: bool) -> None:
    """`opt distortion`: x lies in {x(a) >= guard/m} and sums to 1; the value
    equals the vertex enumeration on tiny instances and is at least every
    sampled consistent-utility ratio on larger ones."""
    B, m = orders.shape
    x = check_distribution(out["distribution"]["probs"], m)
    require(x.min() >= guard / m - 1e-12, "opt distortion left the guarded region")
    value = float(out["value"])
    if enumerate_exact:
        truth = float(vertex_enumeration(orders, weights.tolist(), x.tolist(), cls))
        require(close(value, truth, 1e-8), f"opt distortion {value!r} != enumerated {truth!r}")
    else:
        sampled = best_sampled_ratio(orders, weights, x, cls, rng, samples)
        require(sampled <= value * (1 + 1e-8),
                f"sampled utilities reach {sampled!r} > optimized value {value!r}")


def core_ratio(U: np.ndarray, weights: np.ndarray, x: np.ndarray) -> float:
    """alpha* = max over coalitions S of stored ballots of
    max_y min_{i in S} (|S|/n) u_i(y) / u_i(x), one LP per coalition.
    Below alpha* some coalition has a deviation that leaves every member
    strictly better off; above it no coalition can compensate all members."""
    B, m = U.shape
    c = U @ x
    n = float(weights.sum())
    best = 0.0
    for size in range(1, B + 1):
        for members in itertools.combinations(range(B), size):
            members = list(members)
            A = float(weights[members].sum()) / n * U[members]
            # variables (y, t): maximize t  s.t.  t c_i <= A_i y,  y in the simplex
            res = linprog(np.r_[np.zeros(m), -1.0], A_ub=np.c_[-A, c[members]],
                          b_ub=np.zeros(size), A_eq=np.r_[np.ones(m), 0.0][None, :],
                          b_eq=[1.0], bounds=[(0, None)] * m + [(None, None)],
                          method="highs")
            require(res.status == 0, f"coalition LP failed: {res.message}")
            best = max(best, -res.fun)
    return best


def check_core(U: np.ndarray, weights: np.ndarray, x: np.ndarray, outs: list,
               alphas: list, ratio: float) -> None:
    """`eval core` at increasing alpha on one instance, given alpha* from
    core_ratio: the verdict is "violated" below alpha* and "not violated"
    above it, every witness meets the alpha-core violation definition, and
    the verdicts are monotone in alpha."""
    B, m = U.shape
    c = U @ x
    verdicts = []
    for out, alpha in zip(outs, alphas):
        require(close(float(out["alpha"]), alpha), "core report alpha differs")
        if alpha < ratio:
            require(out["violated"], f"not violated at alpha {alpha}, but a coalition "
                                     f"LP reaches {ratio:.9g}")
        elif alpha > ratio:
            require(not out["violated"], f"violated at alpha {alpha}, but no coalition "
                                         f"LP exceeds {ratio:.9g}")
        if out["violated"]:
            members = np.asarray(out["witness_agents"]) - 1
            require(len(set(members.tolist())) == members.size > 0
                    and members.min() >= 0 and members.max() < B, "bad witness coalition")
            y = check_distribution(out["witness_deviation"]["probs"], m)
            share = float(weights[members].sum()) / float(weights.sum())
            slack = share * (U[members] @ y) - alpha * c[members]
            require(slack.min() >= -1e-8, "a witness member is worse off than alpha u_i(x)")
            require(slack.max() > 0, "no witness member is strictly better off")
        else:
            require(out["witness_agents"] is None and out["witness_deviation"] is None,
                    "verdict 'not violated' carries a witness")
        verdicts.append(bool(out["violated"]))
    require(all(a >= b for a, b in zip(verdicts, verdicts[1:])),
            f"verdicts {verdicts} are not monotone in alpha {alphas}")
