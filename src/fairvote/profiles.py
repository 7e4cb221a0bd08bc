"""Ranked preference profiles, distributions over alternatives, and utility profiles.

Alternatives are 0-indexed internally and 1-indexed in files and JSON; the
conversion happens only at the I/O boundary. All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]

SUM_TOLERANCE = 1e-12


class ProfileFormatError(ValueError):
    """Malformed profile text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _is_exact(value: Number) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


class UtilityClass(enum.Enum):
    UNIT_SUM = "unit-sum"
    UNIT_RANGE = "unit-range"
    APPROVAL = "approval"
    BALANCED = "balanced"
    ALL = "all"


# Containments used for evaluator delegation and monotonicity tests:
# approval <= unit-range <= balanced, unit-sum <= balanced, everything <= all.
_CONTAINMENTS = {
    (UtilityClass.APPROVAL, UtilityClass.UNIT_RANGE),
    (UtilityClass.APPROVAL, UtilityClass.BALANCED),
    (UtilityClass.UNIT_RANGE, UtilityClass.BALANCED),
    (UtilityClass.UNIT_SUM, UtilityClass.BALANCED),
}


def class_contains(outer: UtilityClass, inner: UtilityClass) -> bool:
    """True iff every utility function of class `inner` belongs to `outer`."""
    if outer is inner or outer is UtilityClass.ALL:
        return True
    return (inner, outer) in _CONTAINMENTS


@dataclass(frozen=True, eq=False)
class PreferenceProfile:
    """A profile of ranked ballots over m alternatives.

    Ballots are stored once with a positive integer multiplicity; every
    downstream aggregate is weight-aware, so lower-bound instances with
    thousands of identical agents stay cheap. `orders[b]` lists alternatives
    best-to-worst (0-indexed) for stored ballot b.
    """

    m: int
    orders: tuple[tuple[int, ...], ...]  # stored as tuples; given as any (B, m) int array-like
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one alternative")
        if not len(self.orders):
            raise ValueError("need at least one ballot")
        if len(self.orders) != len(self.weights):
            raise ValueError("orders/weights length mismatch")
        orders = _ballot_array(self.orders, self.m)
        object.__setattr__(self, "orders", tuple(map(tuple, orders.tolist())))
        ranks, bad = _ranks(orders, 0)
        if bad is not None:
            raise ValueError(f"ballot {self.orders[bad]} is not a permutation "
                             f"of 0..{self.m - 1}")
        if any(w < 1 or not isinstance(w, int) for w in self.weights):
            raise ValueError("multiplicities must be positive integers")
        # the array view, built once: best-to-worst orders, 1-based ranks and
        # float weights, all read-only so every caller can share them.
        # _rank_index[b, a] is the flat index of a's rank in row b, which
        # gathers per-ballot sums in rank order back to alternatives.
        weights = np.asarray(self.weights, dtype=np.float64)
        rank_index = ranks - 1 + self.m * np.arange(len(orders))[:, None]
        for name, arr in (("_orders", orders), ("_ranks", ranks), ("_weights", weights),
                          ("_rank_index", rank_index)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_n", sum(self.weights))

    @property
    def n(self) -> int:
        """Total agent count (sum of multiplicities)."""
        return self._n

    @property
    def num_ballots(self) -> int:
        return len(self.orders)

    def rank_of(self, ballot: int, alternative: int) -> int:
        """Position of `alternative` in stored ballot's ranking, 1 = best."""
        return self.orders[ballot].index(alternative) + 1

    def rank_matrix(self) -> np.ndarray:
        """Read-only (num_ballots, m) int array; entry [b, a] is the 1-based rank of a."""
        return self._ranks

    def order_matrix(self) -> np.ndarray:
        """Read-only (num_ballots, m) int array; row b is `orders[b]`."""
        return self._orders

    def weight_array(self) -> np.ndarray:
        """Read-only float array of the ballot multiplicities."""
        return self._weights

    def top_fractions(self, exact: bool = False) -> list:
        """Fraction of agents ranking each alternative first (the p_a vector)."""
        counts = [0] * self.m
        for order, w in zip(self.orders, self.weights):
            counts[order[0]] += w
        n = self.n
        if exact:
            return [Fraction(c, n) for c in counts]
        return [c / n for c in counts]

    def canonical(self) -> tuple:
        grouped: dict[tuple[int, ...], int] = {}
        for order, w in zip(self.orders, self.weights):
            grouped[order] = grouped.get(order, 0) + w
        return (self.m, tuple(sorted(grouped.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PreferenceProfile):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


def _ballot_array(ballots: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """The ballots as a (len(ballots), m) int64 array."""
    try:
        orders = np.asarray(ballots)
    except ValueError:  # ragged
        orders = None
    if orders is None or orders.shape != (len(ballots), m) or orders.dtype.kind not in "iu":
        raise ValueError(f"ballots must be sequences of {m} integers in 0..{m - 1}")
    return orders.astype(np.int64, copy=False)


def _ranks(orders: np.ndarray, base: int) -> tuple[np.ndarray, Optional[int]]:
    """Check and invert a (B, m) array of ballots over the alternatives
    base..base+m-1. Returns the (B, m) int64 array whose entry [b, a] is the
    1-based rank of alternative base+a in row b, and the index of the first
    row that is not a permutation (None when every row is one); the ranks of
    such a row mean nothing."""
    b, m = orders.shape
    values = orders - base
    in_range = ((values >= 0) & (values < m)).all(axis=1)
    if not in_range.all():  # rows with an entry out of range list alternative 0 only
        values = np.where(in_range[:, None], values, 0).astype(np.int64)
    ranks = np.zeros((b, m), dtype=np.int64)
    ranks[np.arange(b)[:, None], values] = np.arange(1, m + 1)
    bad = ~in_range | (ranks == 0).any(axis=1)  # a rank of 0: an alternative left out
    return ranks, (int(bad.argmax()) if bad.any() else None)


@dataclass(frozen=True, eq=True)
class Distribution:
    """A point in the m-simplex, optionally with exact rational entries."""

    probs: tuple[Number, ...]

    def __post_init__(self):
        if not self.probs:
            raise ValueError("empty distribution")
        # NaN passes both the sign and the sum test below
        if any(isinstance(p, float) and not math.isfinite(p) for p in self.probs):
            raise ValueError(f"non-finite probability in {self.probs}")
        if any(p < 0 for p in self.probs):
            raise ValueError(f"negative probability in {self.probs}")
        total = sum(self.probs)
        if self.exact:
            if total != 1:
                raise ValueError(f"exact probabilities sum to {total}, not 1")
        elif abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}")

    @property
    def m(self) -> int:
        return len(self.probs)

    @property
    def exact(self) -> bool:
        return all(_is_exact(p) for p in self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray([float(p) for p in self.probs], dtype=np.float64)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "probs": list(self.probs)}

    @staticmethod
    def point_mass(m: int, alternative: int, exact: bool = False) -> "Distribution":
        one: Number = Fraction(1) if exact else 1.0
        zero: Number = Fraction(0) if exact else 0.0
        return Distribution(tuple(one if a == alternative else zero for a in range(m)))

    @staticmethod
    def uniform(m: int, exact: bool = False) -> "Distribution":
        p: Number = Fraction(1, m) if exact else 1.0 / m
        return Distribution((p,) * m)


@dataclass(frozen=True)
class UtilityProfile:
    """Per-ballot utility vectors; rows align with a profile's stored ballots.

    The container itself does not enforce consistency or class constraints --
    that is `check_consistency`'s job, so deliberately broken profiles can be
    constructed in tests.
    """

    utils: tuple[tuple[Number, ...], ...]
    class_tag: UtilityClass
    weights: tuple[int, ...]

    def __post_init__(self):
        if not self.utils:
            raise ValueError("empty utility profile")
        m = len(self.utils[0])
        if any(len(row) != m for row in self.utils):
            raise ValueError("ragged utility matrix")
        # NaN passes every order and class comparison. A non-finite float
        # makes its row's sum a non-finite float, so only such rows are scanned.
        for b, row in enumerate(self.utils):
            total = sum(row)
            if isinstance(total, float) and not math.isfinite(total) and any(
                    isinstance(v, float) and not math.isfinite(v) for v in row):
                raise ValueError(f"non-finite utility in row {b + 1}: {row}")
        if len(self.weights) != len(self.utils):
            raise ValueError("weights/utils length mismatch")

    @property
    def m(self) -> int:
        return len(self.utils[0])

    @property
    def n(self) -> int:
        return sum(self.weights)

    @property
    def num_ballots(self) -> int:
        return len(self.utils)

    @property
    def exact(self) -> bool:
        return all(_is_exact(v) for row in self.utils for v in row)

    def as_array(self) -> np.ndarray:
        return np.asarray([[float(v) for v in row] for row in self.utils], dtype=np.float64)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)

    def expected(self, x: Distribution) -> list:
        """Per-ballot expected utility u_i(x)."""
        return [sum(u * p for u, p in zip(row, x.probs)) for row in self.utils]

    def to_json_dict(self) -> dict:
        return {"class": self.class_tag.value, "utils": [list(r) for r in self.utils],
                "weights": list(self.weights)}


class ConsistencyViolation(NamedTuple):
    kind: str            # "order" or "class"
    ballot: int
    detail: str
    better: Optional[int] = None   # 0-indexed alternatives for order violations
    worse: Optional[int] = None


def from_rankings(rankings: Sequence[Sequence[int]], m: Optional[int] = None,
                  weights: Optional[Sequence[int]] = None) -> PreferenceProfile:
    """Build a profile from 0-indexed best-to-worst rankings."""
    orders = tuple(tuple(r) for r in rankings)
    if m is None:
        m = len(orders[0])
    w = tuple(weights) if weights is not None else (1,) * len(orders)
    return PreferenceProfile(m=m, orders=orders, weights=w)


def parse_profile(text: str) -> PreferenceProfile:
    """Parse the profile text format.

    First content line is "n m"; each following line is either
    "r1 r2 ... rm" or "k: r1 ... rm" (multiplicity k), alternatives listed
    best-to-worst, 1-indexed, separated by blanks. Lines starting with '#'
    are comments.
    """
    header: Optional[tuple[int, int]] = None
    linenos: list[int] = []
    heads: list[str] = []  # multiplicity texts, "1" on a line without "k:"
    bodies: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is not None:
            head, colon, body = line.partition(":")
            linenos.append(lineno)
            heads.append(head if colon else "1")
            bodies.append(body if colon else line)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ProfileFormatError(f"expected header 'n m', got {line!r}", lineno)
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise ProfileFormatError(f"non-integer header {line!r}", lineno) from None
        if n < 1 or m < 1:
            raise ProfileFormatError(f"need n >= 1 and m >= 1, got n={n} m={m}", lineno)
        header = (n, m)
    if header is None:
        raise ProfileFormatError("empty profile", 1)
    n, m = header
    if not bodies:
        raise ProfileFormatError("header present but no ballots", 1)
    profile = _parse_plain(heads, bodies, m) or _parse_lines(linenos, heads, bodies, m)
    if profile.n != n:
        raise ProfileFormatError(f"header says n={n} but ballots carry total weight {profile.n}", 1)
    return profile


# Fewer entries than this read faster line by line: the C pass makes more numpy
# calls, which are slow on the cold caches a solver leaves between CLI calls.
_PLAIN_MIN_ENTRIES = 100


def _parse_plain(heads: list[str], bodies: list[str], m: int) -> Optional[PreferenceProfile]:
    """The profile of these ballot lines, their entries read by one np.fromstring
    pass; None on fewer than _PLAIN_MIN_ENTRIES entries or unless that pass is
    sure to read every entry as int() does, and the line loop then reads them."""
    if len(bodies) * m < _PLAIN_MIN_ENTRIES:
        return None
    plain = "\n".join(bodies).encode("ascii", "replace")
    digits = plain.translate(None, b" \t\n")
    if not digits.isdigit():
        return None  # a character other than an ASCII digit or blank
    # " -1" ends each row, so a body of more or fewer than m entries leaves
    # a count that does not reshape, or moves a -1 into the ballots: both raise
    values = np.fromstring(plain.replace(b"\n", b" -1\n") + b" -1", dtype=np.int64, sep=" ")
    try:
        profile = PreferenceProfile(m=m, orders=values.reshape(-1, m + 1)[:, :m] - 1,
                                    weights=tuple(map(int, heads)))
    except ValueError:
        return None
    # The rows are permutations of 1..m, so their entries have exactly the digits
    # of "1".."m" unless one has a leading zero or overflowed int64 (19 digits or
    # more, which numpy 2.4 clamps to 2**63 - 1 and another numpy may wrap).
    return profile if len(digits) == len(bodies) * len("".join(map(str, range(1, m + 1)))) else None


def _parse_lines(linenos: list[int], heads: list[str], bodies: list[str], m: int
                 ) -> PreferenceProfile:
    """The profile of these ballot lines read line by line with int(): the
    definition of the format, raising ProfileFormatError at the first bad line."""
    rows: list[list[int]] = []
    weights: list[int] = []
    try:
        for lineno, head, body in zip(linenos, heads, bodies):
            try:
                mult = int(head)
            except ValueError:
                raise ProfileFormatError(f"bad multiplicity {head.strip()!r}", lineno) from None
            if mult < 1:
                raise ProfileFormatError(f"multiplicity must be positive, got {mult}", lineno)
            try:
                ranks = list(map(int, body.split()))
            except ValueError:
                raise ProfileFormatError(f"non-integer ballot entry in {body.strip()!r}",
                                         lineno) from None
            if len(ranks) != m:
                raise ProfileFormatError(f"ballot has {len(ranks)} entries, expected {m}",
                                         lineno)
            rows.append(ranks)
            weights.append(mult)
        return PreferenceProfile(m=m, orders=np.array(rows) - 1, weights=tuple(weights))
    except ValueError:  # a bad line, or a ballot that is not a permutation
        # a bad ballot on an earlier line is the first error
        _check_ballots(rows, linenos, bodies)
        raise


def _check_ballots(rows: list[list[int]], linenos: list[int], bodies: list[str]) -> None:
    """Raise ProfileFormatError at the first line whose parsed 1-based ballot
    (rows of one length m) is not a permutation."""
    ballots = np.array(rows)  # int64, or float64/object when an entry is huge
    bad = _ranks(ballots, 1)[1] if rows else None
    if bad is None:
        return
    m = ballots.shape[1]
    out_of_range = [r for r in rows[bad] if not 1 <= r <= m]
    if out_of_range:
        raise ProfileFormatError(f"alternative {out_of_range[0]} out of range 1..{m}",
                                 linenos[bad])
    raise ProfileFormatError(f"ballot {bodies[bad].strip()!r} is not a permutation", linenos[bad])


def serialize_profile(profile: PreferenceProfile) -> str:
    lines = [f"{profile.n} {profile.m}"]
    for order, w in zip(profile.orders, profile.weights):
        body = " ".join(str(a + 1) for a in order)
        lines.append(body if w == 1 else f"{w}: {body}")
    return "\n".join(lines) + "\n"


def prefix_mass(x: Distribution, profile: PreferenceProfile, ballot: int,
                alternative: int) -> Number:
    """Mass x places on the alternatives ballot `ballot` ranks weakly above
    `alternative` (the set h_i(a)); equals 1 at the ballot's bottom choice."""
    if not 0 <= ballot < profile.num_ballots:
        raise IndexError(f"ballot index {ballot} out of range")
    if not 0 <= alternative < profile.m:
        raise IndexError(f"alternative {alternative} out of range")
    order = profile.orders[ballot]
    total: Number = 0
    for a in order:
        total = total + x.probs[a]
        if a == alternative:
            return total
    raise AssertionError("unreachable: alternative must appear in the ranking")


def prefix_mass_matrix(x: np.ndarray, profile: PreferenceProfile) -> np.ndarray:
    """(num_ballots, m) float array H with H[b, a] = x(h_b(a)): the running
    sum of x down each ballot, gathered back to alternatives."""
    return at_ranks(x[profile.order_matrix()].cumsum(axis=1), profile)


def at_ranks(by_depth: np.ndarray, profile: PreferenceProfile, above: bool = False) -> np.ndarray:
    """Entry [b, a] is by_depth[b, r], r the 0-based rank of a on ballot b, or
    with `above` by_depth[b, max(r - 1, 0)]: a selection, exact in any dtype."""
    index = profile._rank_index
    if above:  # index - r is the row's start
        index = np.maximum(index - 1, index - (profile._ranks - 1))
    return by_depth.take(index)


def _class_violation(row: Sequence[Number], tag: UtilityClass, ballot: int) -> Optional[ConsistencyViolation]:
    total = sum(row)
    top = max(row)
    if tag is UtilityClass.UNIT_SUM:
        if not _is_one(total, row):
            return ConsistencyViolation("class", ballot, f"unit-sum row sums to {total}")
    elif tag is UtilityClass.UNIT_RANGE:
        if not _is_one(top, row):
            return ConsistencyViolation("class", ballot, f"unit-range row has max {top}")
    elif tag is UtilityClass.APPROVAL:
        if any(v not in (0, 1) for v in row):
            return ConsistencyViolation("class", ballot, "approval entries must be 0/1")
        if top != 1:
            return ConsistencyViolation("class", ballot, "approval row needs at least one 1")
    elif tag is UtilityClass.BALANCED:
        if top > 1 + (0 if _is_exact(top) else SUM_TOLERANCE):
            return ConsistencyViolation("class", ballot, f"balanced row has max {top} > 1")
        if total < 1 - (0 if _is_exact(total) else SUM_TOLERANCE):
            return ConsistencyViolation("class", ballot, f"balanced row sums to {total} < 1")
    return None


def _is_one(value: Number, row: Sequence[Number]) -> bool:
    """value == 1, exactly for an exact row and within SUM_TOLERANCE otherwise."""
    if all(_is_exact(v) for v in row):
        return value == 1
    return abs(float(value) - 1.0) <= SUM_TOLERANCE


def check_consistency(u: UtilityProfile, profile: PreferenceProfile
                      ) -> tuple[bool, Optional[ConsistencyViolation]]:
    """True iff utilities are non-increasing along each ballot's ranking (ties
    allowed; comparison is >=) and the class_tag constraints hold. Raises
    ValueError when the shape or the ballot weights differ from the profile's."""
    if u.m != profile.m or u.num_ballots != profile.num_ballots:
        raise ValueError("utility profile dimensions do not match the preference profile")
    if u.weights != profile.weights:
        raise ValueError(f"utility weights {list(u.weights)} do not match the profile's "
                         f"ballot weights {list(profile.weights)}")
    for b, (order, row) in enumerate(zip(profile.orders, u.utils)):
        for better, worse in zip(order, order[1:]):
            if row[better] < row[worse]:
                return False, ConsistencyViolation(
                    "order", b, f"u({better})={row[better]} < u({worse})={row[worse]}",
                    better=better, worse=worse)
        if u.class_tag is not UtilityClass.ALL:
            violation = _class_violation(row, u.class_tag, b)
            if violation is not None:
                return False, violation
    return True, None


def prefix_utility_row(order: Sequence[int], depth: int, m: int,
                       uniform: bool = False, exact: bool = False) -> tuple[Number, ...]:
    """Utility row approving (or 1/depth-valuing) the ballot's top `depth`."""
    if uniform:
        value: Number = Fraction(1, depth) if exact else 1.0 / depth
    else:
        value = Fraction(1) if exact else 1.0
    zero: Number = Fraction(0) if exact else 0.0
    row = [zero] * m
    for a in order[:depth]:
        row[a] = value
    return tuple(row)


def random_consistent_utilities(profile: PreferenceProfile, tag: UtilityClass,
                                rng: np.random.Generator) -> UtilityProfile:
    """Draw a random utility profile consistent with `profile` in class `tag`."""
    m = profile.m
    rows = []
    for order in profile.orders:
        if tag is UtilityClass.APPROVAL:
            depth = int(rng.integers(1, m + 1))
            rows.append(prefix_utility_row(order, depth, m))
        elif tag is UtilityClass.UNIT_SUM:
            draws = rng.exponential(size=m)
            vals = np.sort(draws / draws.sum())[::-1]
            rows.append(_row_from_sorted(order, vals, m))
        elif tag is UtilityClass.UNIT_RANGE:
            vals = np.sort(rng.uniform(size=m - 1))[::-1] if m > 1 else np.empty(0)
            rows.append(_row_from_sorted(order, np.concatenate(([1.0], vals)), m))
        elif tag is UtilityClass.BALANCED:
            # unit-sum and unit-range draws are both balanced; mix them
            if rng.uniform() < 0.5:
                draws = rng.exponential(size=m)
                vals = np.sort(draws / draws.sum())[::-1]
            else:
                vals = np.sort(rng.uniform(size=m - 1))[::-1] if m > 1 else np.empty(0)
                vals = np.concatenate(([1.0], vals))
            rows.append(_row_from_sorted(order, vals, m))
        elif tag is UtilityClass.ALL:
            vals = np.sort(rng.exponential(size=m))[::-1]
            rows.append(_row_from_sorted(order, vals, m))
        else:
            raise ValueError(f"unsupported class {tag}")
    return UtilityProfile(utils=tuple(rows), class_tag=tag, weights=profile.weights)


def _row_from_sorted(order: Sequence[int], sorted_vals: Iterable[float], m: int) -> tuple[float, ...]:
    row = [0.0] * m
    for a, v in zip(order, sorted_vals):
        row[a] = float(v)
    return tuple(row)


def random_profile(n: int, m: int, rng: np.random.Generator) -> PreferenceProfile:
    """n independent uniformly random ballots over m alternatives."""
    orders = tuple(tuple(int(a) for a in rng.permutation(m)) for _ in range(n))
    return PreferenceProfile(m=m, orders=orders, weights=(1,) * n)
