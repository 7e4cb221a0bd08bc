import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairvote as fv
from fairvote.profiles import ProfileFormatError


class TestParsing:
    def test_triad(self, triad):
        assert triad.n == 3 and triad.m == 3
        assert triad.orders == ((0, 1, 2), (1, 0, 2), (0, 2, 1))

    def test_single_agent_single_alternative(self):
        p = fv.parse_profile("1 1\n1")
        assert p.n == p.m == 1 and p.orders == ((0,),)

    def test_multiplicity_equals_explicit_expansion(self):
        expanded = fv.parse_profile("2 3\n1 2 3\n1 2 3")
        compact = fv.parse_profile("2 3\n2: 1 2 3")
        assert compact == expanded
        assert compact.num_ballots == 1 and compact.n == 2

    def test_comments_and_blank_lines(self):
        p = fv.parse_profile("# a comment\n\n2 2\n1 2\n# mid\n2 1\n")
        assert p.n == 2

    @pytest.mark.parametrize("text,line", [
        ("3\n1 2 3", 1),              # malformed header
        ("1 3\n1 2 2", 2),            # not a permutation
        ("1 3\n1 2 4", 2),            # out of range
        ("2 2\n1 2", 1),              # weight total mismatch
        ("1 2\n0: 1 2", 2),           # bad multiplicity
        ("1 2\nx: 1 2", 2),
        ("1 2\n1 2 1", 2),            # wrong length
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ProfileFormatError) as err:
            fv.parse_profile(text)
        assert err.value.line == line

    def test_round_trip(self, triad):
        assert fv.parse_profile(fv.serialize_profile(triad)) == triad

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 7))
            p = fv.random_profile(n, m, rng)
            assert fv.parse_profile(fv.serialize_profile(p)) == p

    def test_round_trip_with_multiplicities(self):
        p = fv.parse_profile("7 3\n3: 1 2 3\n4: 2 3 1")
        assert fv.parse_profile(fv.serialize_profile(p)) == p


class TestPrefixMass:
    def test_triad_agent2_alt1(self, triad, x_half):
        # agent i2 ranks a2 > a1 > a3, so h covers a2 and a1
        assert fv.prefix_mass(x_half, triad, 1, 0) == F(3, 4)

    def test_top_is_singleton(self, triad, x_half):
        for b in range(3):
            top = triad.orders[b][0]
            assert fv.prefix_mass(x_half, triad, b, top) == x_half.probs[top]

    def test_bottom_is_one(self, triad, x_half):
        for b in range(3):
            bottom = triad.orders[b][-1]
            assert fv.prefix_mass(x_half, triad, b, bottom) == 1

    def test_monotone_down_the_ranking(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = fv.random_profile(3, 5, rng)
            x = fv.Distribution(tuple(rng.dirichlet(np.ones(5))))
            for b in range(3):
                masses = [fv.prefix_mass(x, p, b, a) for a in p.orders[b]]
                assert all(lo <= hi + 1e-15 for lo, hi in zip(masses, masses[1:]))
                assert masses[-1] == pytest.approx(1.0, abs=1e-12)

    def test_index_validation(self, triad, x_half):
        with pytest.raises(IndexError):
            fv.prefix_mass(x_half, triad, 5, 0)
        with pytest.raises(IndexError):
            fv.prefix_mass(x_half, triad, 0, 7)


class TestConsistency:
    def test_triad_u2_consistent(self, triad, u2):
        ok, violation = fv.check_consistency(u2, triad)
        assert ok and violation is None

    def test_reversed_pair(self):
        p = fv.parse_profile("1 2\n1 2")
        u = fv.UtilityProfile(utils=((0, 1),), class_tag=fv.UtilityClass.ALL, weights=(1,))
        ok, violation = fv.check_consistency(u, p)
        assert not ok
        assert violation.kind == "order"
        assert (violation.ballot, violation.better, violation.worse) == (0, 0, 1)

    def test_approval_class_violation(self, triad):
        u = fv.UtilityProfile(utils=((1, 0.5, 0),) * 3,
                              class_tag=fv.UtilityClass.APPROVAL, weights=(1, 1, 1))
        ok, violation = fv.check_consistency(u, triad)
        assert not ok and violation.kind == "class"

    def test_dimension_mismatch(self, triad):
        u = fv.UtilityProfile(utils=((1, 0),), class_tag=fv.UtilityClass.ALL, weights=(1,))
        with pytest.raises(ValueError):
            fv.check_consistency(u, triad)

    def test_weight_mismatch(self, triad, u2):
        u = fv.UtilityProfile(utils=u2.utils, class_tag=u2.class_tag, weights=(5, 1, 1))
        with pytest.raises(ValueError, match="ballot weights"):
            fv.check_consistency(u, triad)
        # the same weights as numbers of another type still match
        u = fv.UtilityProfile(utils=u2.utils, class_tag=u2.class_tag,
                              weights=(1.0, F(1), 1))
        assert fv.check_consistency(u, triad) == (True, None)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_exact_prefix_utility_rows_are_fractions(self, uniform):
        row = fv.profiles.prefix_utility_row((2, 0, 1, 3), 2, 4, uniform=uniform, exact=True)
        assert all(type(v) is F for v in row)
        top = F(1, 2) if uniform else F(1)
        assert row == (top, 0, top, 0)

    @pytest.mark.parametrize("tag", list(fv.UtilityClass))
    def test_random_generator_always_consistent(self, tag):
        # 1000 seeded draws across profiles, spread over the five classes
        rng = np.random.default_rng(hash(tag.value) % 2**32)
        for _ in range(200):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            p = fv.random_profile(n, m, rng)
            u = fv.random_consistent_utilities(p, tag, rng)
            ok, violation = fv.check_consistency(u, p)
            assert ok, violation


class TestUtilityClasses:
    def test_containments(self):
        C = fv.UtilityClass
        assert fv.class_contains(C.UNIT_RANGE, C.APPROVAL)
        assert fv.class_contains(C.BALANCED, C.UNIT_RANGE)
        assert fv.class_contains(C.BALANCED, C.APPROVAL)
        assert fv.class_contains(C.BALANCED, C.UNIT_SUM)
        assert fv.class_contains(C.ALL, C.BALANCED)
        assert not fv.class_contains(C.UNIT_SUM, C.APPROVAL)
        assert not fv.class_contains(C.APPROVAL, C.UNIT_RANGE)


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fv.Distribution((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            fv.Distribution((0.5, 0.4))
        with pytest.raises(ValueError):
            fv.Distribution((F(1, 2), F(1, 3)))

    def test_exact_flag(self):
        assert fv.Distribution((F(1, 2), F(1, 2))).exact
        assert not fv.Distribution((0.5, 0.5)).exact

    def test_float_tolerance(self):
        fv.Distribution((0.1,) * 10)  # fp dust within 1e-12 is fine

    def test_immutability(self, triad, x_half):
        with pytest.raises(Exception):
            x_half.probs = (1, 0, 0)
        with pytest.raises(Exception):
            triad.m = 5


class TestArrayView:
    def test_matches_the_ballots(self):
        p = fv.from_rankings([(2, 0, 1), (1, 2, 0)], weights=(3, 2))
        assert p.order_matrix().tolist() == [[2, 0, 1], [1, 2, 0]]
        assert p.rank_matrix().tolist() == [[2, 3, 1], [3, 1, 2]]
        assert p.weight_array().tolist() == [3.0, 2.0] and p.n == 5

    @pytest.mark.parametrize("method", ["rank_matrix", "order_matrix", "weight_array"])
    def test_is_built_once_and_read_only(self, triad, method):
        arr = getattr(triad, method)()
        assert arr is getattr(triad, method)()
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_utility_profile_rejects_non_finite_floats():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            fv.UtilityProfile(utils=((1.0, bad),), class_tag=fv.UtilityClass.ALL, weights=(1,))


def reference_parse_profile(text: str) -> fv.PreferenceProfile:
    """The line-by-line parser with per-token checks, kept verbatim as the oracle."""
    header = None
    orders = []
    weights = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
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
            continue
        n, m = header
        mult = 1
        body = line
        if ":" in line:
            head, body = line.split(":", 1)
            try:
                mult = int(head.strip())
            except ValueError:
                raise ProfileFormatError(f"bad multiplicity {head.strip()!r}", lineno) from None
            if mult < 1:
                raise ProfileFormatError(f"multiplicity must be positive, got {mult}", lineno)
        try:
            ranks = [int(tok) for tok in body.split()]
        except ValueError:
            raise ProfileFormatError(f"non-integer ballot entry in {body.strip()!r}", lineno) from None
        if len(ranks) != m:
            raise ProfileFormatError(f"ballot has {len(ranks)} entries, expected {m}", lineno)
        for r in ranks:
            if not 1 <= r <= m:
                raise ProfileFormatError(f"alternative {r} out of range 1..{m}", lineno)
        if len(set(ranks)) != m:
            raise ProfileFormatError(f"ballot {body.strip()!r} is not a permutation", lineno)
        orders.append(tuple(r - 1 for r in ranks))
        weights.append(mult)
    if header is None:
        raise ProfileFormatError("empty profile", 1)
    n, m = header
    if not orders:
        raise ProfileFormatError("header present but no ballots", 1)
    total = sum(weights)
    if total != n:
        raise ProfileFormatError(f"header says n={n} but ballots carry total weight {total}", 1)
    return fv.PreferenceProfile(m=m, orders=tuple(orders), weights=tuple(weights))


BAD_TOKENS = ("0", "-1", "x", "1.5", "+2", "1_0", "99999999999999999999999", str(2 ** 63), "")


@st.composite
def profile_texts(draw):
    """Profile texts, valid or not: a header, then ballot lines that may
    repeat or drop an alternative, carry a bad token or a bad multiplicity,
    or have the wrong length; comments and blank lines anywhere."""
    m = draw(st.integers(1, 5))
    lines = []
    total = 0
    for _ in range(draw(st.integers(0, 7))):
        ballot = [str(a + 1) for a in draw(st.permutations(range(m)))]
        edit = draw(st.sampled_from(["none"] * 4 + ["dup", "token", "drop", "extra"]))
        if edit == "dup" and m > 1:
            ballot[draw(st.integers(0, m - 1))] = ballot[draw(st.integers(0, m - 1))]
        elif edit == "token":
            ballot[draw(st.integers(0, m - 1))] = draw(st.sampled_from(BAD_TOKENS + (str(m + 1),)))
        elif edit == "drop":
            ballot.pop()
        elif edit == "extra":
            ballot.append(str(draw(st.integers(1, m + 1))))
        body = " ".join(ballot)
        mult = draw(st.sampled_from([None] * 8 + ["1", "2", "3", " 2 ", "0", "-2", "y"]))
        lines.append(body if mult is None else f"{mult}: {body}")
        total += 1 if mult is None or not mult.strip().lstrip("-").isdigit() else int(mult)
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   ", "#1 1 1"])))
    n = draw(st.sampled_from([max(total, 1)] * 6 + [total + 1, 0]))
    header = draw(st.sampled_from([f"{n} {m}"] * 16 + [f"{n}", f"{n} {m} 1", f"{n} x",
                                                       f"{n} 0"]))
    head = [header] if draw(st.integers(0, 19)) else []
    return "\n".join(head + lines) + draw(st.sampled_from(["", "\n"]))


def parse_outcome(parse, text):
    try:
        p = parse(text)
    except ProfileFormatError as exc:
        return ("error", exc.line, str(exc))
    return ("profile", p.m, p.orders, p.weights)


@given(profile_texts())
@settings(max_examples=600, deadline=None)
@example("3 3\n1 2 2\n1 4 2\n1 2 3\n")           # two bad ballots: line 2 is reported
@example("3 3\n1 2 4\n1 x 2\n1 2 3\n")           # out of range before a non-integer
@example("3 3\n2 2 1\n0: 1 2 3\n1 2 3\n")        # duplicate before a bad multiplicity
@example("3 3\n1 2 3\n1 2 99999999999999999999999 \n1 2 3")
@example("2 2\n1 2\n2 1 2\n")                    # wrong length
@example("2 2\n1 2\n9223372036854775808 1\n")
@example("# only a comment\n")
@example("4 2\n2: 1 2\n1 2\n")                   # weight total mismatch
def test_parse_matches_reference(text):
    assert parse_outcome(fv.parse_profile, text) == parse_outcome(reference_parse_profile, text)


def test_first_of_two_bad_lines_is_reported():
    text = "3 3\n1 2 3\n3 3 1\n1 2 4\n"
    with pytest.raises(ProfileFormatError) as err:
        fv.parse_profile(text)
    assert err.value.line == 3 and str(err.value) == "line 3: ballot '3 3 1' is not a permutation"
    with pytest.raises(ProfileFormatError) as err:
        fv.parse_profile(text.replace("3 3 1", "3 0 1"))
    assert err.value.line == 3 and str(err.value) == "line 3: alternative 0 out of range 1..3"


@given(st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.lists(st.integers(-1, m), min_size=m, max_size=m),
                         min_size=1, max_size=6))))
@settings(max_examples=300, deadline=None)
def test_constructor_accepts_exactly_the_permutations(case):
    m, ballots = case
    orders = tuple(tuple(b) for b in ballots)
    first_bad = next((o for o in orders if tuple(sorted(o)) != tuple(range(m))), None)
    if first_bad is None:
        assert fv.PreferenceProfile(m=m, orders=orders, weights=(1,) * len(orders)).m == m
    else:
        with pytest.raises(ValueError, match=f"ballot {re.escape(str(first_bad))} is not a"):
            fv.PreferenceProfile(m=m, orders=orders, weights=(1,) * len(orders))


@pytest.mark.parametrize("orders", [((0, 1), (1,)), ((0, 1, 2),), ((0.0, 1.0),),
                                    ((0, "1"),), ((0, None),), ((0, 2 ** 70),)])
def test_constructor_rejects_ballots_that_are_not_m_integers(orders):
    with pytest.raises(ValueError):
        fv.PreferenceProfile(m=2, orders=orders, weights=(1,) * len(orders))


# Entries np.fromstring may read otherwise than int() does: padded or
# overflowing digit runs (2**64 - 1 and 2**64 + 1 wrap to -1 and 1 in a
# wrapping int64), signs, underscores, non-ASCII digits and a lone surrogate.
EDGE_TOKENS = ("0" * 17 + "1", "9" * 18, "9" * 19, "9" * 20, str(2 ** 63), str(2 ** 64 - 1),
               str(2 ** 64 + 1), "+2", "1_0", "٣", "-1", "007", "\ud800")


def wrapping_fromstring(text, dtype, sep):
    """np.fromstring as a numpy that wraps int64 overflow would read `text`."""
    return np.array([(int(t) + 2 ** 63) % 2 ** 64 - 2 ** 63 for t in text.split()], dtype=dtype)


@st.composite
def plain_profile_texts(draw):
    """Profile texts at the edges of plain text: m up to 60, entries padded to
    17-20 digits or replaced by an edge token, blanks that are tabs, runs or
    a no-break space, CRLF line ends, trailing blanks, "k :" and ": 1 2"
    multiplicities, plain and "k:" lines mixed, comments between ballots, and
    an entry moved to the next ballot (which keeps the entry count B * m)."""
    m = draw(st.integers(1, 60))
    ballots = [[str(a + 1) for a in draw(st.permutations(range(m)))]
               for _ in range(draw(st.integers(1, 5)))]
    for ballot in ballots:
        if draw(st.integers(0, 3)) == 0:
            i = draw(st.integers(0, m - 1))
            ballot[i] = draw(st.sampled_from(EDGE_TOKENS + tuple(
                ballot[i].zfill(width) for width in (17, 18, 19, 20))))
    if len(ballots) > 1 and draw(st.integers(0, 3)) == 0:
        j = draw(st.integers(0, len(ballots) - 2))
        ballots[j + 1].insert(0, ballots[j].pop())
    lines, total = [], 0
    for ballot in ballots:
        blanks = draw(st.lists(st.sampled_from([" "] * 6 + ["  ", "\t", " \t", "\xa0"]),
                               min_size=len(ballot), max_size=len(ballot)))
        body = "".join(b + t for b, t in zip(blanks, ballot)) + draw(
            st.sampled_from(["", "", " ", "\t "]))
        mult = draw(st.sampled_from([None] * 4 + ["1", "2", "13", "2 ", "", "+2", "٣"]))
        lines.append(body.lstrip() if mult is None else f"{mult}:{body}")
        total += 1 if mult is None or not mult.strip().isdigit() else int(mult)
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["# comment", "", " \t", "#1 2"])))
    n = draw(st.sampled_from([total] * 8 + [total + 1]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([f"{n} {m}"] + lines) + draw(st.sampled_from(["", end]))


@given(plain_profile_texts(), st.booleans())
@settings(max_examples=400, deadline=None)
@example("2 3\n1 2 3 1\n2 3\n", False)            # one entry too many, then one too few
@example("1 3\n1 2 " + "0" * 18 + "3\n", False)    # a 19-digit entry of value 3
@example("1 2\n2 " + str(2 ** 64 + 1) + "\n", True)  # 1 in a wrapping int64
@example("2 2\n1 2\n" + str(2 ** 64 - 1) + " 2 1\n", True)
def test_plain_parse_matches_reference(text, wrap):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fv.profiles, "_PLAIN_MIN_ENTRIES", 0)
        if wrap:
            patch.setattr(np, "fromstring", wrapping_fromstring)
        assert parse_outcome(fv.parse_profile, text) == parse_outcome(reference_parse_profile,
                                                                      text)


def test_plain_text_is_read_by_the_c_pass(monkeypatch):
    def line_loop(*args):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(fv.profiles, "_parse_lines", line_loop)
    rng = np.random.default_rng(7)  # a weighted profile of the `evaluate` workload's size
    weights = rng.integers(1, 20, size=200)
    text = f"{weights.sum()} 49\n" + "".join(
        f"{w}: " + " ".join(map(str, rng.permutation(49) + 1)) + "\n" for w in weights.tolist())
    assert parse_outcome(fv.parse_profile, text) == parse_outcome(reference_parse_profile, text)
    monkeypatch.setattr(fv.profiles, "_PLAIN_MIN_ENTRIES", 0)  # and on few entries too
    text = "3 3\n1 2 3\n2 1 3\n# mid\n1\t3 2\r\n"
    assert parse_outcome(fv.parse_profile, text) == parse_outcome(reference_parse_profile, text)
