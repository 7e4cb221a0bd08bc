"""Each output check accepts a real program output and rejects a deliberately
corrupted one.

    python3 -m pytest bench/test_checks.py -q
"""

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402
from fairvote import cli  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run([str(a) for a in argv]) == 0
    return json.loads(out.getvalue())


def instance(seed, ballots, m, max_weight=1):
    rng = np.random.default_rng(seed)
    orders = workloads.random_orders(rng, ballots, m)
    weights = rng.integers(1, max_weight + 1, size=ballots)
    return orders, weights


def rejects(check, *args, **kwargs):
    with pytest.raises(CheckFailure):
        check(*args, **kwargs)


def test_slr(tmp_path):
    orders, weights = instance(1, 20, 9)
    profile = workloads.write_profile(tmp_path / "p.soc", orders, weights)
    out = run_cli(["rule", "slr", profile, "--dump-lottery", tmp_path / "l.json"])
    dump = json.loads((tmp_path / "l.json").read_text())
    rng = lambda: np.random.default_rng(0)  # noqa: E731
    checks.check_slr(orders, weights, out, dump, rng())

    shifted = copy.deepcopy(out)
    shifted["probs"][0] += 1e-6
    shifted["probs"][1] -= 1e-6
    rejects(checks.check_slr, orders, weights, shifted, dump, rng())

    printed = copy.deepcopy(dump)
    printed["certificate"]["per_alternative"][0] *= 0.5
    rejects(checks.check_slr, orders, weights, out, printed, rng())

    # a lottery that always samples the alternative most agents rank last
    # leaves everyone preferring an outsider: its certificate exceeds n/k
    worst = int(np.bincount(orders[:, -1], minlength=9).argmax())
    unstable = copy.deepcopy(dump)
    unstable["rounds"] = [{"z": [1.0 if a == worst else 0.0 for a in range(9)]}]
    rejects(checks.check_slr, orders, weights, out, unstable, rng())

    point = {"m": 9, "probs": [1.0] + [0.0] * 8}
    rejects(checks.check_slr, orders, weights, point, dump, rng())


@pytest.mark.parametrize("cls", checks.CLASSES)
def test_float_distortion(tmp_path, cls):
    orders, weights = instance(2, 12, 6, max_weight=4)
    x = checks.harmonic(orders, weights)
    profile = workloads.write_profile(tmp_path / "p.soc", orders, weights)
    dist = workloads.write_distribution(tmp_path / "x.json", x)
    out = run_cli(["eval", "distortion", profile, dist, "--class", cls])
    rng = lambda: np.random.default_rng(0)  # noqa: E731
    checks.check_distortion(orders, weights, x, out, cls, rng(), 10)

    lowered = dict(out, value=out["value"] * 0.99)
    rejects(checks.check_distortion, orders, weights, x, lowered, cls, rng(), 10)

    # swap the first two alternatives of ballot 0 in the witness: it no
    # longer agrees with that ranking (or, for tied utilities, the ratio moves)
    swapped = copy.deepcopy(out)
    row = swapped["witness_utilities"][0]
    top, last = orders[0, 0], orders[0, -1]
    row[top], row[last] = row[last], row[top] + 0.5
    rejects(checks.check_distortion, orders, weights, x, swapped, cls, rng(), 10)

    # a witness outside the class; scaling keeps its ratio
    scaled = dict(out, witness_utilities=[[2 * v for v in r] for r in out["witness_utilities"]])
    rejects(checks.check_distortion, orders, weights, x, scaled, cls, rng(), 10)

    # a value below what sampled consistent utilities already reach
    low = dict(out, value=1.0, witness_utilities=[[1.0] * 6] * 12)
    rejects(checks.check_distortion, orders, weights, x, low, cls, rng(), 10)


def test_class_order():
    values = {"approval": 3.0, "unit-range": 3.5, "unit-sum": 2.0, "balanced": 4.0}
    checks.check_class_order(values)
    rejects(checks.check_class_order, dict(values, approval=3.6))
    rejects(checks.check_class_order, dict(values, balanced=3.4))
    rejects(checks.check_class_order, dict(values, **{"unit-sum": 4.1}))


@pytest.mark.parametrize("cls", checks.CLASSES)
def test_rational_distortion(tmp_path, cls):
    orders, weights = instance(3, 3, 4, max_weight=3)
    x = checks.harmonic(orders, weights, exact=True)
    profile = workloads.write_profile(tmp_path / "p.soc", orders, weights)
    dist = workloads.write_distribution(tmp_path / "x.json", x)
    out = run_cli(["--mode", "rational", "eval", "distortion", profile, dist, "--class", cls])
    truth = checks.vertex_enumeration(orders, weights.tolist(), x, cls)
    assert isinstance(truth, Fraction)
    checks.check_distortion(orders, weights, x, out, cls, None, 0, exact_value=truth)
    # off by 1e-12 is still wrong in exact mode, and the witness ratio disagrees
    nudged = dict(out, value=str(Fraction(out["value"]) + Fraction(1, 10**12)))
    rejects(checks.check_distortion, orders, weights, x, nudged, cls, None, 0,
            exact_value=truth)
    rejects(checks.check_distortion, orders, weights, x, out, cls, None, 0,
            exact_value=truth + Fraction(1, 10**12))


def test_pf_distortion(tmp_path):
    orders, weights = instance(4, 30, 8, max_weight=5)
    x = checks.harmonic(orders, weights)
    profile = workloads.write_profile(tmp_path / "p.soc", orders, weights)
    dist = workloads.write_distribution(tmp_path / "x.json", x)
    out = run_cli(["eval", "pf-distortion", profile, dist])
    checks.check_pf_distortion(orders, weights, x, out)
    rejects(checks.check_pf_distortion, orders, weights, x, dict(out, value=out["value"] * 1.001))
    payoffs = checks.pf_closed_form(orders, weights, x)
    wrong = int(payoffs.argmin()) + 1
    rejects(checks.check_pf_distortion, orders, weights, x, dict(out, witness_alternative=wrong))


def test_opt_pf(tmp_path):
    orders, weights = instance(5, 20, 6)
    profile = workloads.write_profile(tmp_path / "p.soc", orders, weights)
    out = run_cli(["opt", "pf", profile, "--max-iters", 300])
    checks.check_opt_pf(orders, weights, out)
    rejects(checks.check_opt_pf, orders, weights, dict(out, value=out["value"] * 0.99))
    corner = copy.deepcopy(out)
    corner["distribution"]["probs"] = [1.0] + [0.0] * 5   # outside the floors
    rejects(checks.check_opt_pf, orders, weights, corner)
    unnormalized = copy.deepcopy(out)
    unnormalized["distribution"]["probs"][0] += 0.01
    rejects(checks.check_opt_pf, orders, weights, unnormalized)


@pytest.mark.parametrize("cls", ["unit-sum", "balanced"])
def test_opt_distortion(tmp_path, cls):
    guard = workloads.OPT_GUARD
    orders, weights = instance(6, 3, 4, max_weight=3)
    profile = workloads.write_profile(tmp_path / "t.soc", orders, weights)
    out = run_cli(["opt", "distortion", profile, "--class", cls, "--max-iters", 40])
    checks.check_opt_distortion(orders, weights, out, cls, guard, None, 0, enumerate_exact=True)
    rejects(checks.check_opt_distortion, orders, weights, dict(out, value=out["value"] * 1.001),
            cls, guard, None, 0, enumerate_exact=True)
    floor = copy.deepcopy(out)
    floor["distribution"]["probs"] = [1.0, 0.0, 0.0, 0.0]
    rejects(checks.check_opt_distortion, orders, weights, floor, cls, guard, None, 0,
            enumerate_exact=True)

    orders, weights = instance(7, 20, 6)
    profile = workloads.write_profile(tmp_path / "p.soc", orders, weights)
    out = run_cli(["opt", "distortion", profile, "--class", cls, "--max-iters", 40])
    rng = lambda: np.random.default_rng(0)  # noqa: E731
    checks.check_opt_distortion(orders, weights, out, cls, guard, rng(), 10,
                                enumerate_exact=False)
    rejects(checks.check_opt_distortion, orders, weights, dict(out, value=1.0), cls, guard,
            rng(), 10, enumerate_exact=False)


def test_core(tmp_path):
    rng = np.random.default_rng(8)
    orders = workloads.random_orders(rng, 5, 5)
    weights = np.ones(5, dtype=np.int64)
    U = workloads.unit_sum_utilities(rng, orders)
    x = checks.harmonic(orders, weights)
    ratio = checks.core_ratio(U, weights, x)
    profile = workloads.write_profile(tmp_path / "p.soc", orders, weights)
    dist = workloads.write_distribution(tmp_path / "x.json", x)
    utils = workloads.write_json(tmp_path / "u.json", {"class": "unit-sum", "utils": U.tolist()})
    alphas = [round(share * ratio, 6) for share in (0.5, 0.9, 1.1, 2.0)]
    outs = [run_cli(["eval", "core", profile, dist, "--utils", utils, "--alpha", a])
            for a in alphas]
    assert [o["violated"] for o in outs] == [True, True, False, False]
    checks.check_core(U, weights, x, outs, alphas, ratio)

    # a violated verdict whose deviation leaves a member worse off
    bad_witness = copy.deepcopy(outs)
    members = np.asarray(outs[1]["witness_agents"]) - 1
    worst = int(np.argmin(U[members].sum(axis=0)))
    bad_witness[1]["witness_deviation"]["probs"] = [float(a == worst) for a in range(5)]
    rejects(checks.check_core, U, weights, x, bad_witness, alphas, ratio)

    # "not violated" below alpha*, where the coalition LPs find a violation
    hidden = copy.deepcopy(outs)
    hidden[1].update(violated=False, witness_agents=None, witness_deviation=None)
    rejects(checks.check_core, U, weights, x, hidden, alphas, ratio)

    # "violated" above alpha*, with the witness of a smaller alpha
    claimed = copy.deepcopy(outs)
    claimed[2] = dict(outs[1], alpha=alphas[2])
    rejects(checks.check_core, U, weights, x, claimed, alphas, ratio)

    # verdicts out of order in alpha
    rejects(checks.check_core, U, weights, x, outs[::-1], alphas[::-1], ratio * 10)
