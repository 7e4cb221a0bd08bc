"""The benchmark's workloads: seeded instance files, the CLI operations run on
them, and the check each group of operations must pass.

A workload is a list of groups. A group is the operations run on one
instance, plus a check over all their outputs that needs nothing from the
program.

The instances are drawn from a fixed base seed, and the run's seed applies a
change the program's work does not depend on: it shuffles the ballots (slr,
evaluate, optimize) or renames the alternatives (core). So every seed gives
different input files and the same work. Fresh random instances per seed
would not: the float distortion kernel skips alternatives that cannot beat
the running maximum, so its cost depends on where in the alternative order
the maximum falls (instances of one size differed by up to 2.5x), and the
cost of `core_check` depends on which coalition it meets first (a standard
deviation of 50-70% of the mean between instances). Either moved a run's
figures by more than their bounds between seeds.

Operations are kept short (5-400 ms) and a round small, so that a run
repeats every operation 15-34 times and the median of its repeats holds
still while other tenants of the shared host slow this process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks

BASE_SEED = 0
# slr: the paper's sweep family at one size (m a perfect square <= 49, n <= 50)
SLR_M, SLR_N, SLR_INSTANCES = 9, 20, 2
# evaluate: scale-tier weighted profiles plus one tiny rational instance each
EVAL_M, EVAL_BALLOTS, EVAL_MAX_WEIGHT, EVAL_INSTANCES = 49, 200, 19, 3
TINY_M, TINY_BALLOTS, TINY_MAX_WEIGHT = 4, 3, 3
# optimize: `opt pf` stops by itself after ~2,600 iterations at these sizes;
# `opt distortion` gets a fixed budget (its default runs ~2,600 iterations,
# 3-8 s a call), so its work does not depend on when the data lets it stop
OPT_M, OPT_N, OPT_INSTANCES = 6, 20, 2
OPT_DIST_ITERS, OPT_GUARD = 20, 1e-3
# core: unit-sum utilities, n <= 10; alpha is set relative to the instance's
# own threshold alpha*, so every instance has the same verdict pattern
CORE_N, CORE_M, CORE_INSTANCES = 4, 5, 6
CORE_ALPHA_SHARES = (0.9, 0.95, 0.98, 1.02, 1.05, 1.1)

SAMPLES = 10   # sampled consistent utility profiles per checked output


@dataclass
class Op:
    argv: list
    writes: tuple = ()       # files the operation writes, read back for the check


@dataclass
class Group:
    ops: list
    check: Callable          # check(outputs): outputs[i] = (stdout JSON, [file JSON])


@dataclass
class Workload:
    groups: list
    warmup: list             # argv of one tiny operation of each kind


def write_profile(path: Path, orders: np.ndarray, weights: np.ndarray) -> str:
    lines = [f"{int(weights.sum())} {orders.shape[1]}"]
    lines += [f"{int(w)}: " + " ".join(str(a + 1) for a in order)
              for order, w in zip(orders.tolist(), weights.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_distribution(path: Path, x) -> str:
    probs = [f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else float(p)
             for p in x]
    return write_json(path, {"m": len(probs), "probs": probs})


def random_orders(rng, ballots: int, m: int) -> np.ndarray:
    return np.array([rng.permutation(m) for _ in range(ballots)], dtype=np.int64)


def base_profile(tag: int, i: int, ballots: int, m: int, max_weight: int = 1):
    """Instance i of a workload, from the fixed base seed: (orders, weights, rng)."""
    rng = np.random.default_rng((BASE_SEED, tag, i))
    orders = random_orders(rng, ballots, m)
    weights = rng.integers(1, max_weight + 1, size=ballots)
    return orders, weights, rng


def shuffle_ballots(seed: int, tag: int, i: int, orders: np.ndarray, weights: np.ndarray):
    """The run's seed reorders the ballots; no kernel's work depends on their order."""
    order = np.random.default_rng((seed, tag, i)).permutation(len(orders))
    return orders[order], weights[order]


# a fixed tiny profile with four distinct top choices, so `rule slr` takes the
# MWU path rather than the top-set shortcut
TINY_ORDERS = np.array([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])


def slr(seed: int, work: Path) -> Workload:
    groups = []
    for i in range(SLR_INSTANCES):
        orders, weights, _ = base_profile(1, i, SLR_N, SLR_M)
        orders, weights = shuffle_ballots(seed, 1, i, orders, weights)
        profile = write_profile(work / f"slr{i}.soc", orders, weights)
        dump = str(work / f"slr{i}.lottery.json")

        def check(outputs, orders=orders, weights=weights, i=i):
            (out, (lottery,)), = outputs
            checks.check_slr(orders, weights, out, lottery,
                             np.random.default_rng((seed, 2, i)), samples=2 * SAMPLES)

        groups.append(Group([Op(["rule", "slr", profile, "--dump-lottery", dump], (dump,))],
                            check))
    tiny = write_profile(work / "warm.soc", TINY_ORDERS, np.ones(4, dtype=np.int64))
    warm_dump = str(work / "warm.lottery.json")
    return Workload(groups, [["rule", "slr", tiny, "--dump-lottery", warm_dump]])


def _tiny_exact_instance(seed: int, i: int, work: Path, name: str):
    orders, weights, _ = base_profile(8, i, TINY_BALLOTS, TINY_M, TINY_MAX_WEIGHT)
    orders, weights = shuffle_ballots(seed, 8, i, orders, weights)
    x = checks.harmonic(orders, weights, exact=True)
    return (orders, weights, x, write_profile(work / f"{name}.soc", orders, weights),
            write_distribution(work / f"{name}.x.json", x))


def evaluate(seed: int, work: Path) -> Workload:
    groups = []
    for i in range(EVAL_INSTANCES):
        orders, weights, _ = base_profile(3, i, EVAL_BALLOTS, EVAL_M, EVAL_MAX_WEIGHT)
        orders, weights = shuffle_ballots(seed, 3, i, orders, weights)
        x = checks.harmonic(orders, weights)
        profile = write_profile(work / f"eval{i}.soc", orders, weights)
        dist = write_distribution(work / f"eval{i}.x.json", x)
        ops = [Op(["eval", "distortion", profile, dist, "--class", cls])
               for cls in checks.CLASSES]
        ops.append(Op(["eval", "pf-distortion", profile, dist]))

        def check(outputs, orders=orders, weights=weights, x=x, i=i):
            rng = np.random.default_rng((seed, 4, i))
            values = {}
            for (out, _), cls in zip(outputs, checks.CLASSES):
                checks.check_distortion(orders, weights, x, out, cls, rng, SAMPLES)
                values[cls] = out["value"]
            checks.check_class_order(values)
            checks.check_pf_distortion(orders, weights, x, outputs[-1][0])

        groups.append(Group(ops, check))

        # a minority of operations: exact distortion on a tiny instance
        cls = checks.CLASSES[i % len(checks.CLASSES)]
        t_orders, t_weights, t_x, t_profile, t_dist = _tiny_exact_instance(
            seed, i, work, f"tiny{i}")

        def check_exact(outputs, orders=t_orders, weights=t_weights, x=t_x, cls=cls):
            truth = checks.vertex_enumeration(orders, weights.tolist(), x, cls)
            checks.check_distortion(orders, weights, x, outputs[0][0], cls, None, 0,
                                    exact_value=truth)

        groups.append(Group([Op(["--mode", "rational", "eval", "distortion", t_profile,
                                 t_dist, "--class", cls])], check_exact))
    tiny = write_profile(work / "warm.soc", TINY_ORDERS, np.ones(4, dtype=np.int64))
    warm_x = write_distribution(work / "warm.x.json", [Fraction(1, 4)] * 4)
    warmup = [["eval", "distortion", tiny, warm_x, "--class", cls] for cls in checks.CLASSES]
    warmup += [["eval", "pf-distortion", tiny, warm_x],
               ["--mode", "rational", "eval", "distortion", tiny, warm_x, "--class", "balanced"]]
    return Workload(groups, warmup)


def optimize(seed: int, work: Path) -> Workload:
    classes = ("unit-sum", "approval", "balanced")
    dist_opts = ["--max-iters", str(OPT_DIST_ITERS), "--guard", str(OPT_GUARD)]
    groups = []
    for i in range(OPT_INSTANCES):
        orders, weights, rng = base_profile(5, i, OPT_N, OPT_M)
        orders, weights = shuffle_ballots(seed, 5, i, orders, weights)
        profile = write_profile(work / f"opt{i}.soc", orders, weights)
        ops = [Op(["opt", "pf", profile])]
        ops += [Op(["opt", "distortion", profile, "--class", cls] + dist_opts)
                for cls in classes]

        def check(outputs, orders=orders, weights=weights, i=i):
            rng = np.random.default_rng((seed, 6, i))
            checks.check_opt_pf(orders, weights, outputs[0][0])
            for (out, _), cls in zip(outputs[1:], classes):
                checks.check_opt_distortion(orders, weights, out, cls, OPT_GUARD, rng,
                                            SAMPLES, enumerate_exact=False)

        groups.append(Group(ops, check))

        cls = checks.CLASSES[i % len(checks.CLASSES)]
        t_orders = random_orders(rng, TINY_BALLOTS, TINY_M)
        t_weights = rng.integers(1, TINY_MAX_WEIGHT + 1, size=TINY_BALLOTS)
        t_orders, t_weights = shuffle_ballots(seed, 9, i, t_orders, t_weights)
        t_profile = write_profile(work / f"tiny{i}.soc", t_orders, t_weights)

        def check_tiny(outputs, orders=t_orders, weights=t_weights, cls=cls):
            checks.check_opt_distortion(orders, weights, outputs[0][0], cls, OPT_GUARD,
                                        None, 0, enumerate_exact=True)

        groups.append(Group([Op(["opt", "distortion", t_profile, "--class", cls] + dist_opts)],
                            check_tiny))
    tiny = write_profile(work / "warm.soc", TINY_ORDERS, np.ones(4, dtype=np.int64))
    warmup = [["opt", "pf", tiny, "--max-iters", "20"]]
    warmup += [["opt", "distortion", tiny, "--class", cls, "--max-iters", "20"]
               for cls in classes]
    return Workload(groups, warmup)


def unit_sum_utilities(rng, orders: np.ndarray) -> np.ndarray:
    draws = -np.sort(-rng.exponential(size=orders.shape), axis=1)
    return checks.place_sorted(orders, draws / draws.sum(axis=1, keepdims=True))


def core(seed: int, work: Path) -> Workload:
    groups = []
    for i in range(CORE_INSTANCES):
        # core_check enumerates coalitions in ballot order, so here the seed
        # renames the alternatives instead of reordering the ballots
        base_orders, weights, rng = base_profile(7, i, CORE_N, CORE_M)
        base_U = unit_sum_utilities(rng, base_orders)
        relabel = np.random.default_rng((seed, 7, i)).permutation(CORE_M)
        orders = relabel[base_orders]          # alternative a is renamed relabel[a]
        U = np.empty_like(base_U)
        U[:, relabel] = base_U
        x = checks.harmonic(orders, weights)
        profile = write_profile(work / f"core{i}.soc", orders, weights)
        dist = write_distribution(work / f"core{i}.x.json", x)
        utils = write_json(work / f"core{i}.u.json",
                           {"class": "unit-sum", "utils": U.tolist()})
        ratio = checks.core_ratio(U, weights, x)
        alphas = [round(share * ratio, 6) for share in CORE_ALPHA_SHARES]
        ops = [Op(["eval", "core", profile, dist, "--utils", utils, "--alpha", str(alpha)])
               for alpha in alphas]

        def check(outputs, U=U, weights=weights, x=x, alphas=alphas, ratio=ratio):
            checks.check_core(U, weights, x, [out for out, _ in outputs], alphas, ratio)

        groups.append(Group(ops, check))
    tiny = write_profile(work / "warm.soc", TINY_ORDERS, np.ones(4, dtype=np.int64))
    warm_rng = np.random.default_rng(0)
    warm_u = write_json(work / "warm.u.json", {
        "class": "unit-sum", "utils": unit_sum_utilities(warm_rng, TINY_ORDERS).tolist()})
    warm_x = write_distribution(work / "warm.x.json", [0.25] * 4)
    return Workload(groups, [["eval", "core", tiny, warm_x, "--utils", warm_u,
                              "--alpha", "1.0"]])


WORKLOADS = {"slr": slr, "evaluate": evaluate, "optimize": optimize, "core": core}
