"""Seeded random-instance sweeps asserting the worst-case guarantees: the
stable lottery rule's balanced distortion against 2 sqrt(m) (with strict
stability certificates), and the proportional-fairness optimizer against
2(1 + ln(2m))."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .metrics import distortion
from .optimize import optimize_pf, pf_bound
from .profiles import PreferenceProfile, UtilityClass, random_profile
from .stable import (
    committee_size,
    compute_stable_lottery,
    distribution_from_lottery,
    stability_certificate,
)

DEFAULT_M_LIST = (4, 9, 16, 25, 36, 49)


def sweep_instances(trials: int, seed: int, m_list: Sequence[int] = DEFAULT_M_LIST,
                    n_max: int = 50) -> list[tuple[int, PreferenceProfile]]:
    instances = []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        m = m_list[trial % len(m_list)]
        n = int(rng.integers(2, n_max + 1))
        instances.append((trial, random_profile(n, m, rng)))
    return instances


def _run(fn, instances):
    records = [r for item in instances for r in fn(item)]
    records.sort(key=lambda rec: (rec["instance"], rec["metric"]))
    return {"records": records, "all_pass": all(r["pass"] for r in records)}


def stress_slr(trials: int, seed: int, m_list: Sequence[int] = DEFAULT_M_LIST,
               n_max: int = 50, instances: Optional[list] = None) -> dict:
    """Per instance: the stable lottery's recomputed certificate must stay
    strictly below n/k, and the rule's balanced-class distortion below
    2 sqrt(m)."""
    if instances is None:
        instances = sweep_instances(trials, seed, m_list, n_max)

    def check(item):
        idx, profile = item
        m, n = profile.m, profile.n
        k = committee_size(m)
        lottery = compute_stable_lottery(profile, k)
        cert = float(stability_certificate(lottery, profile).max())
        x = distribution_from_lottery(lottery, m)
        report = distortion(x, profile, UtilityClass.BALANCED)
        bound = 2.0 * math.sqrt(m)
        return [
            {"instance": idx, "rule": "slr", "metric": "balanced-distortion",
             "value": float(report.value), "bound": bound,
             "pass": bool(report.value <= bound + 1e-9)},
            {"instance": idx, "rule": "slr", "metric": "stability-certificate",
             "value": cert, "bound": n / k, "pass": bool(cert < n / k)},
        ]

    return _run(check, instances)


def stress_pf(trials: int, seed: int, m_list: Sequence[int] = DEFAULT_M_LIST,
              n_max: int = 50, epsilon: float = 0.05, max_iters: int = 30_000,
              instances: Optional[list] = None) -> dict:
    """Per instance: optimize_pf's value must respect 2(1 + ln(2m))."""
    if instances is None:
        instances = sweep_instances(trials, seed, m_list, n_max)

    def check(item):
        idx, profile = item
        result = optimize_pf(profile, epsilon, max_iters=max_iters)
        bound = pf_bound(profile.m)
        return [{
            "instance": idx, "rule": "opt-pf", "metric": "pf-optimal-value",
            "value": result.value, "bound": bound,
            "pass": bool(result.value <= bound + 1e-9),
        }]

    return _run(check, instances)
