"""Command-line interface: rules, evaluators, optimizers, instance generators,
and the stress harness. Results are JSON on stdout; exit code 0 on success,
1 on input errors, 2 on certification failure."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import lowerbounds, metrics, optimize, rules, stable, stress
from .jsonio import render_json
from .profiles import (
    CertificationError,
    Distribution,
    ProfileFormatError,
    UtilityClass,
    UtilityProfile,
    check_consistency,
    parse_profile,
    serialize_profile,
)


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1 with a one-line message."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


# subcommands whose results are floats whatever the numeric mode
_NO_EXACT_MODE = {("rule", "slr"), ("rule", "scr"), ("rule", "two-alt"),
                  ("eval", "nw"), ("eval", "nash-distortion"), ("eval", "core"),
                  ("opt", "pf"), ("opt", "distortion")}


def _load_profile(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read profile {path!r}: {exc}") from None
    try:
        return parse_profile(text)
    except ProfileFormatError as exc:
        raise InputError(f"{path}: {exc}") from None


def _parse_number(token, exact: bool):
    """A number given as text, or a JSON number, as a Fraction (exact) or a
    float; "p/q" text is always a Fraction. JSON booleans are not numbers,
    and neither are a zero denominator or an infinite exact value."""
    if isinstance(token, bool) or not isinstance(token, (str, int, float)):
        raise ValueError(f"not a number: {json.dumps(token)}")
    try:
        if exact or (isinstance(token, str) and "/" in token):
            return Fraction(token)
        return float(token)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"not a finite number: {json.dumps(token)}") from None


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from None


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from None


def _json_list(payload, key: str, default=None) -> list:
    """payload[key] (or `default` when absent), which must be a JSON array."""
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    value = payload.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key!r} must be an array, got {json.dumps(value)}")
    return value


def _load_distribution(path: str, exact: bool) -> Distribution:
    payload = _read_json(path, "distribution")
    try:
        probs = tuple(_parse_number(p, exact) for p in _json_list(payload, "probs"))
        return Distribution(probs)
    except (ValueError, OverflowError) as exc:  # a huge "p/q" plus a float overflows
        raise InputError(f"bad distribution in {path!r}: {exc}") from None


def _load_utilities(path: str, exact: bool, weights) -> UtilityProfile:
    payload = _read_json(path, "utilities")
    try:
        rows = _json_list(payload, "utils")
        if not all(isinstance(row, list) for row in rows):
            raise ValueError("each utility row must be an array")
        utils = tuple(tuple(_parse_number(v, exact) for v in row) for row in rows)
        w = _json_list(payload, "weights", weights)
        for v in w:
            _parse_number(v, exact)  # the weights are kept as given
        tag = UtilityClass(payload.get("class", "all"))
        return UtilityProfile(utils=utils, class_tag=tag, weights=tuple(w))
    except (ValueError, OverflowError) as exc:
        raise InputError(f"bad utility profile in {path!r}: {exc}") from None


def _check_utilities(u: UtilityProfile, profile, path: str) -> None:
    """Refuse utilities that do not fit the profile: their shape, their
    order along each ballot, or their class."""
    try:
        ok, violation = check_consistency(u, profile)
    except ValueError as exc:
        raise InputError(f"utilities in {path!r}: {exc}") from None
    if not ok:
        b = violation.ballot + 1
        if violation.kind == "order":
            detail = (f"ballot {b} ranks alternative {violation.better + 1} above "
                      f"{violation.worse + 1}, but its utility row values it less")
        else:
            detail = f"row {b}: {violation.detail}"
        raise InputError(f"utilities in {path!r} contradict the profile: {detail}")


def _report_json(report: metrics.DistortionReport) -> dict:
    out = {"value": report.value,
           "witness_alternative": None if report.witness_alternative is None
           else report.witness_alternative + 1,
           "class": report.utility_class.value}
    if report.vertex_witness is not None:  # rendered from its arrays
        out["witness_utilities"] = report.vertex_witness
    elif report.witness_utilities is not None:
        out["witness_utilities"] = [list(r) for r in report.witness_utilities.utils]
    if report.witness_deviation is not None:
        out["witness_deviation"] = report.witness_deviation.to_json_dict()
    return out


def _parse_weights(raw: str, exact: bool):
    return tuple(_parse_number(tok, exact) for tok in raw.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairvote",
                     description="Probabilistic voting rules over ranked "
                                 "ballots: rules, worst-case evaluators, "
                                 "instance-optimal optimizers, and "
                                 "lower-bound instance generators.")
    parser.add_argument("--mode", choices=("float", "rational"), default="float",
                        help="numeric mode for rules/evaluators that support exact output")
    parser.add_argument("--seed", type=int, default=0, help="seed for `rule scr` and `stress`")
    sub = parser.add_subparsers(dest="command", required=True)

    rule = sub.add_parser("rule", help="run a voting rule").add_subparsers(
        dest="rule_name", required=True)
    p = rule.add_parser("harmonic")
    p.add_argument("profile")
    p = rule.add_parser("point-voting")
    p.add_argument("profile")
    p.add_argument("--weights", required=True, help="comma-separated rank weights")
    p = rule.add_parser("supporting-size")
    p.add_argument("profile")
    p.add_argument("--weights", required=True, help="comma-separated z_0..z_n")
    p = rule.add_parser("two-alt")
    p.add_argument("--alpha", required=True)
    p.add_argument("--objective", required=True,
                   choices=[o.value for o in rules.TwoAltObjective])
    p = rule.add_parser("slr")
    p.add_argument("profile")
    p.add_argument("--dump-lottery", help="also write the lottery JSON to this path")
    p = rule.add_parser("scr")
    p.add_argument("profile")
    p.add_argument("--mode", dest="search_mode", choices=("exhaustive", "local", "auto"),
                   default="auto", help="committee search mode")

    ev = sub.add_parser("eval", help="evaluate a distribution").add_subparsers(
        dest="eval_name", required=True)
    for name, needs_utils in (("sw", True), ("nw", True), ("pf-value", True),
                              ("pf-distortion", False), ("distortion", False),
                              ("nash-distortion", False), ("core", True)):
        p = ev.add_parser(name)
        p.add_argument("profile")
        p.add_argument("distribution")
        if needs_utils:
            p.add_argument("--utils", required=True, help="utility profile JSON")
        if name == "distortion":
            p.add_argument("--class", dest="utility_class", required=True,
                           choices=("unit-sum", "unit-range", "approval", "balanced"))
        if name == "core":
            p.add_argument("--alpha", type=float, required=True)

    op = sub.add_parser("opt", help="instance-optimal distributions").add_subparsers(
        dest="opt_name", required=True)
    p = op.add_parser("pf")
    p.add_argument("profile")
    p.add_argument("--eps", type=float, default=1e-3,
                   help="proven gap to the optimum that makes the result certified")
    p.add_argument("--max-iters", type=int, default=1_000_000,
                   help="cap on the barrier method's Newton steps")
    p = op.add_parser("distortion")
    p.add_argument("profile")
    p.add_argument("--class", dest="utility_class", required=True,
                   choices=("unit-sum", "unit-range", "approval", "balanced"))
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--guard", type=float, default=1e-3)
    p.add_argument("--max-iters", type=int, default=200_000)

    gen = sub.add_parser("gen", help="lower-bound instance generators").add_subparsers(
        dest="gen_name", required=True)
    p = gen.add_parser("sqrt-lb")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--out", help="output path prefix")
    p = gen.add_parser("nash-lb")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--out")
    p = gen.add_parser("cyclic")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--witness", choices=("approval", "uniform"), default="approval")
    p.add_argument("-o", "--out")

    st = sub.add_parser("stress", help="seeded bound-checking sweeps").add_subparsers(
        dest="stress_name", required=True)
    for name in ("slr", "pf"):
        p = st.add_parser(name)
        p.add_argument("--trials", type=int, default=24)
        p.add_argument("--m-list", default="4,9,16,25,36,49")
        p.add_argument("--n-max", type=int, default=50)
        if name == "pf":
            p.add_argument("--eps", type=float, default=0.05)
    return parser


def _emit(payload) -> None:
    sys.stdout.write(render_json(payload))


def _dump_lottery(path: str, lottery: stable.StableLottery, profile) -> None:
    cert = stable.stability_certificate(lottery, profile)
    rounds = [{"members": [a + 1 for a in rnd.members]} if rnd.members is not None
              else {"z": list(rnd.z)} for rnd in lottery.rounds]
    _write(path, render_json({"k": lottery.k, "rounds": rounds,
                              "certificate": {"per_alternative": list(cert),
                                              "bound": profile.n / lottery.k}}))


def _run_rule(args, exact: bool) -> int:
    name = args.rule_name
    if name == "two-alt":
        alpha = _parse_number(args.alpha, exact=False)
        beta = rules.two_alt_rule(alpha, rules.TwoAltObjective(args.objective))
        _emit({"alpha": float(alpha), "objective": args.objective,
               "probs": [beta, 1.0 - beta]})
        return 0
    profile = _load_profile(args.profile)
    if name == "harmonic":
        x = rules.harmonic_rule(profile, exact=exact)
    elif name == "point-voting":
        w = rules.PointVotingWeights(_parse_weights(args.weights, exact))
        x = rules.point_voting_rule(profile, w)
    elif name == "supporting-size":
        z = rules.SupportingSizeWeights(_parse_weights(args.weights, exact))
        x = rules.supporting_size_rule(profile, z)
    elif name == "slr":
        lottery = stable.compute_stable_lottery(profile, stable.committee_size(profile.m))
        x = stable.distribution_from_lottery(lottery, profile.m)
        if args.dump_lottery:
            _dump_lottery(args.dump_lottery, lottery, profile)
    elif name == "scr":
        mode = {"exhaustive": "exhaustive", "local": "local_search",
                "auto": "auto"}[args.search_mode]
        x = stable.stable_committee_rule(profile, seed=args.seed, mode=mode)
    else:  # pragma: no cover
        raise InputError(f"unknown rule {name!r}")
    _emit(x.to_json_dict())
    return 0


def _run_eval(args, exact: bool) -> int:
    profile = _load_profile(args.profile)
    x = _load_distribution(args.distribution, exact)
    if x.m != profile.m:
        raise InputError("distribution size does not match the profile")
    name = args.eval_name
    if name in ("sw", "nw", "pf-value", "core"):
        u = _load_utilities(args.utils, exact, profile.weights)
        _check_utilities(u, profile, args.utils)
        if name == "sw":
            _emit({"value": metrics.social_welfare(x, u)})
        elif name == "nw":
            _emit({"value": metrics.nash_welfare(x, u)})
        elif name == "pf-value":
            _emit({"value": metrics.pf_value(x, u)})
        else:
            report = metrics.core_check(x, u, args.alpha)
            _emit({"alpha": report.alpha, "violated": report.violated,
                   "witness_agents": None if report.witness_agents is None
                   else [b + 1 for b in report.witness_agents],
                   "witness_deviation": None if report.witness_deviation is None
                   else report.witness_deviation.to_json_dict()})
        return 0
    if name == "pf-distortion":
        _emit(_report_json(metrics.pf_distortion(x, profile)))
    elif name == "distortion":
        _emit(_report_json(metrics.distortion(x, profile, UtilityClass(args.utility_class))))
    elif name == "nash-distortion":
        _emit(_report_json(metrics.nash_distortion_smallscale(x, profile)))
    return 0


def _run_opt(args) -> int:
    profile = _load_profile(args.profile)
    if args.opt_name == "pf":
        result = optimize.optimize_pf(profile, args.eps, max_iters=args.max_iters)
    else:
        result = optimize.optimize_distortion(profile, UtilityClass(args.utility_class),
                                              args.eps, guard=args.guard,
                                              max_iters=args.max_iters)
    _emit({"distribution": result.distribution.to_json_dict(), "value": result.value,
           "iterations": result.iterations, "certified": result.certified})
    return 0


def _bundle_json(bundle: lowerbounds.FixtureBundle) -> dict:
    return {
        "claimed_bound": bundle.claimed_bound,
        "params": dict(sorted(bundle.params.items())),
        "witnesses": [{
            "name": w.name,
            "class": w.utilities.class_tag.value,
            "utils": [list(r) for r in w.utilities.utils],
            "deviation": w.deviation.to_json_dict(),
        } for w in bundle.witnesses],
    }


def _run_gen(args) -> int:
    if args.gen_name == "sqrt-lb":
        bundle = lowerbounds.gen_sqrt_lb(args.n)
    elif args.gen_name == "nash-lb":
        bundle = lowerbounds.gen_nash_lb(args.k)
    else:
        bundle = lowerbounds.gen_cyclic_special(args.m, args.r, args.width,
                                                witness_kind=args.witness)
    text = serialize_profile(bundle.profile)
    summary = {"n": bundle.profile.n, "m": bundle.profile.m,
               "ballots": bundle.profile.num_ballots,
               "claimed_bound": bundle.claimed_bound}
    if args.out:
        profile_path = Path(args.out + ".soc")
        witness_path = Path(args.out + ".witnesses.json")
        _write(profile_path, text)
        _write(witness_path, render_json(_bundle_json(bundle)))
        summary["profile_path"] = str(profile_path)
        summary["witnesses_path"] = str(witness_path)
    else:
        summary["profile"] = text
        summary["witnesses"] = _bundle_json(bundle)["witnesses"]
    _emit(summary)
    return 0


def _run_stress(args) -> int:
    m_list = tuple(int(tok) for tok in args.m_list.split(","))
    if args.stress_name == "slr":
        result = stress.stress_slr(args.trials, args.seed, m_list, args.n_max)
    else:
        result = stress.stress_pf(args.trials, args.seed, m_list, args.n_max,
                                  epsilon=args.eps)
    _emit(result)
    return 0 if result["all_pass"] else 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    exact = args.mode == "rational"
    try:
        name = getattr(args, f"{args.command}_name")
        if exact and (args.command, name) in _NO_EXACT_MODE:
            raise InputError(f"{args.command} {name} has no exact mode; "
                             "drop --mode rational")
        if args.command == "rule":
            return _run_rule(args, exact)
        if args.command == "eval":
            return _run_eval(args, exact)
        if args.command == "opt":
            return _run_opt(args)
        if args.command == "gen":
            return _run_gen(args)
        if args.command == "stress":
            return _run_stress(args)
    except ValueError as exc:  # InputError and OracleScaleError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 2
    return 0  # pragma: no cover


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
