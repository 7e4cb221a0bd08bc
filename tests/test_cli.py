import contextlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairvote as fv
from conftest import TRIAD_TEXT
from fairvote import metrics
from fairvote.cli import run
from fairvote.profiles import UtilityClass, UtilityProfile


@pytest.fixture()
def triad_file(tmp_path):
    path = tmp_path / "triad.soc"
    path.write_text(TRIAD_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def x_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"m": 3, "probs": [0.5, 0.25, 0.25]}', encoding="utf-8")
    return str(path)


@pytest.fixture()
def u_file(tmp_path):
    path = tmp_path / "u.json"
    path.write_text('{"class": "approval", "utils": [[1, 0, 0], [0, 1, 0], [1, 0, 0]]}',
                    encoding="utf-8")
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRuleCommands:
    def test_harmonic_float(self, capsys, triad_file):
        code, out, _ = invoke(capsys, "rule", "harmonic", triad_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 3
        assert payload["probs"] == pytest.approx([13 / 33, 1 / 3, 3 / 11], abs=1e-11)

    def test_harmonic_rational(self, capsys, triad_file):
        code, out, _ = invoke(capsys, "--mode", "rational", "rule", "harmonic", triad_file)
        assert code == 0
        assert json.loads(out)["probs"] == ["13/33", "1/3", "3/11"]

    def test_two_alt(self, capsys):
        code, out, _ = invoke(capsys, "rule", "two-alt", "--alpha", "0.6",
                              "--objective", "unit-sum-sw")
        assert code == 0
        assert json.loads(out)["probs"][0] == pytest.approx(0.84 / 1.48)

    def test_slr_and_scr(self, capsys, triad_file):
        for name in ("slr", "scr"):
            code, out, _ = invoke(capsys, "rule", name, triad_file)
            assert code == 0
            probs = json.loads(out)["probs"]
            assert sum(probs) == pytest.approx(1.0)

    def test_scr_mode_flag(self, capsys, triad_file):
        code, out, _ = invoke(capsys, "rule", "scr", triad_file, "--mode", "exhaustive")
        assert code == 0
        assert json.loads(out)["probs"][0] == pytest.approx(5 / 12)

    def test_certification_failure_exits_two(self, capsys, triad_file, monkeypatch):
        from fairvote import CertificationError
        from fairvote import cli as cli_mod

        def boom(profile, k):
            raise CertificationError("synthetic")

        monkeypatch.setattr(cli_mod.stable, "compute_stable_lottery", boom)
        code, out, err = invoke(capsys, "rule", "slr", triad_file)
        assert code == 2 and "certification" in err

    def test_point_voting(self, capsys, triad_file):
        code, out, _ = invoke(capsys, "--mode", "rational", "rule", "point-voting",
                              triad_file, "--weights", "1/2,1/3,1/6")
        assert code == 0
        assert json.loads(out)["m"] == 3


class TestEvalCommands:
    def test_pf_distortion_reference_value(self, capsys, triad_file, x_file):
        code, out, _ = invoke(capsys, "eval", "pf-distortion", triad_file, x_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(19 / 9, abs=1e-11)
        assert payload["witness_alternative"] == 2

    def test_distortion_rational(self, capsys, triad_file, tmp_path):
        xp = tmp_path / "xr.json"
        xp.write_text('{"m": 3, "probs": ["1/2", "1/4", "1/4"]}', encoding="utf-8")
        code, out, _ = invoke(capsys, "--mode", "rational", "eval", "distortion",
                              triad_file, str(xp), "--class", "unit-sum")
        assert code == 0
        assert json.loads(out)["value"] == "44/23"

    @pytest.mark.parametrize("argv", [
        ["distortion", "--class", "unit-sum"], ["distortion", "--class", "unit-range"],
        ["distortion", "--class", "approval"], ["distortion", "--class", "balanced"],
        ["pf-distortion"]], ids=["unit-sum", "unit-range", "approval", "balanced", "pf"])
    def test_rational_witness_entries_are_strings(self, capsys, triad_file, tmp_path, argv):
        xp = tmp_path / "xr.json"
        xp.write_text('{"m": 3, "probs": ["1/2", "1/4", "1/4"]}', encoding="utf-8")
        code, out, _ = invoke(capsys, "--mode", "rational", "eval", argv[0], triad_file,
                              str(xp), *argv[1:])
        assert code == 0
        rows = json.loads(out)["witness_utilities"]
        assert all(isinstance(v, str) for row in rows for v in row), rows
        if argv[-1] == "balanced":
            assert ["0", "1", "0"] in rows

    def test_sw_with_utils(self, capsys, triad_file, x_file, tmp_path):
        up = tmp_path / "u.json"
        up.write_text(json.dumps({
            "class": "unit-sum",
            "utils": [[0.5, 0.5, 0], [0, 1, 0], [1 / 3, 1 / 3, 1 / 3]],
        }), encoding="utf-8")
        code, out, _ = invoke(capsys, "eval", "sw", triad_file, x_file, "--utils", str(up))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(23 / 24)

    def test_nw_and_pf_value(self, capsys, triad_file, x_file, tmp_path):
        up = tmp_path / "u1.json"
        up.write_text(json.dumps({
            "class": "unit-sum",
            "utils": [[0.5, 1 / 3, 1 / 6], [0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3]],
        }), encoding="utf-8")
        code, out, _ = invoke(capsys, "eval", "pf-value", triad_file, x_file,
                              "--utils", str(up))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(11 / 9)
        code, out, _ = invoke(capsys, "eval", "nw", triad_file, x_file, "--utils", str(up))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx((0.375 * 0.375 * (1 / 3)) ** (1 / 3))

    def test_nash_distortion(self, capsys, triad_file, x_file):
        code, out, _ = invoke(capsys, "eval", "nash-distortion", triad_file, x_file)
        assert code == 0
        payload = json.loads(out)
        assert 1.0 <= payload["value"] <= 19 / 9 + 1e-9
        assert "witness_deviation" in payload

    def test_core(self, capsys, tmp_path, triad_file):
        xp = tmp_path / "xc.json"
        xp.write_text('{"m": 3, "probs": [0.6666666666666666, 0.3333333333333334, 0.0]}',
                      encoding="utf-8")
        up = tmp_path / "uc.json"
        up.write_text(json.dumps({"class": "approval",
                                  "utils": [[1, 0, 0], [0, 1, 0], [1, 0, 0]]}),
                      encoding="utf-8")
        code, out, _ = invoke(capsys, "eval", "core", triad_file, str(xp),
                              "--utils", str(up), "--alpha", "1.0")
        assert code == 0
        assert json.loads(out)["violated"] is False

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
    def test_core_alpha_must_be_finite_and_nonnegative(self, capsys, tmp_path, triad_file,
                                                       u_file, alpha):
        # x gives ballot 2 zero utility, so alpha = inf made a NaN payoff
        xp = tmp_path / "x0.json"
        xp.write_text('{"m": 3, "probs": [1, 0, 0]}', encoding="utf-8")
        code, out, err = invoke(capsys, "eval", "core", triad_file, str(xp),
                                "--utils", u_file, "--alpha", alpha)
        assert code == 1 and out == ""
        assert err.startswith("error: alpha must be finite and >= 0") and err.count("\n") == 1

    def test_core_lp_failure_exits_two(self, capsys, triad_file, x_file, u_file,
                                       monkeypatch):
        from types import SimpleNamespace

        from fairvote import metrics

        monkeypatch.setattr(metrics, "linprog", lambda *args, **kwargs: SimpleNamespace(
            status=1, success=False, x=None, message="iteration limit reached"))
        code, out, err = invoke(capsys, "eval", "core", triad_file, x_file,
                                "--utils", u_file, "--alpha", "1")
        assert code == 2 and out == ""
        assert err.startswith("certification failure: core LP") and "status 1" in err


class TestOptCommands:
    def test_opt_pf(self, capsys, triad_file):
        code, out, _ = invoke(capsys, "opt", "pf", triad_file, "--eps", "0.01",
                              "--max-iters", "20000")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1.4714, abs=0.01)
        assert "iterations" in payload and "certified" in payload

    @pytest.mark.parametrize("command", [["pf"], ["distortion", "--class", "unit-sum"]],
                             ids=["pf", "distortion"])
    @pytest.mark.parametrize("option, value, field", [
        ("--eps", "nan", "epsilon"), ("--eps", "inf", "epsilon"), ("--eps", "0", "epsilon"),
        ("--max-iters", "-3", "max_iters")])
    def test_bad_budget_exits_one(self, capsys, triad_file, command, option, value, field):
        # --eps nan ran 2,000 steps and skipped phase B, --eps inf certified
        # after one step, and --max-iters -3 reported 0 iterations: all exit 0
        code, out, err = invoke(capsys, "opt", command[0], triad_file, *command[1:],
                                option, value)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {field} must be") and err.count("\n") == 1


class TestGenCommands:
    def test_nash_lb_summary(self, capsys):
        code, out, _ = invoke(capsys, "gen", "nash-lb", "--k", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["ballots"] == 8 and payload["m"] == 15

    def test_writes_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "fix")
        code, out, _ = invoke(capsys, "gen", "sqrt-lb", "--n", "4", "-o", prefix)
        assert code == 0
        profile = fv.parse_profile((tmp_path / "fix.soc").read_text(encoding="utf-8"))
        assert profile.n == 4 and profile.m == 6
        witnesses = json.loads((tmp_path / "fix.witnesses.json").read_text(encoding="utf-8"))
        assert len(witnesses["witnesses"]) == 2

    def test_cyclic(self, capsys):
        code, out, _ = invoke(capsys, "gen", "cyclic", "--m", "5", "--r", "2", "--width", "2")
        assert code == 0
        assert json.loads(out)["n"] == 4


class TestStressCommand:
    def test_tiny_sweep(self, capsys):
        code, out, _ = invoke(capsys, "stress", "pf", "--trials", "2", "--m-list", "4",
                              "--n-max", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert len(payload["records"]) == 2

    def test_empty_sweep_is_vacuous_pass(self, capsys):
        code, out, _ = invoke(capsys, "stress", "slr", "--trials", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"records": [], "all_pass": True}


class TestCLIBehaviour:
    def test_byte_identical_reruns(self, capsys, triad_file):
        _, out1, _ = invoke(capsys, "--seed", "3", "rule", "slr", triad_file)
        _, out2, _ = invoke(capsys, "--seed", "3", "rule", "slr", triad_file)
        assert out1 == out2

    def test_missing_file_is_input_error(self, capsys):
        code, out, err = invoke(capsys, "rule", "harmonic", "/nonexistent.soc")
        assert code == 1 and "error" in err and out == ""

    def test_malformed_profile_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.soc"
        bad.write_text("2 2\n1 1\n2 1\n", encoding="utf-8")
        code, _, err = invoke(capsys, "rule", "harmonic", str(bad))
        assert code == 1 and "line 2" in err

    def test_byte_order_marks_are_skipped(self, capsys, tmp_path, triad_file, x_file, u_file):
        # a UTF-8 byte-order mark before the profile, distribution or utility text
        paths = []
        for name, source in (("p.soc", triad_file), ("x.json", x_file), ("u.json", u_file)):
            path = tmp_path / f"bom-{name}"
            path.write_bytes(b"\xef\xbb\xbf" + Path(source).read_bytes())
            paths.append(str(path))
        _, expected, _ = invoke(capsys, "eval", "sw", triad_file, x_file, "--utils", u_file)
        code, out, err = invoke(capsys, "eval", "sw", *paths[:2], "--utils", paths[2])
        assert (code, out, err) == (0, expected, "")

    def test_profile_that_is_not_utf8_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.soc"
        path.write_bytes("3 3\n1 2 3\n".encode("utf-16"))  # starts with ff fe
        code, out, err = invoke(capsys, "rule", "harmonic", str(path))
        assert code == 1 and out == ""
        assert f"cannot read profile {str(path)!r}: 'utf-8' codec can't decode" in err

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["rule", "harmonic", "--bogus"])
        assert exc.value.code != 0

    def test_twelve_significant_digits(self, capsys, triad_file, x_file):
        _, out, _ = invoke(capsys, "eval", "pf-distortion", triad_file, x_file)
        assert '"value": 2.11111111111,' in out


@pytest.fixture()
def sweep_file(tmp_path):
    """m = 9, n = 20: the stable lottery needs MWU rounds, not the top-set path."""
    profile = fv.random_profile(20, 9, np.random.default_rng(5))
    path = tmp_path / "sweep.soc"
    path.write_text(fv.serialize_profile(profile), encoding="utf-8")
    return str(path)


class TestStableLotteryDump:
    def test_dump_leaves_stdout_unchanged(self, capsys, sweep_file, tmp_path):
        _, plain, _ = invoke(capsys, "--seed", "4", "rule", "slr", sweep_file)
        dump = tmp_path / "lottery.json"
        code, dumped, _ = invoke(capsys, "--seed", "4", "rule", "slr", sweep_file,
                                 "--dump-lottery", str(dump))
        assert code == 0 and dumped == plain
        payload = json.loads(dump.read_text(encoding="utf-8"))
        assert len(payload["rounds"]) == 1 and "z" in payload["rounds"][0]
        assert max(payload["certificate"]["per_alternative"]) < payload["certificate"]["bound"]

    def test_dump_computes_the_lottery_once(self, capsys, sweep_file, tmp_path,
                                            monkeypatch):
        from fairvote import stable

        calls = []
        original = stable.compute_stable_lottery

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(stable, "compute_stable_lottery", counted)
        code, _, _ = invoke(capsys, "rule", "slr", sweep_file,
                            "--dump-lottery", str(tmp_path / "lottery.json"))
        assert code == 0 and len(calls) == 1


class TestExitCodes:
    @pytest.mark.parametrize("argv", [("rule", "scr", "p.soc", "--search", "exhaustive"),
                                      ("rule",), ()])
    def test_usage_error_exits_one_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0 and "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("rule", "slr", "{profile}"),
        ("rule", "scr", "{profile}"),
        ("rule", "two-alt", "--alpha", "0.6", "--objective", "pf"),
        ("opt", "pf", "{profile}"),
        ("opt", "distortion", "{profile}", "--class", "unit-sum"),
        ("eval", "nash-distortion", "{profile}", "{x}"),
        ("eval", "nw", "{profile}", "{x}", "--utils", "{u}"),
        ("eval", "core", "{profile}", "{x}", "--utils", "{u}", "--alpha", "1"),
    ])
    def test_ignored_rational_mode_is_refused(self, capsys, triad_file, x_file, u_file, argv):
        argv = [a.format(profile=triad_file, x=x_file, u=u_file) for a in argv]
        code, out, err = invoke(capsys, "--mode", "rational", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "rational" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["distortion", "pf-distortion"])
    @pytest.mark.parametrize("probs", ['[NaN, 0.5, 0.5]', '["inf", 0.5, 0.5]'],
                             ids=["nan", "inf"])
    def test_non_finite_probability_exits_one(self, capsys, tmp_path, triad_file,
                                              command, probs):
        xp = tmp_path / "x.json"
        xp.write_text('{"m": 3, "probs": %s}' % probs, encoding="utf-8")
        argv = ["eval", command, triad_file, str(xp)]
        if command == "distortion":
            argv += ["--class", "approval"]
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: bad distribution") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["sw", "nw", "pf-value", "core"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", '"1/0"'],
                             ids=["nan", "inf", "zero-denominator"])
    def test_non_finite_utility_exits_one(self, capsys, tmp_path, triad_file, x_file,
                                          command, value):
        up = tmp_path / "u.json"
        up.write_text('{"class": "unit-sum", "utils": [[0.5, 0.5, 0], [%s, 1, 0], '
                      '[0.25, 0.25, 0.5]]}' % value, encoding="utf-8")
        argv = ["eval", command, triad_file, x_file, "--utils", str(up)]
        if command == "core":
            argv += ["--alpha", "1"]
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: bad utility profile") and err.count("\n") == 1

    @pytest.mark.parametrize("probs,utils,bad", [
        ("[1, 0, 0]", "[[1, 0, 0], [Infinity, 1, 0], [1, 0, 0]]", "utility profile"),
        ("[Infinity, 0, 0]", "[[1, 0, 0], [0, 1, 0], [1, 0, 0]]", "distribution"),
    ], ids=["utilities", "distribution"])
    def test_infinite_exact_input_exits_one(self, capsys, tmp_path, triad_file,
                                            probs, utils, bad):
        # Fraction(inf) raises OverflowError, not ValueError
        xp, up = tmp_path / "x.json", tmp_path / "u.json"
        xp.write_text('{"m": 3, "probs": %s}' % probs, encoding="utf-8")
        up.write_text('{"utils": %s}' % utils, encoding="utf-8")
        code, out, err = invoke(capsys, "--mode", "rational", "eval", "sw", triad_file,
                                str(xp), "--utils", str(up))
        assert code == 1 and out == ""
        assert err.startswith(f"error: bad {bad}") and err.count("\n") == 1

    @pytest.mark.parametrize("token", ["1/0", "0/0", "x", "nan", "inf", "1e999"])
    @pytest.mark.parametrize("argv", [
        ("rule", "point-voting", "{profile}", "--weights", "{t},1/2,1/2"),
        ("rule", "supporting-size", "{profile}", "--weights", "0,{t},1/2,1"),
        ("rule", "two-alt", "--alpha", "{t}", "--objective", "pf"),
    ], ids=["point-voting", "supporting-size", "two-alt"])
    def test_bad_number_argument_exits_cleanly(self, capsys, triad_file, argv, token):
        code, out, err = invoke(capsys, *(a.format(profile=triad_file, t=token)
                                          for a in argv))
        assert code in (0, 1)
        if code == 1:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("rule", "slr", "{profile}", "--dump-lottery", "{path}"),
        ("gen", "cyclic", "--m", "4", "--r", "2", "--width", "2", "-o", "{path}"),
    ], ids=["dump-lottery", "gen"])
    @pytest.mark.parametrize("missing", [True, False], ids=["missing-dir", "directory"])
    def test_unwritable_output_path_exits_one(self, capsys, tmp_path, triad_file, argv,
                                              missing):
        path = tmp_path / "missing" / "out"
        if not missing:  # a directory stands where each file would go
            path = tmp_path / "taken"
            path.mkdir()
            (tmp_path / "taken.soc").mkdir()
        code, out, err = invoke(capsys, *(a.format(profile=triad_file, path=path)
                                          for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    @pytest.mark.parametrize("probs,utils,bad", [
        ('["{big}", 0.5, 0.5]', '[[1, 0, 0], [0, 1, 0], [1, 0, 0]]', "distribution"),
        ("[1, 0, 0]", '[["{big}", 0.5, 0], [0, 1, 0], [1, 0, 0]]', "utility profile"),
    ], ids=["distribution", "utilities"])
    def test_p_over_q_beyond_float_range_exits_one(self, capsys, tmp_path, triad_file,
                                                   probs, utils, bad):
        # the checks add the Fraction to a float, which overflows
        big = "1" + "0" * 400 + "/1"
        xp, up = tmp_path / "x.json", tmp_path / "u.json"
        xp.write_text('{"m": 3, "probs": %s}' % probs.format(big=big), encoding="utf-8")
        up.write_text('{"utils": %s}' % utils.format(big=big), encoding="utf-8")
        code, out, err = invoke(capsys, "eval", "sw", triad_file, str(xp), "--utils", str(up))
        assert code == 1 and out == ""
        assert err.startswith(f"error: bad {bad}") and err.count("\n") == 1

    @pytest.mark.parametrize("payload", ['[0.5, 0.25, 0.25]', '{"probs": [null, 1, 0]}',
                                         '{"probs": [true, false, false]}', '{"probs": 1}',
                                         '{"probs": [[1], 0, 0]}', '"x"'],
                             ids=["array", "null", "bool", "number", "nested", "string"])
    def test_distribution_of_wrong_shape_exits_one(self, capsys, tmp_path, triad_file,
                                                   payload):
        xp = tmp_path / "x.json"
        xp.write_text(payload, encoding="utf-8")
        for mode in ("float", "rational"):
            code, out, err = invoke(capsys, "--mode", mode, "eval", "distortion", triad_file,
                                    str(xp), "--class", "approval")
            assert code == 1 and out == ""
            assert err.startswith("error: bad distribution") and err.count("\n") == 1

    @pytest.mark.parametrize("payload", [
        '[[1, 0, 0], [0, 1, 0], [1, 0, 0]]',
        '{"utils": 7}',
        '{"utils": [[1, 0, 0], 5, [1, 0, 0]]}',
        '{"utils": [[1, 0, 0], [0, 1, 0], [1, 0, 0]], "weights": 3}',
        '{"utils": [[1, 0, 0], [0, 1, 0], [1, 0, 0]], "weights": [1, "a", 1]}',
        '{"utils": [[true, 0, 0], [0, 1, 0], [1, 0, 0]]}',
        '{"utils": [[1, 0, 0], [0, 1, null], [1, 0, 0]]}',
    ], ids=["array", "number", "row-number", "weights-number", "weights-string", "bool",
            "null"])
    def test_utilities_of_wrong_shape_exit_one(self, capsys, tmp_path, triad_file, x_file,
                                               payload):
        up = tmp_path / "u.json"
        up.write_text(payload, encoding="utf-8")
        code, out, err = invoke(capsys, "eval", "sw", triad_file, x_file, "--utils", str(up))
        assert code == 1 and out == ""
        assert err.startswith("error: bad utility profile") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["sw", "nw", "pf-value", "core"])
    @pytest.mark.parametrize("payload,reason", [
        ('{"class": "approval", "utils": [[1, 0, 0], [0, 1, 0]], "weights": [2, 1]}',
         "dimensions"),
        ('{"class": "approval", "utils": [[1, 0], [0, 1], [1, 0]]}', "dimensions"),
        ('{"class": "approval", "utils": [[0, 1, 0], [0, 1, 0], [1, 0, 0]]}',
         "ballot 1 ranks alternative 1 above 2"),
        ('{"class": "unit-sum", "utils": [[0.5, 0.25, 0], [0, 1, 0], [1, 0, 0]]}',
         "row 1: unit-sum row sums to 0.75"),
        ('{"class": "approval", "utils": [[1, 0, 0], [0, 1, 0], [1, 0, 0]], '
         '"weights": [5, 1, 1]}', "do not match the profile's ballot weights [1, 1, 1]"),
    ], ids=["row-count", "alternatives", "order", "class", "weights"])
    def test_utilities_that_do_not_fit_the_profile_exit_one(self, capsys, tmp_path,
                                                            triad_file, x_file, command,
                                                            payload, reason):
        up = tmp_path / "u.json"
        up.write_text(payload, encoding="utf-8")
        argv = ["eval", command, triad_file, x_file, "--utils", str(up)]
        if command == "core":
            argv += ["--alpha", "1"]
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: utilities in") and reason in err
        assert err.count("\n") == 1

    def test_consistent_exact_utilities_are_accepted(self, capsys, tmp_path, triad_file):
        xp, up = tmp_path / "x.json", tmp_path / "u.json"
        xp.write_text('{"m": 3, "probs": ["1/2", "1/4", "1/4"]}', encoding="utf-8")
        up.write_text('{"class": "unit-sum", "utils": [["1/2", "1/2", 0], [0, 1, 0], '
                      '["1/3", "1/3", "1/3"]]}', encoding="utf-8")
        code, out, _ = invoke(capsys, "--mode", "rational", "eval", "sw", triad_file,
                              str(xp), "--utils", str(up))
        assert code == 0 and json.loads(out)["value"] == "23/24"

    def test_optimizer_bound_failure_exits_two(self, capsys, triad_file, monkeypatch):
        from fairvote import optimize

        def stalled(obj, region, x0, *args, **kwargs):
            return x0, 1e9, 10, False, None  # a value far above the guaranteed bound

        monkeypatch.setattr(optimize, "_barrier_minimize", stalled)
        code, out, err = invoke(capsys, "opt", "pf", triad_file, "--max-iters", "10")
        assert code == 2 and out == ""
        assert "certification failure" in err and "Traceback" not in err

    def test_strict_nash_opt_failure_exits_two(self, capsys, triad_file, x_file,
                                               monkeypatch):
        from fairvote import metrics

        original = metrics.nash_opt
        monkeypatch.setattr(metrics, "nash_opt",
                            lambda u, **kwargs: original(u, max_iters=0))
        code, out, err = invoke(capsys, "eval", "nash-distortion", triad_file, x_file)
        assert code == 2 and out == "" and "nash_opt" in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([0.5, 0.25, 1e308])
    | st.sampled_from(["1/2", "1/0", "x", "nan", "inf", "unit-sum", "approval"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["probs", "utils", "weights", "class", "m"]), inner,
                      max_size=4),
    max_leaves=16)


@given(x=st.just({"m": 3, "probs": [0.5, 0.25, 0.25]}) | json_values,
       u=st.builds(lambda rows, rest: {"utils": rows, **rest},
                   st.lists(st.lists(json_values, min_size=3, max_size=3), min_size=3,
                            max_size=3), json_values.filter(lambda v: isinstance(v, dict)))
       | json_values,
       mode=st.sampled_from(["float", "rational"]),
       command=st.sampled_from(["sw", "distortion"]))
@settings(max_examples=300, deadline=None)
def test_json_inputs_of_any_shape_exit_cleanly(tmp_path_factory, x, u, mode, command):
    """Any JSON in the distribution or utility file: exit 0, or exit 1 with
    one error line."""
    tmp = tmp_path_factory.mktemp("json")
    paths = {name: tmp / name for name in ("triad.soc", "x.json", "u.json")}
    paths["triad.soc"].write_text(TRIAD_TEXT, encoding="utf-8")
    paths["x.json"].write_text(json.dumps(x), encoding="utf-8")
    paths["u.json"].write_text(json.dumps(u), encoding="utf-8")
    argv = ["--mode", mode, "eval", command, str(paths["triad.soc"]), str(paths["x.json"])]
    argv += ["--utils", str(paths["u.json"])] if command == "sw" else ["--class", "approval"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


def test_parser_is_reused_across_calls(capsys, triad_file, x_file):
    """One process: a usage error, --help and a refused --mode rational leave
    the shared parser as a fresh process builds it."""
    with pytest.raises(SystemExit) as exc:
        run(["rule", "harmonic", "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert invoke(capsys, "--mode", "rational", "rule", "slr", triad_file)[0] == 1
    argv = ["eval", "distortion", triad_file, x_file, "--class", "unit-sum"]
    code, out, _ = invoke(capsys, *argv)
    src = str(Path(fv.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-m", "fairvote.cli", *argv], capture_output=True,
                           text=True, env={"PYTHONPATH": src}, check=True)
    assert code == 0 and out == fresh.stdout


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(fv.__file__).resolve().parents[1])
    probe = "import sys, fairvote.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={"PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Oracle: the earlier witness path, kept verbatim but for its names and the
# module prefixes of the kernel entries it calls. `distortion` and
# `pf_distortion` built each witness as a UtilityProfile of Python tuples
# (`_witness_from_combo` -> `prefix_utility_row`), and the CLI rendered its
# entries one at a time through `jsonio._render`; the witness is now kept as
# per-ballot arrays and printed from a table of its distinct entries. The
# CLI's stdout must stay the same byte for byte.
# ---------------------------------------------------------------------------

def oracle_render_float(value: float) -> str:
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    if value == int(value) and abs(value) < 1e15:  # int(NaN) raises ValueError
        return f"{value:.1f}"
    return f"{value:.12g}"


def oracle_render(value, floats: dict) -> str:
    """`floats` caches the text of each nonzero plain float met so far in one
    render; 0.0 and -0.0 are one dict key but print apart, so zeros bypass it."""
    kind = type(value)
    if kind is float:
        return oracle_render_float(value)
    if kind is list or kind is tuple:
        return "[" + ", ".join([
            oracle_render(item, floats) if type(item) is not float
            else floats.get(item) or floats.setdefault(item, oracle_render_float(item)) if item
            else "-0.0" if math.copysign(1.0, item) < 0 else "0.0"
            for item in value]) + "]"
    if kind is dict:
        return "{" + ", ".join([f"{json.dumps(str(k))}: {oracle_render(v, floats)}"
                                for k, v in value.items()]) + "}"
    return oracle_render_other(value, floats)


def oracle_render_other(value, floats: dict) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return oracle_render_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return oracle_render(dict(value), floats)
    if isinstance(value, (list, tuple)):
        return oracle_render(list(value), floats)
    # numpy scalars and the like
    if hasattr(value, "item"):
        return oracle_render(value.item(), floats)
    raise TypeError(f"cannot render {type(value)!r}")


def oracle_prefix_utility_row(order, depth: int, m: int, uniform: bool = False,
                              exact: bool = False) -> tuple:
    """Utility row approving (or 1/depth-valuing) the ballot's top `depth`."""
    if uniform:
        value = Fraction(1, depth) if exact else 1.0 / depth
    else:
        value = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    row = [zero] * m
    for a in order[:depth]:
        row[a] = value
    return tuple(row)


def oracle_witness_from_combo(profile, combo, cls, exact: bool) -> UtilityProfile:
    rows = []
    for order, (depth, uniform) in zip(profile.orders, combo):
        rows.append(oracle_prefix_utility_row(order, depth, profile.m, uniform=uniform,
                                              exact=exact))
    return UtilityProfile(utils=tuple(rows), class_tag=cls, weights=profile.weights)


def oracle_distortion(x, profile, cls) -> metrics.DistortionReport:
    exact = x.exact
    entry = metrics._distortion_at_exact if exact else metrics._distortion_float
    value, a_star, combo = entry(x, profile, cls)
    witness = oracle_witness_from_combo(profile, combo, cls, exact=exact)
    if exact and value != math.inf:
        s = metrics.social_welfare(x, witness)
        value = math.inf if s == 0 else metrics._witness_ratio(witness, a_star, s)
    return metrics.DistortionReport(value, cls, a_star, witness)


def oracle_pf_distortion(x, profile) -> metrics.DistortionReport:
    payoffs = metrics.pf_payoffs(x, profile)
    a_star = payoffs.index(max(payoffs))  # lowest index on ties
    exact = x.exact
    rows = tuple(oracle_prefix_utility_row(order, order.index(a_star) + 1, profile.m,
                                           exact=exact)
                 for order in profile.orders)
    witness = UtilityProfile(utils=rows, class_tag=UtilityClass.APPROVAL,
                             weights=profile.weights)
    return metrics.DistortionReport(payoffs[a_star], UtilityClass.ALL, a_star, witness)


def oracle_dist_json(x) -> dict:
    return {"m": x.m, "probs": list(x.probs)}


def oracle_report_json(report) -> dict:
    out = {"value": report.value,
           "witness_alternative": None if report.witness_alternative is None
           else report.witness_alternative + 1,
           "class": report.utility_class.value}
    if report.witness_utilities is not None:
        out["witness_utilities"] = [list(r) for r in report.witness_utilities.utils]
    if report.witness_deviation is not None:
        out["witness_deviation"] = oracle_dist_json(report.witness_deviation)
    return out


class TestWitnessRenderOracle:
    """`eval distortion` (four classes) and `eval pf-distortion` against the
    earlier witness path, byte for byte, in float and rational mode, on
    seeded weighted profiles with m = 1..60, and on an x whose ballots' tops
    all have zero mass (the infinite value)."""

    CLASSES = ("unit-sum", "unit-range", "approval", "balanced")

    def check(self, capsys, profile_path, profile, probs, rational: bool, x_path):
        x_path.write_text(json.dumps({"m": profile.m, "probs": [
            f"{p.numerator}/{p.denominator}" if rational else p for p in probs]}),
            encoding="utf-8")
        x = fv.Distribution(tuple(probs))
        mode = ["--mode", "rational"] if rational else []
        values = []
        for cls in self.CLASSES + (None,):
            if cls is None:
                argv = [*mode, "eval", "pf-distortion", profile_path, str(x_path)]
                report = oracle_pf_distortion(x, profile)
            else:
                argv = [*mode, "eval", "distortion", profile_path, str(x_path), "--class", cls]
                report = oracle_distortion(x, profile, UtilityClass(cls))
            code, out, _ = invoke(capsys, *argv)
            assert code == 0
            assert out == oracle_render(oracle_report_json(report), {}) + "\n", argv
            values.append(report.value)
        return values

    def test_byte_identical_to_earlier_path(self, capsys, tmp_path):
        rng = np.random.default_rng(58)
        infinite = 0
        for m in range(1, 61):
            ballots = int(rng.integers(1, 7 if m > 20 else 12))
            orders = [tuple(int(a) for a in rng.permutation(m)) for _ in range(ballots)]
            weights = [int(w) for w in rng.integers(1, 6, size=ballots)]
            profile = fv.from_rankings(orders, m=m, weights=weights)
            profile_path = tmp_path / f"m{m}.soc"
            profile_path.write_text(fv.serialize_profile(profile), encoding="utf-8")
            x_path = tmp_path / f"m{m}.json"

            probs = rng.dirichlet(np.ones(m))
            probs[rng.random(m) < 0.2] = 0.0  # some alternatives without mass
            if not probs.any():
                probs[int(rng.integers(0, m))] = 1.0
            probs = (probs / probs.sum()).tolist()
            self.check(capsys, str(profile_path), profile, probs, False, x_path)

            nums = [int(v) for v in rng.integers(0, 10, size=m)]
            if not any(nums):
                nums[0] = 1
            exact = [Fraction(v, sum(nums)) for v in nums]
            self.check(capsys, str(profile_path), profile, exact, True, x_path)

            tops = {order[0] for order in orders}
            if len(tops) < m:  # all mass off the tops: every class is infinite
                nums = [0 if a in tops else int(rng.integers(1, 4)) for a in range(m)]
                exact = [Fraction(v, sum(nums)) for v in nums]
                for rational in (False, True):
                    probs = exact if rational else [float(p) for p in exact]
                    if not rational and abs(sum(probs) - 1.0) > 1e-12:
                        continue
                    values = self.check(capsys, str(profile_path), profile, probs,
                                        rational, x_path)
                    assert all(v == math.inf for v in values)
                    infinite += 1
        assert infinite >= 40


# ---------------------------------------------------------------------------
# HiGHS is loaded as scipy's extension module alone, without scipy.optimize's
# package __init__; each probe runs in a fresh interpreter, where the
# process's import state is what is under test.
# ---------------------------------------------------------------------------

def fresh_python(code: str) -> dict:
    """Run `code` in a fresh interpreter with fairvote importable; it prints
    one JSON object as its last line of stdout."""
    src = str(Path(fv.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={"PYTHONPATH": src}, check=True)
    return json.loads(result.stdout.splitlines()[-1])


# seeded coalition-shaped LPs, some with exact zeros, ~half of them infeasible
SEEDED_LPS = """
import numpy as np
rng = np.random.default_rng(41)
matrices = []
for _ in range(60):
    k, m = int(rng.integers(1, 8)), int(rng.integers(2, 12))
    M = rng.uniform(-1.0, 1.0, (k, m)) * (rng.random((k, m)) < 0.7)
    matrices.append(M - float(rng.uniform(0.0, 0.6)) * (rng.random((k, 1)) < 0.5))
"""


def test_eval_core_loads_highs_without_scipy_optimize(triad_file, x_file, tmp_path):
    up = tmp_path / "us.json"
    up.write_text('{"class": "unit-sum", "utils": [[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], '
                  '[0.5, 0.2, 0.3]]}', encoding="utf-8")
    argv = ["eval", "core", triad_file, x_file, "--utils", str(up), "--alpha", "1"]
    probe = f"""
import contextlib, io, json, sys
from fairvote import cli, metrics
calls = []
solve = metrics.linprog
metrics.linprog = lambda *args: calls.append(1) or solve(*args)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.run({argv!r})
print(json.dumps({{"code": code, "out": out.getvalue(), "lps": len(calls),
                  "optimize": "scipy.optimize" in sys.modules,
                  "highs": "scipy.optimize._highspy._core" in sys.modules}}))
"""
    got = fresh_python(probe)
    assert got["code"] == 0 and got["lps"] >= 1
    assert json.loads(got["out"])["witness_deviation"]["probs"] == [0.875, 0.125, 0.0]
    assert got["highs"] and not got["optimize"]


@pytest.mark.parametrize("scipy_first", [False, True])
def test_scipy_linprog_agrees_after_either_import_order(scipy_first):
    probe = SEEDED_LPS + f"""
import json, sys
from fairvote import metrics
if {scipy_first!r}:
    from scipy.optimize import linprog
metrics.linprog(matrices[0])
standalone = "scipy.optimize" not in sys.modules
from scipy.optimize import linprog
same, statuses = True, set()
for M in matrices:
    k, m = M.shape
    ref = linprog(c=-(M.sum(0)), A_ub=-M, b_ub=np.zeros(k), A_eq=np.ones((1, m)),
                  b_eq=[1.0], bounds=(0.0, 1.0), method="highs")
    new = metrics.linprog(M)
    same &= new.status == ref.status and (
        new.x is None if ref.x is None else new.x.tobytes() == ref.x.tobytes())
    statuses.add(new.status)
print(json.dumps({{"standalone": standalone, "same": bool(same),
                  "statuses": sorted(statuses),
                  "one_module": sys.modules["scipy.optimize._highspy._core"]
                  is metrics._highs()}}))
"""
    got = fresh_python(probe)
    assert got["standalone"] is not scipy_first
    assert got["same"] and got["statuses"] == [0, 2] and got["one_module"]


def test_highs_falls_back_to_the_package_import():
    def solve(fallback: bool) -> dict:
        return fresh_python(SEEDED_LPS + f"""
import json, sys
from fairvote import metrics
if {fallback!r}:
    metrics._highs_spec = lambda: None  # no extension file found
xs = [None if r.x is None else r.x.tobytes().hex() for r in map(metrics.linprog, matrices)]
print(json.dumps({{"xs": xs, "optimize": "scipy.optimize" in sys.modules}}))
""")

    standalone, fallback = solve(False), solve(True)
    assert not standalone["optimize"] and fallback["optimize"]
    assert fallback["xs"] == standalone["xs"] and any(standalone["xs"])
