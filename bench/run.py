"""End-to-end and per-layer benchmark of the fairvote CLI.

    python3 bench/run.py --workload slr --seed 1 --seconds 20 --trace 0

Drives fairvote.cli.run(argv) in this process on seeded instance files, one
operation (one CLI call, stdout captured) at a time: a closed loop with one
client and one thread. The run repeats whole rounds of the workload's
operations until about --seconds of operation time is measured, takes each
operation's median time over the rounds, checks every output apart from the
program (after all timing), and prints as its last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 untraced
and traced rounds alternate, half the time each, and the run reports the
per-layer metrics of the traced rounds.
"""

import os

# One BLAS thread: this process and every set-up probe it starts stay on one
# core, whatever the machine has.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
DEFAULT_SEEDS = {"slr": 1, "evaluate": 2, "optimize": 3, "core": 4}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None,
                        help="instance seed (default: the workload's own, see README)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="operation time to measure, in whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    return args


def run_op(cli, argv):
    """One timed CLI call; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught program error fails the operation, not the run
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"operation {argv} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return elapsed, code, out.getvalue()


def run_round(cli, groups, outputs, tracer):
    """One timed pass over every group. Each group's output, when all its
    operations succeeded, is kept by digest in `outputs` for checking later."""
    times, failed = [], 0
    gc.collect()  # once a round, not per operation: a full collection takes ~15 ms
    for index, group in enumerate(groups):
        group_outputs = []
        for op in group.ops:
            if tracer is not None:
                tracer.op_id += 1
            elapsed, code, stdout = run_op(cli, op.argv)
            times.append(elapsed)
            if code != 0:
                failed += 1
                group_outputs = None
            elif group_outputs is not None:
                files = [Path(p).read_text(encoding="utf-8") for p in op.writes]
                group_outputs.append((stdout, files))
        if group_outputs is not None:
            digest = hashlib.sha256(json.dumps(group_outputs).encode()).hexdigest()
            outputs.setdefault(index, {}).setdefault(digest, group_outputs)
    return times, failed


def measure(cli, groups, seconds, outputs, tracer=None):
    """Whole rounds of every group until `seconds` of operation time is
    measured. With a tracer, untraced and traced rounds alternate, half the
    time each, so a drift in machine speed reaches both alike. Returns
    (untraced times, traced times, failed, rounds)."""
    modes = (None,) if tracer is None else (None, tracer)
    times = [[] for _ in modes]
    failed = rounds = 0
    while rounds == 0 or sum(times[0]) < seconds / len(modes):
        for mode, mode_times in zip(modes, times):
            if mode is not None:
                mode.install()
            try:
                t, f = run_round(cli, groups, outputs, mode)
            finally:
                if mode is not None:
                    mode.uninstall()
            mode_times += t
            failed += f
        rounds += 1
    return times[0], times[1] if tracer is not None else [], failed, rounds


def per_op_median(times, per_round):
    """Each operation's median time over the rounds (`times` is round-major).
    Other tenants of the shared host slow this process by up to 2x for
    seconds at a time; the median of many repeats of one operation moves
    less with that than a total over the run or the fastest repeat does."""
    rounds = [times[i:i + per_round] for i in range(0, len(times), per_round)]
    return [statistics.median(repeats) for repeats in zip(*rounds)]


def check_outputs(groups, outputs):
    """Check every distinct output of every group, after all timing: the
    checks' own allocations would otherwise change how fast later rounds run."""
    errors = []
    for index, distinct in sorted(outputs.items()):
        group = groups[index]
        for out in distinct.values():
            try:
                group.check([(json.loads(s), [json.loads(f) for f in files])
                             for s, files in out])
            except (checks.CheckFailure, KeyError, TypeError, ValueError, IndexError) as exc:
                errors.append(f"group {index} ({group.ops[0].argv[:3]}): "
                              f"{type(exc).__name__}: {exc}")
    return errors


def setup_seconds(warmup_path: Path) -> list:
    """Fresh-interpreter set-up samples: import plus one warm-up call per
    operation kind, from process start (see setup_probe.py)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), repr(start), str(SRC),
             str(warmup_path)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "fairvote" / "cli.py").is_file():
        print(f"error: no fairvote sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = BENCH / "work" / f"{args.workload}-s{args.seed}"
    results = BENCH / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    generated = time.monotonic()
    warmup_path = work / "warmup.json"
    warmup_path.write_text(json.dumps(workload.warmup), encoding="utf-8")

    from fairvote import cli, jsonio, metrics, mwu, optimize, profiles, stable

    setup = setup_seconds(warmup_path) if args.trace == 0 else []
    probed = time.monotonic()
    # Untimed: the tiny warm-up (lazy imports, first-call caches), then one
    # whole round at full size, so the first timed round pays no first-call
    # cost that later rounds do not.
    for argv in workload.warmup + [op.argv for group in workload.groups for op in group.ops]:
        _, code, _ = run_op(cli, argv)
        if code != 0:
            print(f"error: warm-up {argv} failed", file=sys.stderr)
            return 1

    tracer = None
    if args.trace:
        tracer = tracing.Tracer((cli, jsonio, metrics, mwu, optimize, profiles, stable))
    outputs: dict = {}
    times, traced, failed, rounds = measure(cli, workload.groups, args.seconds, outputs,
                                            tracer)
    attempted = len(times) + len(traced)
    per_round = sum(len(group.ops) for group in workload.groups)
    typical = per_op_median(times, per_round)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "op_seconds": times}
    if args.trace == 0:
        metrics_out = {
            "ops_per_s": (len(typical) / sum(typical), "1/s"),
            "op_s_p50": (statistics.median(typical), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record["setup_samples"] = setup
    else:
        tracer.write(results / f"{args.workload}-s{args.seed}.spans.jsonl")
        metrics_out = tracer.per_layer(len(traced))
        traced_typical = per_op_median(traced, per_round)
        metrics_out["trace.ops_per_s"] = (len(traced_typical) / sum(traced_typical), "1/s")
        metrics_out["trace.slowdown"] = (sum(traced_typical) / sum(typical), "ratio")
        record["traced_op_seconds"] = traced

    errors = check_outputs(workload.groups, outputs)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics_out.items()}}
    record["errors"] = errors
    record["wall_s"] = {"generate": generated - started, "setup_probes": probed - generated,
                        "total": time.monotonic() - started}
    record["result"] = result
    out_path = results / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    halves = " untraced, alternating with as many traced" if args.trace else ""
    print(f"{args.workload} seed {args.seed}: {attempted} operations in {rounds} rounds"
          f"{halves}, {failed} failed, {len(errors)} check failures")
    for name, (value, unit) in metrics_out.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
