"""One set-up sample in a fresh interpreter: import fairvote.cli, then make
one untimed warm-up call of each operation kind of the workload.

    python3 bench/setup_probe.py <monotonic start> <src dir> <warm-up argv JSON>

Prints the seconds from the parent's time.monotonic() stamp, taken just
before this process was started, to the end of the warm-up.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    start, src, warmup = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    sys.path.insert(0, src)
    from fairvote import cli

    with open(warmup, encoding="utf-8") as f:
        operations = json.load(f)
    sink = io.StringIO()
    for argv in operations:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run(argv)
        if code != 0:
            print(f"warm-up {argv} exited {code}: {sink.getvalue()}", file=sys.stderr)
            return 1
    print(repr(time.monotonic() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
