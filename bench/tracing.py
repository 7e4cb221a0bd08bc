"""Per-layer tracing from outside the program.

`Tracer.install` replaces module attributes of fairvote with wrappers that
record a span (name, start, end, parent span, operation id) around each call
and read counts from arguments and return values. Spans stay in memory and
are written when the run ends. A layer's self time is its span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

# span name -> per-layer time metric (self seconds per operation)
SPAN_METRICS = {
    "cli.run": "cli.self_s",
    "profiles.parse": "profiles.parse_s",
    "jsonio.render": "jsonio.render_s",
    "stable.lottery": "stable.lottery_s",
    "stable.certificate": "stable.certificate_s",
    "mwu.solve": "mwu.solve_s",
    "metrics.distortion": "metrics.distortion_s",
    "metrics.distortion_exact": "metrics.distortion_exact_s",
    "metrics.pf_distortion": "metrics.pf_distortion_s",
    "metrics.core": "metrics.core_s",
    "metrics.core_screen": "metrics.core_screen_s",
    "metrics.core_lp": "metrics.core_lp_s",
    "optimize.solve": "optimize.solve_s",
    "simplex.project": "simplex.project_s",
}
# span name -> per-layer call-count metric
CALL_METRICS = {
    "stable.lottery": "stable.lottery_calls",
    "stable.certificate": "stable.certificate_calls",
    "metrics.distortion": "metrics.distortion_calls",
    "metrics.core_lp": "metrics.core_lp_calls",
    "simplex.project": "simplex.project_calls",
}
COUNT_METRICS = ("jsonio.render_bytes", "profiles.array_views", "stable.lottery_rounds",
                 "mwu.rounds", "metrics.core_screen_rounds", "optimize.iterations")


class Tracer:
    def __init__(self, fairvote_modules):
        """`fairvote_modules`: cli, jsonio, metrics, mwu, optimize, profiles, stable."""
        self.modules = fairvote_modules
        self.spans: list = []          # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, owner, attr: str, name, count=None) -> None:
        original = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = len(spans)
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
                spans.append(span)
                stack.append(index)
                span[1] = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
            if count is not None:
                key, amount = count
                counts[key] += amount(result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        cli, jsonio, metrics, mwu, optimize, profiles, stable = self.modules
        self._wrap(cli, "run", "cli.run")
        self._wrap(cli, "parse_profile", "profiles.parse")
        self._wrap(cli, "render_json", "jsonio.render",
                   ("jsonio.render_bytes", lambda text: len(text.encode())))
        for method in ("rank_matrix", "order_matrix"):
            self._wrap(profiles.PreferenceProfile, method, None,
                       ("profiles.array_views", lambda _: 1))
        self._wrap(stable, "compute_stable_lottery", "stable.lottery",
                   ("stable.lottery_rounds", lambda lottery: len(lottery.rounds)))
        self._wrap(stable, "stability_certificate", "stable.certificate")
        self._wrap(stable, "mwu_solve", "mwu.solve", ("mwu.rounds", lambda r: r.rounds))
        self._wrap(metrics, "distortion", "metrics.distortion")
        self._wrap(optimize, "distortion", "metrics.distortion")
        self._wrap(metrics, "_distortion_at_exact", "metrics.distortion_exact")
        self._wrap(metrics, "pf_distortion", "metrics.pf_distortion")
        self._wrap(metrics, "core_check", "metrics.core")
        self._wrap(metrics, "_coalition_game_value", "metrics.core_screen")
        # core_check reaches MWU through the mwu module; the lottery holds
        # its own reference (stable.mwu_solve), so these counts stay apart
        self._wrap(mwu, "mwu_solve", None,
                   ("metrics.core_screen_rounds", lambda r: r.rounds))
        self._wrap(metrics, "linprog", "metrics.core_lp")
        for solver in ("optimize_pf", "optimize_distortion"):
            self._wrap(optimize, solver, "optimize.solve",
                       ("optimize.iterations", lambda r: r.iterations))
        self._wrap(optimize, "project_to_scaled_simplex", "simplex.project")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def per_layer(self, operations: int) -> dict:
        """Every per-layer metric, per operation, as name -> (value, unit)."""
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        child_time: dict = defaultdict(float)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[index]
            calls[name] += 1
        out = {metric: (self_time[name] / operations, "s")
               for name, metric in SPAN_METRICS.items()}
        out.update({metric: (calls[name] / operations, "count")
                    for name, metric in CALL_METRICS.items()})
        out.update({key: (self.counts[key] / operations,
                          "bytes" if key.endswith("_bytes") else "count")
                    for key in COUNT_METRICS})
        out["trace.spans"] = (len(self.spans) / operations, "count")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")
