"""Spans around the public functions of each approxud layer.

`Tracer.patch()` replaces each traced name where its caller looks it up
(for example `sdp.solve_conelp`, which is what `solve_min_fail` calls) with a
wrapper that records a span: name, start, end, parent span and root span
(the CLI call it belongs to). Spans stay in memory until the run ends.
Counters that the layers expose in their arguments or results (iterations,
Schur rows, PSD block orders, scan-grid sizes) are read by the same
wrappers. Nothing inside the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "sdp", "conesolver", "state_ud", "channel_ud", "qmath")


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id or -1, root id, name, start, end)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.schur_rows_max = 0
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, kwargs, result) records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            root = self._stack[0] if self._stack else sid
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, root, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _after_conelp(self, args, kwargs, res) -> None:
        a, dims = args[1], args[3]
        rows = a.shape[0]
        self.counts["conesolver.iterations"] += res.iterations
        self.counts["conesolver.optimal"] += res.status == "optimal"
        self.counts["conesolver.schur_flops_computed"] += res.iterations * rows**3 / 3.0
        self.counts["sdp.psd_block_order_sum"] += sum(dims.psd)
        self.schur_rows_max = max(self.schur_rows_max, rows)

    def _after_batch(self, args, kwargs, res) -> None:
        self.counts["state_ud.pure_pair_pf_batch.points"] += res.size

    def _after_bound(self, args, kwargs, res) -> None:
        grid = kwargs.get("grid", args[7] if len(args) > 7 else 400)
        self.counts["channel_ud.grid_points_evaluated"] += grid * grid

    @contextlib.contextmanager
    def patch(self):
        """Install the wrappers for the duration of the block."""
        from approxud import channel_ud, cli, conesolver, qmath, sdp, state_ud

        targets = [
            (cli, "solve_min_fail", "sdp.solve_min_fail", None),
            (channel_ud, "solve_min_fail", "sdp.solve_min_fail", None),
            (sdp, "solve_conelp", "conesolver.solve_conelp", self._after_conelp),
            (conesolver, "symkron", "conesolver.symkron", None),
            (state_ud, "solve_pure_pair", "state_ud.solve_pure_pair", None),
            (state_ud, "analytic_pf_bound", "state_ud.analytic_pf_bound", None),
            (state_ud, "pure_pair_pf_batch", "state_ud.pure_pair_pf_batch", self._after_batch),
            (channel_ud, "_pf_fast", "state_ud.pf_fast", None),
            (channel_ud, "channel_fail_lower_bound", "channel_ud.channel_fail_lower_bound",
             self._after_bound),
            (channel_ud, "best_bound_over_ports", "channel_ud.best_bound_over_ports", None),
            (state_ud, "fidelity", "qmath.fidelity", None),
            # construction cost is the validation each dataclass runs
            (qmath.DensityMatrix, "__post_init__", "qmath.DensityMatrix", None),
            (qmath.StateEnsemble, "__post_init__", "qmath.StateEnsemble", None),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, after in targets:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], after))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def metrics(self, rounds: int, wall_s: float, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics, per round of the workload (counts repeat exactly
        from round to round, so they compare across commits)."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names = {sid: name for sid, _, _, name, _, _ in self.spans}
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        ports_in_sweeps = 0
        for sid, parent, _, name, start, end in self.spans:
            calls[name] += 1
            busy[name] += end - start
            own = end - start - child_time[sid]
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
            if name == "channel_ud.channel_fail_lower_bound" and names.get(parent) == "channel_ud.best_bound_over_ports":
                ports_in_sweeps += 1
        qmath_busy = sum(busy[n] for n in ("qmath.fidelity", "qmath.DensityMatrix", "qmath.StateEnsemble"))
        n_conelp = calls["conesolver.solve_conelp"]
        n_best = calls["channel_ud.best_bound_over_ports"]
        per_round = {
            "conesolver.solve_conelp.calls": n_conelp,
            "conesolver.solve_conelp.busy_s": busy["conesolver.solve_conelp"],
            "conesolver.iterations": self.counts["conesolver.iterations"],
            "conesolver.schur_flops_computed": self.counts["conesolver.schur_flops_computed"],
            "conesolver.symkron.calls": calls["conesolver.symkron"],
            "conesolver.symkron.busy_s": busy["conesolver.symkron"],
            "conesolver.self_s": layer_self["conesolver"],
            "sdp.solve_min_fail.calls": calls["sdp.solve_min_fail"],
            "sdp.solve_min_fail.busy_s": busy["sdp.solve_min_fail"],
            "sdp.solve_min_fail.self_s": self_s["sdp.solve_min_fail"],
            "sdp.psd_block_order_sum": self.counts["sdp.psd_block_order_sum"],
            "state_ud.solve_pure_pair.calls": calls["state_ud.solve_pure_pair"],
            "state_ud.solve_pure_pair.busy_s": busy["state_ud.solve_pure_pair"],
            "state_ud.analytic_pf_bound.busy_s": busy["state_ud.analytic_pf_bound"],
            "state_ud.pure_pair_pf_batch.points": self.counts["state_ud.pure_pair_pf_batch.points"],
            "state_ud.pure_pair_pf_batch.busy_s": busy["state_ud.pure_pair_pf_batch"],
            "state_ud.pf_fast.calls": calls["state_ud.pf_fast"],
            "state_ud.pf_fast.busy_s": busy["state_ud.pf_fast"],
            "state_ud.self_s": layer_self["state_ud"],
            "channel_ud.channel_fail_lower_bound.calls": calls["channel_ud.channel_fail_lower_bound"],
            "channel_ud.channel_fail_lower_bound.busy_s": busy["channel_ud.channel_fail_lower_bound"],
            "channel_ud.best_bound_over_ports.calls": n_best,
            "channel_ud.best_bound_over_ports.busy_s": busy["channel_ud.best_bound_over_ports"],
            "channel_ud.grid_points_evaluated": self.counts["channel_ud.grid_points_evaluated"],
            "channel_ud.self_s": layer_self["channel_ud"],
            "qmath.busy_s": qmath_busy,
            "qmath.self_s": layer_self["qmath"],
            "cli.main.busy_s": busy["cli.main"],
            "cli.self_s": layer_self["cli"],
            "cli.output_bytes": output_bytes,
            "trace.wall_s": wall_s,
        }
        out = {k: v / rounds for k, v in per_round.items()}
        out["conesolver.optimal_ratio"] = self.counts["conesolver.optimal"] / n_conelp if n_conelp else 0.0
        out["conesolver.schur_rows_max"] = self.schur_rows_max
        out["channel_ud.ports_per_point"] = ports_in_sweeps / n_best if n_best else 0.0
        out["trace.self_share"] = sum(layer_self[layer] for layer in LAYERS) / wall_s if wall_s else 0.0
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines [id, parent, root, name,
        start, end], times in seconds from the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for sid, parent, root, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, root, name, round(start - t0, 7), round(end - t0, 7)]) + "\n")
