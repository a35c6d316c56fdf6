"""Outside-in layer tracing for the benchmark's traced run.

`Tracer.installed()` wraps the package's layer entry points for the
duration of a `with` block.  Each wrapper replaces the name where its caller
looks it up (a module global such as `marginsim.agent.backward`, or a class
attribute such as `DdpgAgent.act`), so the call sites inside the package go
through it; patching the defining module alone (say `marginsim.nets.backward`)
would time nothing.  Spans nest on one stack, which gives each layer its
self time: its total minus the time of the spans it caused.

Spans stay in memory; `metrics()` turns them into the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter

# Strategy kind -> the class whose `select` implements it.
STRATEGY_CLASSES = {
    "fixed": "FixedMargin",
    "random": "RandomMargin",
    "feedback": "ErrorFeedbackMargin",
    "scavenger": "UsageStddevMargin",
    "releaser": "LearnedMargin",
}

SPANS = ("config.load_scenario", "traces.generate_synthetic", "traces.load_traces",
         "traces.write_traces", "traces.error_cdf", "engine.run",
         *(f"strategies.{kind}" for kind in STRATEGY_CLASSES),
         "costs.containers_fitting", "costs.accumulate_violation", "costs.settle_day",
         "agent.act", "agent.store_and_learn", "agent.update", "agent.replay_sample",
         "agent.save", "agent.load", "nets.forward_trace", "nets.backward",
         "nets.adam_step", "reporting.build_report", "reporting.write_report_files",
         "reporting.write_training_log", "reporting.write_comparison")

COUNTS = ("traces.load_traces.rows", "engine.host_steps", "agent.warmup_actions",
          "agent.updates_reported", "agent.skipped_nonfinite", "agent.target_copies",
          "nets.forward_trace.in_update", "reporting.bytes_written")


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.missing: set[str] = set()  # traced names the package no longer has
        self._stack: list[list] = []  # [span name, time covered by child spans]

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name, fn, after=None):
        """`fn` timed as a span called `name`; `after(args, kwargs, result)`
        then records counts, outside the span."""
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        undo = []

        def patch(owner, attr, name, after=None):
            namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
            if attr not in namespace:
                self.missing.add(f"{owner.__name__}.{attr}")
                return
            original = namespace[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, after))
            else:
                wrapped = self.wrap(name, original, after)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))

        mod = importlib.import_module
        cli, config, engine = mod("marginsim.cli"), mod("marginsim.config"), mod("marginsim.engine")
        agent, nets, reporting = mod("marginsim.agent"), mod("marginsim.nets"), mod("marginsim.reporting")
        strategies = mod("marginsim.strategies")
        try:
            patch(cli, "load_scenario", "config.load_scenario")
            patch(config, "generate_synthetic", "traces.generate_synthetic")
            patch(config, "load_traces", "traces.load_traces", self._after_load_traces)
            patch(cli, "write_traces", "traces.write_traces")
            patch(reporting, "error_cdf", "traces.error_cdf")
            # cmd_train calls run through cli; compare_strategies through engine.
            patch(cli, "run", "engine.run", self._after_run)
            patch(engine, "run", "engine.run", self._after_run)
            for kind, cls in STRATEGY_CLASSES.items():
                patch(getattr(strategies, cls), "select", f"strategies.{kind}")
            for fn in ("containers_fitting", "accumulate_violation", "settle_day"):
                patch(engine, fn, f"costs.{fn}")
            patch(agent.DdpgAgent, "act", "agent.act", self._after_act)
            patch(agent.DdpgAgent, "store_and_learn", "agent.store_and_learn",
                  self._after_store)
            patch(agent.DdpgAgent, "_update", "agent.update")
            patch(agent.ReplayBuffer, "sample", "agent.replay_sample")
            patch(agent.DdpgAgent, "save", "agent.save")
            patch(agent.DdpgAgent, "load", "agent.load")
            patch(nets.DenseNet, "forward_trace", "nets.forward_trace", self._after_forward)
            patch(agent, "backward", "nets.backward")
            patch(agent, "adam_step", "nets.adam_step")
            # compare_strategies imports build_report from reporting at call time.
            patch(reporting, "build_report", "reporting.build_report")
            patch(cli, "write_report_files", "reporting.write_report_files",
                  self._after_report_files)
            patch(cli, "write_training_log", "reporting.write_training_log",
                  self._after_path_arg)
            patch(cli, "write_comparison", "reporting.write_comparison",
                  self._after_path_arg)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # Counts recorded next to the spans, from arguments and results only.

    def _after_load_traces(self, args, kwargs, dc):
        self.counts["traces.load_traces.rows"] += sum(
            len(series) for host in dc.hosts for series in host.series.values())

    def _after_run(self, args, kwargs, result):
        dc, _, sim = args[:3]
        lo, hi = sim.day_range
        self.counts["engine.host_steps"] += len(dc.hosts) * (hi - lo) * dc.steps_per_day

    def _after_act(self, args, kwargs, margin):
        agent = args[0]
        explore = kwargs["explore"] if "explore" in kwargs else args[2]
        if explore and agent.explore_calls <= agent.config.warmup_steps:
            self.counts["agent.warmup_actions"] += 1

    def _after_store(self, args, kwargs, stats):
        agent = args[0]
        self.counts["agent.updates_reported"] += stats.updated
        self.counts["agent.skipped_nonfinite"] += stats.skipped_nonfinite
        if agent.store_calls % agent.target_period == 0:
            self.counts["agent.target_copies"] += 1

    def _after_forward(self, args, kwargs, result):
        if self.inside("agent.update"):
            self.counts["nets.forward_trace.in_update"] += 1

    def _after_report_files(self, args, kwargs, paths):
        self.counts["reporting.bytes_written"] += sum(os.path.getsize(p) for p in paths)

    def _after_path_arg(self, args, kwargs, result):
        self.counts["reporting.bytes_written"] += os.path.getsize(args[1])

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers by metric name (calls and counts as ints)."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        updates = self.calls["agent.update"]
        out["agent.updates"] = updates
        stores = self.calls["agent.store_and_learn"]
        out["agent.update_ratio"] = updates / stores if stores else 0.0
        out["nets.forward_passes_per_update"] = (
            self.counts["nets.forward_trace.in_update"] / updates if updates else 0.0)
        return out
