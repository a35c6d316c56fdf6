"""Command line entry points: generate, train, evaluate.

Each command takes one scenario config file.  `generate` exports the trace
the scenario describes, `train` fits agents on the chronological training
split and writes checkpoints, `evaluate` compares the configured strategies
on the held-out test split and writes report files.  Exit status is 0 only
when every output was written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from marginsim.agent import SHARED, AgentPool, DdpgAgent, build_pool
from marginsim.config import ScenarioConfig, load_scenario
from marginsim.engine import (
    METRICS,
    SimulationConfig,
    compare_strategies,
    processes_for,
    reward_scale_for,
    run,
    side_by_side,
    train_test_split,
)
from marginsim.errors import CheckpointError, ConfigError, MarginSimError
from marginsim.fileio import remove_temporaries
from marginsim.reporting import (
    REPORT_FILES,
    render_comparison,
    write_comparison,
    write_report_files,
    write_training_log,
)
from marginsim.traces import Datacenter, MetricKind, write_capacities, write_traces


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="marginsim",
        description="Trace-driven simulation of safety-margin strategies "
                    "for reclaimed datacenter capacity.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("generate", "write the scenario's trace and capacity files"),
                       ("train", "train margin agents on the training split"),
                       ("evaluate", "compare strategies on the test split")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("scenario", help="path to a scenario config file")
        cmd.add_argument("--output-dir", default=None,
                         help="override the scenario's output directory")
        if name == "evaluate":
            cmd.add_argument("--checkpoint-dir", default=None,
                             help="directory holding trained agent checkpoints "
                                  "(default: <output_dir>/checkpoints)")

    args = parser.parse_args(argv)
    try:
        cfg = load_scenario(args.scenario, output_override=args.output_dir)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        return cmd_evaluate(cfg, args.checkpoint_dir)
    except MarginSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_generate(cfg: ScenarioConfig) -> int:
    dc = cfg.build_datacenter()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    trace_path = cfg.output_dir / "traces.csv"
    capacity_path = cfg.output_dir / "capacities.csv"
    write_traces(dc, trace_path)
    write_capacities([h.spec for h in dc.hosts], capacity_path)
    print(f"wrote {trace_path} and {capacity_path}")
    print(f"hosts: {len(dc.hosts)}  days: {dc.num_days()}  "
          f"step: {dc.step_minutes} min")
    for metric in METRICS:
        series = np.concatenate([h.series[metric] for h in dc.hosts])
        mean_usage = sum(series["usage"].tolist()) / len(series)
        under = np.count_nonzero(series["usage"] > series["prediction"]) / len(series)
        print(f"{metric.value}: mean usage {mean_usage:.4f}, "
              f"underestimated on {under:.1%} of steps")
    return 0


def agent_scopes(cfg: ScenarioConfig, dc: Datacenter) -> list[str]:
    """One agent per host, or one shared agent, for each learned metric."""
    return [h.spec.host_id for h in dc.hosts] if cfg.per_host_agents else [SHARED]


def checkpoint_path(checkpoint_dir: Path, metric: MetricKind, scope: str) -> Path:
    if scope == SHARED:
        return checkpoint_dir / f"agent_{metric.value}.ckpt"
    return checkpoint_dir / f"agent_{metric.value}__{scope}.ckpt"


def cmd_train(cfg: ScenarioConfig) -> int:
    dc = cfg.build_datacenter()
    learned = cfg.learned_metrics()
    if not learned:
        raise ConfigError(
            f"{cfg.path}: nothing to train; bind at least one metric to 'releaser' "
            f"in [strategies]")
    train_range, test_range = train_test_split(dc, cfg.train_fraction)
    scale = reward_scale_for(dc, cfg.cost)
    scopes = agent_scopes(cfg, dc)
    try:
        pools = {m: build_pool(cfg.ddpg, m, scopes, cfg.seed, scale) for m in learned}
    except (MemoryError, OSError, OverflowError) as exc:
        raise ConfigError(
            f"{cfg.path}: cannot allocate the agents for [ddpg] window = {cfg.ddpg.window} "
            f"and replay_capacity = {cfg.ddpg.replay_capacity}: {exc}") from exc
    strategies = {
        m: cfg.bindings[m].build(m, cfg.seed, pool=pools.get(m), explore=True)
        for m in METRICS
    }
    sim = SimulationConfig(seed=cfg.seed, day_range=train_range,
                           reward_attribution=cfg.reward_attribution)
    print(f"training on days [{train_range[0]}, {train_range[1]}) "
          f"({len(learned)} agent(s), {len(dc.hosts)} hosts); "
          f"test split is [{test_range[0]}, {test_range[1]})")
    result = run(dc, cfg.cost, sim, strategies)

    cfg.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    for metric in learned:
        for scope, agent in pools[metric].items():
            path = checkpoint_path(cfg.checkpoint_dir, metric, scope)
            agent.save(path)
            print(f"wrote {path}")
    log_path = cfg.output_dir / "training_log.csv"
    write_training_log(result.step_log, log_path)
    print(f"wrote {log_path} ({len(result.step_log)} steps)")
    net = sum(led.net_saving for led in result.ledgers)
    print(f"training-split net saving (exploring): {net:.4f}")
    return 0


def load_pools(cfg: ScenarioConfig, checkpoint_dir: Path,
               scopes: list[str]) -> dict[MetricKind, AgentPool]:
    pools = {}
    for metric in METRICS:
        agents = {}
        for scope in scopes:
            path = checkpoint_path(checkpoint_dir, metric, scope)
            if not path.is_file():
                raise CheckpointError(
                    f"missing checkpoint {path}; run 'marginsim train' first")
            agents[scope] = DdpgAgent.load(path, cfg.ddpg)
        pools[metric] = AgentPool(agents)
    return pools


def cmd_evaluate(cfg: ScenarioConfig, checkpoint_override: str | None) -> int:
    dc = cfg.build_datacenter()
    _, test_range = train_test_split(dc, cfg.train_fraction)
    pools = None
    if any(spec.kind == "releaser" for spec in cfg.compare):
        checkpoint_dir = (Path(checkpoint_override) if checkpoint_override
                          else cfg.checkpoint_dir)
        pools = load_pools(cfg, checkpoint_dir, agent_scopes(cfg, dc))
    sim = SimulationConfig(seed=cfg.seed, day_range=test_range)
    table = compare_strategies(dc, cfg.cost, sim, cfg.compare, pools=pools,
                               baseline=cfg.baseline)
    reports_dir = cfg.output_dir / "reports"

    def write_share(specs):
        for spec in specs:
            write_report_files(table.reports[spec.label], reports_dir / spec.slug)

    # No report depends on another, so they are dealt round robin to as
    # many writer processes as there are usable cores.
    width = processes_for(len(cfg.compare))
    try:
        side_by_side([cfg.compare[i::width] for i in range(width)], write_share,
                     lambda specs: "report writer")
    except BaseException as exc:
        # Every writer is reaped by now; one killed mid-write left its temporary file.
        remove_temporaries(reports_dir / spec.slug / name
                           for spec in cfg.compare for name in REPORT_FILES)
        if isinstance(exc, OSError):
            raise MarginSimError(f"cannot write reports: {exc}") from exc
        raise
    comparison_path = cfg.output_dir / "comparison.csv"
    write_comparison(table, comparison_path)
    print(f"evaluated days [{test_range[0]}, {test_range[1]}) "
          f"on {len(dc.hosts)} hosts; reports in {reports_dir}")
    print(render_comparison(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
