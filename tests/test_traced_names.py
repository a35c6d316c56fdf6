"""The benchmark's traced run wraps package names by where callers look
them up; a refactor that moves or renames one would silently drop that
layer from the trace.  This checks every traced name still exists, and that
a DDPG update and an engine run go through the traced names as often as the
benchmark's counter identities expect."""

from pathlib import Path

import numpy as np
import pytest

from marginsim import engine
from marginsim.agent import SHARED, DdpgAgent, DdpgConfig, build_pool
from marginsim.costs import CostModel
from marginsim.strategies import StrategySpec
from marginsim.traces import MetricKind, SyntheticConfig, generate_synthetic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    return Tracer()


def test_every_traced_name_exists(tracer):
    with tracer.installed():
        pass
    assert tracer.missing == set()


@pytest.mark.parametrize("discount,passes", [(0.0, 3), (0.99, 5)])
def test_traced_update_identities(tracer, discount, passes):
    config = DdpgConfig(window=4, replay_capacity=64, batch_size=8, warmup_steps=8,
                        steps_per_day=16, target_update_days=2, discount=discount)
    rng = np.random.default_rng(60)
    with tracer.installed():
        agent = DdpgAgent.create(config, seed=61)
        for _ in range(12):
            agent.store_and_learn(rng.uniform(-1, 1, size=4), 0.1,
                                  float(rng.normal()), rng.uniform(-1, 1, size=4))
    metrics = tracer.metrics()
    updates = metrics["agent.updates"]
    assert updates == 5 and tracer.missing == set()
    assert metrics["nets.forward_passes_per_update"] == passes
    assert metrics["nets.backward.calls"] == 3 * updates
    assert metrics["nets.adam_step.calls"] == 2 * updates


@pytest.mark.parametrize("mode", ["evaluate", "train"])
@pytest.mark.parametrize("per_host", [False, True])
def test_traced_engine_identities(tracer, mode, per_host):
    from tracing import STRATEGY_CLASSES

    hosts, days, spd = 3, 2, 15
    dc = generate_synthetic(SyntheticConfig(seed=62, num_hosts=hosts, num_days=days,
                                            step_minutes=96))
    scopes = [h.spec.host_id for h in dc.hosts] if per_host else [SHARED]
    ddpg = DdpgConfig(window=4, batch_size=8, warmup_steps=8, replay_capacity=64,
                      steps_per_day=spd)
    cpu, ram = MetricKind.CPU, MetricKind.RAM
    strategies = {
        cpu: StrategySpec.parse("releaser").build(
            cpu, 63, pool=build_pool(ddpg, cpu, scopes, 64, 0.01), explore=mode == "train"),
        ram: StrategySpec.parse("scavenger:5").build(ram, 63),
    }
    sim = engine.SimulationConfig(seed=63, day_range=(0, days))
    with tracer.installed():
        engine.run(dc, CostModel(), sim, strategies)
    m = tracer.metrics()
    host_steps = hosts * days * spd
    assert tracer.missing == set()
    assert m["engine.run.calls"] == 1
    assert m["engine.host_steps"] == host_steps
    assert m["costs.accumulate_violation.calls"] == host_steps
    assert sum(m[f"strategies.{kind}.calls"] for kind in STRATEGY_CLASSES) == 2 * host_steps
    assert m["strategies.releaser.calls"] == m["strategies.scavenger.calls"] == host_steps
    assert m["costs.containers_fitting.calls"] > 0
    assert m["costs.settle_day.calls"] == hosts * days
    assert (m["agent.store_and_learn.calls"] > 0) == (mode == "train")


@pytest.mark.parametrize("mode", ["evaluate", "train"])
@pytest.mark.parametrize("per_host", [False, True])
def test_traced_releaser_runs_each_actor_once_a_day(tracer, mode, per_host):
    # Outside the updates, each agent's actor runs once per day, whatever
    # the number of hosts it serves; each select still makes one `act`.
    hosts, days, spd = 3, 2, 15
    dc = generate_synthetic(SyntheticConfig(seed=65, num_hosts=hosts, num_days=days,
                                            step_minutes=96))
    scopes = [h.spec.host_id for h in dc.hosts] if per_host else [SHARED]
    ddpg = DdpgConfig(window=4, batch_size=8, warmup_steps=8, replay_capacity=64,
                      steps_per_day=spd)
    strategies = {
        metric: StrategySpec.parse("releaser").build(
            metric, 66, pool=build_pool(ddpg, metric, scopes, 67, 0.01),
            explore=mode == "train")
        for metric in (MetricKind.CPU, MetricKind.RAM)
    }
    sim = engine.SimulationConfig(seed=66, day_range=(0, days))
    with tracer.installed():
        engine.run(dc, CostModel(), sim, strategies)
    m = tracer.metrics()
    assert tracer.missing == set()
    agents = 2 * len(scopes)
    assert m["nets.forward_trace.calls"] - m["nets.forward_trace.in_update"] == agents * days
    assert (m["nets.forward_trace.in_update"] > 0) == (mode == "train")
    assert m["agent.act.calls"] == m["strategies.releaser.calls"] == 2 * hosts * days * spd
    assert m["agent.warmup_actions"] == (agents * 8 if mode == "train" else 0)


def test_traced_evaluate_runs_every_strategy_in_this_process(tracer, monkeypatch, tmp_path):
    # Evaluate writes some reports from a forked child, whose calls the
    # tracer never sees.  The strategy runs must stay here, where it
    # counts them as the benchmark's traced coverage requires.
    from tracing import STRATEGY_CLASSES

    from marginsim import cli

    kinds = ["fixed", "random", "feedback", "scavenger"]
    scenario = tmp_path / "evaluate.cfg"
    scenario.write_text(f"""
[scenario]
seed = 68
output_dir = {tmp_path / "out"}
[trace]
step_minutes = 96
[synthetic]
num_hosts = 3
num_days = 2
[strategies]
cpu = fixed:0.1
ram = fixed:0.1
compare = fixed:0.05, random, feedback, scavenger:5
baseline = fixed:0.05
""")
    monkeypatch.setattr(engine, "usable_cores", lambda: 2)
    with tracer.installed():
        assert cli.main(["evaluate", str(scenario)]) == 0
    m = tracer.metrics()
    assert tracer.missing == set()
    assert all(m[f"strategies.{kind}.calls"] for kind in kinds)
    assert m["reporting.write_report_files.calls"] >= 1
    assert m["engine.host_steps"] == len(kinds) * 3 * 15
    assert m["costs.accumulate_violation.calls"] == m["engine.host_steps"]
    assert (sum(m[f"strategies.{kind}.calls"] for kind in STRATEGY_CLASSES)
            == 2 * m["engine.host_steps"])
