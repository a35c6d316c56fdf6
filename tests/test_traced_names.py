"""The benchmark's traced run wraps package names by where callers look
them up; a refactor that moves or renames one would silently drop that
layer from the trace.  This checks every traced name still exists, and that
a DDPG update goes through the traced names as often as the benchmark's
counter identities expect."""

from pathlib import Path

import numpy as np
import pytest

from marginsim.agent import DdpgAgent, DdpgConfig, Transition

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
            agent.store_and_learn(Transition(rng.uniform(-1, 1, size=4), 0.1,
                                             float(rng.normal()), rng.uniform(-1, 1, size=4)))
    metrics = tracer.metrics()
    updates = metrics["agent.updates"]
    assert updates == 5 and tracer.missing == set()
    assert metrics["nets.forward_passes_per_update"] == passes
    assert metrics["nets.backward.calls"] == 3 * updates
    assert metrics["nets.adam_step.calls"] == 2 * updates
