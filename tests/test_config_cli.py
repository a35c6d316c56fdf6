"""Scenario parsing and end-to-end CLI tests on tiny synthetic runs."""

import csv
import errno
import importlib.util
import inspect
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from marginsim import cli, config, reporting
from marginsim.agent import DdpgConfig
from marginsim.cli import main
from marginsim.config import _SCHEMA, _section_fields, load_scenario
from marginsim.engine import SimulationConfig, compare_strategies, train_test_split
from marginsim.errors import ConfigError
from marginsim.fileio import atomic_write
from marginsim.strategies import StrategySpec
from marginsim.traces import (
    DEFAULT_STEP_MINUTES,
    MINUTES_PER_DAY,
    Datacenter,
    MetricKind,
    SyntheticConfig,
    load_traces,
)

CPU, RAM = MetricKind.CPU, MetricKind.RAM
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def write_scenario(path, body):
    path.write_text(body)
    return str(path)


SMOKE_TRACE = """
[trace]
step_minutes = 15

[synthetic]
num_hosts = 2
num_days = 4
prediction_noise_sigma = 0.05
spike_prob_per_step = 0.004
"""


def smoke_scenario(tmp_path, out_name="out", extra="", trace=SMOKE_TRACE,
                   file_name="smoke.cfg"):
    """A deliberately small but complete scenario: 2 hosts, 4 days,
    15-minute steps, agent hyperparameters shrunk so training is quick."""
    return write_scenario(tmp_path / file_name, f"""
[scenario]
name = smoke
seed = 123
output_dir = {tmp_path / out_name}
{trace}
[strategies]
compare = releaser, fixed:0.05, scavenger
baseline = fixed:0.05

[ddpg]
window = 4
batch_size = 8
warmup_steps = 8
replay_capacity = 256
learning_rate = 0.01
{extra}
""")


@pytest.fixture(scope="module")
def smoke_tree(tmp_path_factory):
    """A smoke scenario's path, and the output directory its whole pipeline
    wrote; copy the directory before changing it."""
    root = tmp_path_factory.mktemp("smoke_tree")
    path = smoke_scenario(root)
    for stage in ("generate", "train", "evaluate"):
        assert main([stage, path]) == 0
    return path, root / "out"


def comparison_rows(out_dir):
    with (out_dir / "comparison.csv").open() as fh:
        return list(csv.DictReader(fh))


class TestLoadScenario:
    def test_minimal_defaults(self, tmp_path):
        path = write_scenario(tmp_path / "min.cfg", """
[scenario]
seed = 7

[synthetic]
num_hosts = 3
num_days = 5
""")
        cfg = load_scenario(path)
        assert cfg.name == "min"
        assert cfg.seed == 7
        assert cfg.synthetic is not None
        assert cfg.step_minutes == 3
        assert cfg.synthetic.num_hosts == 3
        assert cfg.cost.price_per_hour == 0.0317
        assert cfg.bindings[CPU].kind == "releaser"
        assert cfg.bindings[RAM].kind == "releaser"
        assert [s.label for s in cfg.compare] == ["releaser"]
        assert cfg.baseline is None
        assert cfg.ddpg.steps_per_day == 480
        assert cfg.reward_attribution == "violation_spread"
        assert cfg.checkpoint_dir == cfg.output_dir / "checkpoints"

    def test_step_minutes_defaults_are_one_constant(self):
        assert DEFAULT_STEP_MINUTES == 3
        defaults = [
            Datacenter("d", []).step_minutes,
            SyntheticConfig(seed=0, num_hosts=1, num_days=1).step_minutes,
            inspect.signature(load_traces).parameters["step_minutes"].default,
            MINUTES_PER_DAY // DdpgConfig().steps_per_day,
        ]
        assert defaults == [DEFAULT_STEP_MINUTES] * 4

    def test_full_round_trip(self, tmp_path):
        path = write_scenario(tmp_path / "full.cfg", f"""
[scenario]
name = full
seed = 99
output_dir = {tmp_path / "results"}

[trace]
source = synthetic
step_minutes = 15

[synthetic]
num_hosts = 4
num_days = 6
base_load = 0.4
daily_amplitude = 0.2
spike_prob_per_step = 0.01
cpu_cores = 64
ram_gb = 256

[cost]
price_per_hour = 0.05
discount_tiers = 30:0, 240:0.2, inf:0.5

[strategies]
cpu = fixed:0.1
ram = scavenger:20
baseline = fixed:0.1

[ddpg]
window = 8
critic_loss = mse
per_host_agents = true
reward_attribution = day_end_lump
""")
        cfg = load_scenario(path)
        assert cfg.name == "full"
        assert cfg.synthetic.host_cpu_cores == 64
        assert cfg.synthetic.host_ram_gb == 256.0
        assert cfg.cost.discount_tiers == (
            (0.0, 30.0, 0.0), (30.0, 240.0, 0.2), (240.0, math.inf, 0.5))
        assert cfg.bindings[CPU].label == "fixed:0.1"
        assert cfg.bindings[RAM].label == "scavenger:20"
        assert [s.label for s in cfg.compare] == ["fixed:0.1", "scavenger:20"]
        assert cfg.baseline == "fixed:0.1"
        assert cfg.ddpg.window == 8
        assert cfg.ddpg.critic_loss == "mse"
        assert cfg.per_host_agents is True
        assert cfg.ddpg.steps_per_day == 96
        assert cfg.reward_attribution == "day_end_lump"
        assert cfg.learned_metrics() == []

    def test_output_override_wins(self, tmp_path):
        path = smoke_scenario(tmp_path)
        cfg = load_scenario(path, output_override=tmp_path / "elsewhere")
        assert cfg.output_dir == tmp_path / "elsewhere"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "absent.cfg")

    def test_missing_seed_named(self, tmp_path):
        path = write_scenario(tmp_path / "s.cfg", "[synthetic]\nnum_hosts = 1\nnum_days = 2\n")
        with pytest.raises(ConfigError, match="scenario.seed"):
            load_scenario(path)

    def test_unknown_section_named(self, tmp_path):
        path = write_scenario(tmp_path / "s.cfg", """
[scenario]
seed = 1
[mystery]
x = 1
[synthetic]
num_hosts = 1
num_days = 2
""")
        with pytest.raises(ConfigError, match=r"\[mystery\]"):
            load_scenario(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_scenario(tmp_path / "s.cfg", """
[scenario]
seed = 1
[synthetic]
num_hosts = 1
num_days = 2
[ddpg]
learning_rte = 0.1
""")
        with pytest.raises(ConfigError, match="learning_rte"):
            load_scenario(path)

    @pytest.mark.parametrize("line,complaint", [
        ("step_minutes = 7", "divide 1440"),
        ("source = parquet", "source"),
    ])
    def test_trace_section_validation(self, tmp_path, line, complaint):
        path = write_scenario(tmp_path / "s.cfg", f"""
[scenario]
seed = 1
[trace]
{line}
[synthetic]
num_hosts = 1
num_days = 2
""")
        with pytest.raises(ConfigError, match=complaint):
            load_scenario(path)

    def test_csv_source_requires_existing_files(self, tmp_path):
        path = write_scenario(tmp_path / "s.cfg", f"""
[scenario]
seed = 1
[trace]
source = csv
trace_file = {tmp_path / "traces.csv"}
capacity_file = {tmp_path / "caps.csv"}
""")
        with pytest.raises(ConfigError, match="does not exist"):
            load_scenario(path)

    def test_csv_source_conflicts_with_synthetic(self, tmp_path):
        (tmp_path / "traces.csv").write_text("x\n")
        (tmp_path / "caps.csv").write_text("x\n")
        path = write_scenario(tmp_path / "s.cfg", f"""
[scenario]
seed = 1
[trace]
source = csv
trace_file = {tmp_path / "traces.csv"}
capacity_file = {tmp_path / "caps.csv"}
[synthetic]
num_hosts = 1
num_days = 2
""")
        with pytest.raises(ConfigError, match="conflicts"):
            load_scenario(path)

    def test_baseline_must_be_compared(self, tmp_path):
        path = write_scenario(tmp_path / "s.cfg", """
[scenario]
seed = 1
[synthetic]
num_hosts = 1
num_days = 2
[strategies]
compare = fixed:0.1, random
baseline = fixed:0.2
""")
        with pytest.raises(ConfigError, match="baseline"):
            load_scenario(path)

    def test_duplicate_compare_entries(self, tmp_path):
        path = write_scenario(tmp_path / "s.cfg", """
[scenario]
seed = 1
[synthetic]
num_hosts = 1
num_days = 2
[strategies]
compare = fixed:0.1, fixed:0.1
""")
        with pytest.raises(ConfigError, match="duplicate"):
            load_scenario(path)

    @pytest.mark.parametrize("key,token", [
        ("cpu", "scavenger:1"), ("ram", "fixed:1.5"), ("compare", "feedback:-0.5"),
        ("compare", "scavenger:inf"), ("cpu", "fixed:nan"),
    ])
    def test_strategy_parameter_out_of_range_names_file_and_key(self, tmp_path, key, token):
        path = write_scenario(tmp_path / "s.cfg", f"""
[scenario]
seed = 1
[synthetic]
num_hosts = 1
num_days = 2
[strategies]
{key} = {token}
""")
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: strategies\.{key}: "):
            load_scenario(path)

    def test_bad_reward_attribution(self, tmp_path):
        path = write_scenario(tmp_path / "s.cfg", """
[scenario]
seed = 1
[synthetic]
num_hosts = 1
num_days = 2
[ddpg]
reward_attribution = bonus
""")
        with pytest.raises(ConfigError, match="reward_attribution"):
            load_scenario(path)

    def test_bad_train_fraction_named(self, tmp_path):
        path = write_scenario(tmp_path / "s.cfg", """
[scenario]
seed = 1
[synthetic]
num_hosts = 1
num_days = 2
[ddpg]
train_fraction = 1.0
""")
        with pytest.raises(ConfigError, match="ddpg.train_fraction"):
            load_scenario(path)

    @pytest.mark.parametrize("compare", ["compare = releaser, fixed:0.05", ""])
    def test_compared_releaser_needs_both_metrics_bound(self, tmp_path, compare):
        # With no compare key the list is the bindings: releaser, fixed:0.05.
        path = write_scenario(tmp_path / "s.cfg", f"""
[scenario]
seed = 1
[synthetic]
num_hosts = 1
num_days = 2
[strategies]
cpu = releaser
ram = fixed:0.05
{compare}
""")
        with pytest.raises(ConfigError, match=r"strategies\.compare.*\bram\b"):
            load_scenario(path)

    def test_accepted_keys_are_pinned(self):
        # The key set of every section, as the scenario format defines it;
        # deriving keys from dataclass fields must neither add nor drop one.
        assert _SCHEMA == {
            "scenario": {"name", "seed", "output_dir"},
            "trace": {"source", "step_minutes", "trace_file", "capacity_file"},
            "synthetic": {"num_hosts", "num_days", "base_load", "daily_amplitude",
                          "noise_ar_coeff", "noise_sigma", "spike_prob_per_step",
                          "spike_magnitude", "prediction_bias", "prediction_noise_sigma",
                          "smoothing_window", "cpu_cores", "ram_gb"},
            "cost": {"price_per_hour", "container_cpu", "container_ram_gb",
                     "discount_tiers"},
            "strategies": {"cpu", "ram", "compare", "baseline"},
            "ddpg": {"window", "learning_rate", "discount", "replay_capacity",
                     "batch_size", "warmup_steps", "ou_theta", "ou_mu", "ou_sigma",
                     "target_update_days", "critic_loss", "train_fraction",
                     "per_host_agents", "reward_attribution"},
        }

    @pytest.mark.parametrize("tiers", [
        "15:0, 120:0.1",              # does not end at inf
        "inf:0.1, 15:0",              # unordered
        "15:0, 120:1.5, inf:0.3",     # discount above 1
        "nonsense",
    ])
    def test_bad_discount_tiers(self, tmp_path, tiers):
        path = write_scenario(tmp_path / "s.cfg", f"""
[scenario]
seed = 1
[synthetic]
num_hosts = 1
num_days = 2
[cost]
discount_tiers = {tiers}
""")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_bad_number_named(self, tmp_path):
        path = write_scenario(tmp_path / "s.cfg", """
[scenario]
seed = 1
[synthetic]
num_hosts = 1
num_days = 2
base_load = plenty
""")
        with pytest.raises(ConfigError, match="synthetic.base_load"):
            load_scenario(path)


# Every key read as a float: discount_tiers, whose last bound is inf, has
# its own parser.
NUMBER_KEYS = [(section, key) for section in ("synthetic", "cost", "ddpg")
               for key, f in _section_fields(section) if f.type == "float"]


class TestNonFiniteNumbers:
    def test_number_keys_are_found(self):
        assert ("cost", "price_per_hour") in NUMBER_KEYS and len(NUMBER_KEYS) >= 15

    @pytest.mark.parametrize("section,key", NUMBER_KEYS)
    def test_every_number_key_rejects_non_finite(self, tmp_path, capsys, section, key):
        out = tmp_path / "out"
        for token in ("nan", "inf", "-inf", "1e999"):
            lines = {"synthetic": ["num_hosts = 1", "num_days = 2"]}
            lines.setdefault(section, []).append(f"{key} = {token}")
            path = write_scenario(tmp_path / "s.cfg", f"[scenario]\nseed = 1\noutput_dir = {out}\n"
                                  + "".join(f"[{name}]\n" + "\n".join(body) + "\n"
                                            for name, body in lines.items()))
            for stage in ("generate", "train", "evaluate"):
                assert main([stage, path]) == 2
                assert capsys.readouterr().err == (
                    f"error: {path}: {section}.{key} must be a finite number, "
                    f"got {token!r}\n")
                assert not out.exists()


class TestOversizedValues:
    """Values that pass each key's own checks but that no stage could run
    with: sums of money past a float, or series past physical memory."""

    @pytest.mark.parametrize("key,value", [
        ("price_per_hour", "1e308"),
        ("num_days", "1000000000000"), ("num_days", str(10**30)),
        ("num_hosts", "1000000000"), ("num_hosts", str(10**30)),
    ])
    def test_every_stage_fails_at_once(self, tmp_path, capsys, key, value):
        trace = SMOKE_TRACE
        if key == "price_per_hour":
            trace += f"[cost]\nprice_per_hour = {value}\n"
        else:
            trace = re.sub(f"{key} = \\d+", f"{key} = {value}", trace)
        path = smoke_scenario(tmp_path, trace=trace)
        named = ["cost.price_per_hour"] if key == "price_per_hour" else ["num_hosts", "num_days"]
        for stage in ("generate", "train", "evaluate"):
            began = time.monotonic()
            assert main([stage, path]) == 2
            assert time.monotonic() - began < 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
            assert all(name in err for name in named), err
            assert not (tmp_path / "out").exists()

    def test_the_largest_price_keeps_comparison_finite(self, tmp_path, capsys):
        # Smoke's 2 hosts fit 16 containers each for 384 15-minute steps, so
        # twice the earnings bound is 6,144 x the price: 1e304 passes, 1e305 not.
        fixed = "[strategies]\ncpu = fixed:0.1\nram = fixed:0.1\n"
        body = (Path(smoke_scenario(tmp_path)).read_text().replace("[strategies]\n", fixed)
                .replace("compare = releaser,", "compare ="))
        for price, code in (("1e304", 0), ("1e305", 2)):
            path = write_scenario(tmp_path / "s.cfg", body + f"[cost]\nprice_per_hour = {price}\n")
            assert main(["evaluate", path]) == code
        rows = comparison_rows(tmp_path / "out")
        assert len(rows) == 2
        assert all(math.isfinite(float(value)) for row in rows
                   for key, value in row.items() if key != "strategy")
        assert float(rows[0]["potential"]) > 1e300


class TestGenerateCommand:
    def test_writes_trace_files(self, tmp_path, capsys):
        path = smoke_scenario(tmp_path)
        assert main(["generate", path]) == 0
        out = capsys.readouterr().out
        assert "hosts: 2" in out and "days: 4" in out
        traces = tmp_path / "out" / "traces.csv"
        caps = tmp_path / "out" / "capacities.csv"
        assert traces.is_file() and caps.is_file()
        with traces.open() as fh:
            header = fh.readline().strip().split(",")
        assert header == ["host_id", "metric", "step", "usage", "prediction"]

    def test_rerun_is_byte_identical(self, tmp_path):
        path = smoke_scenario(tmp_path)
        main(["generate", path, "--output-dir", str(tmp_path / "a")])
        main(["generate", path, "--output-dir", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "traces.csv").read_bytes()
                == (tmp_path / "b" / "traces.csv").read_bytes())
        assert ((tmp_path / "a" / "capacities.csv").read_bytes()
                == (tmp_path / "b" / "capacities.csv").read_bytes())

    def test_generated_csv_loads_back(self, tmp_path, capsys):
        path = smoke_scenario(tmp_path)
        main(["generate", path])
        csv_path = write_scenario(tmp_path / "fromcsv.cfg", f"""
[scenario]
name = fromcsv
seed = 123
[trace]
source = csv
step_minutes = 15
trace_file = {tmp_path / "out" / "traces.csv"}
capacity_file = {tmp_path / "out" / "capacities.csv"}
""")
        synthetic_dc = load_scenario(path).build_datacenter()
        loaded_dc = load_scenario(csv_path).build_datacenter()
        assert [h.spec for h in loaded_dc.hosts] == [h.spec for h in synthetic_dc.hosts]
        for a, b in zip(loaded_dc.hosts, synthetic_dc.hosts):
            assert a.series.keys() == b.series.keys()
            for m in a.series:
                assert np.array_equal(a.series[m], b.series[m])


class TestTrainEvaluateCommands:
    def test_pipeline(self, tmp_path, capsys):
        path = smoke_scenario(tmp_path)
        assert main(["train", path]) == 0
        out = capsys.readouterr().out
        assert "training on days [0, 3)" in out
        ckpt_dir = tmp_path / "out" / "checkpoints"
        assert (ckpt_dir / "agent_cpu.ckpt").is_file()
        assert (ckpt_dir / "agent_ram.ckpt").is_file()
        log_path = tmp_path / "out" / "training_log.csv"
        with log_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "critic_loss", "mean_reward", "mean_margin"]
        assert len(rows) - 1 == 3 * 96  # one row per training step
        assert [int(r[0]) for r in rows[1:]] == list(range(288))
        for r in rows[1:]:
            float(r[1]), float(r[2]), float(r[3])  # all parse

        assert main(["evaluate", path]) == 0
        out = capsys.readouterr().out
        assert "evaluated days [3, 4)" in out
        for label in ("releaser", "fixed:0.05", "scavenger"):
            assert label in out
        comparison = tmp_path / "out" / "comparison.csv"
        assert comparison.is_file()
        with comparison.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["strategy"] for r in rows] == ["releaser", "fixed:0.05", "scavenger"]
        baseline = next(r for r in rows if r["strategy"] == "fixed:0.05")
        assert float(baseline["net_ratio"]) == 1.0

        # The comparison's net for each strategy equals the sum of its
        # per-day ledger rows, exactly.
        for row in rows:
            slug = row["strategy"].replace(":", "_").replace(".", "p")
            ledger = tmp_path / "out" / "reports" / slug / "ledger.csv"
            with ledger.open() as fh:
                led_rows = list(csv.DictReader(fh))
            assert float(row["net"]) == sum(float(r["net"]) for r in led_rows)
            assert all(int(r["day"]) == 3 for r in led_rows)

    def test_per_host_agents_pipeline(self, tmp_path, capsys):
        path = smoke_scenario(tmp_path, extra="per_host_agents = true")
        for stage in ("generate", "train", "evaluate"):
            assert main([stage, path]) == 0, capsys.readouterr().err
        ckpt_dir = tmp_path / "out" / "checkpoints"
        names = [f"agent_{m}__host-{i}.ckpt" for m in ("cpu", "ram") for i in (0, 1)]
        assert sorted(p.name for p in ckpt_dir.iterdir()) == names
        assert ((ckpt_dir / names[0]).read_bytes() != (ckpt_dir / names[1]).read_bytes())
        rows = comparison_rows(tmp_path / "out")
        assert [r["strategy"] for r in rows] == ["releaser", "fixed:0.05", "scavenger"]
        # Every host's agent is needed: one missing checkpoint is named.
        (ckpt_dir / names[3]).unlink()
        capsys.readouterr()
        assert main(["evaluate", path]) == 2
        assert names[3] in capsys.readouterr().err

    def test_csv_trace_pipeline_matches_synthetic(self, tmp_path, capsys):
        synthetic = smoke_scenario(tmp_path, out_name="syn")
        from_csv = smoke_scenario(tmp_path, out_name="csv", file_name="csv.cfg", trace=f"""
[trace]
source = csv
step_minutes = 15
trace_file = {tmp_path / "syn" / "traces.csv"}
capacity_file = {tmp_path / "syn" / "capacities.csv"}
""")
        for path in (synthetic, from_csv):
            for stage in ("generate", "train", "evaluate"):
                assert main([stage, path]) == 0, capsys.readouterr().err
        # The CSV holds the synthetic trace exactly, so both runs agree.
        for name in ("traces.csv", "capacities.csv", "checkpoints/agent_cpu.ckpt",
                     "checkpoints/agent_ram.ckpt", "training_log.csv", "comparison.csv"):
            assert ((tmp_path / "syn" / name).read_bytes()
                    == (tmp_path / "csv" / name).read_bytes()), name

    def test_training_is_deterministic(self, tmp_path):
        path = smoke_scenario(tmp_path)
        main(["train", path, "--output-dir", str(tmp_path / "r1")])
        main(["train", path, "--output-dir", str(tmp_path / "r2")])
        for name in ("checkpoints/agent_cpu.ckpt", "checkpoints/agent_ram.ckpt",
                     "training_log.csv"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes()), name

    def test_train_requires_learned_binding(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "fixedonly.cfg", f"""
[scenario]
seed = 5
output_dir = {tmp_path / "out"}
[synthetic]
num_hosts = 1
num_days = 2
[strategies]
cpu = fixed:0.1
ram = fixed:0.1
""")
        assert main(["train", path]) == 2
        assert "nothing to train" in capsys.readouterr().err

    def test_evaluate_without_checkpoints(self, tmp_path, capsys):
        path = smoke_scenario(tmp_path, out_name="fresh")
        assert main(["evaluate", path]) == 2
        assert "missing checkpoint" in capsys.readouterr().err

    def test_checkpoint_config_mismatch(self, tmp_path, capsys):
        path = smoke_scenario(tmp_path)
        main(["train", path])
        capsys.readouterr()
        # Same checkpoints, incompatible window: the stale file is refused.
        assert main(["evaluate", path]) == 0
        capsys.readouterr()
        wrong = write_scenario(tmp_path / "wrong.cfg",
                               (tmp_path / "smoke.cfg").read_text()
                               .replace("window = 4", "window = 6")
                               .replace(str(tmp_path / "out"), str(tmp_path / "w")))
        assert main(["evaluate", wrong, "--checkpoint-dir",
                     str(tmp_path / "out" / "checkpoints")]) == 2
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("token,window", [
        ("scavenger:1e30", int(1e30)), ("scavenger:100000000", 100000000)])
    def test_window_longer_than_the_trace_exits_2(self, tmp_path, capsys, token, window):
        # 1 host, 2 days of 3-minute steps: 960 steps.
        path = write_scenario(tmp_path / "long.cfg", f"""
[scenario]
seed = 5
output_dir = {tmp_path / "out"}
[synthetic]
num_hosts = 1
num_days = 2
[strategies]
cpu = fixed:0.1
ram = fixed:0.1
compare = fixed:0.05, {token}
baseline = fixed:0.05
""")
        assert main(["evaluate", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: strategy window {window} is longer than the trace's 960 steps\n"

    @pytest.mark.parametrize("key,line", [("replay_capacity", "replay_capacity = 256"),
                                          ("window", "window = 4")])
    def test_oversized_agent_exits_2(self, tmp_path, capsys, key, line):
        # 10**13 replay rows or actor inputs need more than the 128 TiB of a
        # process's address space, so allocating them fails without
        # touching memory, whatever the overcommit setting; 10**30 does not
        # fit numpy's or mmap's size types.
        path = smoke_scenario(tmp_path)
        text = Path(path).read_text()
        for size in (10**13, 10**30):
            write_scenario(Path(path), text.replace(line, f"{key} = {size}"))
            assert main(["train", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: cannot allocate the agents for [ddpg] ")
            assert f"{key} = {size}" in err
            assert err.count("\n") == 1
            assert not (tmp_path / "out").exists()

    def test_a_domain_error_while_building_agents_is_not_an_allocation_failure(
            self, tmp_path, capsys):
        # A zero price gives a zero reward scale, which the agents refuse.
        path = smoke_scenario(tmp_path, extra="[cost]\nprice_per_hour = 0")
        assert main(["train", path]) == 2
        err = capsys.readouterr().err
        assert "reward_scale must be positive" in err
        assert "cannot allocate" not in err
        assert err.count("\n") == 1

    def test_bad_scenario_exit_code(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "missing.cfg")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestUnwritableOutputs:
    """A stage that cannot write an output exits 2 with one error line that
    names the path, and leaves no temporary file and no child behind; train
    finds it before it trains."""

    @staticmethod
    def fails(forks, capsys, argv, path):
        capsys.readouterr()
        assert forks(lambda: main(argv))[0] == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"'{path}'" in err
        assert "training on days" not in captured.out

    @pytest.mark.parametrize("stage,first_output", [("generate", "traces.csv"),
                                                    ("train", "checkpoints")])
    def test_output_dir_names_a_file(self, forks, tmp_path, capsys, stage, first_output):
        path = smoke_scenario(tmp_path)
        blocked = tmp_path / "file"
        blocked.write_text("")
        self.fails(forks, capsys, [stage, path, "--output-dir", str(blocked)],
                   blocked / first_output)

    @pytest.mark.parametrize("name", ["checkpoints/agent_cpu.ckpt", "training_log.csv"])
    def test_train_output_is_a_directory(self, forks, tmp_path, capsys, name):
        path = smoke_scenario(tmp_path)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        self.fails(forks, capsys, ["train", path], out / name)
        assert not list(out.rglob("*.tmp"))
        # Checked before training: nothing else was created.
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == sorted(
            {Path(name), *Path(name).parents} - {Path(".")})

    def test_train_output_in_a_read_only_directory(self, monkeypatch, forks, tmp_path,
                                                   capsys):
        path = smoke_scenario(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        # Root may write anywhere whatever the mode bits, so the directory
        # reads as read-only to the check instead.
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: Path(p) != out and access(p, mode))
        self.fails(forks, capsys, ["train", path], out / "checkpoints")
        assert list(out.iterdir()) == []

    def test_comparison_is_a_directory(self, forks, tmp_path, capsys):
        path = smoke_scenario(tmp_path)
        assert main(["train", path]) == 0
        out = tmp_path / "out"
        (out / "comparison.csv").mkdir()
        self.fails(forks, capsys, ["evaluate", path], out / "comparison.csv")
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize("stage,blocked", [
        *(("generate", name) for name in ("traces.csv", "capacities.csv", "")),
        *(("train", name) for name in ("checkpoints/agent_cpu.ckpt", "checkpoints/agent_ram.ckpt",
                                       "training_log.csv", "checkpoints", "")),
        *(("evaluate", f"reports/releaser/{name}") for name in reporting.REPORT_FILES),
        *(("evaluate", name) for name in ("comparison.csv", "reports/scavenger", "reports", "")),
    ])
    def test_blocked_output_fails_before_work(self, monkeypatch, unchanged, smoke_tree,
                                              tmp_path, capsys, stage, blocked):
        """A directory where an output file goes, or a file where an output
        directory goes, fails the stage before it builds the trace (train
        before it trains) and leaves the previous tree as it was."""
        scenario, built = smoke_tree
        out = tmp_path / "previous" / "out"
        shutil.copytree(built, out)
        target = out / blocked
        if target.is_file():
            target.unlink()
            target.mkdir()
            named = f"[Errno {errno.EISDIR}] Is a directory: '{target}'\n"
        else:
            shutil.rmtree(target)
            target.write_text("")
            named = f"[Errno {errno.ENOTDIR}] Not a directory: '{target}/"
        if stage != "train":
            monkeypatch.setattr(config, "generate_synthetic",
                                lambda recipe: pytest.fail("the trace was built"))
        capsys.readouterr()
        argv = [stage, scenario, "--output-dir", str(out)]
        assert unchanged(tmp_path / "previous", lambda: main(argv), 2) == (2, 0)
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert named in captured.err
        assert "training on days" not in captured.out


class TestForkedReports:
    """With two usable cores evaluate forks a child that encodes the error
    CDFs while this process runs the strategies, then writes its reports
    from two processes: a forked child writes releaser and scavenger, this
    process fixed:0.05."""

    @pytest.fixture
    def scenario(self, tmp_path):
        path = smoke_scenario(tmp_path)
        assert main(["train", path]) == 0
        return path

    @staticmethod
    def evaluate(forks, scenario, out, cores):
        """Exit code and forks of an evaluate into `out` with `cores` cores."""
        checkpoints = str(Path(scenario).parent / "out" / "checkpoints")
        return forks(lambda: main(["evaluate", scenario, "--output-dir", str(out),
                                   "--checkpoint-dir", checkpoints]), cores)

    def test_forked_writers_match_one_writer(self, forks, tmp_path, scenario):
        two, one = tmp_path / "two", tmp_path / "one"
        assert self.evaluate(forks, scenario, two, 2) == (0, 2)
        assert self.evaluate(forks, scenario, one, 1) == (0, 0)
        files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        assert len(files) == 1 + 3 * 5
        assert sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file()) == files
        for name in files:
            assert (two / name).read_bytes() == (one / name).read_bytes(), name

    def test_one_report_forks_only_the_encoder(self, forks, tmp_path, scenario):
        one_spec = write_scenario(tmp_path / "one.cfg", Path(scenario).read_text().replace(
            "compare = releaser, fixed:0.05, scavenger", "compare = fixed:0.05"))
        out = tmp_path / "single"
        assert self.evaluate(forks, one_spec, out, 2) == (0, 1)
        assert (out / "reports" / "fixed_0p05" / "report.json").is_file()

    def failed_evaluate(self, monkeypatch, forks, capsys, scenario, out, blocked):
        """Evaluate with a file put where report `blocked`'s directory goes
        once evaluate has checked its outputs, just before that report is
        written: exits 2 with one error line naming it, no comparison.csv
        and no temporary file but those that were there before."""
        write = cli.write_report_files
        temporaries = sorted(out.rglob("*.tmp"))

        def blocked_write(report, outdir):
            if outdir.name == blocked:
                outdir.parent.mkdir(parents=True, exist_ok=True)
                outdir.write_text("")
            return write(report, outdir)

        monkeypatch.setattr(cli, "write_report_files", blocked_write)
        capsys.readouterr()
        assert self.evaluate(forks, scenario, out, 2) == (2, 2)
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not (out / "comparison.csv").exists()
        assert sorted(out.rglob("*.tmp")) == temporaries
        return err

    def test_failing_child_share_exits_2(self, monkeypatch, forks, capsys, tmp_path, scenario):
        out = tmp_path / "child"
        err = self.failed_evaluate(monkeypatch, forks, capsys, scenario, out, "releaser")
        assert err == (f"error: report writer process failed: FileExistsError: "
                       f"[Errno {errno.EEXIST}] File exists: '{out / 'reports' / 'releaser'}'\n")

    def test_failing_parent_share_kills_the_child(self, monkeypatch, forks, capsys, tmp_path,
                                                  scenario):
        parent = os.getpid()
        write = cli.write_report_files

        def slow_in_child(report, outdir):
            if os.getpid() != parent:
                time.sleep(60)
            return write(report, outdir)

        monkeypatch.setattr(cli, "write_report_files", slow_in_child)
        out = tmp_path / "parent"
        began = time.monotonic()
        err = self.failed_evaluate(monkeypatch, forks, capsys, scenario, out, "fixed_0p05")
        assert time.monotonic() - began < 30
        assert err == (f"error: cannot write reports: [Errno {errno.EEXIST}] File exists: "
                       f"'{out / 'reports' / 'fixed_0p05'}'\n")

    def test_writer_killed_mid_file_leaves_no_temporary(self, monkeypatch, forks, capsys,
                                                        tmp_path, scenario):
        parent = os.getpid()
        write = cli.write_report_files
        out = tmp_path / "held"
        reports = out / "reports"
        temporary = reports / "releaser" / "margins.csv.tmp"
        held = []

        def held_in_child(report, outdir):
            if os.getpid() != parent:
                outdir.mkdir(parents=True, exist_ok=True)
                with atomic_write(outdir / "margins.csv") as fh:
                    fh.write("host,metric")
                    time.sleep(60)
            # The parent's share fails only once the child holds a temporary file.
            deadline = time.monotonic() + 30
            while not temporary.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            held.append(temporary.exists())
            return write(report, outdir)

        monkeypatch.setattr(cli, "write_report_files", held_in_child)
        # Temporaries of other names, or outside this run's report
        # directories, are not the killed writer's.
        kept = [reports / "releaser" / "notes.tmp", reports / "old_run" / "margins.csv.tmp"]
        for path in kept:
            path.parent.mkdir(parents=True)
            path.write_text("")
        err = self.failed_evaluate(monkeypatch, forks, capsys, scenario, out, "fixed_0p05")
        assert held == [True]
        assert err == (f"error: cannot write reports: [Errno {errno.EEXIST}] File exists: "
                       f"'{reports / 'fixed_0p05'}'\n")
        assert sorted(reports.rglob("*.tmp")) == sorted(kept)

    def test_killed_writer_names_the_signal(self, monkeypatch, forks, capsys, tmp_path,
                                            scenario):
        parent = os.getpid()

        def killed_in_child(report, outdir):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(cli, "write_report_files", killed_in_child)
        out = tmp_path / "killed"
        assert self.evaluate(forks, scenario, out, 2) == (2, 2)
        assert capsys.readouterr().err == (
            "error: report writer process failed: killed by SIGKILL\n")
        assert not (out / "comparison.csv").exists()

    def test_failing_fork_leaks_no_descriptor(self, monkeypatch, forks, capsys, tmp_path,
                                              scenario):
        def no_fork():
            raise OSError(errno.EAGAIN, "no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "no_fork"
        before = sorted(os.listdir("/proc/self/fd"))
        assert self.evaluate(forks, scenario, out, 2) == (2, 1)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert capsys.readouterr().err == (
            f"error: cannot run the strategies and the error CDF encoder: "
            f"[Errno {errno.EAGAIN}] no more processes\n")
        assert not (out / "reports").exists()

    def test_failing_writer_fork_leaks_no_descriptor(self, monkeypatch, forks, capsys,
                                                     tmp_path, scenario):
        fork = os.fork
        made = []

        def second_fork_fails():
            made.append(1)
            if len(made) == 2:  # the report writer's: the encoder's fork came first
                raise OSError(errno.EAGAIN, "no more processes")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        out = tmp_path / "no_writer_fork"
        before = sorted(os.listdir("/proc/self/fd"))
        assert self.evaluate(forks, scenario, out, 2) == (2, 2)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert capsys.readouterr().err == (
            f"error: cannot write reports: [Errno {errno.EAGAIN}] no more processes\n")
        assert not (out / "comparison.csv").exists()
        assert not list(out.rglob("*.tmp"))


class TestErrorCdfEncoder:
    """The child that encodes the error CDFs while evaluate runs the
    strategies: whatever fails, evaluate exits 2 with one error line, leaves
    no child and writes no reports."""

    @staticmethod
    def scenario(tmp_path, compared):
        """An evaluate of fixed:0.05 and `compared` on 1 host, 2 days of
        3-minute steps: 960 steps."""
        return write_scenario(tmp_path / "encoder.cfg", f"""
[scenario]
seed = 5
output_dir = {tmp_path / "out"}
[synthetic]
num_hosts = 1
num_days = 2
[strategies]
cpu = fixed:0.1
ram = fixed:0.1
compare = fixed:0.05, {compared}
baseline = fixed:0.05
""")

    def test_failing_run_kills_the_live_encoder(self, monkeypatch, forks, capsys, tmp_path):
        parent = os.getpid()
        encode = reporting.encode_cdfs

        def slow_in_child(by_metric):
            if os.getpid() != parent:
                time.sleep(60)
            return encode(by_metric)

        monkeypatch.setattr(reporting, "encode_cdfs", slow_in_child)
        path = self.scenario(tmp_path, "scavenger:100000000")
        began = time.monotonic()
        assert forks(lambda: main(["evaluate", path]), 2) == (2, 1)
        assert time.monotonic() - began < 30
        assert capsys.readouterr().err == (
            "error: strategy window 100000000 is longer than the trace's 960 steps\n")
        assert not (tmp_path / "out" / "reports").exists()

    def test_killed_encoder_names_the_signal(self, monkeypatch, forks, capsys, tmp_path):
        parent = os.getpid()

        def killed_in_child(by_metric):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(reporting, "encode_cdfs", killed_in_child)
        path = self.scenario(tmp_path, "scavenger")
        assert forks(lambda: main(["evaluate", path]), 2) == (2, 1)
        assert capsys.readouterr().err == (
            "error: error CDF encoder process failed: killed by SIGKILL\n")
        assert not (tmp_path / "out" / "reports").exists()


class TestSweepScript:
    def test_csv_rows_are_compare_strategies_rows(self, tmp_path):
        path = ROOT / "scripts" / "sweep_fixed_margins.py"
        spec = importlib.util.spec_from_file_location("sweep_fixed_margins", path)
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        scenario = str(ROOT / "scenarios" / "smoke.cfg")
        out = tmp_path / "sweep.csv"
        assert sweep.main([scenario, "--max-percent", "2", "--csv", str(out)]) == 0

        cfg = load_scenario(scenario)
        dc = cfg.build_datacenter()
        _, test_range = train_test_split(dc, cfg.train_fraction)
        table = compare_strategies(dc, cfg.cost, SimulationConfig(cfg.seed, test_range),
                                   [StrategySpec.parse(f"fixed:{m}") for m in (0, 0.01, 0.02)])
        with out.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["margin", "potential", "penalty", "net"]
        assert [(m, float(p), float(c), float(n)) for m, p, c, n in rows] == [
            (margin, row.potential, row.penalty, row.net)
            for margin, row in zip(("0", "0.01", "0.02"), table.rows)]


class TestSameBytesScript:
    def test_leftovers_are_temporaries_and_parts(self, tmp_path):
        path = ROOT / "scripts" / "same_bytes.py"
        spec = importlib.util.spec_from_file_location("same_bytes", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name in ("traces.csv", "traces.csv.part1", "notes.partial", "reports/a/report.json",
                     "reports/a/margins.csv.tmp"):
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text("")
        assert module.leftovers(tmp_path) == ["reports/a/margins.csv.tmp", "traces.csv.part1"]


class TestStageRssScript:
    def test_smoke_pass_prints_each_stage(self, tmp_path):
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "stage_rss.py"),
             str(ROOT / "scenarios" / "smoke.cfg"), "--passes", "1", "--output-dir", str(out)],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        header, *lines = done.stdout.splitlines()
        assert header == "pass\tstage\tru_maxrss_mb\tchildren_maxrss_mb"
        rows = [line.split("\t") for line in lines]
        assert [(n, stage) for n, stage, _, _ in rows] == [
            ("1", "generate"), ("1", "train"), ("1", "evaluate")]
        peaks = [float(mb) for _, _, mb, _ in rows]
        assert 0 < peaks[0] <= peaks[1] <= peaks[2]
        # When two cores are free, generate writes half its trace and train
        # learns the CPU agent in a forked child.
        children = [float(mb) for _, _, _, mb in rows]
        assert (children[0] > 0) == (len(os.sched_getaffinity(0)) > 1)
        assert children[0] <= children[1] == children[2]
        assert (out / "comparison.csv").is_file()

    def test_stages_runs_only_those(self, tmp_path):
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "stage_rss.py"),
             str(ROOT / "scenarios" / "smoke.cfg"), "--passes", "2", "--output-dir", str(out),
             "--stages", "generate"],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert [line.split("\t")[:2] for line in done.stdout.splitlines()[1:]] == [
            ["1", "generate"], ["2", "generate"]]
        assert sorted(p.name for p in out.iterdir()) == ["capacities.csv", "traces.csv"]


class TestReadme:
    """README's "Scenario files" section against the keys the parser accepts."""

    @staticmethod
    def ini_sections():
        text = README.read_text()
        start = text.index("## Scenario files")
        section = text[start:text.index("\n## ", start)]
        block = section[section.index("```ini\n"):]
        block = block[:block.index("\n```", 1)]
        parts = re.split(r"^\[(\w+)\]$", block, flags=re.M)
        return dict(zip(parts[1::2], parts[2::2]))

    def test_every_accepted_key_is_documented(self):
        sections = self.ini_sections()
        assert set(sections) == set(_SCHEMA)
        undocumented = {f"{name}.{key}" for name, keys in _SCHEMA.items() for key in keys
                        if not re.search(rf"\b{key} =", sections[name])}
        assert undocumented == set()

    def test_every_documented_key_is_accepted(self):
        for name, body in self.ini_sections().items():
            keys = set(re.findall(r"^(\w+) *=", body, flags=re.M))
            assert keys <= _SCHEMA[name], name
