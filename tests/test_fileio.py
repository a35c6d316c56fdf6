"""Atomic output files: a write that fails partway leaves the old file whole
and no temporary file behind."""

import csv
import dataclasses
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from marginsim import agent as agent_module
from marginsim.agent import DdpgAgent, DdpgConfig
from marginsim.costs import CostModel
from marginsim.engine import ComparisonRow, ComparisonTable, SimulationConfig, compare_strategies
from marginsim.fileio import atomic_write, csv_prefix
from marginsim.reporting import write_comparison, write_report_files
from marginsim.strategies import StrategySpec
from marginsim.traces import SyntheticConfig, generate_synthetic


class Injected(Exception):
    pass


class Unprintable(float):
    def __repr__(self):
        raise Injected("repr failed")


def test_failed_block_keeps_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(Injected):
        with atomic_write(path) as fh:
            fh.write("new, partial")
            raise Injected
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_first_write_leaves_nothing(tmp_path):
    with pytest.raises(Injected):
        with atomic_write(tmp_path / "out.txt") as fh:
            fh.write("partial")
            raise Injected
    assert list(tmp_path.iterdir()) == []


def test_successful_write_replaces_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("a,b\r\n")
    assert path.read_bytes() == b"a,b\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_comparison_failing_midway_keeps_old_file(tmp_path):
    path = tmp_path / "comparison.csv"
    rows = [ComparisonRow("fixed:0.05", 2.0, 1.0, 1.0, 1.0, 1.0)]
    write_comparison(ComparisonTable("fixed:0.05", rows, {}), path)
    old = path.read_bytes()
    rows = rows + [ComparisonRow("scavenger", Unprintable(3.0), 1.0, 2.0, 2.0, 1.0)]
    with pytest.raises(Injected):
        write_comparison(ComparisonTable("fixed:0.05", rows, {}), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["comparison.csv"]


def test_checkpoint_failing_midway_keeps_old_file(tmp_path, monkeypatch):
    agent = DdpgAgent.create(DdpgConfig(window=4, batch_size=8, warmup_steps=4,
                                        replay_capacity=64), seed=3)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    old = path.read_bytes()
    real_save_network = agent_module.save_network
    nets_saved = []

    def failing_save_network(net, fh):
        if len(nets_saved) == 2:
            raise Injected("disk full")
        nets_saved.append(net)
        real_save_network(net, fh)

    monkeypatch.setattr(agent_module, "save_network", failing_save_network)
    with pytest.raises(Injected):
        agent.save(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["agent.ckpt"]


def test_report_failing_midway_keeps_old_files(tmp_path):
    dc = generate_synthetic(SyntheticConfig(seed=4, num_hosts=2, num_days=1))
    sim = SimulationConfig(seed=4, day_range=(0, 1))
    table = compare_strategies(dc, CostModel(), sim, [StrategySpec.parse("fixed:0.05")])
    report = table.reports["fixed:0.05"]
    written = write_report_files(report, tmp_path)
    old = {p.name: p.read_bytes() for p in written}

    class Broken:
        def tobytes(self):
            raise Injected("lost the series")

        tolist = tobytes

    series = dict(report.margin_series)
    series[list(series)[1]] = Broken()
    with pytest.raises(Injected):
        write_report_files(dataclasses.replace(report, margin_series=series), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


@given(st.lists(st.text(st.sampled_from('ab,"\r\n é'), max_size=4), min_size=1, max_size=3))
def test_csv_prefix_is_the_start_of_a_csv_writer_row(fields):
    buf = io.StringIO()
    csv.writer(buf).writerow([*fields, "1.5"])
    assert csv_prefix(fields) + "1.5\r\n" == buf.getvalue()
