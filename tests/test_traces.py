"""Trace model tests: synthetic generation, CSV round trips, error CDFs."""

import csv
import errno
import io
import math
import os
import random
import signal
import time
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marginsim import engine, traces
from marginsim.cli import main
from marginsim.config import load_scenario
from marginsim.costs import CostModel
from marginsim.engine import SimulationConfig, compare_strategies
from marginsim.errors import ConfigError, DomainError, TraceParseError, TraceSchemaError
from marginsim.strategies import StrategySpec
from marginsim.traces import (
    Datacenter,
    HostSpec,
    HostTrace,
    MetricKind,
    SyntheticConfig,
    error_cdf,
    generate_synthetic,
    load_capacities,
    load_traces,
    make_series,
    write_capacities,
    write_traces,
)

ROOT = Path(__file__).resolve().parent.parent
TRACES_V1 = Path(__file__).parent / "data" / "traces_v1.csv"
# The recipe tests/data/traces_v1.csv was written from.
TRACES_V1_CONFIG = SyntheticConfig(seed=7, num_hosts=1, num_days=1, step_minutes=15,
                                   spike_prob_per_step=0.05, prediction_bias=0.01,
                                   smoothing_window=4)


def flat_series(n, usage, prediction):
    return make_series([usage] * n, [prediction] * n)


def make_dc(num_hosts=2, steps=480, usage=0.3, prediction=0.3):
    hosts = [
        HostTrace(HostSpec(f"host-{i}", 16, 64.0),
                  {MetricKind.CPU: flat_series(steps, usage, prediction),
                   MetricKind.RAM: flat_series(steps, usage, prediction)})
        for i in range(num_hosts)
    ]
    return Datacenter("test", hosts, 3)


class TestValidation:
    def test_valid(self):
        make_dc().validate()

    def test_sample_ranges(self):
        for field, value in (("usage", 1.2), ("prediction", -0.1), ("usage", math.nan)):
            dc = make_dc()
            dc.hosts[0].series[MetricKind.CPU][field][7] = value
            with pytest.raises(DomainError, match="step 7"):
                dc.validate()

    def test_partial_day_rejected(self):
        dc = make_dc(steps=470)
        with pytest.raises(TraceSchemaError):
            dc.validate()

    def test_ragged_metrics_rejected(self):
        dc = make_dc()
        dc.hosts[0].series[MetricKind.RAM] = flat_series(960, 0.3, 0.3)
        with pytest.raises(TraceSchemaError):
            dc.validate()

    def test_missing_metric_rejected(self):
        dc = make_dc()
        del dc.hosts[0].series[MetricKind.RAM]
        with pytest.raises(TraceSchemaError):
            dc.validate()

    def test_duplicate_hosts_rejected(self):
        dc = make_dc()
        dc.hosts[1] = dc.hosts[0]
        with pytest.raises(TraceSchemaError):
            dc.validate()

    def test_host_spec(self):
        with pytest.raises(DomainError):
            HostSpec("h", 0, 64.0).validate()
        with pytest.raises(DomainError):
            HostSpec("h", 8, -1.0).validate()


class TestSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(seed=11, num_hosts=3, num_days=2,
                              spike_prob_per_step=0.01)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        for ha, hb in zip(a.hosts, b.hosts):
            assert ha.spec == hb.spec
            for m in MetricKind:
                assert np.array_equal(ha.series[m], hb.series[m])

    def test_seed_changes_trace(self):
        base = SyntheticConfig(seed=11, num_hosts=1, num_days=1)
        other = SyntheticConfig(seed=12, num_hosts=1, num_days=1)
        a = generate_synthetic(base)
        b = generate_synthetic(other)
        assert not np.array_equal(a.hosts[0].series[MetricKind.CPU],
                                  b.hosts[0].series[MetricKind.CPU])

    def test_shape_and_validity(self):
        cfg = SyntheticConfig(seed=5, num_hosts=4, num_days=3, spike_prob_per_step=0.02)
        dc = generate_synthetic(cfg)
        dc.validate()
        assert len(dc.hosts) == 4
        assert dc.num_days() == 3
        assert dc.num_steps() == 3 * 480

    def test_noiseless_prediction_tracks_sinusoid(self):
        # With every noise source off, the prediction is exactly the trailing
        # moving average of a pure sinusoid, so the error is bounded by how
        # far the sinusoid can move across one smoothing window.
        cfg = SyntheticConfig(seed=3, num_hosts=1, num_days=2, base_load=0.5,
                              daily_amplitude=0.2, noise_sigma=0.0,
                              noise_ar_coeff=0.0, spike_prob_per_step=0.0,
                              prediction_bias=0.0, prediction_noise_sigma=0.0)
        dc = generate_synthetic(cfg)
        series = dc.hosts[0].series[MetricKind.CPU]
        usage = series["usage"]
        pred = series["prediction"]
        w = cfg.smoothing_window
        for t in range(1, len(series)):
            window = usage[max(0, t - w):t]
            assert pred[t] == pytest.approx(window.mean(), abs=1e-9)
        # Lipschitz bound: |d/dt A sin(2 pi t / P)| <= 2 pi A / P per step,
        # and prediction lags by at most w steps.
        bound = 0.2 * 2 * math.pi * w / 480 + 1e-12
        assert np.max(np.abs(usage[1:] - pred[1:])) <= bound

    def test_prediction_error_spread_matches_noise(self):
        # Prediction noise sigma=0.05 should dominate the error spread.
        cfg = SyntheticConfig(seed=21, num_hosts=10, num_days=30, base_load=0.4,
                              daily_amplitude=0.1, noise_sigma=0.005,
                              noise_ar_coeff=0.5, spike_prob_per_step=0.0,
                              prediction_bias=0.0, prediction_noise_sigma=0.05)
        dc = generate_synthetic(cfg)
        errors = np.concatenate([
            h.series[m]["usage"] - h.series[m]["prediction"]
            for h in dc.hosts for m in MetricKind
        ])
        assert abs(errors.std() - 0.05) / 0.05 < 0.15

    def test_window_past_the_series_is_the_series_length(self):
        # 2 days of 15-minute steps: 192 per series.
        a, b = (generate_synthetic(SyntheticConfig(seed=4, num_hosts=2, num_days=2,
                                                   step_minutes=15, smoothing_window=w))
                for w in (10**29, 192))
        for ha, hb in zip(a.hosts, b.hosts):
            for m in MetricKind:
                assert ha.series[m].tobytes() == hb.series[m].tobytes()

    def test_bad_config_rejected(self):
        with pytest.raises(DomainError):
            SyntheticConfig(seed=1, num_hosts=0, num_days=1).validate()
        with pytest.raises(DomainError):
            SyntheticConfig(seed=1, num_hosts=1, num_days=1, noise_ar_coeff=1.0).validate()
        with pytest.raises(DomainError):
            SyntheticConfig(seed=1, num_hosts=1, num_days=1, base_load=1.5).validate()
        with pytest.raises(DomainError):
            SyntheticConfig(seed=1, num_hosts=1, num_days=1, step_minutes=7).validate()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_hosts=st.integers(1, 3),
           num_days=st.integers(1, 2), step_minutes=st.sampled_from([3, 15, 60, 1440]),
           smoothing_window=st.integers(1, 700),
           noise_ar_coeff=st.sampled_from([0.0, 0.3, 0.8, 0.999]),
           noise_sigma=st.sampled_from([0.0, 0.02, 0.3]),
           spike_prob_per_step=st.sampled_from([0.0, 0.05, 1.0]),
           prediction_noise_sigma=st.sampled_from([0.0, 0.05]),
           prediction_bias=st.sampled_from([0.0, -0.1, 0.05]))
    @example(seed=1, num_hosts=1, num_days=1, step_minutes=3, smoothing_window=1,
             noise_ar_coeff=0.8, noise_sigma=0.02, spike_prob_per_step=0.0,
             prediction_noise_sigma=0.05, prediction_bias=0.0)
    @example(seed=2, num_hosts=2, num_days=2, step_minutes=3, smoothing_window=500,
             noise_ar_coeff=0.0, noise_sigma=0.0, spike_prob_per_step=0.0,
             prediction_noise_sigma=0.0, prediction_bias=0.0)
    def test_series_equal_the_per_step_loops(self, **recipe):
        cfg = SyntheticConfig(**recipe)
        dc = generate_synthetic(cfg)
        for host in dc.hosts:
            host_idx = int(host.spec.host_id.removeprefix("host-"))
            for metric_idx, metric in enumerate((MetricKind.CPU, MetricKind.RAM)):
                usage, prediction = reference_series(cfg, host_idx, metric_idx)
                assert host.series[metric]["usage"].tobytes() == usage.tobytes()
                assert host.series[metric]["prediction"].tobytes() == prediction.tobytes()


def reference_series(cfg, host_idx, metric_idx):
    """One (host, metric) series from `cfg` by the per-step loops: the AR(1)
    noise and the trailing mean computed one step at a time."""
    steps_per_day = 1440 // cfg.step_minutes
    grid = np.arange(cfg.num_days * steps_per_day)
    host_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, host_idx]))
    phase = host_rng.uniform(0.0, 2.0 * math.pi)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, host_idx, metric_idx]))
    sinusoid = cfg.base_load + cfg.daily_amplitude * np.sin(
        2.0 * math.pi * grid / steps_per_day + phase)
    innovations = rng.normal(0.0, cfg.noise_sigma, grid.size)
    ar = np.empty(grid.size)
    prev = 0.0
    for t in range(grid.size):
        prev = cfg.noise_ar_coeff * prev + innovations[t]
        ar[t] = prev
    spikes = (rng.random(grid.size) < cfg.spike_prob_per_step) * cfg.spike_magnitude
    usage = np.clip(sinusoid + ar + spikes, 0.0, 1.0)

    w = cfg.smoothing_window
    sums = np.concatenate([[0.0], np.cumsum(usage)])
    smoothed = np.empty(usage.size)
    smoothed[0] = cfg.base_load
    for t in range(1, usage.size):
        lo = max(0, t - w)
        smoothed[t] = (sums[t] - sums[lo]) / (t - lo)
    noise = rng.normal(0.0, cfg.prediction_noise_sigma, usage.size)
    return usage, np.clip(smoothed + cfg.prediction_bias + noise, 0.0, 1.0)


def reference_trace_csv(dc):
    """The trace file's text as csv.writer writes it, one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["host_id", "metric", "step", "usage", "prediction"])
    for host in sorted(dc.hosts, key=lambda h: h.spec.host_id):
        for metric in (MetricKind.CPU, MetricKind.RAM):
            for step, (usage, prediction) in enumerate(host.series[metric].tolist()):
                writer.writerow([host.spec.host_id, metric.value, step,
                                 repr(usage), repr(prediction)])
    return buf.getvalue()


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestWriteTraces:
    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.text(alphabet='ab7 ,"\'\r\n\t;', min_size=1, max_size=6),
                        min_size=1, max_size=3, unique=True),
           values=st.lists(unit_floats, min_size=1, max_size=5))
    @example(ids=['rack "7",b', "host-0"], values=[5e-324, 1e-05, 1.0])
    def test_equals_csv_writer(self, tmp_path_factory, ids, values):
        series = make_series(values, values[::-1])
        hosts = [HostTrace(HostSpec(hid, 8, 64.0),
                           {MetricKind.CPU: series, MetricKind.RAM: series[::-1]})
                 for hid in ids]
        dc = Datacenter("t", hosts, 3)
        path = tmp_path_factory.mktemp("w") / "traces.csv"
        write_traces(dc, path)
        assert path.read_bytes() == reference_trace_csv(dc).encode()

    def test_format_fixture_is_reproduced_byte_for_byte(self, monkeypatch, tmp_path):
        for cores in (1, 2):
            monkeypatch.setattr(engine, "usable_cores", lambda: cores)
            path = tmp_path / f"traces{cores}.csv"
            write_traces(generate_synthetic(TRACES_V1_CONFIG), path)
            assert path.read_bytes() == TRACES_V1.read_bytes(), cores


class TestForkedWriter:
    """With two usable cores write_traces writes the second half of its
    (host, metric) series from a forked child, through a part file that this
    process appends; with one it writes them all here."""

    @staticmethod
    def smoke_trace(tmp_path):
        return load_scenario(ROOT / "scenarios" / "smoke.cfg").build_datacenter()

    @staticmethod
    def loaded_trace(tmp_path):
        """test_round_trip_keeps_host_order_past_ten_hosts's 12 hosts, one
        renamed to an id that needs quoting, read back from CSV."""
        dc = generate_synthetic(SyntheticConfig(seed=3, num_hosts=12, num_days=2,
                                                step_minutes=15))
        dc.hosts[4].spec = HostSpec('rack "7",b', 8, 64.0)
        write_traces(dc, tmp_path / "source.csv")
        write_capacities([h.spec for h in dc.hosts], tmp_path / "caps.csv")
        return load_traces(tmp_path / "source.csv", load_capacities(tmp_path / "caps.csv"), 15)

    @pytest.mark.parametrize("trace", ["smoke_trace", "loaded_trace"])
    def test_two_writers_match_one(self, forks, tmp_path, trace):
        dc = getattr(self, trace)(tmp_path)
        two, one = tmp_path / "two.csv", tmp_path / "one.csv"
        assert forks(lambda: write_traces(dc, two), 2) == (None, 1)
        assert forks(lambda: write_traces(dc, one), 1) == (None, 0)
        assert two.read_bytes() == one.read_bytes() == reference_trace_csv(dc).encode()
        assert not [p for p in tmp_path.iterdir() if ".part" in p.name or ".tmp" in p.name]

    @staticmethod
    def failed_generate(unchanged, capsys, out):
        """A two-core generate into `out` that fails: exit 2 with one error
        line, and `out` left as it was, so no part or temporary file either;
        returns the line and forks."""
        capsys.readouterr()
        code, made = unchanged(out, lambda: main(
            ["generate", str(ROOT / "scenarios" / "smoke.cfg"), "--output-dir", str(out)]), 2)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err, made

    def test_failing_child_share_exits_2(self, unchanged, capsys, tmp_path):
        out = tmp_path / "out"
        (out / "traces.csv.part1").mkdir(parents=True)
        (out / "traces.csv").write_text("old")
        err, made = self.failed_generate(unchanged, capsys, out)
        assert made == 1
        assert err == (f"error: trace writer process failed: IsADirectoryError: "
                       f"[Errno {errno.EISDIR}] Is a directory: '{out / 'traces.csv.part1'}'\n")

    def test_directory_at_the_trace_exits_2(self, unchanged, capsys, tmp_path):
        # Found before the trace is built.
        out = tmp_path / "out"
        (out / "traces.csv").mkdir(parents=True)
        err, made = self.failed_generate(unchanged, capsys, out)
        assert made == 0
        assert err == (f"error: [Errno {errno.EISDIR}] Is a directory: "
                       f"'{out / 'traces.csv'}'\n")

    @pytest.mark.parametrize("share", ["child", "parent"])
    def test_failed_share_leaves_no_part(self, monkeypatch, unchanged, capsys, tmp_path, share):
        # The child's share is killed, or this process's share fails once
        # the child has opened its part file.
        out = tmp_path / "out"
        out.mkdir()
        (out / "traces.csv").write_text("old")
        parent, prefix = os.getpid(), traces.csv_prefix

        def failing_prefix(fields):
            if share == "child" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            if share == "parent" and os.getpid() == parent:
                deadline = time.monotonic() + 30
                while not (out / "traces.csv.part1").exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                raise OSError(errno.ENOSPC, "No space left on device")
            return prefix(fields)

        monkeypatch.setattr(traces, "csv_prefix", failing_prefix)
        err, made = self.failed_generate(unchanged, capsys, out)
        assert made == 1
        assert err == {
            "child": "error: trace writer process failed: killed by SIGKILL\n",
            "parent": f"error: cannot write {out / 'traces.csv'}: "
                      f"[Errno {errno.ENOSPC}] No space left on device\n"}[share]

    def test_failing_fork_exits_2(self, monkeypatch, unchanged, capsys, tmp_path):
        def no_fork():
            raise OSError(errno.EAGAIN, "no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "out"
        out.mkdir()
        before = sorted(os.listdir("/proc/self/fd"))
        err, _ = self.failed_generate(unchanged, capsys, out)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert err == (f"error: cannot write {out / 'traces.csv'}: "
                       f"[Errno {errno.EAGAIN}] no more processes\n")


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        cfg = SyntheticConfig(seed=9, num_hosts=3, num_days=1, spike_prob_per_step=0.01)
        dc = generate_synthetic(cfg)
        trace_path = tmp_path / "traces.csv"
        cap_path = tmp_path / "caps.csv"
        write_traces(dc, trace_path)
        write_capacities([h.spec for h in dc.hosts], cap_path)
        loaded = load_traces(trace_path, load_capacities(cap_path), 3)
        assert [h.spec for h in loaded.hosts] == [h.spec for h in dc.hosts]
        for a, b in zip(loaded.hosts, dc.hosts):
            for m in MetricKind:
                assert np.array_equal(a.series[m], b.series[m])

    def test_rewrite_is_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(seed=9, num_hosts=2, num_days=1)
        dc = generate_synthetic(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_traces(dc, p1)
        caps = {h.spec.host_id: h.spec for h in dc.hosts}
        write_traces(load_traces(p1, caps, 3), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("host,metric,step,usage,prediction\n")
        with pytest.raises(TraceParseError):
            load_traces(p, {}, 3)

    def test_unknown_metric_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("host_id,metric,step,usage,prediction\nh0,gpu,0,0.5,0.5\n")
        caps = {"h0": HostSpec("h0", 8, 64.0)}
        with pytest.raises(TraceParseError) as err:
            load_traces(p, caps, 3)
        assert ":2:" in str(err.value)

    def test_out_of_range_value_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        caps = {"h0": HostSpec("h0", 8, 64.0)}
        for row in ("h0,cpu,0,1.5,0.5", "h0,cpu,-1,0.5,0.5"):
            p.write_text(f"host_id,metric,step,usage,prediction\n{row}\n")
            with pytest.raises(TraceParseError) as err:
                load_traces(p, caps, 3)
            assert ":2:" in str(err.value)

    @pytest.mark.parametrize("row,message", [
        ("h0,gpu,0,0.5,0.5", "unknown metric 'gpu'"),
        ("h0,CPU,0,0.5,0.5", "unknown metric 'CPU'"),
        ("h0,cpu,0,1.5,0.5", "usage must be in [0, 1], got 1.5"),
        ("h0,cpu,0,0.5,-0.25", "prediction must be in [0, 1], got -0.25"),
        ("h0,ram,0,-1,2", "usage must be in [0, 1], got -1.0"),
        ("h0,ram,0,nan,0.5", "usage must be in [0, 1], got nan"),
        ("h0,ram,0,0.5,inf", "prediction must be in [0, 1], got inf"),
    ])
    def test_error_texts(self, tmp_path, row, message):
        # Usage is checked before prediction, so a row with both out of
        # range names usage.
        p = tmp_path / "t.csv"
        p.write_text(f"host_id,metric,step,usage,prediction\n{row}\n")
        with pytest.raises(TraceParseError) as err:
            load_traces(p, {"h0": HostSpec("h0", 8, 64.0)}, 3)
        assert str(err.value).endswith(f":2: {message}")

    def test_missing_capacity_entry(self, tmp_path):
        cfg = SyntheticConfig(seed=9, num_hosts=1, num_days=1)
        p = tmp_path / "t.csv"
        write_traces(generate_synthetic(cfg), p)
        with pytest.raises(ConfigError):
            load_traces(p, {"other": HostSpec("other", 8, 64.0)}, 3)

    def test_duplicate_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("host_id,metric,step,usage,prediction\n"
                     "h0,cpu,0,0.5,0.5\nh0,cpu,0,0.4,0.4\n")
        caps = {"h0": HostSpec("h0", 8, 64.0)}
        with pytest.raises(TraceSchemaError):
            load_traces(p, caps, 3)

    def test_partial_day_rejected(self, tmp_path):
        rows = ["host_id,metric,step,usage,prediction"]
        for m in ("cpu", "ram"):
            rows += [f"h0,{m},{i},0.5,0.5" for i in range(100)]
        p = tmp_path / "t.csv"
        p.write_text("\n".join(rows) + "\n")
        caps = {"h0": HostSpec("h0", 8, 64.0)}
        with pytest.raises(TraceSchemaError) as err:
            load_traces(p, caps, 3)
        assert str(err.value).startswith(f"{p}: h0: series length 100")

    @pytest.mark.parametrize("steps, message", [
        ({"cpu": 480, "ram": 960}, "h0: ragged series lengths"),
        ({"cpu": 480}, "h0: need exactly one series per metric"),
    ])
    def test_shape_errors_name_the_file(self, tmp_path, steps, message):
        rows = ["host_id,metric,step,usage,prediction"]
        for m, n in steps.items():
            rows += [f"h0,{m},{i},0.5,0.5" for i in range(n)]
        p = tmp_path / "shape.csv"
        p.write_text("\n".join(rows) + "\n")
        caps = {"h0": HostSpec("h0", 8, 64.0)}
        with pytest.raises(TraceSchemaError) as err:
            load_traces(p, caps, 3)
        assert str(err.value).startswith(f"{p}: {message}")

    def test_shuffled_rows_and_blank_lines_load_as_the_sorted_file(self, tmp_path):
        dc = generate_synthetic(SyntheticConfig(seed=9, num_hosts=3, num_days=1,
                                                step_minutes=30))
        caps = {h.spec.host_id: h.spec for h in dc.hosts}
        sorted_path, shuffled_path = tmp_path / "sorted.csv", tmp_path / "shuffled.csv"
        write_traces(dc, sorted_path)
        header, *rows = sorted_path.read_text().splitlines(keepends=True)
        random.Random(5).shuffle(rows)
        shuffled_path.write_text("".join([header, "\r\n", *rows[:7], "\r\n\r\n", *rows[7:]]))
        expected = load_traces(sorted_path, caps, 30)
        loaded = load_traces(shuffled_path, caps, 30)
        assert [h.spec for h in loaded.hosts] == [h.spec for h in expected.hosts]
        for a, b in zip(loaded.hosts, expected.hosts):
            for m in MetricKind:
                assert a.series[m].tobytes() == b.series[m].tobytes()

    def test_quoted_host_id_round_trips_byte_for_byte(self, tmp_path):
        dc = generate_synthetic(SyntheticConfig(seed=9, num_hosts=2, num_days=1,
                                                step_minutes=30))
        dc.hosts[1].spec = HostSpec('rack "7",b', 8, 64.0)
        write_traces(dc, tmp_path / "a.csv")
        write_capacities([h.spec for h in dc.hosts], tmp_path / "a_caps.csv")
        assert '"rack ""7"",b",cpu,0,' in (tmp_path / "a.csv").read_text()
        caps = load_capacities(tmp_path / "a_caps.csv")
        loaded = load_traces(tmp_path / "a.csv", caps, 30)
        write_traces(loaded, tmp_path / "b.csv")
        write_capacities(list(caps.values()), tmp_path / "b_caps.csv")
        for name in ("", "_caps"):
            assert ((tmp_path / f"a{name}.csv").read_bytes()
                    == (tmp_path / f"b{name}.csv").read_bytes())

    def test_round_trip_keeps_host_order_past_ten_hosts(self, tmp_path):
        dc = generate_synthetic(SyntheticConfig(seed=3, num_hosts=12, num_days=2,
                                                step_minutes=15))
        write_traces(dc, tmp_path / "t.csv")
        write_capacities([h.spec for h in dc.hosts], tmp_path / "c.csv")
        loaded = load_traces(tmp_path / "t.csv", load_capacities(tmp_path / "c.csv"), 15)
        assert [h.spec.host_id for h in loaded.hosts] == [h.spec.host_id for h in dc.hosts]
        sim = SimulationConfig(seed=3, day_range=(0, 2))
        specs = [StrategySpec.parse("random"), StrategySpec.parse("fixed:0.05")]
        tables = [compare_strategies(d, CostModel(), sim, specs) for d in (dc, loaded)]
        for label in ("random", "fixed:0.05"):
            built, read = (t.reports[label] for t in tables)
            assert read.ledgers == built.ledgers
            assert list(read.margin_series) == list(built.margin_series)
            for key, margins in built.margin_series.items():
                assert read.margin_series[key].tobytes() == margins.tobytes()

    def test_missing_step_names_file_host_metric_and_step(self, tmp_path):
        rows = ["host_id,metric,step,usage,prediction"]
        for m in ("cpu", "ram"):
            rows += [f"h0,{m},{i},0.5,0.5" for i in range(480) if (m, i) != ("cpu", 5)]
        p = tmp_path / "gap.csv"
        p.write_text("\n".join(rows) + "\n")
        caps = {"h0": HostSpec("h0", 8, 64.0)}
        with pytest.raises(TraceSchemaError) as err:
            load_traces(p, caps, 3)
        message = str(err.value)
        assert str(p) in message
        assert "h0/cpu" in message
        assert "missing step 5" in message

    def test_capacity_file_errors(self, tmp_path):
        p = tmp_path / "caps.csv"
        p.write_text("host_id,cpu_cores\nh0,8\n")
        with pytest.raises(TraceParseError):
            load_capacities(p)
        p.write_text("host_id,cpu_cores,ram_gb\nh0,8,64\nh0,8,64\n")
        with pytest.raises(TraceParseError):
            load_capacities(p)

    def test_capacity_comments_allowed(self, tmp_path):
        p = tmp_path / "caps.csv"
        p.write_text("# capacities are an even split\n"
                     "host_id,cpu_cores,ram_gb\nh0,8,64.0\n")
        caps = load_capacities(p)
        assert caps["h0"] == HostSpec("h0", 8, 64.0)


def load_outcome(path, caps, step_minutes):
    """What load_traces gives: its hosts' specs and series bytes in order and
    its name, or the type and text of what it raises."""
    try:
        dc = load_traces(path, caps, step_minutes)
    except Exception as exc:  # noqa: BLE001  (the exception itself is the outcome)
        return type(exc), str(exc)
    return dc.name, [(h.spec, [(m, s.tobytes()) for m, s in h.series.items()])
                     for h in dc.hosts]


def row_parser_outcome(path, caps, step_minutes):
    with patch.object(traces, "_read_columns", lambda fh, capacities: None):
        return load_outcome(path, caps, step_minutes)


TRACE_DEFECTS = ("bad header", "empty file", "blank line", "4 fields", "6 fields",
                 "field on the next line", "unknown metric", "unknown host", "quoted host",
                 "non-numeric step", "float step", "negative step", "step past int64",
                 "nan value", "out-of-range value", "duplicate step", "missing step")


class TestColumnReader:
    """load_traces reads regular files in column chunks and hands every other
    file to the row parser; either way it must give what the row parser gives."""

    # One run per defect: hypothesis draws early list entries far more often.
    @pytest.mark.parametrize("defect", [None, *TRACE_DEFECTS])
    @settings(max_examples=40, deadline=None)
    @given(ids=st.lists(st.sampled_from(["h0", "host-1", '"h0"', 'rack "7",b', "a b", "x,y"]),
                        min_size=1, max_size=4, unique=True),
           step_minutes=st.sampled_from([360, 720, 1440]), days=st.integers(1, 2),
           values=st.lists(unit_floats | st.just(-0.0), min_size=1, max_size=8),
           chunk_lines=st.integers(1, 9), order_seed=st.integers(0, 2**32 - 1) | st.none(),
           line_end=st.sampled_from(["\r\n", "\n"]), where=st.integers(0, 10**6),
           drop_capacity=st.booleans())
    @example(ids=["h0"], step_minutes=720, days=1, values=[0.5], chunk_lines=9,
             order_seed=None, line_end="\r\n", where=0, drop_capacity=False)
    def test_equals_the_row_parser(self, tmp_path_factory, defect, ids, step_minutes, days,
                                   values, chunk_lines, order_seed, line_end, where,
                                   drop_capacity):
        n = days * 1440 // step_minutes
        pool = values * (n + 8)
        hosts = [HostTrace(HostSpec(hid, 8, 64.0),
                           {MetricKind.CPU: make_series(pool[i:i + n], pool[i + 1:i + 1 + n]),
                            MetricKind.RAM: make_series(pool[i + 2:i + 2 + n],
                                                        pool[i + 3:i + 3 + n])})
                 for i, hid in enumerate(ids)]
        path = tmp_path_factory.mktemp("load") / "traces.csv"
        write_traces(Datacenter("t", hosts, step_minutes), path)
        header, *rows = path.read_bytes().decode().splitlines(keepends=True)
        if order_seed is not None:
            random.Random(order_seed).shuffle(rows)
        rows = [row[:-2] + line_end for row in rows]
        i = where % (len(rows) - 1)  # every trace has at least two rows
        # The last four fields never hold a comma, whatever the host id.
        host_metric, step, usage, prediction = rows[i][:-len(line_end)].rsplit(",", 3)
        host, metric = host_metric.rsplit(",", 1)
        edits = {
            "bad header": lambda: ["host_id,metric,step,usage\r\n"] + rows,
            "empty file": lambda: [],
            "blank line": lambda: [header] + rows[:i] + [line_end] + rows[i:],
            "4 fields": lambda: [header] + rows[:i] + [
                f"{host_metric},{step},{usage}{line_end}"] + rows[i + 1:],
            "6 fields": lambda: [header] + rows[:i] + [
                f"{rows[i][:-len(line_end)]},0.5{line_end}"] + rows[i + 1:],
            "field on the next line": lambda: [header] + rows[:i] + [
                f"{host_metric},{step},{usage}{line_end}",
                f"{prediction},{rows[i + 1]}"] + rows[i + 2:],
            "unknown metric": lambda: [header] + rows[:i] + [
                f"{host},gpu,{step},{usage},{prediction}{line_end}"] + rows[i + 1:],
            "unknown host": lambda: [header] + rows[:i] + [
                f"zz,{metric},{step},{usage},{prediction}{line_end}"] + rows[i + 1:],
            # Quoting a field that needs none is still the same CSV row.
            "quoted host": lambda: [header] + [
                f'"{row}'.replace(",", '",', 1) if row.startswith("h0,") else row
                for row in rows],
            "non-numeric step": lambda: [header] + rows[:i] + [
                f"{host_metric},x{step},{usage},{prediction}{line_end}"] + rows[i + 1:],
            "float step": lambda: [header] + rows[:i] + [
                f"{host_metric},{step}.0,{usage},{prediction}{line_end}"] + rows[i + 1:],
            "negative step": lambda: [header] + rows[:i] + [
                f"{host_metric},-{step},{usage},{prediction}{line_end}"] + rows[i + 1:],
            "step past int64": lambda: [header] + rows[:i] + [
                f"{host_metric},{2**63},{usage},{prediction}{line_end}"] + rows[i + 1:],
            "nan value": lambda: [header] + rows[:i] + [
                f"{host_metric},{step},nan,{prediction}{line_end}"] + rows[i + 1:],
            "out-of-range value": lambda: [header] + rows[:i] + [
                f"{host_metric},{step},{usage},1.5{line_end}"] + rows[i + 1:],
            "duplicate step": lambda: [header] + rows[:i] + [rows[i]] + rows[i:],
            "missing step": lambda: [header] + rows[:i] + rows[i + 1:],
        }
        lines = edits[defect]() if defect else [header] + rows
        path.write_text("".join(lines), newline="")
        # The extra entry's id is a quoted "h0" as raw text: only a quote-aware
        # reader tells the two apart.
        caps = {'"h0"': HostSpec('"h0"', 4, 32.0)} | {
            h.spec.host_id: h.spec for h in hosts[drop_capacity:]}
        expected = row_parser_outcome(path, caps, step_minutes)
        with patch.object(traces, "_CHUNK_LINES", chunk_lines):
            assert load_outcome(path, caps, step_minutes) == expected
        if defect is None and not drop_capacity:
            assert not isinstance(expected[0], type)

    @pytest.mark.parametrize("line_end", ["\r\n", "\n"])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_regular_files_never_reach_the_row_parser(self, tmp_path, monkeypatch,
                                                      line_end, shuffled):
        # 2,880 rows: two full chunks and part of a third.
        dc = generate_synthetic(SyntheticConfig(seed=9, num_hosts=3, num_days=1))
        path = tmp_path / "traces.csv"
        write_traces(dc, path)
        header, *rows = path.read_bytes().decode().splitlines(keepends=True)
        if shuffled:
            random.Random(5).shuffle(rows)
        path.write_text("".join(line[:-2] + line_end for line in [header, *rows]),
                        newline="")

        def row_parser(*args):
            raise AssertionError("a regular file fell back to the row parser")

        monkeypatch.setattr(traces, "_read_rows", row_parser)
        loaded = load_traces(path, {h.spec.host_id: h.spec for h in dc.hosts}, 3)
        assert [h.spec for h in loaded.hosts] == [h.spec for h in dc.hosts]
        for a, b in zip(loaded.hosts, dc.hosts):
            for m in MetricKind:
                assert a.series[m].tobytes() == b.series[m].tobytes()


class TestErrorCdf:
    def test_hand_counted(self):
        samples = make_series([0.5, 0.5, 0.8, 0.2],   # errors 0.1, 0.1, 0.3 and
                              [0.4, 0.4, 0.5, 0.4])   # a negative one, excluded
        host = HostTrace(HostSpec("h0", 8, 64.0),
                         {MetricKind.CPU: samples,
                          MetricKind.RAM: flat_series(4, 0.2, 0.4)})
        # only full days validate; bypass by querying directly
        dc = Datacenter("t", [host], 360)
        cdf = error_cdf(dc, MetricKind.CPU)
        assert cdf["h0"] == [
            (pytest.approx(0.1), pytest.approx(2 / 3)),
            (pytest.approx(0.3), pytest.approx(1.0)),
        ]
        assert error_cdf(dc, MetricKind.RAM)["h0"] == []

    def test_half_normal_location(self):
        # With unbiased gaussian prediction noise, positive errors are
        # half-normal: about 68% of them lie below one sigma.
        cfg = SyntheticConfig(seed=33, num_hosts=4, num_days=20, base_load=0.4,
                              daily_amplitude=0.05, noise_sigma=0.002,
                              noise_ar_coeff=0.3, spike_prob_per_step=0.0,
                              prediction_noise_sigma=0.05)
        dc = generate_synthetic(cfg)
        cdf = error_cdf(dc, MetricKind.CPU)
        for host in dc.hosts:
            hid = host.spec.host_id
            series = host.series[MetricKind.CPU]
            errors = (series["usage"] - series["prediction"]).tolist()
            positive = [e for e in errors if e > 0]
            brute = sum(1 for e in positive if e <= 0.05) / len(positive)
            assert abs(brute - 0.69) < 0.05
            at_sigma = max((p for v, p in cdf[hid] if v <= 0.05), default=0.0)
            assert at_sigma == pytest.approx(brute)

    @staticmethod
    def reference_points(usage, prediction):
        """One host's CDF points, walked one sorted positive error at a time."""
        errors = sorted(u - p for u, p in zip(usage, prediction) if u > p)
        points, total = [], len(errors)
        for i, e in enumerate(errors, start=1):
            if points and points[-1][0] == e:
                points[-1] = (e, i / total)
            else:
                points.append((e, i / total))
        return points

    # Few distinct levels, so errors repeat; a host whose usage never tops
    # its prediction has no points.
    levels = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 1 / 3])

    @given(st.lists(st.lists(st.tuples(levels, levels), min_size=4, max_size=4),
                    min_size=1, max_size=60),
           st.integers(0, 3), st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_error_walk(self, rows, start, end):
        hosts = [HostTrace(HostSpec(f"h{i}", 8, 64.0), {
            MetricKind.CPU: make_series([row[i][0] for row in rows], [row[i][1] for row in rows]),
            MetricKind.RAM: flat_series(len(rows), 0.2, 0.4 + i)}) for i in range(4)]
        dc = Datacenter("t", hosts, 3)
        for metric in MetricKind:
            got = error_cdf(dc, metric, start, end)
            want = {}
            for host in hosts:
                series = host.series[metric][start:end]
                want[host.spec.host_id] = self.reference_points(
                    series["usage"].tolist(), series["prediction"].tolist())
            assert got == want
            assert repr(got) == repr(want)  # Python floats, the same texts
        assert error_cdf(dc, MetricKind.RAM) == {f"h{i}": [] for i in range(4)}

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1, allow_nan=False),
        st.floats(min_value=0, max_value=1, allow_nan=False)), min_size=1, max_size=50))
    def test_monotone_cdf(self, pairs):
        samples = make_series([u for u, _ in pairs], [p for _, p in pairs])
        host = HostTrace(HostSpec("h0", 8, 64.0),
                         {MetricKind.CPU: samples, MetricKind.RAM: samples})
        dc = Datacenter("t", [host], 3)
        points = error_cdf(dc, MetricKind.CPU)["h0"]
        values = [v for v, _ in points]
        probs = [p for _, p in points]
        assert values == sorted(values)
        assert probs == sorted(probs)
        assert all(v > 0 for v in values)
        if probs:
            assert probs[-1] == pytest.approx(1.0)
