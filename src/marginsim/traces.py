"""Host traces: usage/prediction series, CSV I/O, and a synthetic generator.

All usage and prediction values are fractions of a host's capacity in
[0, 1].  Series are sampled on a fixed grid of `step_minutes` (3 by
default, so 480 steps per day) and always cover a whole number of days.
Each (host, metric) series is one SERIES_DTYPE array whose position is
the step index.
"""

from __future__ import annotations

import contextlib
import csv
import math
import shutil
from dataclasses import dataclass
from enum import Enum
from itertools import groupby, islice, repeat
from pathlib import Path

import numpy as np

from marginsim.errors import ConfigError, DomainError, TraceParseError, TraceSchemaError
from marginsim.fileio import atomic_write, csv_prefix

MINUTES_PER_DAY = 1440
DEFAULT_STEP_MINUTES = 3  # every step_minutes default


class MetricKind(Enum):
    CPU = "cpu"
    RAM = "ram"


# One step of one metric on one host; a series is a (T,) array of these,
# indexed by step.
SERIES_DTYPE = np.dtype([("usage", np.float64), ("prediction", np.float64)])


def make_series(usage, prediction) -> np.ndarray:
    """A series array from equal-length usage and prediction sequences."""
    series = np.empty(len(usage), SERIES_DTYPE)
    series["usage"] = usage
    series["prediction"] = prediction
    return series


@dataclass(frozen=True)
class HostSpec:
    """Physical capacity of one host."""

    host_id: str
    cpu_cores: int
    ram_gb: float

    def validate(self) -> None:
        if not self.host_id:
            raise DomainError("host_id must be non-empty")
        if self.cpu_cores <= 0:
            raise DomainError(f"{self.host_id}: cpu_cores must be positive, got {self.cpu_cores}")
        if self.ram_gb <= 0:
            raise DomainError(f"{self.host_id}: ram_gb must be positive, got {self.ram_gb}")


@dataclass
class HostTrace:
    """A host's capacity plus one SERIES_DTYPE array per metric, equal lengths."""

    spec: HostSpec
    series: dict[MetricKind, np.ndarray]

    def num_steps(self) -> int:
        return len(next(iter(self.series.values())))

    def validate(self, steps_per_day: int) -> None:
        self.spec.validate()
        if set(self.series) != {MetricKind.CPU, MetricKind.RAM}:
            raise TraceSchemaError(f"{self.spec.host_id}: need exactly one series per metric")
        for metric, series in self.series.items():
            if not (isinstance(series, np.ndarray) and series.dtype == SERIES_DTYPE
                    and series.ndim == 1):
                raise TraceSchemaError(
                    f"{self.spec.host_id}/{metric.value}: series must be a 1-d "
                    f"{SERIES_DTYPE} array")
        lengths = {metric: len(series) for metric, series in self.series.items()}
        if len(set(lengths.values())) != 1:
            raise TraceSchemaError(f"{self.spec.host_id}: ragged series lengths {lengths}")
        n = self.num_steps()
        if n == 0 or n % steps_per_day != 0:
            raise TraceSchemaError(
                f"{self.spec.host_id}: series length {n} is not a positive whole number "
                f"of days ({steps_per_day} steps per day)")
        for metric, series in self.series.items():
            for name in SERIES_DTYPE.names:
                values = series[name]
                outside = ~((values >= 0.0) & (values <= 1.0))  # NaN is outside too
                if outside.any():
                    step = int(np.argmax(outside))
                    raise DomainError(
                        f"{self.spec.host_id}/{metric.value}: {name} must be in [0, 1], "
                        f"got {values[step]} at step {step}")


@dataclass
class Datacenter:
    """A named collection of host traces sharing one step grid."""

    name: str
    hosts: list[HostTrace]
    step_minutes: int = DEFAULT_STEP_MINUTES

    @property
    def steps_per_day(self) -> int:
        return MINUTES_PER_DAY // self.step_minutes

    def num_steps(self) -> int:
        return self.hosts[0].num_steps() if self.hosts else 0

    def num_days(self) -> int:
        return self.num_steps() // self.steps_per_day

    def validate(self) -> None:
        if MINUTES_PER_DAY % self.step_minutes != 0:
            raise DomainError(f"step_minutes {self.step_minutes} must divide {MINUTES_PER_DAY}")
        if not self.hosts:
            raise TraceSchemaError(f"{self.name}: datacenter has no hosts")
        ids = [h.spec.host_id for h in self.hosts]
        if len(set(ids)) != len(ids):
            raise TraceSchemaError(f"{self.name}: duplicate host ids")
        for h in self.hosts:
            h.validate(self.steps_per_day)
        if len({h.num_steps() for h in self.hosts}) != 1:
            raise TraceSchemaError(f"{self.name}: hosts disagree on series length")


@dataclass
class SyntheticConfig:
    """Recipe for a synthetic datacenter trace.

    Usage is a clipped sum of a daily sinusoid, AR(1) noise, and occasional
    one-step spikes.  The prediction is a trailing moving average of usage
    (strictly past samples only) plus a bias and Gaussian noise, clipped to
    [0, 1] like the usage itself.
    """

    seed: int
    num_hosts: int
    num_days: int
    base_load: float = 0.35
    daily_amplitude: float = 0.15
    noise_ar_coeff: float = 0.8
    noise_sigma: float = 0.02
    spike_prob_per_step: float = 0.0
    spike_magnitude: float = 0.25
    prediction_bias: float = 0.0
    prediction_noise_sigma: float = 0.05
    step_minutes: int = DEFAULT_STEP_MINUTES
    smoothing_window: int = 10
    host_cpu_cores: int = 32
    host_ram_gb: float = 128.0

    def validate(self) -> None:
        if self.num_hosts <= 0 or self.num_days <= 0:
            raise DomainError("num_hosts and num_days must be positive")
        if not (0.0 <= self.base_load <= 1.0):
            raise DomainError(f"base_load must be in [0, 1], got {self.base_load}")
        if self.daily_amplitude < 0:
            raise DomainError("daily_amplitude must be >= 0")
        if not (0.0 <= self.noise_ar_coeff < 1.0):
            raise DomainError(f"noise_ar_coeff must be in [0, 1), got {self.noise_ar_coeff}")
        for name in ("noise_sigma", "spike_prob_per_step", "spike_magnitude",
                     "prediction_noise_sigma"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if self.spike_prob_per_step > 1.0:
            raise DomainError("spike_prob_per_step must be <= 1")
        if MINUTES_PER_DAY % self.step_minutes != 0:
            raise DomainError(f"step_minutes {self.step_minutes} must divide {MINUTES_PER_DAY}")
        if self.smoothing_window < 1:
            raise DomainError("smoothing_window must be >= 1")
        HostSpec("h", self.host_cpu_cores, self.host_ram_gb).validate()


def generate_synthetic(config: SyntheticConfig) -> Datacenter:
    """Build a deterministic synthetic Datacenter from `config`.

    Each (host, metric) pair draws from its own RNG stream keyed on
    (seed, host index, metric index), and each host has a phase offset drawn
    from a host-level stream, so traces are bit-identical for identical
    configs no matter how many hosts or days are requested.  Hosts are listed
    in host-id order, the order the CSV writers and `load_traces` use, so a
    trace keeps its host order through a CSV round trip.
    """
    config.validate()
    steps_per_day = MINUTES_PER_DAY // config.step_minutes
    total = config.num_days * steps_per_day
    grid = np.arange(total)
    hosts = []
    for host_idx in range(config.num_hosts):
        host_rng = np.random.default_rng(np.random.SeedSequence([config.seed, host_idx]))
        phase = host_rng.uniform(0.0, 2.0 * math.pi)
        spec = HostSpec(f"host-{host_idx}", config.host_cpu_cores, config.host_ram_gb)
        series = {}
        for metric_idx, metric in enumerate((MetricKind.CPU, MetricKind.RAM)):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, host_idx, metric_idx]))
            usage = _usage_series(config, steps_per_day, grid, phase, rng)
            prediction = _prediction_series(config, usage, rng)
            series[metric] = make_series(usage, prediction)
        hosts.append(HostTrace(spec, series))
    hosts.sort(key=lambda h: h.spec.host_id)
    dc = Datacenter("synthetic", hosts, config.step_minutes)
    dc.validate()
    return dc


def _usage_series(config, steps_per_day, grid, phase, rng):
    sinusoid = config.base_load + config.daily_amplitude * np.sin(
        2.0 * math.pi * grid / steps_per_day + phase)
    innovations = rng.normal(0.0, config.noise_sigma, grid.size)
    # The AR(1) recurrence runs over Python floats: the same IEEE operations
    # as on numpy scalars, without boxing one per step.
    coeff = config.noise_ar_coeff
    ar = []
    prev = 0.0
    for innovation in innovations.tolist():
        prev = coeff * prev + innovation
        ar.append(prev)
    spikes = (rng.random(grid.size) < config.spike_prob_per_step) * config.spike_magnitude
    return np.clip(sinusoid + np.array(ar) + spikes, 0.0, 1.0)


def _prediction_series(config, usage, rng):
    # Trailing mean over the last `smoothing_window` samples strictly before
    # t, so predictions never peek at the step they predict.  The first step
    # has no history and falls back to the configured base load.
    w = config.smoothing_window
    sums = np.concatenate([[0.0], np.cumsum(usage)])
    smoothed = np.empty(usage.size)
    smoothed[0] = config.base_load
    t = np.arange(1, usage.size)
    lo = np.maximum(t - w, 0)
    smoothed[1:] = (sums[t] - sums[lo]) / (t - lo)
    noise = rng.normal(0.0, config.prediction_noise_sigma, usage.size)
    return np.clip(smoothed + config.prediction_bias + noise, 0.0, 1.0)


TRACE_HEADER = ["host_id", "metric", "step", "usage", "prediction"]
CAPACITY_HEADER = ["host_id", "cpu_cores", "ram_gb"]


def write_traces(dc: Datacenter, path: str | Path) -> None:
    """Write the datacenter's series as CSV rows sorted by host, metric, step,
    byte for byte as csv.writer writes them.

    The host-sorted (host, metric) series are split into one contiguous
    share per usable core and written `side_by_side`: each share i > 0 by a
    forked process into the sibling file `<name>.part<i>`, the header and
    share 0 by this process, which then appends the parts in share order.
    No part file outlives the call.
    """
    from marginsim.engine import processes_for, side_by_side  # engine imports this module

    path = Path(path)
    steps = [f"{step}," for step in range(dc.num_steps())]
    blocks = [(host, metric) for host in sorted(dc.hosts, key=lambda h: h.spec.host_id)
              for metric in (MetricKind.CPU, MetricKind.RAM)]
    width = processes_for(len(blocks))
    parts = [path.with_name(f"{path.name}.part{i}") for i in range(1, width)]

    def write_share(i: int, fh) -> None:
        for host, metric in blocks[i * len(blocks) // width:(i + 1) * len(blocks) // width]:
            # Only the host id can need quoting; step and repr(float) never do.
            prefix = csv_prefix([host.spec.host_id, metric.value])
            fh.write("".join([f"{prefix}{step}{usage!r},{prediction!r}\r\n"
                              for step, (usage, prediction)
                              in zip(steps, host.series[metric].tolist())]))

    def write_part(i: int) -> None:
        with parts[i - 1].open("w", newline="") as part:
            write_share(i, part)

    try:
        with atomic_write(path) as fh:
            csv.writer(fh).writerow(TRACE_HEADER)
            # side_by_side runs its last task here: share 0.
            side_by_side([*range(1, width), 0],
                         lambda i: write_part(i) if i else write_share(0, fh),
                         lambda i: "trace writer")
            fh.flush()
            for part in parts:
                with part.open("rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
    finally:
        # Every writer is reaped by now.
        for part in parts:
            with contextlib.suppress(FileNotFoundError, NotADirectoryError, IsADirectoryError):
                part.unlink()


def write_capacities(specs: list[HostSpec], path: str | Path) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(CAPACITY_HEADER)
        for spec in sorted(specs, key=lambda s: s.host_id):
            writer.writerow([spec.host_id, spec.cpu_cores, repr(spec.ram_gb)])


def load_capacities(path: str | Path) -> dict[str, HostSpec]:
    """Read a host capacity table (CSV with a host_id,cpu_cores,ram_gb header).

    Lines starting with '#' are comments.
    """
    path = Path(path)
    specs: dict[str, HostSpec] = {}
    with path.open(newline="") as fh:
        rows = [(no, line) for no, line in enumerate(fh, start=1)
                if line.strip() and not line.lstrip().startswith("#")]
    if not rows:
        raise TraceParseError(path, 1, "empty capacity file")
    header_no, header_line = rows[0]
    header = next(csv.reader([header_line]))
    if header != CAPACITY_HEADER:
        raise TraceParseError(path, header_no, f"expected header {CAPACITY_HEADER}, got {header}")
    for no, line in rows[1:]:
        fields = next(csv.reader([line]))
        if len(fields) != 3:
            raise TraceParseError(path, no, f"expected 3 fields, got {len(fields)}")
        host_id, cores_text, ram_text = fields
        try:
            spec = HostSpec(host_id, int(cores_text), float(ram_text))
            spec.validate()
        except (ValueError, DomainError) as exc:
            raise TraceParseError(path, no, str(exc)) from exc
        if host_id in specs:
            raise TraceParseError(path, no, f"duplicate host {host_id}")
        specs[host_id] = spec
    return specs


def load_traces(path: str | Path, capacities: dict[str, HostSpec],
                step_minutes: int = DEFAULT_STEP_MINUTES,
                name: str | None = None) -> Datacenter:
    """Parse a trace CSV into a validated Datacenter.

    Every host in the file must have a HostSpec in `capacities`; extra
    capacity entries are ignored.  Rows may arrive in any order, but each
    (host, metric) must cover steps 0..n-1 without a gap.  A file that the
    column reader cannot show to be plainly regular is read again from the
    top by the row parser, which names the line of every fault.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        per_host = _read_columns(fh, capacities)
    if per_host is None:
        per_host = _read_rows(path, capacities)
    hosts = [HostTrace(capacities[host_id], per_host[host_id]) for host_id in sorted(per_host)]
    dc = Datacenter(name or path.stem, hosts, step_minutes)
    try:
        dc.validate()
    except (TraceSchemaError, DomainError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    return dc


# Lines per column chunk: a chunk's lines and field strings are all a load
# holds at once beyond its arrays.  After one load of a 9,600-row trace, a
# fresh process peaked at 33.9 MB with 1,024-line chunks, 36.8 MB with 4,096.
_CHUNK_LINES = 1024


def _read_columns(fh, capacities: dict[str, HostSpec],
                  ) -> dict[str, dict[MetricKind, np.ndarray]] | None:
    """Each host's series, read in column chunks, or None for a file that
    is not plainly regular: header exactly TRACE_HEADER, no quote, five
    fields on every line, known hosts and metrics, values in [0, 1] and each
    series' steps a permutation of 0..n-1.  Series keep the file's order of
    first appearance per host, as `_read_rows` gives them."""
    if next(fh, "").rstrip("\r\n") != ",".join(TRACE_HEADER):
        return None
    metric_kinds = {kind.value: kind for kind in MetricKind}
    # (host_id, metric text) -> the (steps, usage, prediction) slices of its rows
    parts: dict[tuple[str, str], list[tuple[np.ndarray, ...]]] = {}
    while chunk := list(islice(fh, _CHUNK_LINES)):
        text = ",".join(chunk)
        # A blank line has no comma; a line end stays on its last field,
        # which float() strips.
        if '"' in text or set(map(str.count, chunk, repeat(","))) != {4}:
            return None
        fields = text.split(",")
        try:
            columns = (np.fromiter(map(int, fields[2::5]), np.int64, len(chunk)),
                       np.fromiter(map(float, fields[3::5]), np.float64, len(chunk)),
                       np.fromiter(map(float, fields[4::5]), np.float64, len(chunk)))
        except (ValueError, OverflowError):
            return None
        if not all(((values >= 0.0) & (values <= 1.0)).all() for values in columns[1:]):
            return None  # NaN fails too
        start = 0
        for key, rows in groupby(zip(fields[0::5], fields[1::5])):
            if key not in parts:
                if key[0] not in capacities or key[1] not in metric_kinds:
                    return None
                parts[key] = []
            stop = start + len(list(rows))
            parts[key].append(tuple(column[start:stop] for column in columns))
            start = stop
    if not parts:
        return None
    per_host: dict[str, dict[MetricKind, np.ndarray]] = {}
    for (host_id, metric_text), pieces in parts.items():
        steps, usage, prediction = (np.concatenate(column) for column in zip(*pieces))
        grid = np.arange(len(steps))
        if not (steps == grid).all():
            order = np.argsort(steps)
            if not (steps[order] == grid).all():
                return None
            usage, prediction = usage[order], prediction[order]
        per_host.setdefault(host_id, {})[metric_kinds[metric_text]] = make_series(
            usage, prediction)
    return per_host


def _read_rows(path: Path, capacities: dict[str, HostSpec],
               ) -> dict[str, dict[MetricKind, np.ndarray]]:
    """Each host's series, parsed row by row with csv.reader; raises on the
    first fault, naming its line."""
    metric_kinds = {kind.value: kind for kind in MetricKind}
    per_host: dict[str, dict[MetricKind, dict[int, tuple[float, float]]]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceParseError(path, 1, "empty trace file") from None
        if header != TRACE_HEADER:
            raise TraceParseError(path, 1, f"expected header {TRACE_HEADER}, got {header}")
        for no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise TraceParseError(path, no, f"expected 5 fields, got {len(row)}")
            host_id, metric_text, step_text, usage_text, pred_text = row
            metric = metric_kinds.get(metric_text)
            if metric is None:
                raise TraceParseError(path, no, f"unknown metric {metric_text!r}")
            try:
                step, usage, prediction = int(step_text), float(usage_text), float(pred_text)
            except ValueError as exc:
                raise TraceParseError(path, no, str(exc)) from exc
            if step < 0:
                raise TraceParseError(path, no, f"step must be >= 0, got {step}")
            if not (0.0 <= usage <= 1.0 and 0.0 <= prediction <= 1.0):
                name, value = (("usage", usage) if not (0.0 <= usage <= 1.0)
                               else ("prediction", prediction))
                raise TraceParseError(path, no, f"{name} must be in [0, 1], got {value}")
            if host_id not in capacities:
                raise ConfigError(f"{path}:{no}: host {host_id!r} has no capacity entry")
            steps = per_host.setdefault(host_id, {}).setdefault(metric, {})
            if step in steps:
                raise TraceSchemaError(
                    f"{path}:{no}: duplicate sample {host_id}/{metric.value}/{step}")
            steps[step] = (usage, prediction)

    if not per_host:
        raise TraceSchemaError(f"{path}: no data rows")
    series: dict[str, dict[MetricKind, np.ndarray]] = {}
    for host_id in sorted(per_host):
        for metric, by_step in per_host[host_id].items():
            # n distinct non-negative steps are 0..n-1 exactly when none below n is missing.
            missing = next((i for i in range(len(by_step)) if i not in by_step), None)
            if missing is not None:
                raise TraceSchemaError(
                    f"{path}: {host_id}/{metric.value} is missing step {missing}; "
                    f"steps must be contiguous from 0")
            series.setdefault(host_id, {})[metric] = np.array(
                [by_step[i] for i in range(len(by_step))], SERIES_DTYPE)
    return series


def error_cdf(dc: Datacenter, metric: MetricKind,
              start_step: int = 0, end_step: int | None = None,
              ) -> dict[str, list[tuple[float, float]]]:
    """Empirical CDF of positive prediction errors (usage - prediction > 0).

    Returns, per host, the sorted unique error values paired with the
    cumulative fraction of positive errors at or below each value.  Hosts
    with no underestimation in the range map to an empty list.
    """
    out: dict[str, list[tuple[float, float]]] = {}
    for host in dc.hosts:
        series = host.series[metric][start_step:end_step]
        usage, prediction = series["usage"], series["prediction"]
        under = usage > prediction
        errors, counts = np.unique(usage[under] - prediction[under], return_counts=True)
        # Each distinct error's count of errors at or below it, over the
        # total: int64 / int64 divides as Python's int / int does.
        out[host.spec.host_id] = list(zip(errors.tolist(),
                                          (np.cumsum(counts) / counts.sum()).tolist()))
    return out
