"""Turn a simulation run into totals, distribution summaries, and files.

Money totals are exact running sums of the underlying ledgers (no rounding
happens before aggregation), percentiles use the nearest-rank convention,
and all files are written with full-precision decimal floats so reruns can
be compared byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from marginsim.costs import DayLedger
from marginsim.engine import METRICS, ComparisonTable, RunResult, SimulationConfig, StepLogRow
from marginsim.errors import DomainError
from marginsim.fileio import atomic_write, csv_prefix
from marginsim.traces import MINUTES_PER_DAY, Datacenter, MetricKind, error_cdf


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not sorted_values:
        raise DomainError("percentile of an empty list")
    if not (0.0 < pct <= 100.0):
        raise DomainError(f"pct must be in (0, 100], got {pct}")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class Totals:
    potential: float
    penalty: float
    net: float


@dataclass
class MarginSummary:
    """Distribution of one (host, metric) margin series over a run."""

    host_id: str
    metric: MetricKind
    minimum: float
    median: float
    p75: float
    outliers: list[float]


@dataclass(eq=False)
class ErrorCdfs:
    """Prediction-error CDFs over one day range: by metric value, then host.

    They depend only on the trace and the range, so one instance serves
    every strategy's report of an evaluate run.  Its report.json member and
    its cdf_*.csv bodies are encoded once, when it is built, so that
    evaluate's report writer processes inherit them rather than each
    encoding them again.  A non-finite CDF value raises DomainError.
    """

    by_metric: dict[str, dict[str, list[tuple[float, float]]]]
    # The `"error_cdf": {...}` member as `json.dump(indent=1)` writes it one
    # level inside report.json: keys escaped as json escapes them, floats in
    # json's text, an empty CDF as `[]`.
    json_member: str = field(init=False, repr=False)
    # cdf_<metric>.csv contents by metric value, hosts in sorted order.
    csv_bodies: dict[str, str] = field(init=False, repr=False)

    @classmethod
    def for_range(cls, dc: Datacenter, day_range: tuple[int, int]) -> "ErrorCdfs":
        spd = dc.steps_per_day
        lo, hi = day_range
        return cls({m.value: error_cdf(dc, m, start_step=lo * spd, end_step=hi * spd)
                    for m in METRICS})

    def __post_init__(self):
        metrics, self.csv_bodies = [], {}
        for metric, by_host in self.by_metric.items():
            hosts, csv_rows = [], {}
            for hid, points in by_host.items():
                # Each value is formatted once: json and csv.writer both
                # write a finite float as its repr.
                text = list(map(float.__repr__, chain.from_iterable(points)))
                errs, probs = text[::2], text[1::2]
                cdf = "[\n    [\n     " + "\n    ],\n    [\n     ".join(
                    map(",\n     ".join, zip(errs, probs))) + "\n    ]\n   ]" if text else "[]"
                if "n" in cdf:  # the repr of nan, inf or -inf; a finite one has no "n"
                    raise DomainError(f"{metric} error CDF of host {hid!r} is not finite")
                hosts.append(f"\n   {encode_basestring_ascii(hid)}: {cdf}")
                prefix = csv_prefix([hid])
                csv_rows[hid] = prefix + ("\r\n" + prefix).join(
                    map(",".join, zip(errs, probs))) + "\r\n" if text else ""
            metrics.append(f"\n  {encode_basestring_ascii(metric)}: "
                           + ("{" + ",".join(hosts) + "\n  }" if hosts else "{}"))
            self.csv_bodies[metric] = ",".join(CDF_HEADER) + "\r\n" + "".join(
                csv_rows[hid] for hid in sorted(csv_rows))
        self.json_member = '"error_cdf": ' + ("{" + ",".join(metrics) + "\n }" if metrics
                                              else "{}")


@dataclass
class EvaluationReport:
    strategy: str
    day_range: tuple[int, int]
    step_minutes: int
    ledgers: list[DayLedger]
    host_totals: dict[str, Totals]
    totals: Totals
    margin_summaries: list[MarginSummary]
    # margins by step, from the first step of `day_range`
    margin_series: dict[tuple[str, MetricKind], np.ndarray]
    error_cdfs: ErrorCdfs


def margin_summary(host_id: str, metric: MetricKind, margins: list[float]) -> MarginSummary:
    """Min / median / 75th percentile plus boxplot outliers (1.5 IQR fences)."""
    ordered = sorted(margins)
    q1 = nearest_rank(ordered, 25)
    q3 = nearest_rank(ordered, 75)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    outliers = [v for v in ordered if v < lo_fence or v > hi_fence]
    return MarginSummary(host_id, metric, ordered[0], nearest_rank(ordered, 50), q3, outliers)


def build_report(strategy: str, dc: Datacenter, sim: SimulationConfig,
                 result: RunResult, error_cdfs: ErrorCdfs) -> EvaluationReport:
    """`error_cdfs` is `ErrorCdfs.for_range(dc, sim.day_range)`, built once
    and shared by every report over that range."""
    host_order = [h.spec.host_id for h in dc.hosts]
    sums = {hid: [0.0, 0.0, 0.0] for hid in host_order}
    for ledger in result.ledgers:
        acc = sums[ledger.host_id]
        acc[0] += ledger.potential_saving
        acc[1] += ledger.penalty
        acc[2] += ledger.net_saving
    host_totals = {hid: Totals(*sums[hid]) for hid in host_order}
    grand = [0.0, 0.0, 0.0]
    for hid in host_order:
        grand[0] += sums[hid][0]
        grand[1] += sums[hid][1]
        grand[2] += sums[hid][2]

    series = {(hid, m): result.margins[i, j]
              for i, hid in enumerate(host_order) for j, m in enumerate(METRICS)}
    summaries = [margin_summary(hid, m, values.tolist()) for (hid, m), values in series.items()]
    return EvaluationReport(strategy, sim.day_range, dc.step_minutes, result.ledgers,
                            host_totals, Totals(*grand), summaries, series, error_cdfs)


LEDGER_HEADER = ["host", "day", "violation_min", "potential", "penalty", "net"]
MARGIN_HEADER = ["host", "metric", "step", "margin"]
CDF_HEADER = ["host", "error", "cum_prob"]
TRAINING_LOG_HEADER = ["step", "critic_loss", "mean_reward", "mean_margin"]
COMPARISON_HEADER = ["strategy", "potential", "penalty", "net", "net_ratio", "penalty_ratio"]


# What `write_report_files` writes into a report directory.
REPORT_FILES = ("ledger.csv", "margins.csv", *(f"cdf_{m.value}.csv" for m in METRICS),
                "report.json")


def write_report_files(report: EvaluationReport, outdir: str | Path) -> list[Path]:
    """Write report.json, ledger.csv, margins.csv, and one CDF file per
    metric into `outdir`; returns the paths written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    ledger_path = outdir / "ledger.csv"
    with atomic_write(ledger_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_HEADER)
        for led in report.ledgers:
            writer.writerow([led.host_id, led.day_index, led.violation_minutes,
                             repr(led.potential_saving), repr(led.penalty),
                             repr(led.net_saving)])
    written.append(ledger_path)

    margins_path = outdir / "margins.csv"
    with atomic_write(margins_path) as fh:
        csv.writer(fh).writerow(MARGIN_HEADER)
        spd = MINUTES_PER_DAY // report.step_minutes
        lo, hi = report.day_range
        # Every series spans day_range, so the "<step>," cells are formatted once.
        steps = [f"{step}," for step in range(lo * spd, hi * spd)]
        for (hid, metric), margins in report.margin_series.items():
            # Only the host id can need quoting; step and repr(margin) never do.
            prefix = csv_prefix([hid, metric.value])
            # A series that is constant bit for bit (so 0.0 and -0.0 differ)
            # is formatted once: every fixed strategy's is.
            raw = margins.tobytes()
            if raw == raw[:margins.itemsize] * len(margins):
                text = repr(margins.item(0))
                fh.write(prefix + (text + "\r\n" + prefix).join(steps) + text + "\r\n")
            else:
                rows = map(str.__add__, steps, map(repr, margins.tolist()))
                fh.write(prefix + ("\r\n" + prefix).join(rows) + "\r\n")
    written.append(margins_path)

    for metric_value, body in report.error_cdfs.csv_bodies.items():
        cdf_path = outdir / f"cdf_{metric_value}.csv"
        with atomic_write(cdf_path) as fh:
            fh.write(body)
        written.append(cdf_path)

    # The error_cdf member goes last, spliced in after the rest of the object.
    head = json.dumps(_report_dict(report), indent=1)
    report_path = outdir / "report.json"
    with atomic_write(report_path) as fh:
        fh.write(head[:-2])  # up to the closing "\n}"
        fh.write(",\n ")
        fh.write(report.error_cdfs.json_member)
        fh.write("\n}\n")
    written.append(report_path)
    return written


def _report_dict(report: EvaluationReport) -> dict:
    return {
        "strategy": report.strategy,
        "day_range": list(report.day_range),
        "step_minutes": report.step_minutes,
        "totals": _totals_dict(report.totals),
        "host_totals": {hid: _totals_dict(t) for hid, t in report.host_totals.items()},
        "ledger": [
            {
                "host": led.host_id,
                "day": led.day_index,
                "violation_minutes": led.violation_minutes,
                "potential": led.potential_saving,
                "penalty": led.penalty,
                "net": led.net_saving,
            }
            for led in report.ledgers
        ],
        "margin_summary": [
            {
                "host": s.host_id,
                "metric": s.metric.value,
                "min": s.minimum,
                "median": s.median,
                "p75": s.p75,
                "outliers": s.outliers,
            }
            for s in report.margin_summaries
        ],
    }


def write_training_log(step_log: list[StepLogRow], path: str | Path) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAINING_LOG_HEADER)
        for row in step_log:
            writer.writerow([row.step_index, repr(row.critic_loss),
                             repr(row.mean_reward), repr(row.mean_margin)])


def write_comparison(table: ComparisonTable, path: str | Path) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_HEADER)
        for row in table.rows:
            writer.writerow([row.strategy, repr(row.potential), repr(row.penalty),
                             repr(row.net), repr(row.net_ratio), repr(row.penalty_ratio)])


def render_comparison(table: ComparisonTable) -> str:
    """Fixed-width console table; money to 4 decimals, ratios to 3."""
    headers = ["strategy", "potential", "penalty", "net",
               f"net/{table.baseline}", f"penalty/{table.baseline}"]
    body = [
        [row.strategy, f"{row.potential:.4f}", f"{row.penalty:.4f}", f"{row.net:.4f}",
         _fmt_ratio(row.net_ratio), _fmt_ratio(row.penalty_ratio)]
        for row in table.rows
    ]
    widths = [max(len(h), *(len(r[i]) for r in body)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _fmt_ratio(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.3f}"


def _totals_dict(t: Totals) -> dict:
    return {"potential": t.potential, "penalty": t.penalty, "net": t.net}
