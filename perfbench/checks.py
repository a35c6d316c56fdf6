"""Output checks run on every pipeline pass.

Each check reads only the files the CLI wrote and returns a list of
failure messages (empty when the check passes).  None of them imports
marginsim: the reference settlement below is a straight-line restatement of
the leasing rules, so a change to the package cannot change what it is
checked against.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# The package's default cost model (no benchmark scenario overrides [cost]).
CONTAINER_CPU = 2.0
CONTAINER_RAM_GB = 8.0
PRICE_PER_HOUR = 0.0317
DISCOUNT_TIERS = ((15.0, 0.0), (120.0, 0.10), (720.0, 0.15), (math.inf, 0.30))


def slug(label: str) -> str:
    return label.replace(":", "_").replace(".", "p")


def tree_sha256(root: Path) -> str:
    """Digest of every file under `root`: relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def read_comparison(outdir: Path) -> dict[str, dict[str, float]]:
    with (outdir / "comparison.csv").open(newline="") as fh:
        return {row["strategy"]: {k: float(v) for k, v in row.items() if k != "strategy"}
                for row in csv.DictReader(fh)}


def check_totals(outdir: Path, baseline: str) -> list[str]:
    """Report totals recompute from their ledgers, and comparison.csv
    agrees with the reports (criterion 8's sums, exact)."""
    failures = []
    comparison = read_comparison(outdir)
    if baseline not in comparison:
        return [f"comparison.csv has no {baseline} row"]
    totals = {}
    for label in comparison:
        report = json.loads((outdir / "reports" / slug(label) / "report.json").read_text())
        for host, host_totals in report["host_totals"].items():
            rows = [r for r in report["ledger"] if r["host"] == host]
            for field in ("potential", "penalty", "net"):
                if host_totals[field] != sum(r[field] for r in rows):
                    failures.append(f"{label}: {host} {field} does not sum its ledger")
        for row in report["ledger"]:
            if row["net"] != row["potential"] - row["penalty"]:
                failures.append(f"{label}: {row['host']} day {row['day']} net != "
                                f"potential - penalty")
        for field in ("potential", "penalty", "net"):
            if report["totals"][field] != sum(
                    h[field] for h in report["host_totals"].values()):
                failures.append(f"{label}: total {field} does not sum its hosts")
            if comparison[label][field] != report["totals"][field]:
                failures.append(f"{label}: comparison.csv {field} != report.json")
        totals[label] = report["totals"]
    base = totals[baseline]
    for label, row in comparison.items():
        for field in ("net", "penalty"):
            if row[f"{field}_ratio"] != _ratio(totals[label][field], base[field]):
                failures.append(f"{label}: comparison.csv {field}_ratio does not recompute")
    return failures


def _ratio(value: float, base: float) -> float:
    if base == 0.0:
        return math.inf if value > 0 else 1.0
    return value / base


def check_margin_summary(outdir: Path, label: str) -> list[str]:
    """min / median / p75 in report.json recompute from margins.csv."""
    report_dir = outdir / "reports" / slug(label)
    report = json.loads((report_dir / "report.json").read_text())
    margins: dict[tuple[str, str], list[float]] = {}
    with (report_dir / "margins.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            margins.setdefault((row["host"], row["metric"]), []).append(float(row["margin"]))
    failures = []
    for entry in report["margin_summary"]:
        values = sorted(margins.get((entry["host"], entry["metric"]), []))
        if not values:
            failures.append(f"{label}: no margins for {entry['host']}/{entry['metric']}")
            continue
        expected = (values[0], _nearest_rank(values, 50), _nearest_rank(values, 75))
        if (entry["min"], entry["median"], entry["p75"]) != expected:
            failures.append(f"{label}: margin summary of {entry['host']}/{entry['metric']} "
                            f"does not recompute")
    return failures


def _nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def check_fixed_ledger(outdir: Path, label: str) -> list[str]:
    """Settle a fixed-margin strategy's test days from traces.csv and
    capacities.csv step by step, and compare with its ledger exactly."""
    margin = float(label.split(":")[1])
    report = json.loads((outdir / "reports" / slug(label) / "report.json").read_text())
    step_minutes = report["step_minutes"]
    steps_per_day = 1440 // step_minutes
    with (outdir / "capacities.csv").open(newline="") as fh:
        capacity = {r["host_id"]: (int(r["cpu_cores"]), float(r["ram_gb"]))
                    for r in csv.DictReader(fh)}
    series: dict[tuple[str, str], list[tuple[float, float]]] = {}
    with (outdir / "traces.csv").open(newline="") as fh:
        for r in csv.DictReader(fh):
            series.setdefault((r["host_id"], r["metric"]), []).append(
                (float(r["usage"]), float(r["prediction"])))
    price_per_minute = PRICE_PER_HOUR / 60.0
    failures = []
    for row in report["ledger"]:
        host, day = row["host"], row["day"]
        cores, ram = capacity[host]
        potential, minutes = 0.0, 0
        for t in range(day * steps_per_day, (day + 1) * steps_per_day):
            u_cpu, p_cpu = series[(host, "cpu")][t]
            u_ram, p_ram = series[(host, "ram")][t]
            h_cpu = min(max(1.0 - p_cpu - margin, 0.0), 1.0)
            h_ram = min(max(1.0 - p_ram - margin, 0.0), 1.0)
            containers = min(math.floor(h_cpu * cores / CONTAINER_CPU),
                             math.floor(h_ram * ram / CONTAINER_RAM_GB))
            potential += containers * price_per_minute * step_minutes
            if p_cpu + margin - u_cpu < 0 or p_ram + margin - u_ram < 0:
                minutes += step_minutes
        discount = next(d for upper, d in DISCOUNT_TIERS if minutes <= upper)
        penalty = potential * discount
        if (row["violation_minutes"], row["potential"], row["penalty"], row["net"]) != (
                minutes, potential, penalty, potential - penalty):
            failures.append(f"{label}: {host} day {day} does not match the reference "
                            f"settlement")
    return failures
