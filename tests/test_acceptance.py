"""End-to-end acceptance checks, one test per criterion.

Each criterion prints a `[criterion N] name: PASS|FAIL` line, echoed in the
terminal summary.  The bundled benchmark pipeline (generate, train, evaluate
on scenarios/benchmark.cfg) runs once as a session fixture; the determinism
criterion reruns the whole thing and compares every artifact byte for byte,
and the benchmark-ordering criterion judges the trained policy against a
fresh sweep of every fixed margin from 0% to 20%.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from marginsim.agent import OuProcess
from marginsim.cli import main as cli_main
from marginsim.config import load_scenario
from marginsim.costs import CostModel, discount_for
from marginsim.engine import SimulationConfig, compare_strategies, run, train_test_split
from marginsim.nets import DenseNet, backward
from marginsim.strategies import FixedMargin, StrategySpec
from marginsim.traces import Datacenter, HostSpec, HostTrace, MetricKind, make_series

CPU, RAM = MetricKind.CPU, MetricKind.RAM
SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "benchmark.cfg"

CRITERIA_RESULTS: list[str] = []


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        line = f"[criterion {num}] {name}: FAIL"
        CRITERIA_RESULTS.append(line)
        print(line)
        raise
    line = f"[criterion {num}] {name}: PASS"
    CRITERIA_RESULTS.append(line)
    print(line)


# --- shared benchmark pipeline -------------------------------------------

def run_pipeline(out_dir: Path) -> None:
    for stage in ("generate", "train", "evaluate"):
        code = cli_main([stage, str(SCENARIO), "--output-dir", str(out_dir)])
        assert code == 0, f"{stage} exited with {code}"


@pytest.fixture(scope="session")
def benchmark_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("benchmark_run")
    started = time.monotonic()
    run_pipeline(out)
    return {"dir": out, "elapsed": time.monotonic() - started}


def read_comparison(out_dir: Path) -> dict[str, dict[str, float]]:
    with (out_dir / "comparison.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {row["strategy"]: {k: float(v) for k, v in row.items() if k != "strategy"}
            for row in rows}


# --- criterion 1: settlement matches a straight-line reference walk ------

def reference_walk(cost, spec, traces, margins, ts):
    """Explicit per-step walk with its own inline discount table."""
    ppm = cost.price_per_hour / 60.0
    m_cpu, m_ram = margins[CPU], margins[RAM]
    cores, ram = spec.cpu_cores, spec.ram_gb
    per_cpu, per_ram = cost.container_cpu, cost.container_ram_gb
    potential = 0.0
    minutes = 0
    u_cpu, p_cpu = traces[CPU]
    u_ram, p_ram = traces[RAM]
    for uc, pc, ur, pr in zip(u_cpu, p_cpu, u_ram, p_ram):
        head_cpu = min(max(1.0 - pc - m_cpu, 0.0), 1.0)
        head_ram = min(max(1.0 - pr - m_ram, 0.0), 1.0)
        fit_cpu = math.floor(head_cpu * cores / per_cpu)
        fit_ram = math.floor(head_ram * ram / per_ram)
        nb = fit_cpu if fit_cpu < fit_ram else fit_ram
        potential += nb * ppm * ts
        if uc > pc + m_cpu or ur > pr + m_ram:
            minutes += ts
    if minutes <= 15:
        discount = 0.0
    elif minutes <= 120:
        discount = 0.10
    elif minutes <= 720:
        discount = 0.15
    else:
        discount = 0.30
    penalty = potential * discount
    return potential, penalty, potential - penalty, minutes


def random_dc(rng, name, num_hosts, num_days, step_minutes):
    """Random traces for the walker tests, plus the raw series as lists."""
    steps = num_days * (1440 // step_minutes)
    hosts = []
    raw = {}
    for h in range(num_hosts):
        spec = HostSpec(f"{name}-h{h}", int(rng.integers(2, 64)),
                        float(rng.integers(16, 512)))
        series = {}
        raw[spec.host_id] = {}
        for metric in (CPU, RAM):
            usage = rng.uniform(0.0, 1.0, steps).tolist()
            pred = np.clip(rng.uniform(0.0, 1.0, steps)
                           + rng.normal(0.0, 0.15, steps), 0.0, 1.0).tolist()
            series[metric] = make_series(usage, pred)
            raw[spec.host_id][metric] = (usage, pred)
        hosts.append(HostTrace(spec, series))
    return Datacenter(name, hosts, step_minutes=step_minutes), raw


def test_criterion_1_settlement_matches_reference_walker():
    with criterion(1, "settlement matches reference walker on 1000 host-days"):
        rng = np.random.default_rng(1001)
        cost = CostModel()
        started = time.monotonic()
        checked = 0
        plan = [(3, 8)] * 5 + [(5, 8)] * 5 + [(15, 12)] * 10
        for batch, (ts, days) in enumerate(plan):
            spd = 1440 // ts
            dc, raw = random_dc(rng, f"b{batch}", num_hosts=5, num_days=days,
                                step_minutes=ts)
            margins = {CPU: float(rng.uniform(0.0, 0.5)),
                       RAM: float(rng.uniform(0.0, 0.5))}
            sim = SimulationConfig(seed=batch, day_range=(0, days))
            result = run(dc, cost, sim, {CPU: FixedMargin(margins[CPU]),
                                         RAM: FixedMargin(margins[RAM])})
            specs = {h.spec.host_id: h.spec for h in dc.hosts}
            for ledger in result.ledgers:
                lo = ledger.day_index * spd
                day = {m: (raw[ledger.host_id][m][0][lo:lo + spd],
                           raw[ledger.host_id][m][1][lo:lo + spd])
                       for m in (CPU, RAM)}
                potential, penalty, net, minutes = reference_walk(
                    cost, specs[ledger.host_id], day, margins, ts)
                assert ledger.potential_saving == potential
                assert ledger.penalty == penalty
                assert ledger.net_saving == net
                assert ledger.violation_minutes == minutes
                checked += 1
        assert checked == 1000
        assert time.monotonic() - started < 5.0


# --- criterion 2: discount tier boundaries --------------------------------

def test_criterion_2_discount_tier_boundaries():
    with criterion(2, "discount tier boundary values"):
        cost = CostModel()
        expected = {15: 0.0, 16: 0.10, 120: 0.10, 121: 0.15, 720: 0.15, 721: 0.30}
        for minutes, want in expected.items():
            assert discount_for(cost, minutes) == want, (minutes, want)


# --- criterion 3: analytic gradients match finite differences -------------

def loss_of(net, x):
    return float(np.sum(net.forward(x)))


def fd_gradients(net, x, eps=1e-6):
    grads = []
    for layer in net.layers:
        for arr in (layer.weights, layer.bias):
            g = np.zeros_like(arr)
            flat = arr.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss_of(net, x)
                flat[i] = orig - eps
                lo = loss_of(net, x)
                flat[i] = orig
                gflat[i] = (hi - lo) / (2.0 * eps)
            grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_criterion_3_gradients_match_finite_differences():
    with criterion(3, "backprop matches finite differences on actor/critic shapes"):
        started = time.monotonic()
        shapes = [([10, 16, 16, 1], ["relu", "relu", "linear"]),
                  ([11, 32, 32, 1], ["relu", "relu", "linear"])]
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            for dims, acts in shapes:
                net = DenseNet.initialize(dims, acts, rng)
                x = rng.normal(0.0, 1.0, (3, dims[0]))
                out = net.forward(x)
                layer_grads, _ = backward(net, x, np.ones_like(out))
                analytic = [g for pair in layer_grads for g in pair]
                numeric = fd_gradients(net, x)
                assert max_rel_error(analytic, numeric) <= 1e-4
        assert time.monotonic() - started < 10.0


# --- criterion 4: OU noise stationary spread ------------------------------

def test_criterion_4_ou_noise_stationary_spread():
    with criterion(4, "OU noise stationary std near sigma/sqrt(2*theta)"):
        noise = OuProcess(theta=0.15, mu=0.0, sigma=0.3, seed=44)
        samples = np.array([noise.step() for _ in range(100_000)])
        expected = 0.3 / math.sqrt(2 * 0.15)
        assert abs(float(samples.std()) - expected) <= 0.1 * expected


# --- criterion 5: pipeline is deterministic and fast enough ---------------

def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_5_pipeline_rerun_is_byte_identical(benchmark_run, tmp_path_factory):
    with criterion(5, "pipeline rerun is byte-identical and under 15 minutes"):
        assert benchmark_run["elapsed"] < 900.0
        again = tmp_path_factory.mktemp("benchmark_rerun")
        run_pipeline(again)
        first = tree_bytes(benchmark_run["dir"])
        second = tree_bytes(again)
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between reruns"


def test_smoke_pipeline_output_is_independent_of_hash_seed(tmp_path):
    # Criterion 5 reruns in one process, so it cannot see output that
    # depends on Python's per-process string hash (set iteration order);
    # this runs the pipeline in two processes with different hash seeds.
    script = SCENARIO.parent.parent / "scripts" / "run_benchmark.py"
    trees = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hashseed{hash_seed}"
        done = subprocess.run(
            [sys.executable, str(script), str(SCENARIO.parent / "smoke.cfg"),
             "--output-dir", str(out), "--clean"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        trees.append(tree_bytes(out))
    assert trees[0].keys() == trees[1].keys()
    assert "training_log.csv" in trees[0]
    for rel in trees[0]:
        assert trees[0][rel] == trees[1][rel], f"{rel} depends on PYTHONHASHSEED"


# --- criterion 6: trained policy ranks where it should --------------------

def test_criterion_6_trained_policy_beats_its_bars(benchmark_run):
    with criterion(6, "trained policy beats random, caps penalties, nears best fixed"):
        table = read_comparison(benchmark_run["dir"])
        learned = table["releaser"]
        assert learned["net"] > 1.20 * table["random"]["net"]
        assert learned["penalty"] <= table["fixed:0.05"]["penalty"]

        cfg = load_scenario(SCENARIO)
        dc = cfg.build_datacenter()
        _, test_range = train_test_split(dc, cfg.train_fraction)
        sim = SimulationConfig(seed=cfg.seed, day_range=test_range)
        specs = [StrategySpec.parse(f"fixed:{pct / 100:g}") for pct in range(21)]
        sweep = compare_strategies(dc, cfg.cost, sim, specs)
        best = max(row.net for row in sweep.rows)
        assert learned["net"] >= 0.95 * best


# --- criterion 7: wider fixed margins never violate more ------------------

def test_criterion_7_wider_margin_never_violates_more():
    with criterion(7, "raising a fixed margin never adds violation minutes"):
        rng = np.random.default_rng(777)
        cost = CostModel()
        for case in range(100):
            dc, _ = random_dc(rng, f"m{case}", num_hosts=1, num_days=1,
                              step_minutes=15)
            for _ in range(5):
                lo, hi = np.sort(rng.uniform(0.0, 0.99, 2))
                minutes = {}
                for margin in (float(lo), float(hi)):
                    sim = SimulationConfig(seed=1, day_range=(0, 1))
                    result = run(dc, cost, sim, {CPU: FixedMargin(margin),
                                                 RAM: FixedMargin(margin)})
                    minutes[margin] = sum(l.violation_minutes for l in result.ledgers)
                assert minutes[float(hi)] <= minutes[float(lo)]


# --- criterion 8: reports add up and percentiles recompute ----------------

def naive_nearest_rank(sorted_values, pct):
    n = len(sorted_values)
    return sorted_values[max(1, math.ceil(pct / 100.0 * n)) - 1]


def test_criterion_8_report_totals_and_percentiles(benchmark_run):
    with criterion(8, "report totals and margin percentiles recompute exactly"):
        report_dir = benchmark_run["dir"] / "reports" / "releaser"
        report = json.loads((report_dir / "report.json").read_text())

        for host, totals in report["host_totals"].items():
            rows = [r for r in report["ledger"] if r["host"] == host]
            assert totals["potential"] == sum(r["potential"] for r in rows)
            assert totals["penalty"] == sum(r["penalty"] for r in rows)
            assert totals["net"] == sum(r["net"] for r in rows)
        for field in ("potential", "penalty", "net"):
            assert report["totals"][field] == sum(
                h[field] for h in report["host_totals"].values())

        margins: dict[tuple[str, str], list[float]] = {}
        with (report_dir / "margins.csv").open(newline="") as fh:
            for row in csv.DictReader(fh):
                margins.setdefault((row["host"], row["metric"]), []).append(
                    float(row["margin"]))
        assert margins, "margins.csv is empty"
        for entry in report["margin_summary"]:
            values = sorted(margins[(entry["host"], entry["metric"])])
            assert entry["min"] == values[0]
            assert entry["median"] == naive_nearest_rank(values, 50)
            assert entry["p75"] == naive_nearest_rank(values, 75)
