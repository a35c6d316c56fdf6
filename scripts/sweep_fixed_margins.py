#!/usr/bin/env python3
"""Sweep fixed margins over a scenario's test split.

Evaluates fixed margins (default 0..20% in 1% steps) on the held-out test
days and prints one line per margin, best last.  This is the oracle the
trained agent is judged against: a learned policy should recover at least
most of the best fixed margin's net saving without knowing it in advance.

Usage:
    python3 scripts/sweep_fixed_margins.py scenarios/benchmark.cfg
    python3 scripts/sweep_fixed_margins.py scenarios/benchmark.cfg --csv sweep.csv
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from marginsim.config import load_scenario
from marginsim.engine import SimulationConfig, compare_strategies, train_test_split
from marginsim.fileio import atomic_write
from marginsim.strategies import StrategySpec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="scenario config file")
    parser.add_argument("--max-percent", type=int, default=20,
                        help="sweep margins 0..N percent (default 20)")
    parser.add_argument("--csv", default=None, help="also write results to CSV")
    parser.add_argument("--train-split", action="store_true",
                        help="sweep the training days instead of the test days")
    args = parser.parse_args(argv)

    cfg = load_scenario(args.scenario)
    dc = cfg.build_datacenter()
    train_range, test_range = train_test_split(dc, cfg.train_fraction)
    day_range = train_range if args.train_split else test_range

    specs = [StrategySpec.parse(f"fixed:{pct / 100:g}")
             for pct in range(args.max_percent + 1)]
    sim = SimulationConfig(seed=cfg.seed, day_range=day_range)
    table = compare_strategies(dc, cfg.cost, sim, specs)

    print(f"# {cfg.name}: days [{day_range[0]}, {day_range[1]}), "
          f"{len(dc.hosts)} hosts")
    print(f"{'margin':>8} {'potential':>12} {'penalty':>12} {'net':>12}")
    best = max(table.rows, key=lambda r: r.net)
    for row in table.rows:
        mark = "  <- best" if row is best else ""
        print(f"{row.strategy.split(':')[1]:>8} {row.potential:>12.4f} "
              f"{row.penalty:>12.4f} {row.net:>12.4f}{mark}")

    if args.csv:
        with atomic_write(args.csv) as fh:
            writer = csv.writer(fh)
            writer.writerow(["margin", "potential", "penalty", "net"])
            for row in table.rows:
                writer.writerow([row.strategy.split(":")[1],
                                 repr(row.potential), repr(row.penalty),
                                 repr(row.net)])
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
