#!/usr/bin/env python3
"""Print the process's peak RSS, and its children's, after each pipeline stage.

Runs the scenario's stages in order (generate, train when it binds a
releaser, evaluate), or only those `--stages` names, `--passes` times, in
this one process, and prints after each stage, in MB, the process's own
`ru_maxrss` (as perfbench's `peak_rss_mb`) and that of its largest reaped
child (`RUSAGE_CHILDREN`: the processes generate forks to write its trace
from, train forks to learn in and evaluate forks to write reports from; 0
until one has run, unless a launcher such as a pyenv shim reaped children
before it exec'd Python).  Like
perfbench's child process, it sets the BLAS/OpenMP thread variables to 1
unless they are already set, and sends the stages' stdout to a string.
Start a fresh process per sample and interleave the two sides when
comparing two checkouts; a fixed PYTHONHASHSEED per pair removes the
spread that dict layouts add.  `--stages generate` measures generate alone,
without a train's worth of time per sample.

Usage:
    python3 scripts/stage_rss.py scenarios/benchmark.cfg --passes 4 --output-dir /tmp/rss
    python3 scripts/stage_rss.py scenarios/benchmark.cfg --stages generate --output-dir /tmp/rss
"""

import argparse
import contextlib
import io
import os
import resource
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from marginsim.cli import main as cli_main  # noqa: E402  (after the thread variables)
from marginsim.config import load_scenario  # noqa: E402

STAGES = ("generate", "train", "evaluate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="scenario config file")
    parser.add_argument("--passes", type=int, default=1, help="pipeline passes (default 1)")
    parser.add_argument("--output-dir", required=True, help="where the stages write")
    parser.add_argument("--stages", help="comma-separated stages to run, in that order "
                                         "(default: every stage the scenario has)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    if args.stages is None:
        learns = bool(load_scenario(args.scenario).learned_metrics())
        stages = STAGES if learns else ("generate", "evaluate")
    else:
        stages = args.stages.split(",")
        if not set(stages) <= set(STAGES):
            parser.error(f"--stages takes a comma-separated list of {', '.join(STAGES)}")
    print("pass\tstage\tru_maxrss_mb\tchildren_maxrss_mb")
    for n in range(1, args.passes + 1):
        for stage in stages:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([stage, args.scenario, "--output-dir", args.output_dir])
            if code != 0:
                print(f"{stage} exited {code}", file=sys.stderr)
                return code
            own, children = (resource.getrusage(who).ru_maxrss / 1024.0
                             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            print(f"{n}\t{stage}\t{own:.3f}\t{children:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
