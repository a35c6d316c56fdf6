#!/usr/bin/env python3
"""Check that the working tree writes the same output bytes as a revision.

For each scenario, runs `scripts/run_benchmark.py SCENARIO --clean` with
PYTHONHASHSEED=0: once from the working tree, and once from REV, extracted
with `git archive` into a temporary directory that is always removed
afterwards.  Where `os.sched_setaffinity` exists, the working tree runs a
second time kept to one CPU, so the learners that run side by side on two
CPUs run one after the other in one process; that tree must equal the
first working-tree run.  Each run writes into its own temporary output
directory, and every output file is compared by sha256.  A scenario inside
the repository is read from each side's own copy.

Exit status: 0 when every tree is identical, 1 when a file differs or
exists on one side only (each such file is named), 2 when a run fails.

Usage:
    python3 scripts/same_bytes.py HEAD~1 scenarios/smoke.cfg scenarios/benchmark.cfg
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> None:
    """The files of `rev` in `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def in_checkout(scenario: str, checkout: Path) -> Path:
    path = Path(scenario).resolve()
    try:
        return checkout / path.relative_to(ROOT)
    except ValueError:
        return path  # outside the repository: both sides read this file


def run_pipeline(checkout: Path, scenario: Path, out_dir: Path, cpus=None) -> None:
    """The pipeline from `checkout`, kept to the set `cpus` when one is given."""
    subprocess.run([sys.executable, str(checkout / "scripts" / "run_benchmark.py"),
                    str(scenario), "--output-dir", str(out_dir), "--clean"],
                   cwd=checkout, env=dict(os.environ, PYTHONHASHSEED="0"),
                   check=True, stdout=subprocess.DEVNULL,
                   preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus))


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under `out_dir`, by relative path."""
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out_dir.rglob("*") if p.is_file()}


def report(label: str, ours: dict[str, str], theirs: dict[str, str],
           ours_name: str, theirs_name: str) -> bool:
    """Print each file that differs between two trees' digests, or that
    none does; True when one does."""
    changed = sorted(name for name in ours.keys() | theirs.keys()
                     if ours.get(name) != theirs.get(name))
    for name in changed:
        where = (f"only in {ours_name}" if name not in theirs
                 else f"only in {theirs_name}" if name not in ours else "differs")
        print(f"{label}: {name} {where}")
    if not changed:
        print(f"{label}: {len(ours)} files identical")
    return bool(changed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare against, e.g. HEAD~1")
    parser.add_argument("scenarios", nargs="+", help="scenario config files")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tmp = Path(tmp)
        base = tmp / "rev"
        base.mkdir()
        try:
            extract(args.rev, base)
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract {args.rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        runs = [("rev", base, None), ("work", ROOT, None)]
        if hasattr(os, "sched_setaffinity"):
            runs.append(("one-CPU work", ROOT, {min(os.sched_getaffinity(0))}))
        differ = False
        for n, scenario in enumerate(args.scenarios):
            trees = {}
            for side, checkout, cpus in runs:
                out_dir = tmp / f"out{n}-{side.replace(' ', '-')}"
                try:
                    run_pipeline(checkout, in_checkout(scenario, checkout), out_dir, cpus)
                except subprocess.CalledProcessError as exc:
                    print(f"{scenario}: the {side} run exited {exc.returncode}", file=sys.stderr)
                    return 2
                trees[side] = digests(out_dir)
            differ |= report(scenario, trees["work"], trees["rev"],
                             "the working tree", args.rev)
            if "one-CPU work" in trees:
                differ |= report(f"{scenario} on one CPU", trees["one-CPU work"], trees["work"],
                                 "the one-CPU run", "the run on every CPU")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
