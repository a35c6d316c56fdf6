#!/usr/bin/env python3
"""Check that the working tree writes the same output bytes as a revision.

For each scenario, runs `scripts/run_benchmark.py SCENARIO --clean` with
PYTHONHASHSEED=0 twice: once from the working tree, and once from REV,
extracted with `git archive` into a temporary directory that is always
removed afterwards.  Each side writes into its own temporary output
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


def run_pipeline(checkout: Path, scenario: Path, out_dir: Path) -> None:
    subprocess.run([sys.executable, str(checkout / "scripts" / "run_benchmark.py"),
                    str(scenario), "--output-dir", str(out_dir), "--clean"],
                   cwd=checkout, env=dict(os.environ, PYTHONHASHSEED="0"),
                   check=True, stdout=subprocess.DEVNULL)


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under `out_dir`, by relative path."""
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out_dir.rglob("*") if p.is_file()}


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
        differ = False
        for n, scenario in enumerate(args.scenarios):
            trees = []
            for side, checkout in (("rev", base), ("work", ROOT)):
                out_dir = tmp / f"out{n}-{side}"
                try:
                    run_pipeline(checkout, in_checkout(scenario, checkout), out_dir)
                except subprocess.CalledProcessError as exc:
                    print(f"{scenario}: the {side} run exited {exc.returncode}", file=sys.stderr)
                    return 2
                trees.append(digests(out_dir))
            ours, theirs = trees[1], trees[0]
            changed = sorted(name for name in ours.keys() | theirs.keys()
                             if ours.get(name) != theirs.get(name))
            for name in changed:
                where = ("only in the working tree" if name not in theirs
                         else f"only in {args.rev}" if name not in ours else "differs")
                print(f"{scenario}: {name} {where}")
            if changed:
                differ = True
            else:
                print(f"{scenario}: {len(ours)} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
