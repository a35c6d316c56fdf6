import hashlib
import os
import sys

import pytest

from marginsim import engine


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria verdicts where they survive -q runs."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "CRITERIA_RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def forks(monkeypatch):
    """`forks(call, cores=None)` runs `call()`, with `cores` usable cores if
    given, and returns its result and the number of `os.fork` calls it
    made.  Whether `call()` returns or raises, it must leave no child
    process, and this process's CPU affinity as it was."""
    def watched(call, cores=None):
        if cores is not None:
            monkeypatch.setattr(engine, "usable_cores", lambda: cores)
        made = []
        fork = os.fork

        def counting_fork():
            made.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        cpus = os.sched_getaffinity(0)
        try:
            result = call()
        finally:
            monkeypatch.setattr(os, "fork", fork)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert os.sched_getaffinity(0) == cpus
        return result, len(made)

    return watched


def digests(root):
    """sha256 of `root` and of every file under it, and None for each
    directory, by path; empty when `root` does not exist."""
    found = [root, *root.rglob("*")] if root.exists() else []
    return {p: hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
            for p in found}


@pytest.fixture
def unchanged(forks):
    """`unchanged(root, call, cores=None)` is `forks(call, cores)` that also
    checks that `call()` left `root` as it found it: the same files and
    directories, every file with the same sha256.  So no temporary or part
    file is left under it either."""
    def watched(root, call, cores=None):
        before = digests(root)
        result = forks(call, cores)
        assert digests(root) == before
        return result

    return watched
