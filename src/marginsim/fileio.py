"""Atomic output files, the guard a stage keeps over all of its outputs, and
the CSV row prefix the fast writers share.

Every file the package writes goes through `atomic_write`, so a run that
fails or is killed mid-write leaves either the previous file or none, never
a truncated one.  Temporary and part file names are decided here only.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import glob
import io
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path: str | Path):
    """Open `path` for text writing via a sibling `<name>.tmp` file.

    The temporary file replaces `path` only when the block exits normally;
    if the block raises, it is deleted and `path` is left as it was.  Line
    endings are written as given (no newline translation).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def part_path(path: Path, i: int) -> Path:
    """Where share `i` of `path` is written before it is appended to `path`."""
    return path.with_name(f"{path.name}.part{i}")


@contextlib.contextmanager
def output_guard(paths):
    """Raise the OSError, naming the path, that writing one of `paths` with
    `atomic_write` after creating its missing parents would fail with (a
    directory where the file goes, or a nearest existing ancestor that is
    not a writable directory), creating nothing; then run the block.  If it
    raises, every temporary and part file of `paths` is removed first, a
    killed writer's too."""
    paths, checked = [os.fspath(p) for p in paths], set()
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        missing, parent = path, os.path.dirname(path) or "."
        if parent not in checked:
            checked.add(parent)
            while not os.path.exists(parent):
                missing, parent = parent, os.path.dirname(parent) or "."
            if not os.path.isdir(parent):
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), missing)
            if not os.access(parent, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), missing)
    try:
        yield
    except BaseException:
        for path in paths:
            for leftover in [path + ".tmp", *glob.glob(glob.escape(path) + ".part[0-9]*")]:
                with contextlib.suppress(OSError):
                    os.unlink(leftover)
        raise


def csv_prefix(fields: list[str]) -> str:
    """`fields` as csv.writer writes them at the start of a row, through the
    delimiter before the next field."""
    buf = io.StringIO()
    # The empty field that follows keeps a lone empty field from being quoted.
    csv.writer(buf).writerow([*fields, ""])
    return buf.getvalue()[:-2]
