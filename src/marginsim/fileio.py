"""Atomic output files, and the CSV row prefix the fast writers share.

Every file the package writes goes through `atomic_write`, so a run that
fails or is killed mid-write leaves either the previous file or none, never
a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
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


def remove_temporaries(paths) -> None:
    """Delete the `<name>.tmp` files that `atomic_write`s of `paths` leave
    when their process is killed mid-write; absent ones are skipped."""
    for path in map(Path, paths):
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):
            path.with_name(path.name + ".tmp").unlink()


def csv_prefix(fields: list[str]) -> str:
    """`fields` as csv.writer writes them at the start of a row, through the
    delimiter before the next field."""
    buf = io.StringIO()
    # The empty field that follows keeps a lone empty field from being quoted.
    csv.writer(buf).writerow([*fields, ""])
    return buf.getvalue()[:-2]
