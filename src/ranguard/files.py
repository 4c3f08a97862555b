"""Atomic file writes, and the one CSV table writer: a failed write leaves the target as it was."""

from __future__ import annotations

import csv
import os
import secrets
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO


@contextmanager
def atomic_write(path: str | Path, *, newline: str | None = None) -> Iterator[TextIO]:
    """Text file to write in place of `path`, renamed onto it when the block ends.

    The temporary file sits in the target's directory, so the rename is
    atomic. If the block raises, the temporary file is removed and `path`,
    whether it existed or not, is left untouched. A new file is created by
    open() rather than mkstemp, so it gets the mode a plain open() would
    (0666 less the umask), not 0600; an existing file's mode is copied onto
    its replacement. The replacement is a new file, so it does not keep an
    existing file's owner or its hard links.

    A symlink, device or pipe (`/dev/stdout`, `/dev/null`) is written
    through in place, as open() would: a rename would replace the link or
    the device node itself.
    """
    path = Path(path)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, "w", newline=newline) as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "x", newline=newline)
    try:
        with fh:
            if path.exists():
                shutil.copymode(path, tmp)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """CSV table at `path`, through atomic_write: the header, then each row as it
    is yielded. Returns the row count."""
    count = 0
    with atomic_write(path, newline="") as fh:
        writerow = csv.writer(fh).writerow
        writerow(header)
        for count, row in enumerate(rows, 1):
            writerow(row)
    return count
