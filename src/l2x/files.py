"""Shared pieces of the file writers: atomic replacement and float columns.

Every writer in the package opens its target through :func:`atomic_open`:
the bytes go to a temporary file in the target's directory, which is
renamed over the target only once the writer has finished.  If the
writer raises, the target keeps its old contents (or stays absent) and
the temporary file is removed; if the process is killed, the target is
untouched too, though a dot-named ``.tmp`` file may stay behind.  The
file is not fsynced, so this is no promise against power loss.

:func:`float_rows` formats a whole float matrix in one call, for the CSV
and JSONL writers; :func:`parse_blocks` runs the CSV and JSONL readers'
column parsers a block of lines at a time and names the first bad line.
"""

from __future__ import annotations

import contextlib
import os
from itertools import islice

__all__ = ["atomic_open", "float_rows", "parse_blocks"]


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``path`` for writing (``"w"`` text or ``"wb"`` binary), atomically.

    Text is written as given: no newline translation.  A target that
    exists but is not a regular file (a pipe, or a device such as
    ``/dev/stdout``) is written in place, since renaming over it would
    replace the node itself.
    """
    path = os.fspath(path)
    newline = None if "b" in mode else ""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, newline=newline) as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def float_rows(values, sep: str = ", ") -> list[str]:
    """One string per row of a float matrix: each value by ``float.__repr__``, ``sep``-joined.

    ``str`` of a nested list formats every float with ``repr`` in one C
    call, so splitting it on the row boundaries gives the bytes ``repr``
    (and ``json.dumps``, for finite values) would.
    """
    if len(values) == 0:
        return []
    text = str(values.tolist())[2:-2]
    if sep != ", ":
        text = text.replace(", ", sep)
    return text.split(f"]{sep}[")


def parse_blocks(fh, kernel, error, first: int = 1, block: int = 1024):
    """Yield ``kernel``'s result for each run of ``block`` lines of ``fh``.

    ``kernel(lines, state)`` parses a run of lines a whole column at a
    time and returns ``(result, state)``; ``state`` (None before the
    first line) holds what later lines are checked against.  It raises
    ValueError on the first check any line of the run fails; the run
    then goes through it again one line at a time, so that ``error``
    (a ``TextFormatError`` type) names the first bad line.  The first
    line of ``fh`` is line ``first``.
    """
    state = None
    while lines := list(islice(fh, block)):
        try:
            result, state = kernel(lines, state)
        except ValueError as e:
            for number, line in enumerate(lines, start=first):
                try:
                    _, state = kernel([line], state)
                except ValueError as bad:
                    raise error(str(bad), line=number) from None
            raise error(str(e), line=first) from None
        yield result
        first += len(lines)
