"""The line-record reader behind the host, tree and embedding text formats.

One record per line, `#` starts a comment, blank lines are skipped.  The
first field names the record; the header record comes first and once.
"""

from __future__ import annotations

from typing import Callable

from .errors import DifferingBitCount, FormatError

_FIELDS = {1: "one field", 2: "two fields", 3: "three fields"}


def read_records(
    text: str,
    header: str,
    records: dict[str, tuple[int | None, Callable]],
    skip: tuple[str, ...] = (),
):
    """Feed each record of `text` to its handler; return the header's result.

    `records` maps a record name to (field count, handler), the count None
    when any number of fields is allowed.  The `header` handler gets the
    record's fields; every other handler gets the header's result first.
    Records named in `skip` are ignored wherever they appear.  A handler's
    FormatError, ValueError or DifferingBitCount is reported as a
    FormatError with its line number.
    """
    head = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *fields = line.split()
        if kind in skip:
            continue
        try:
            if kind not in records:
                raise FormatError(f"unknown record {kind!r}")
            count, handle = records[kind]
            if kind == header:
                if head is not None:
                    raise FormatError(f"duplicate {header} header")
            elif head is None:
                raise FormatError(f"{kind} before {header} header")
            if count is not None and len(fields) != count:
                name = f"{header} header" if kind == header else kind
                raise FormatError(f"{name} needs {_FIELDS[count]}")
            if kind == header:
                head = handle(*fields)
            else:
                handle(head, *fields)
        except (FormatError, ValueError, DifferingBitCount) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    if head is None:
        raise FormatError(f"missing {header} header")
    return head
