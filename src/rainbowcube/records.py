"""The line-record reader behind the host, tree and embedding text formats.

One record per line, `#` starts a comment, blank lines are skipped.  The
first field names the record; the header record comes first and once.

The reader is a lazy stream: :func:`iter_records` reads the text a block of
whole lines at a time, splitting each block as ``str.splitlines`` splits
the whole text, and hands on each handler's result as its line is read.
No list of the text's lines is ever held, so a caller that consumes the
stream as it goes (``parse_graph`` feeds it to the host's constructor)
keeps only what the handlers keep.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .errors import DifferingBitCount, FormatError

_FIELDS = {1: "one field", 2: "two fields", 3: "three fields"}

# characters per block; a block that one line fills is widened
_BLOCK = 1 << 16


def _lines(text: str) -> Iterator[str]:
    """The lines of `text`, exactly as ``text.splitlines()`` lists them."""
    pos, size, width = 0, len(text), _BLOCK
    while pos < size:
        end = pos + width
        if end < size:
            # the block's last line may run on past its end, or end in the
            # "\r" of a "\r\n": it goes to the next block, so the block ends
            # where splitting the whole text ends a line
            end -= len(text[pos:end].splitlines(True)[-1])
            if end == pos:
                width *= 2
                continue
        yield from text[pos:end].splitlines()
        pos, width = end, _BLOCK


def iter_records(
    text: str,
    header: str,
    records: dict[str, tuple[int | None, Callable]],
    skip: tuple[str, ...] = (),
) -> Iterator:
    """Yield the header's result, then every other handler's result that is
    not None, each as its line is read.

    `records` maps a record name to (field count, handler), the count None
    when any number of fields is allowed.  The `header` handler gets the
    record's fields; every other handler gets the header's result first.
    Records named in `skip` are ignored wherever they appear.  A handler's
    FormatError, ValueError or DifferingBitCount is raised as a FormatError
    with its line number, when the stream reaches that line; a text without
    the header raises when the stream ends.
    """
    head = None
    for lineno, raw in enumerate(_lines(text), 1):
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        kind, *fields = line
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
                out = head = handle(*fields)
            else:
                out = handle(head, *fields)
        except (FormatError, ValueError, DifferingBitCount) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if out is not None:
            yield out
    if head is None:
        raise FormatError(f"missing {header} header")


def read_records(
    text: str,
    header: str,
    records: dict[str, tuple[int | None, Callable]],
    skip: tuple[str, ...] = (),
):
    """Feed each record of `text` to its handler; return the header's result.

    Reads the whole stream of :func:`iter_records`, with the same arguments
    and the same errors.
    """
    stream = iter_records(text, header, records, skip)
    head = next(stream)
    for _ in stream:
        pass
    return head
