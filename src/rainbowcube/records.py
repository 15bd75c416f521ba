"""The line-record reader behind the host, tree and embedding text formats.

One record per line, `#` starts a comment, blank lines are skipped.  The
first field names the record; the header record comes first and once.

The reader is a lazy stream: :func:`iter_records` reads the text a block of
whole lines at a time (about 64 K characters), splitting each block as
``str.splitlines`` splits the whole text, and hands on each handler's
result as its line is read.  One block's lines, or its fields, are the only
list of the text it holds, so a caller that consumes the stream as it goes
(``parse_graph`` feeds it to the host's constructor) keeps only what the
handlers keep.  A caller may name one record whose blocks are read at
once (``bulk``): a block that holds nothing but such records, and that
the caller's bulk reader accepts, is read in bulk; any other block is read
line by line, so every result, message and line number is the same either
way.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .errors import DifferingBitCount, FormatError

_FIELDS = {1: "one field", 2: "two fields", 3: "three fields"}

# characters per block; a block that one line fills is widened
_BLOCK = 1 << 16


def _blocks(text: str) -> Iterator[str]:
    """Blocks of whole lines of `text`, in order: their ``splitlines()``
    lists, joined, are ``text.splitlines()``."""
    # a "\n" always ends a line, alone or in a "\r\n"; the first block ends
    # at the first one, so that a header on the first line is read alone
    pos, size, width = 0, len(text), text.find("\n", 0, _BLOCK) + 1 or _BLOCK
    while pos < size:
        end = pos + width
        if end < size:
            # the block ends after its last "\n"; with none, its last line
            # may run on past its end, or end in the "\r" of a "\r\n", so
            # it goes to the next block: either way the block ends where
            # splitting the whole text ends a line
            end = text.rfind("\n", pos, end) + 1 or end - len(text[pos:end].splitlines(True)[-1])
            if end == pos:
                width *= 2
                continue
        yield text[pos:end]
        pos, width = end, _BLOCK


def _record_fields(block: str, name: str, width: int) -> list[str] | None:
    """The fields of `block`, if each of its lines is one `name` record of
    `width` fields with no comment, else None.

    The block is ASCII with no line break but "\n", so ``str.split`` splits
    it as its lines' own splits, joined, and it holds no `#`, so no line has
    a comment.  It has k lines, each starting with `name`, and `name` occurs
    k times in it (not overlapping), so no field but a line's first is
    `name`.  It has width * k fields, and the k fields width * i are `name`:
    they are the lines' first fields, so line i + 1 starts at field
    width * i and has `width` fields.
    """
    if not block.isascii() or any(c in block for c in "#\r\x0b\x0c\x1c\x1d\x1e"):
        return None
    k = block.count("\n") + (block[-1] != "\n")
    if not block.startswith(name) or block.count("\n" + name) != k - 1 or block.count(name) != k:
        return None
    fields = block.split()
    if len(fields) != width * k or fields[::width].count(name) != k:
        return None
    return fields


def iter_records(
    text: str,
    header: str,
    records: dict[str, tuple[int | None, Callable]],
    skip: tuple[str, ...] = (),
    bulk: tuple[str, Callable] | None = None,
) -> Iterator:
    """Yield the header's result, then every other handler's result that is
    not None, each as its line (or its block, read in bulk) is read.

    `records` maps a record name to (field count, handler), the count None
    when any number of fields is allowed.  The `header` handler gets the
    record's fields; every other handler gets the header's result first.
    Records named in `skip` are ignored wherever they appear.  A handler's
    FormatError, ValueError or DifferingBitCount is raised as a FormatError
    with its line number, when the stream reaches that line; a text without
    the header raises when the stream ends.

    `bulk`, when given, is (name, read) for a record `name` not in `skip`.
    After the header, a block whose lines may each be one such record (see
    :func:`_record_fields`) goes to ``read(head, fields)`` with all of its
    fields.  `read` returns what the stream hands on for the whole block,
    or None to refuse it, as it must where a line's handler would raise.  A
    refused block is read line by line.
    """
    head, lineno = None, 0
    if bulk:
        name, read = bulk
        width = records[name][0] + 1
    for block in _blocks(text):
        if bulk and head is not None:
            fields = _record_fields(block, name, width)
            out = None if fields is None else read(head, fields)
            if out is not None:
                lineno += len(fields) // width
                del fields  # not kept while the block's results are read
                yield from out
                continue
        for lineno, raw in enumerate(block.splitlines(), lineno + 1):
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
                    what = f"{header} header" if kind == header else kind
                    raise FormatError(f"{what} needs {_FIELDS[count]}")
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
