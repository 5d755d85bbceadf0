"""Line-oriented run traces.

One record per line: a fixed prefix (time, component, kind) followed by the
attributes as one compact JSON object with sorted keys, so that two runs of
the same scenario diff byte-identically and every value reads back with its
type.

Both directions leave little beyond the C JSON work per record.
``json.JSONEncoder.encode`` builds a fresh C encoder on every call, so the
compact, sorted-key encoder is built once here, with the arguments ``encode``
passes for these settings; its output is byte-for-byte ``encode``'s.  On an
interpreter without the ``_json`` accelerator, ``c_make_encoder`` is ``None``
and the encoder's own pure-Python ``iterencode`` is used instead.
``parse_record`` is the one line decoder.  It binds one ``raw_decode``: it
takes the attribute text with JSON whitespace stripped and rejects the line
unless one JSON object spans all of it, which accepts and rejects exactly
what ``json.loads`` does.

A run repeats a few lines many times over (the same report or batch at
another time), so ``read_trace`` hands ``parse_record`` each distinct text
after ``t=<at> `` once.  Its memo lives as long as the reader and is emptied
when it holds ``MEMO_LINES`` texts, so a read of a stream of lines holds a
bounded number of them however long the trace.  The memo is a plain dict,
which reads a trace of few repeats faster than an LRU cache does.  Every
writer and reader refuses a record timed before the one it follows with the
error ``went_backwards`` builds.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Union

# Attribute values are scalars or freshly built lists of them, never a container
# that holds itself, so the circular-reference bookkeeping (``markers``) buys
# nothing; an unencodable value still raises TypeError.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
if c_make_encoder is None:
    _iterencode = _ENCODER.iterencode
else:
    _iterencode = c_make_encoder(
        None, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
        _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
        _ENCODER.skipkeys, _ENCODER.allow_nan)
_raw_decode = json.JSONDecoder().raw_decode
_JSON_WHITESPACE = " \t\n\r"
# Distinct line texts (after ``t=<at> ``) one ``read_trace`` keeps decoded.  A
# run repeats a line within a few seconds of trace time, so a larger memo finds
# few more repeats and only holds more decoded records.
MEMO_LINES = 256


class TraceError(ValueError):
    """Unreadable or out-of-order trace data."""


class RecordError(TraceError):
    """A well-formed record that its reader cannot use; the message names it."""

    def __init__(self, record: TraceRecord, problem: str):
        super().__init__(f"{problem}: {format_record(record)}")


class TraceRecord(NamedTuple):
    """One trace line, read-only; built once per record written or read.

    Records read from one trace may share an ``attributes`` dict with every
    other record of the same text, so no reader mutates it, just as no bus
    consumer mutates a payload.
    """

    at: int
    component: str
    kind: str
    attributes: dict[str, Any]


# ``TraceRecord(...)`` runs a generated Python ``__new__`` that only makes this
# call; the per-record paths make it directly.
_new_record = tuple.__new__


def format_record(record: TraceRecord) -> str:
    return (f"t={record.at} {record.component} {record.kind} "
            f"{''.join(_iterencode(record.attributes, 0))}")


def went_backwards(record: TraceRecord, now: int) -> RecordError:
    """The error for a record timed before ``now``, that of the one it follows."""
    return RecordError(record, f"trace time went backwards after t={now}")


def _is_time(text: str) -> bool:
    """The one rule for a trace time: the text ``str()`` gives a non-negative int."""
    return text.isascii() and text.isdigit() and (text[0] != "0" or len(text) == 1)


def parse_record(line: str) -> TraceRecord:
    """Read one line: the one rule for what a trace line may be, and its one decoder."""
    head, _, body = line.partition(" ")
    parts = body.split(" ", 2)
    # a line short of four fields is reported whole, before a bad time
    if not head.startswith("t=") or len(parts) < 3:
        raise TraceError(f"malformed trace line: {line!r}")
    if not _is_time(head[2:]):
        raise TraceError(f"malformed trace line: time is not plain digits without a "
                         f"leading zero: {line!r}")
    text = parts[2].strip(_JSON_WHITESPACE)
    try:
        attributes, end = _raw_decode(text)
    except ValueError as exc:
        raise TraceError(f"malformed trace line: {exc}") from None
    if end != len(text):
        raise TraceError(f"malformed trace line: data after the attributes: {line!r}")
    if not isinstance(attributes, dict):
        raise TraceError(f"malformed trace line: attributes are not an object: {line!r}")
    return _new_record(TraceRecord, (int(head[2:]), parts[0], parts[1], attributes))


def read_trace(source: Union[str, Path, Iterable[str]]) -> Iterator[TraceRecord]:
    """Parse a trace file (or an iterable of lines).

    A malformed line raises ``TraceError`` naming the file and its 1-based
    line number.  Each distinct text after ``t=<at> `` is decoded by
    ``parse_record``, looked up on the module so that a wrapper set there sees
    every decode; equal lines share its attributes dict (see ``TraceRecord``).
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise TraceError(f"cannot read trace {path}: {exc}") from exc
        where = str(path)
        lines: Iterable[str] = text.split("\n")
    else:
        where = "trace"
        lines = source
    memo: dict[str, tuple[str, str, dict[str, Any]]] = {}
    for number, line in enumerate(lines, 1):
        line = line.strip(_JSON_WHITESPACE)
        if not line:
            continue
        head, _, body = line.partition(" ")
        at = head[2:]
        fields = memo.get(body)
        # a hit takes only a time parse_record takes; any other line goes to
        # parse_record, which names what is wrong with it
        if fields is not None and head[:2] == "t=" and _is_time(at):
            record = _new_record(TraceRecord, (int(at), *fields))
        else:
            try:
                record = parse_record(line)
            except TraceError as exc:
                raise TraceError(f"{where}:{number}: {exc}") from None
            if len(memo) == MEMO_LINES:
                memo.clear()
            memo[body] = record[1:]
        yield record
