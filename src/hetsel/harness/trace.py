"""Line-oriented run traces.

One record per line: a fixed prefix (time, component, kind) followed by the
attributes as one compact JSON object with sorted keys, so that two runs of
the same scenario diff byte-identically and every value reads back with its
type.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Union

# Attribute values are scalars or freshly built lists of them, never a container
# that holds itself, so the per-call circular-reference bookkeeping buys
# nothing; an unencodable value still raises.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


class TraceError(ValueError):
    """Unreadable or out-of-order trace data."""


class RecordError(TraceError):
    """A well-formed record that its reader cannot use; the message names it."""

    def __init__(self, record: TraceRecord, problem: str):
        super().__init__(f"{problem}: {format_record(record)}")


class MissingAttributeError(RecordError):
    """A well-formed record lacks an attribute that its reader needs."""

    def __init__(self, record: TraceRecord, name: str):
        super().__init__(record, f"record lacks attribute {name!r}")


class TraceRecord(NamedTuple):
    """One trace line, read-only; built once per record written or read."""

    at: int
    component: str
    kind: str
    attributes: dict[str, Any]


def format_record(record: TraceRecord) -> str:
    return f"t={record.at} {record.component} {record.kind} {_encode(record.attributes)}"


def parse_record(line: str) -> TraceRecord:
    parts = line.split(" ", 3)
    if len(parts) < 4 or not parts[0].startswith("t="):
        raise TraceError(f"malformed trace line: {line!r}")
    try:
        at = int(parts[0][2:])
        attributes = json.loads(parts[3])
    except ValueError as exc:
        raise TraceError(f"malformed trace line: {exc}") from None
    if not isinstance(attributes, dict):
        raise TraceError(f"malformed trace line: attributes are not an object: {line!r}")
    return TraceRecord(at, parts[1], parts[2], attributes)


class TraceRecorder:
    """Accumulates records in order; enforces non-decreasing timestamps."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self._last_at = 0

    def record(self, at: int, component: str, kind: str, attrs: dict[str, Any]) -> None:
        if at < self._last_at:
            raise TraceError(f"trace time went backwards: {at} after {self._last_at}")
        self._last_at = at
        self.records.append(TraceRecord(at, component, kind, dict(attrs)))

    def lines(self) -> list[str]:
        return [format_record(r) for r in self.records]


def read_trace(source: Union[str, Path, Iterable[str]]) -> Iterator[TraceRecord]:
    """Parse a trace file (or an iterable of lines).

    A malformed line raises ``TraceError`` naming the file and its 1-based
    line number.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise TraceError(f"cannot read trace {path}: {exc}") from exc
        where = str(path)
        lines: Iterable[str] = text.split("\n")
    else:
        where = "trace"
        lines = source
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = parse_record(line)
        except TraceError as exc:
            raise TraceError(f"{where}:{number}: {exc}") from None
        yield record
