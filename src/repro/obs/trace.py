"""Lightweight tracing: `span()` context managers + pluggable sinks.

Every maintenance call in the library opens a span —
``span("dch.increase")``, ``span("inch2h.decrease.propagate")``, … —
that records wall time, the elementary-operation tallies, and the
boundedness currencies (|ΔG|, |AFF|, ‖AFF‖, |DIFF|) of that call, and
emits one structured JSONL record per span to the attached sink.

The crucial property is what happens when **no sink is attached** (the
default, and the state of every hot path in production unless someone
opts in): :func:`span` performs a single dict lookup and returns a
shared no-op context manager.  No timestamp is taken, no object is
allocated, no field is computed — instrumentation that is off costs
one dictionary access.  ``tests/test_obs_trace.py`` checks in tier-1
that a disabled span is the shared no-op object and allocates nothing;
its wall-clock ratio against a bare dict lookup is a ``slow`` test.

Instrumented code guards any non-trivial field computation on
``sp.active`` so the expensive currencies (which require scanning
``scp±`` / neighbor lists) are only measured when someone is listening::

    with span(names.SPAN_DCH_INCREASE) as sp:
        ...  # the algorithm, unchanged
        if sp.active:
            sp.set(delta=len(updates), changed=len(changed))

Records and their schema
------------------------
Each record is one JSON object (one line in a ``.jsonl`` file)::

    {"span": "dch.increase", "ts": 1754464000.1, "dur_s": 0.0021,
     "ok": true, "delta": 8, "changed": 31, "aff_norm": 194, ...}

``TRACE_SCHEMA`` declares the contract and :func:`validate_record`
enforces it (used by ``repro obs trace-tail`` and the schema tests).
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, List, Optional

from repro.obs.context import (
    TraceContext,
    _reset_context,
    _set_context,
    current_context,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "span",
    "Span",
    "set_sink",
    "get_sink",
    "use_sink",
    "MemorySink",
    "JsonlSink",
    "TRACE_SCHEMA",
    "TraceSchemaError",
    "validate_record",
]


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class MemorySink:
    """Collects records in a bounded deque — the test/debugging sink.

    Thread safe: serving worker threads emit concurrently, so both
    :meth:`emit` and :meth:`clear` take a lock.  *maxlen* bounds memory
    — beyond it the oldest records are dropped silently (a debugging
    sink left attached must never grow without bound).
    """

    def __init__(self, maxlen: int = 65536) -> None:
        if maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.maxlen = maxlen
        self._records: Deque[dict] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    @property
    def records(self) -> List[dict]:
        """A consistent list copy of everything currently held."""
        with self._lock:
            return list(self._records)

    def emit(self, record: dict) -> None:
        """Store one span record (oldest dropped past the bound)."""
        with self._lock:
            self._records.append(record)

    def clear(self) -> None:
        """Drop everything collected so far."""
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:  # noqa: D102 — sinks share a close() face.
        pass


class JsonlSink:
    """Appends records to a JSONL file, one line per span.

    Thread safe (spans may close on serving worker threads); usable as
    a context manager.  Values that are not JSON types (e.g. ``inf``
    old/new weights) are stringified rather than rejected.

    By default every record is written and flushed immediately (crash
    evidence survives).  With *buffer_records* > 0, lines accumulate in
    memory and hit the file every N records and on :meth:`flush` /
    :meth:`close` — the mode ``serve-bench --trace`` uses to keep the
    hot path off the syscall.
    """

    def __init__(self, path: str, *, buffer_records: int = 0) -> None:
        if buffer_records < 0:
            raise ValueError(
                f"buffer_records must be >= 0, got {buffer_records}"
            )
        self.path = path
        self.buffer_records = buffer_records
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._buffer: List[str] = []

    def emit(self, record: dict) -> None:
        """Write (or buffer) one span record as a JSON line."""
        line = json.dumps(record, default=str, allow_nan=False)
        with self._lock:
            if self.buffer_records:
                self._buffer.append(line)
                if len(self._buffer) >= self.buffer_records:
                    self._drain_locked()
            else:
                self._handle.write(line + "\n")
                self._handle.flush()

    def _drain_locked(self) -> None:
        if self._buffer and not self._handle.closed:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._handle.flush()
        self._buffer.clear()

    def flush(self) -> None:
        """Force buffered lines to disk."""
        with self._lock:
            self._drain_locked()

    def close(self) -> None:
        """Flush and close the file."""
        with self._lock:
            self._drain_locked()
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Span machinery
# ----------------------------------------------------------------------
#: Module state, deliberately a plain dict: ``_STATE["sink"]`` is the
#: single dict lookup a disabled span costs.
_STATE: Dict[str, Optional[object]] = {"sink": None}


class Span:
    """An open span: times the enclosed block, then emits one record.

    On ``__enter__`` the span reads the ambient :class:`TraceContext`
    (:mod:`repro.obs.context`): with a parent it becomes a child of
    that span and inherits its ``trace_id``; without one it starts a
    fresh root trace.  It then installs itself as the ambient context,
    so every span opened inside the block nests under it, and restores
    the previous context on ``__exit__``.
    """

    __slots__ = (
        "name",
        "fields",
        "_start",
        "duration_s",
        "trace_id",
        "span_id",
        "parent_id",
        "_token",
    )

    #: Real spans compute and attach fields; the null span does not.
    active = True

    def __init__(self, name: str, fields: dict) -> None:
        self.name = name
        self.fields = fields
        self._start = 0.0
        self.duration_s = 0.0
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self._token = None

    def set(self, **fields: object) -> None:
        """Attach fields to the record this span will emit."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        parent = current_context()
        if parent is None:
            self.trace_id = new_trace_id()
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.span_id = new_span_id()
        self._token = _set_context(TraceContext(self.trace_id, self.span_id))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._start
        if self._token is not None:
            _reset_context(self._token)
            self._token = None
        record = {
            "span": self.name,
            "ts": time.time(),
            "dur_s": self.duration_s,
            "ok": exc_type is None,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }
        for key, value in self.fields.items():
            if isinstance(value, float) and not math.isfinite(value):
                value = repr(value)
            record[key] = value
        sink = _STATE["sink"]
        if sink is not None:  # detached mid-span: drop the record
            sink.emit(record)
        return False


class _NullSpan:
    """The shared no-op span returned while no sink is attached."""

    __slots__ = ()

    active = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **fields: object) -> None:
        """Discard everything."""


_NULL_SPAN = _NullSpan()


def span(name: str, **fields: object):
    """Open a span named *name*; extra kwargs become record fields.

    With no sink attached this is one dict lookup returning a shared
    no-op context manager — see the module docstring.
    """
    if _STATE["sink"] is None:
        return _NULL_SPAN
    return Span(name, dict(fields))


def set_sink(sink) -> Optional[object]:
    """Attach *sink* (or None to detach); returns the previous sink."""
    previous = _STATE["sink"]
    _STATE["sink"] = sink
    return previous


def get_sink():
    """The currently attached sink, or None."""
    return _STATE["sink"]


@contextmanager
def use_sink(sink):
    """Attach *sink* for the duration of a ``with`` block."""
    previous = set_sink(sink)
    try:
        yield sink
    finally:
        set_sink(previous)


# ----------------------------------------------------------------------
# Record schema
# ----------------------------------------------------------------------
_SPAN_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: Declarative schema of one trace record; ``validate_record`` enforces
#: it and ``docs/observability.md`` documents it.
TRACE_SCHEMA = {
    "required": {
        "span": "string matching ^[a-z][a-z0-9_]*(\\.[a-z0-9_]+)+$",
        "ts": "number — unix seconds at span close",
        "dur_s": "number >= 0 — wall-clock duration",
        "ok": "boolean — false if the block raised",
    },
    "optional": {
        "trace_id": "string — id of the request tree this span belongs to",
        "span_id": "string — this span's own id, unique within the trace",
        "parent_id": "string | null — span_id of the enclosing span",
        "ops": "object: channel (string) -> count (int >= 0)",
        "*": "scalar (string | number | boolean | null)",
    },
}


class TraceSchemaError(ValueError):
    """A trace record does not conform to TRACE_SCHEMA."""


def validate_record(record: object) -> dict:
    """Check *record* against :data:`TRACE_SCHEMA`; return it if valid."""
    if not isinstance(record, dict):
        raise TraceSchemaError(f"record must be an object, got {type(record).__name__}")
    for key in ("span", "ts", "dur_s", "ok"):
        if key not in record:
            raise TraceSchemaError(f"missing required field {key!r}")
    name = record["span"]
    if not isinstance(name, str) or not _SPAN_NAME_RE.match(name):
        raise TraceSchemaError(f"invalid span name {name!r}")
    for key in ("ts", "dur_s"):
        value = record[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TraceSchemaError(f"{key!r} must be a number, got {value!r}")
    if record["dur_s"] < 0:
        raise TraceSchemaError(f"dur_s must be >= 0, got {record['dur_s']}")
    if not isinstance(record["ok"], bool):
        raise TraceSchemaError(f"'ok' must be a boolean, got {record['ok']!r}")
    for key in ("trace_id", "span_id"):
        if key in record and not isinstance(record[key], str):
            raise TraceSchemaError(f"{key!r} must be a string, got {record[key]!r}")
    if "parent_id" in record and record["parent_id"] is not None:
        if not isinstance(record["parent_id"], str):
            raise TraceSchemaError(
                f"'parent_id' must be a string or null, got {record['parent_id']!r}"
            )
    for key, value in record.items():
        if key in ("span", "ts", "dur_s", "ok"):
            continue
        if key == "ops":
            if not isinstance(value, dict):
                raise TraceSchemaError("'ops' must be an object")
            for channel, count in value.items():
                if not isinstance(channel, str):
                    raise TraceSchemaError(f"ops channel {channel!r} not a string")
                if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                    raise TraceSchemaError(
                        f"ops[{channel!r}] must be an int >= 0, got {count!r}"
                    )
            continue
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise TraceSchemaError(
                f"field {key!r} must be scalar or null, got {type(value).__name__}"
            )
    return record
