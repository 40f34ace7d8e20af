"""Structured JSONL event logging.

One event is one JSON object on one line::

    {"kind": "event", "ts": "...", "level": "info", "event":
     "queue.claim", "run_id": "...", "worker": "...", **fields}

Events carry *bound context*: :func:`bind` pushes run/worker/cell
identifiers into a :mod:`contextvars` var, and every event emitted
under that binding inherits them — so a worker binds once per cell and
all queue/checkpoint/engine events from that cell carry the cell's
coordinates.  Context is a contextvar (not a global) so the cluster
worker's heartbeat thread logs under its own binding without racing the
drain loop.

Two sinks, both optional:

* **stderr** — human-scannable ``LEVEL event k=v ...`` lines, gated by
  the configured level (``REPRO_LOG`` / ``--log-level``).
* **events.jsonl** — the machine-readable stream under the configured
  obs dir (``REPRO_OBS_DIR`` / ``--obs-dir``), appended one
  ``O_APPEND`` write per event so concurrent workers interleave whole
  lines.  ``repro obs tail`` reads this file.

Disabled path (the default): :data:`LEVEL` is :data:`OFF`, so
``obs.log.debug(...)`` is one integer compare.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

# Numeric levels, matching stdlib logging's ordering coarsely.
DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40
OFF = 100

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARNING: "warning", ERROR: "error"}
_NAME_LEVELS = {v: k for k, v in _LEVEL_NAMES.items()}
_NAME_LEVELS["warn"] = WARNING
_NAME_LEVELS["off"] = OFF
_NAME_LEVELS["none"] = OFF

#: Current stderr threshold.  Events below it skip the stderr sink;
#: the JSONL sink (when an obs dir is configured) records everything
#: at DEBUG and above regardless, so the on-disk stream is complete
#: even when the console is quiet.
LEVEL = OFF

#: Path of the events.jsonl sink, or None when no obs dir is active.
_EVENTS_PATH: Optional[Path] = None

_CONTEXT: contextvars.ContextVar[Dict[str, Any]] = contextvars.ContextVar(
    "repro_obs_log_context", default={}
)

_stderr_lock = threading.Lock()


def parse_level(name: Union[str, int, None]) -> int:
    """``"debug"``/``"info"``/... → numeric level (unknown → OFF)."""
    if name is None:
        return OFF
    if isinstance(name, int):
        return name
    return _NAME_LEVELS.get(str(name).strip().lower(), OFF)


def level_name(level: int) -> str:
    return _LEVEL_NAMES.get(level, str(level))


def set_level(level: Union[str, int, None]) -> None:
    global LEVEL
    LEVEL = parse_level(level)


def set_events_path(path: Union[str, Path, None]) -> None:
    global _EVENTS_PATH
    _EVENTS_PATH = Path(path) if path is not None else None


def active() -> bool:
    """Whether any sink would record an event right now."""
    return LEVEL < OFF or _EVENTS_PATH is not None


# -- context binding ---------------------------------------------------------


class _Binding:
    """Token-restoring context manager returned by :func:`bind`."""

    __slots__ = ("_token",)

    def __init__(self, token: contextvars.Token) -> None:
        self._token = token

    def __enter__(self) -> "_Binding":
        return self

    def __exit__(self, *exc) -> bool:
        _CONTEXT.reset(self._token)
        return False


def bind(**fields: Any) -> _Binding:
    """Merge ``fields`` into the logging context for the current
    (thread/task) execution context.  Usable as a context manager to
    restore the previous binding on exit, or fire-and-forget for
    process-lifetime context (a worker's identity)."""
    merged = dict(_CONTEXT.get())
    merged.update(fields)
    return _Binding(_CONTEXT.set(merged))


def context() -> Dict[str, Any]:
    """The currently bound context fields (a copy)."""
    return dict(_CONTEXT.get())


# -- emission ----------------------------------------------------------------


def _json_safe(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def emit(level: int, event: str, **fields: Any) -> Optional[Dict[str, Any]]:
    """Emit one structured event through the active sinks; returns the
    record, or None when no sink is active."""
    to_stderr = level >= LEVEL
    to_file = _EVENTS_PATH is not None
    if not (to_stderr or to_file):
        return None
    record: Dict[str, Any] = {
        "kind": "event",
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "level": level_name(level),
        "event": event,
    }
    record.update(_CONTEXT.get())
    for key, value in fields.items():
        record[key] = _json_safe(value)
    if to_file:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"), default=repr)
        try:
            fd = os.open(
                _EVENTS_PATH, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, (line + "\n").encode("utf8"))
            finally:
                os.close(fd)
        except OSError:  # pragma: no cover - sink failure must not kill runs
            pass
    if to_stderr:
        parts = [
            f"{key}={record[key]}"
            for key in record
            if key not in ("kind", "ts", "level", "event")
        ]
        with _stderr_lock:
            print(
                f"[repro {record['level']}] {event} " + " ".join(parts),
                file=sys.stderr,
            )
    return record


def debug(event: str, **fields: Any) -> None:
    if LEVEL <= DEBUG or _EVENTS_PATH is not None:
        emit(DEBUG, event, **fields)


def info(event: str, **fields: Any) -> None:
    if LEVEL <= INFO or _EVENTS_PATH is not None:
        emit(INFO, event, **fields)


def warning(event: str, **fields: Any) -> None:
    if LEVEL <= WARNING or _EVENTS_PATH is not None:
        emit(WARNING, event, **fields)


def error(event: str, **fields: Any) -> None:
    emit(ERROR, event, **fields)
