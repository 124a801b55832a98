"""Detection-as-a-service: durable events, alert delivery, graceful stops.

The service layer turns the streaming diagnosis pipeline into a
long-running process:

* :mod:`repro.service.records` — deterministic per-event severity /
  confidence / summary records;
* :mod:`repro.service.store` — a thread-safe, idempotent sqlite event
  store (postgres-ready schema) with time-window/type/severity queries
  and a byte-identity ``table_digest``;
* :mod:`repro.service.sinks` — pluggable alert sinks behind a
  retry/backoff/dead-letter dispatcher;
* :mod:`repro.service.runner` — :class:`DetectionService`: the run loop
  with SIGTERM/SIGINT graceful shutdown, checkpointed restarts, and the
  service CLI (``python -m repro.service``).

``tools/serve_status.py`` serves the store and the health snapshot over
read-only HTTP.
"""

from repro.service.records import (SEVERITY_LEVELS, EventRecord, RunSummary,
                                   classify_event, event_key, od_digest,
                                   summarize_records)
from repro.service.runner import DetectionService, ServiceResult
from repro.service.sinks import (AlertDispatcher, AlertSink,
                                 JsonLinesAlertSink, StdoutSink, WebhookSink)
from repro.service.store import EventStore, StoredEvent

__all__ = [
    "SEVERITY_LEVELS",
    "EventRecord",
    "RunSummary",
    "classify_event",
    "event_key",
    "od_digest",
    "summarize_records",
    "EventStore",
    "StoredEvent",
    "AlertSink",
    "StdoutSink",
    "JsonLinesAlertSink",
    "WebhookSink",
    "AlertDispatcher",
    "DetectionService",
    "ServiceResult",
]
