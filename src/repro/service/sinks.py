"""Pluggable alert sinks with bounded retry and a dead-letter file.

An alert sink is anything with a ``name`` and an ``emit(payload)`` that
raises on failure — stdout for interactive runs, a JSON-lines file for
log shippers, a webhook that POSTs the alert as JSON over
``urllib.request`` (stdlib only; the transport stays injectable so
tests swap in recorders and failure modes without a network).

:class:`AlertDispatcher` is the delivery policy around them, mirroring
how production notifiers behave:

* **bounded retry with exponential backoff + jitter** — each failed emit
  is retried up to ``max_attempts`` times, sleeping
  ``backoff_base * backoff_factor**attempt`` scaled by a seeded random
  jitter, so a flapping sink neither drops alerts instantly nor
  synchronizes its retries;
* **dead-letter file** — an alert that exhausts its retries is appended,
  with the error chain, to a JSON-lines dead-letter file instead of being
  lost silently;
* **metrics** — every outcome increments a counter in the run's
  :class:`~repro.telemetry.MetricsRegistry` (``alerts_sent``,
  ``alert_retries``, ``alerts_dead_lettered``, labeled by sink), so the
  status surface shows alerting health next to detection throughput.

The dispatcher keeps no dedup state of its own: the service dispatches
only the events that created a new row in the
:class:`~repro.service.store.EventStore`, which keys rows by
:func:`~repro.service.records.event_key`, so a replayed event never
reaches :meth:`AlertDispatcher.dispatch` twice.

Everything is injectable (``sleep``, RNG seed, webhook transport), so the
failure paths are unit-testable without wall-clock sleeps or a network.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.events import AnomalyEvent
from repro.service.records import EventRecord, classify_event
from repro.telemetry import MetricsRegistry
from repro.utils.validation import require

__all__ = ["AlertSink", "StdoutSink", "JsonLinesAlertSink", "WebhookSink",
           "AlertDispatcher"]


class AlertSink:
    """Protocol of an alert sink: ``emit`` delivers or raises."""

    #: Label used in metrics and dead-letter records.
    name = "sink"

    def emit(self, payload: Dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class StdoutSink(AlertSink):
    """Writes one compact JSON line per alert to a stream (default stdout)."""

    name = "stdout"

    def __init__(self, stream=None) -> None:
        self._stream = stream

    def emit(self, payload: Dict[str, object]) -> None:
        stream = self._stream if self._stream is not None else sys.stdout
        stream.write(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")
        stream.flush()


class JsonLinesAlertSink(AlertSink):
    """Appends one JSON line per alert to a file (lazily opened, locked)."""

    name = "jsonl"

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._handle = None

    def emit(self, payload: Dict[str, object]) -> None:
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class WebhookSink(AlertSink):
    """POST-a-JSON-document webhook over stdlib ``urllib.request``.

    The default transport POSTs the payload with
    ``Content-Type: application/json``, a bounded ``timeout``, and treats
    any non-2xx status as a delivery failure (raises, so the dispatcher's
    retry/dead-letter machinery engages).  The transport stays an
    injectable two-argument callable ``transport(url, body_bytes)`` —
    tests inject recorders and failure modes without opening sockets.
    """

    name = "webhook"

    def __init__(self, url: str,
                 transport: Optional[Callable[[str, bytes], None]] = None,
                 timeout: float = 5.0) -> None:
        require(bool(url), "webhook sink needs a non-empty url")
        require(timeout > 0.0, "webhook timeout must be > 0")
        self.url = str(url)
        self.timeout = float(timeout)
        self._transport = (transport if transport is not None
                           else self._urllib_transport)

    def _urllib_transport(self, url: str, body: bytes) -> None:
        request = urllib.request.Request(
            url, data=body, method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                status = getattr(response, "status", response.getcode())
                if not 200 <= int(status) < 300:
                    raise RuntimeError(
                        f"webhook POST to {url} returned HTTP {status}")
        except urllib.error.HTTPError as error:
            raise RuntimeError(
                f"webhook POST to {url} returned HTTP {error.code}"
            ) from error
        except urllib.error.URLError as error:
            raise RuntimeError(
                f"webhook POST to {url} failed: {error.reason}") from error

    def emit(self, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._transport(self.url, body)


class AlertDispatcher:
    """Retry/backoff/dead-letter delivery policy over alert sinks.

    Parameters
    ----------
    sinks:
        The delivery targets.  An empty list is valid (store-only service).
    registry:
        Metrics registry the outcome counters land in (one is created when
        omitted, exposed as :attr:`registry`).
    max_attempts:
        Delivery attempts per sink per alert (>= 1).
    backoff_base:
        Sleep before the first retry, seconds.
    backoff_factor:
        Multiplier applied per subsequent retry.
    jitter:
        Uniform jitter fraction: each sleep is scaled by
        ``1 + jitter * U[0, 1)`` from a seeded RNG.
    dead_letter_path:
        JSON-lines file collecting alerts that exhausted their retries
        (empty: exhausted alerts are only counted).
    dead_letter_max_bytes:
        Size cap for the dead-letter file.  When an append would find the
        file at or past the cap, the current file is rotated to
        ``<path>.1`` (replacing any previous ``.1``) before the append,
        and ``dead_letter_rotations`` is incremented.  ``0`` disables
        rotation (unbounded file).
    sleep:
        Injectable sleep (tests pass a recorder; default
        :func:`time.sleep`).
    seed:
        Jitter RNG seed — deterministic backoff schedules in tests.
    """

    def __init__(self,
                 sinks: Sequence[AlertSink] = (),
                 registry: Optional[MetricsRegistry] = None,
                 max_attempts: int = 3,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 jitter: float = 0.1,
                 dead_letter_path: str = "",
                 dead_letter_max_bytes: int = 1_048_576,
                 sleep: Callable[[float], None] = time.sleep,
                 seed: int = 0) -> None:
        require(max_attempts >= 1, "max_attempts must be >= 1")
        require(backoff_base >= 0.0, "backoff_base must be >= 0")
        require(backoff_factor >= 1.0, "backoff_factor must be >= 1")
        require(jitter >= 0.0, "jitter must be >= 0")
        require(dead_letter_max_bytes >= 0,
                "dead_letter_max_bytes must be >= 0")
        self.sinks: List[AlertSink] = list(sinks)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.jitter = float(jitter)
        self.dead_letter_path = str(dead_letter_path)
        self.dead_letter_max_bytes = int(dead_letter_max_bytes)
        self._sleep = sleep
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    def _backoff_seconds(self, attempt: int) -> float:
        base = self.backoff_base * (self.backoff_factor ** attempt)
        return base * (1.0 + self.jitter * self._rng.random())

    def _dead_letter(self, sink: AlertSink, payload: Dict[str, object],
                     errors: List[str]) -> None:
        self.registry.counter(
            "alerts_dead_lettered", {"sink": sink.name},
            help="Alerts that exhausted their delivery retries").inc()
        if not self.dead_letter_path:
            return
        record = {"sink": sink.name, "payload": payload, "errors": errors,
                  "attempts": self.max_attempts}
        directory = os.path.dirname(self.dead_letter_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._maybe_rotate_dead_letter()
        with open(self.dead_letter_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")

    def _maybe_rotate_dead_letter(self) -> None:
        """Rotate ``dead_letter_path`` to ``.1`` once it reaches the cap."""
        if self.dead_letter_max_bytes == 0:
            return
        try:
            size = os.path.getsize(self.dead_letter_path)
        except OSError:
            return
        if size < self.dead_letter_max_bytes:
            return
        os.replace(self.dead_letter_path, self.dead_letter_path + ".1")
        self.registry.counter(
            "dead_letter_rotations",
            help="Dead-letter file rotations (size cap reached)").inc()

    def _deliver(self, sink: AlertSink, payload: Dict[str, object]) -> bool:
        errors: List[str] = []
        for attempt in range(self.max_attempts):
            try:
                sink.emit(payload)
            except Exception as error:  # noqa: BLE001 - sink contract
                errors.append(f"{type(error).__name__}: {error}")
                if attempt + 1 < self.max_attempts:
                    self.registry.counter(
                        "alert_retries", {"sink": sink.name},
                        help="Alert delivery retries").inc()
                    self._sleep(self._backoff_seconds(attempt))
            else:
                self.registry.counter(
                    "alerts_sent", {"sink": sink.name},
                    help="Alerts delivered").inc()
                return True
        self._dead_letter(sink, payload, errors)
        return False

    # ------------------------------------------------------------------ #
    def dispatch(self, event: AnomalyEvent,
                 record: Optional[EventRecord] = None) -> None:
        """Alert every sink about *event*.

        Per-sink outcomes (delivered, retried, dead-lettered) are in the
        metrics and the dead-letter file; a failing sink never keeps the
        others from delivering.
        """
        if record is None:
            record = classify_event(event)
        payload = record.to_dict()
        for sink in self.sinks:
            self._deliver(sink, payload)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
