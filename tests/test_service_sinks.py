"""Alert-delivery tests: retry/backoff/jitter, dead-letter, metrics."""

import io
import json

import pytest

from repro.core.events import AnomalyEvent
from repro.service import (AlertDispatcher, AlertSink, JsonLinesAlertSink,
                           StdoutSink, WebhookSink, classify_event)
from repro.telemetry import MetricsRegistry


def _event(label="BFP", start=10, end=12, flows=(3, 1, 7)):
    return AnomalyEvent(
        traffic_label=label,
        start_bin=start,
        end_bin=end,
        od_flows=frozenset(flows),
        bins=tuple(range(start, end + 1)),
        statistics=frozenset(("spe", "t2")),
    )


class RecordingSink(AlertSink):
    """Delivers after a scripted number of failures; records payloads."""

    name = "recording"

    def __init__(self, fail_first=0):
        self.fail_first = fail_first
        self.attempts = 0
        self.delivered = []
        self.closed = False

    def emit(self, payload):
        self.attempts += 1
        if self.attempts <= self.fail_first:
            raise ConnectionError(f"scripted failure {self.attempts}")
        self.delivered.append(payload)

    def close(self):
        self.closed = True


class SleepRecorder:
    def __init__(self):
        self.sleeps = []

    def __call__(self, seconds):
        self.sleeps.append(seconds)


class TestSinks:
    def test_stdout_sink_writes_one_json_line(self):
        stream = io.StringIO()
        StdoutSink(stream).emit({"B": 2, "a": 1})
        assert json.loads(stream.getvalue()) == {"a": 1, "B": 2}
        assert stream.getvalue().count("\n") == 1

    def test_jsonl_sink_appends_lines(self, tmp_path):
        path = tmp_path / "alerts" / "out.jsonl"
        sink = JsonLinesAlertSink(str(path))
        sink.emit({"n": 1})
        sink.emit({"n": 2})
        sink.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [1, 2]
        sink.close()  # idempotent

    def test_webhook_default_transport_posts_json(self, monkeypatch):
        seen = {}

        class FakeResponse:
            status = 200

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def getcode(self):
                return self.status

        def fake_urlopen(request, timeout=None):
            seen["url"] = request.full_url
            seen["method"] = request.get_method()
            seen["body"] = request.data
            seen["content_type"] = request.get_header("Content-type")
            seen["timeout"] = timeout
            return FakeResponse()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        sink = WebhookSink("http://example.invalid/hook", timeout=2.5)
        sink.emit({"n": 1})
        assert seen["url"] == "http://example.invalid/hook"
        assert seen["method"] == "POST"
        assert json.loads(seen["body"].decode()) == {"n": 1}
        assert seen["content_type"] == "application/json"
        assert seen["timeout"] == 2.5

    def test_webhook_non_2xx_raises_retryable_error(self, monkeypatch):
        import urllib.error

        def fake_urlopen(request, timeout=None):
            raise urllib.error.HTTPError(
                request.full_url, 503, "unavailable", hdrs=None, fp=None)

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        with pytest.raises(RuntimeError, match="HTTP 503"):
            WebhookSink("http://example.invalid/hook").emit({"n": 1})

    def test_webhook_connection_failure_raises_retryable_error(
            self, monkeypatch):
        import urllib.error

        def fake_urlopen(request, timeout=None):
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        with pytest.raises(RuntimeError, match="failed"):
            WebhookSink("http://example.invalid/hook").emit({"n": 1})

    def test_webhook_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            WebhookSink("http://example.invalid/hook", timeout=0.0)

    def test_webhook_uses_injected_transport(self):
        posts = []
        sink = WebhookSink("http://example.invalid/hook",
                           transport=lambda url, body: posts.append(
                               (url, body)))
        sink.emit({"n": 1})
        (url, body), = posts
        assert url == "http://example.invalid/hook"
        assert json.loads(body.decode()) == {"n": 1}

    def test_webhook_needs_url(self):
        with pytest.raises(ValueError):
            WebhookSink("")


class TestRetryAndBackoff:
    def test_transient_failure_retries_then_delivers(self):
        sink = RecordingSink(fail_first=2)
        sleeper = SleepRecorder()
        dispatcher = AlertDispatcher([sink], max_attempts=3, sleep=sleeper)
        dispatcher.dispatch(_event())
        assert len(sink.delivered) == 1
        assert len(sleeper.sleeps) == 2
        registry = dispatcher.registry
        assert registry.value("alert_retries", {"sink": "recording"}) == 2
        assert registry.value("alerts_sent", {"sink": "recording"}) == 1

    def test_backoff_grows_exponentially_with_bounded_jitter(self):
        sink = RecordingSink(fail_first=3)
        sleeper = SleepRecorder()
        dispatcher = AlertDispatcher([sink], max_attempts=4, sleep=sleeper,
                                     backoff_base=0.1, backoff_factor=2.0,
                                     jitter=0.5, seed=7)
        dispatcher.dispatch(_event())
        assert len(sleeper.sleeps) == 3
        for attempt, slept in enumerate(sleeper.sleeps):
            base = 0.1 * 2.0 ** attempt
            assert base <= slept <= base * 1.5
        # Strictly growing despite jitter: factor 2 dominates jitter 1.5x.
        assert sleeper.sleeps[0] < sleeper.sleeps[1] < sleeper.sleeps[2]

    def test_seeded_jitter_is_reproducible(self):
        def schedule():
            sink = RecordingSink(fail_first=3)
            sleeper = SleepRecorder()
            AlertDispatcher([sink], max_attempts=4, sleep=sleeper,
                            jitter=0.3, seed=42).dispatch(_event())
            return sleeper.sleeps

        assert schedule() == schedule()

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            AlertDispatcher(max_attempts=0)
        with pytest.raises(ValueError):
            AlertDispatcher(backoff_factor=0.5)
        with pytest.raises(ValueError):
            AlertDispatcher(jitter=-1.0)


class TestDeadLetter:
    def test_always_failing_sink_dead_letters(self, tmp_path):
        dead = tmp_path / "dead.jsonl"
        sink = RecordingSink(fail_first=99)
        registry = MetricsRegistry()
        dispatcher = AlertDispatcher([sink], registry=registry,
                                     max_attempts=3, sleep=SleepRecorder(),
                                     dead_letter_path=str(dead))
        event = _event()
        dispatcher.dispatch(event)
        assert sink.delivered == []
        assert sink.attempts == 3
        (entry,) = [json.loads(line)
                    for line in dead.read_text().splitlines()]
        assert entry["sink"] == "recording"
        assert entry["attempts"] == 3
        assert len(entry["errors"]) == 3
        assert entry["payload"]["key"] == classify_event(event).key
        assert registry.value("alerts_dead_lettered",
                              {"sink": "recording"}) == 1
        assert registry.value("alerts_sent", {"sink": "recording"}) == 0

    def test_without_dead_letter_path_only_counts(self, tmp_path):
        sink = RecordingSink(fail_first=99)
        dispatcher = AlertDispatcher([sink], max_attempts=2,
                                     sleep=SleepRecorder())
        dispatcher.dispatch(_event())
        assert dispatcher.registry.value(
            "alerts_dead_lettered", {"sink": "recording"}) == 1

    def test_dead_letter_rotates_at_size_cap(self, tmp_path):
        dead = tmp_path / "dead.jsonl"
        sink = RecordingSink(fail_first=99)
        registry = MetricsRegistry()
        dispatcher = AlertDispatcher([sink], registry=registry,
                                     max_attempts=1, sleep=SleepRecorder(),
                                     dead_letter_path=str(dead),
                                     dead_letter_max_bytes=200)
        for start in range(1, 6):
            dispatcher.dispatch(_event(start=start, end=start + 1))
        rotated = tmp_path / "dead.jsonl.1"
        assert rotated.exists()
        assert registry.value("dead_letter_rotations") >= 1
        lines = (dead.read_text().splitlines()
                 + rotated.read_text().splitlines())
        for line in lines:
            assert json.loads(line)["sink"] == "recording"
        # The newest record always survives in the live file.
        newest = json.loads(dead.read_text().splitlines()[-1])
        assert newest["payload"]["start_bin"] == 5
        # The live file stays within cap + one record's worth of slack.
        assert dead.stat().st_size <= 200 + max(len(li) + 1 for li in lines)

    def test_dead_letter_rotation_disabled_with_zero_cap(self, tmp_path):
        dead = tmp_path / "dead.jsonl"
        sink = RecordingSink(fail_first=99)
        dispatcher = AlertDispatcher([sink], max_attempts=1,
                                     sleep=SleepRecorder(),
                                     dead_letter_path=str(dead),
                                     dead_letter_max_bytes=0)
        for start in range(1, 6):
            dispatcher.dispatch(_event(start=start, end=start + 1))
        assert not (tmp_path / "dead.jsonl.1").exists()
        assert len(dead.read_text().splitlines()) == 5

    def test_partial_failure_still_delivers_to_healthy_sinks(self, tmp_path):
        healthy = RecordingSink()
        broken = RecordingSink(fail_first=99)
        broken.name = "broken"
        dispatcher = AlertDispatcher([healthy, broken], max_attempts=2,
                                     sleep=SleepRecorder(),
                                     dead_letter_path=str(tmp_path / "d.jl"))
        dispatcher.dispatch(_event())
        assert len(healthy.delivered) == 1
        assert broken.delivered == []


class TestNoDedupState:
    def test_every_dispatch_delivers(self):
        """The store decides which events alert; the dispatcher delivers
        whatever it is handed, the same event twice included."""
        sink = RecordingSink()
        dispatcher = AlertDispatcher([sink])
        event = _event()
        dispatcher.dispatch(event)
        dispatcher.dispatch(event)
        assert len(sink.delivered) == 2
        assert dispatcher.registry.value("alerts_sent",
                                         {"sink": "recording"}) == 2

    def test_close_closes_sinks(self):
        sink = RecordingSink()
        dispatcher = AlertDispatcher([sink])
        dispatcher.close()
        assert sink.closed is True
