"""The one POST-with-retries path under both HTTP providers, run without sockets."""

import pytest
import requests

from defrefine import _http
from defrefine._http import check_retry_policy, post_json
from defrefine.embeddings import EmbedderConfig
from defrefine.errors import ProviderError
from defrefine.llm import LlmConfig

BACKOFF = 0.5


class _Clock:
    """Stands in for the time module: a sleep is recorded and advances the clock."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class _Reply:
    def __init__(self, status_code):
        self.status_code = status_code


class _Session:
    """Plays back (outcome, seconds) pairs: an outcome is a status code or an
    exception to raise, and each post advances the clock by its seconds."""

    def __init__(self, clock, script):
        self._clock = clock
        self._script = list(script)
        self.posts = []

    def post(self, url, **kwargs):
        self.posts.append((url, kwargs))
        outcome, seconds = self._script.pop(0)
        self._clock.now += seconds
        if isinstance(outcome, Exception):
            raise outcome
        return _Reply(outcome)


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(_http, "time", fake)
    return fake


def _cfg(what, retries=3):
    config = EmbedderConfig if what == "embedding" else LlmConfig
    return config(endpoint="http://stub/v1", model_id="m", retries=retries, backoff_base=BACKOFF)


def _instant(clock, outcomes):
    return _Session(clock, [(outcome, 0.0) for outcome in outcomes])


def test_waits_double_before_each_retry(clock):
    session = _instant(clock, [503, 429, 500, 200])
    resp, _ = post_json(session, _cfg("embedding"), {}, None, "embedding")
    assert resp.status_code == 200
    assert len(session.posts) == 4
    assert clock.sleeps == [BACKOFF, 2 * BACKOFF, 4 * BACKOFF]


def test_no_wait_after_the_last_failed_attempt(clock):
    session = _instant(clock, [503, 503, 503])
    unreachable = r"^embedding provider unreachable after 3 attempts \(status 503\)$"
    with pytest.raises(ProviderError, match=unreachable):
        post_json(session, _cfg("embedding", retries=2), {}, None, "embedding")
    assert len(session.posts) == 3
    assert clock.sleeps == [BACKOFF, 2 * BACKOFF]


def test_request_exception_is_retried(clock):
    session = _instant(clock, [requests.ConnectionError("refused"), 200])
    resp, _ = post_json(session, _cfg("embedding"), {}, None, "embedding")
    assert resp.status_code == 200
    assert len(session.posts) == 2
    assert clock.sleeps == [BACKOFF]


def test_request_exception_is_named_when_retries_run_out(clock):
    session = _instant(clock, [requests.Timeout("timed out")])
    unreachable = r"^llm provider unreachable after 1 attempts \(request failed: timed out\)$"
    with pytest.raises(ProviderError, match=unreachable):
        post_json(session, _cfg("llm", retries=0), {}, None, "llm")


@pytest.mark.parametrize("what", ["embedding", "llm"])
@pytest.mark.parametrize("status", [400, 401, 404])
def test_client_error_stops_after_one_request(clock, what, status):
    session = _instant(clock, [status, 200])
    with pytest.raises(ProviderError, match=rf"^{what} request rejected with status {status}$"):
        post_json(session, _cfg(what), {}, None, what)
    assert len(session.posts) == 1
    assert clock.sleeps == []


def test_latency_covers_the_successful_attempt_only(clock):
    script = [(503, 5.0), (requests.ConnectionError("reset"), 7.0), (200, 0.125)]
    resp, latency_ms = post_json(_Session(clock, script), _cfg("llm"), {}, None, "llm")
    assert resp.status_code == 200
    assert latency_ms == 125.0


@pytest.mark.parametrize(
    "api_key, headers", [("key", {"Authorization": "Bearer key"}), ("", {}), (None, {})]
)
def test_request_shape(clock, api_key, headers):
    session = _instant(clock, [200])
    cfg = _cfg("embedding")
    post_json(session, cfg, {"x": 1}, api_key, "embedding")
    sent = {"json": {"x": 1}, "headers": headers, "timeout": cfg.timeout}
    assert session.posts == [(cfg.endpoint, sent)]


@pytest.mark.parametrize("what", ["embedding", "llm"])
@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param({"timeout": 0}, "timeout", id="timeout-zero"),
        pytest.param({"timeout": -1.5}, "timeout", id="timeout-negative"),
        pytest.param({"timeout": float("nan")}, "timeout", id="timeout-nan"),
        pytest.param({"timeout": float("inf")}, "timeout", id="timeout-infinite"),
        pytest.param({"retries": -1}, "retries", id="retries-negative"),
        pytest.param({"backoff_base": -1}, "backoff_base", id="backoff-negative"),
        pytest.param({"backoff_base": float("nan")}, "backoff_base", id="backoff-nan"),
    ],
)
def test_retry_policy_out_of_bounds_is_refused_by_both_configs(what, bad, message):
    config = EmbedderConfig if what == "embedding" else LlmConfig
    with pytest.raises(ValueError, match=message):
        config(endpoint="http://stub/v1", model_id="m", **bad)


@pytest.mark.parametrize("what", ["embedding", "llm"])
def test_retry_policy_bounds_are_inclusive_where_post_json_allows(what):
    config = EmbedderConfig if what == "embedding" else LlmConfig
    cfg = config(endpoint="http://stub/v1", model_id="m", timeout=0.001, retries=0, backoff_base=0)
    check_retry_policy(cfg)
