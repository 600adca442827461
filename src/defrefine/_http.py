"""The one POST-with-retries policy shared by the HTTP embedding and LLM clients.

This is the only module that imports `requests`, and only inside the functions
that use it: the HTTP stack (~255 modules, ~10 MB of peak RSS) then loads at a
client's first request, and a command that sends none never loads it.
"""

from __future__ import annotations

import math
import threading
import time

from .errors import ProviderError

_RETRYABLE_STATUS = {429} | set(range(500, 600))


def check_retry_policy(cfg) -> None:
    """ValueError unless cfg's timeout, retries and backoff_base can drive post_json."""
    if not 0 < cfg.timeout < math.inf:
        raise ValueError("timeout must be a finite number > 0")
    if cfg.retries < 0:
        raise ValueError("retries must be >= 0")
    if not 0 <= cfg.backoff_base < math.inf:
        raise ValueError("backoff_base must be a finite number >= 0")


class LazySession:
    """A client's `requests.Session`, made at its first `get()`.

    The lock makes threads that send a client's first requests at once (the
    embedder's pool, or cells sharing one LLM client) share one session.
    """

    def __init__(self) -> None:
        self._session = None
        self._lock = threading.Lock()

    def get(self):
        with self._lock:
            if self._session is None:
                import requests

                self._session = requests.Session()
            return self._session


def post_json(session, cfg, body: dict, api_key: str | None, what: str):
    """POST body as JSON to cfg.endpoint; (response, latency in ms of that attempt).

    A RequestException, a 429 or a 5xx is retried up to cfg.retries times,
    waiting cfg.backoff_base * 2**attempt before the next attempt; any other
    status of 400 or above raises ProviderError at once. Error messages start
    with `what` ("embedding" or "llm").
    """
    import requests

    headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
    last_error = "no attempt made"
    for attempt in range(cfg.retries + 1):
        started = time.monotonic()
        try:
            resp = session.post(cfg.endpoint, json=body, headers=headers, timeout=cfg.timeout)
        except requests.RequestException as exc:
            last_error = f"request failed: {exc}"
        else:
            if resp.status_code < 400:
                return resp, (time.monotonic() - started) * 1000.0
            if resp.status_code not in _RETRYABLE_STATUS:
                raise ProviderError(f"{what} request rejected with status {resp.status_code}")
            last_error = f"status {resp.status_code}"
        if attempt < cfg.retries:
            time.sleep(cfg.backoff_base * (2**attempt))
    raise ProviderError(
        f"{what} provider unreachable after {cfg.retries + 1} attempts ({last_error})"
    )
