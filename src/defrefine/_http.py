"""The one POST-with-retries policy shared by the HTTP embedding and LLM clients."""

from __future__ import annotations

import time

import requests

from .errors import ProviderError

_RETRYABLE_STATUS = {429} | set(range(500, 600))


def post_json(session, cfg, body: dict, api_key: str | None, what: str):
    """POST body as JSON to cfg.endpoint; (response, latency in ms of that attempt).

    A RequestException, a 429 or a 5xx is retried up to cfg.retries times,
    waiting cfg.backoff_base * 2**attempt before the next attempt; any other
    status of 400 or above raises ProviderError at once. Error messages start
    with `what` ("embedding" or "llm").
    """
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
