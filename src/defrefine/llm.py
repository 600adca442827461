"""Chat-completion gateways: an HTTP provider and a scripted deterministic mock."""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import Sequence

import requests

from ._http import post_json
from .errors import ProviderError, ScriptExhaustedError

log = logging.getLogger(__name__)

API_KEY_ENV = "LLM_API_KEY"
MAX_RESPONSE_BYTES = 64 * 1024

DEFAULT_SYSTEM_MESSAGE = (
    "You revise category definitions for an embedding-based classifier; "
    "respond only with the requested JSON."
)


@dataclass
class LlmConfig:
    endpoint: str
    model_id: str
    sampling_temperature: float = 1.0
    max_output_tokens: int = 1024
    timeout: float = 60.0
    retries: int = 3
    system_message: str = DEFAULT_SYSTEM_MESSAGE
    backoff_base: float = 0.5

    def __post_init__(self) -> None:
        if self.sampling_temperature < 0:
            raise ValueError("sampling_temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


class ScriptedLlm:
    """Plays back a fixed queue of responses.

    Reported latency is always 0.0 so traces produced with the mock are
    bit-reproducible. An optional real delay per call is available for
    crash-timing tests and never affects the reported latency.
    """

    def __init__(self, responses: Sequence[str], delay_s: float = 0.0):
        self._responses = list(responses)
        self._delay_s = delay_s
        self.calls = 0
        self.last_latency_ms = 0.0

    def complete(self, prompt: str) -> str:
        if not prompt:
            raise ValueError("prompt must be nonempty")
        if self.calls >= len(self._responses):
            raise ScriptExhaustedError("script exhausted")
        response = self._responses[self.calls]
        self.calls += 1
        if self._delay_s > 0:
            time.sleep(self._delay_s)
        self.last_latency_ms = 0.0
        return response

    def advance(self, n: int) -> None:
        """Skip n responses without returning them (resume support)."""
        self.calls += n


class HttpLlm:
    """Chat-completions HTTP client.

    Request shape: {"model", "messages", "temperature", "max_tokens"}; the
    reply is the first choice's message content. The prompt is passed through
    verbatim as the user message under a fixed system message.
    """

    def __init__(self, cfg: LlmConfig, api_key: str | None = None):
        self._cfg = cfg
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._session = requests.Session()
        self.calls = 0
        self.last_latency_ms = 0.0

    def complete(self, prompt: str) -> str:
        if not prompt:
            raise ValueError("prompt must be nonempty")
        cfg = self._cfg
        body = {
            "model": cfg.model_id,
            "messages": [
                {"role": "system", "content": cfg.system_message},
                {"role": "user", "content": prompt},
            ],
            "temperature": cfg.sampling_temperature,
            "max_tokens": cfg.max_output_tokens,
        }
        resp, latency_ms = post_json(self._session, cfg, body, self._api_key, "llm")
        try:
            payload = resp.json()
            text = payload["choices"][0]["message"]["content"]
            usage = payload.get("usage")
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise ProviderError(f"malformed llm response: {exc}") from exc
        if not isinstance(text, str) or not text:
            raise ProviderError("empty llm response")
        if len(text.encode("utf-8")) > MAX_RESPONSE_BYTES:
            raise ProviderError("llm response exceeds size cap")
        self.calls += 1
        self.last_latency_ms = latency_ms
        log.info("llm call completed in %.0f ms (usage=%s)", latency_ms, usage)
        return text
