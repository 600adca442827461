"""Chat-completion gateways: an HTTP provider and a scripted deterministic mock.

Both answer `complete(prompt, call)`, `call` being the run's 0-based LLM call number, with a `Reply`.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from typing import Sequence

from ._http import LazySession, check_retry_policy, post_json
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
        check_retry_policy(self)


@dataclass
class LlmScript:
    """An LLM script file: the replies in order, and a real delay per call."""

    responses: list[str]
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.delay_s < math.inf:
            raise ValueError("delay_s must be a finite number >= 0")


@dataclass(frozen=True)
class Reply:
    """One LLM reply: its text and the wall time of the request that got it."""

    text: str
    latency_ms: float


class ScriptedLlm:
    """Plays back a fixed list of responses: reply i answers the run's call i.

    It keeps no position, so a resumed run continues at its saved call count.
    Reported latency is always 0.0 so traces produced with the mock are
    bit-reproducible. An optional real delay per call is available for
    crash-timing tests and never affects the reported latency.
    """

    def __init__(self, responses: Sequence[str], delay_s: float = 0.0):
        self.responses = tuple(responses)
        self._delay_s = delay_s

    def complete(self, prompt: str, call: int) -> Reply:
        if not prompt:
            raise ValueError("prompt must be nonempty")
        if call >= len(self.responses):
            raise ScriptExhaustedError("script exhausted")
        if self._delay_s > 0:
            time.sleep(self._delay_s)
        return Reply(self.responses[call], 0.0)


class HttpLlm:
    """Chat-completions HTTP client.

    Request shape: {"model", "messages", "temperature", "max_tokens"}; the
    reply is the first choice's message content. The prompt is passed through
    verbatim as the user message under a fixed system message.
    """

    def __init__(self, cfg: LlmConfig, api_key: str | None = None):
        self._cfg = cfg
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._session = LazySession()

    def complete(self, prompt: str, call: int) -> Reply:
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
        resp, latency_ms = post_json(self._session.get(), cfg, body, self._api_key, "llm")
        try:
            payload = resp.json()
            text = payload["choices"][0]["message"]["content"]
            usage = payload.get("usage")
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise ProviderError(f"malformed llm response: {exc}") from exc
        if not isinstance(text, str) or not text:
            raise ProviderError("empty llm response")
        # A lone surrogate is measured, not refused here: parse_definitions refuses it.
        if len(text.encode("utf-8", "surrogatepass")) > MAX_RESPONSE_BYTES:
            raise ProviderError("llm response exceeds size cap")
        log.info("llm call %d completed in %.0f ms (usage=%s)", call, latency_ms, usage)
        return Reply(text, latency_ms)
