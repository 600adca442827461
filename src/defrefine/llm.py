"""Chat-completion gateways: an HTTP provider and a scripted deterministic mock.

Both answer `complete(prompt, call)`, `call` being the run's 0-based LLM call
number, with the reply's text.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass

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
        if not 0 <= self.sampling_temperature < math.inf:
            raise ValueError("sampling_temperature must be a finite number >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        check_retry_policy(self)


@dataclass
class ScriptedLlm:
    """An LLM script file, played back: reply i answers the run's call i.

    It keeps no position: a reply depends on its call number alone.
    `delay_s` is a real wait per call, for crash-timing tests; the reply is
    the same with or without it.
    """

    responses: list[str]
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.delay_s < math.inf:
            raise ValueError("delay_s must be a finite number >= 0")

    def complete(self, prompt: str, call: int) -> str:
        if not prompt:
            raise ValueError("prompt must be nonempty")
        if call >= len(self.responses):
            raise ScriptExhaustedError("script exhausted")
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        return self.responses[call]


class HttpLlm:
    """Chat-completions HTTP client.

    Request shape: {"model", "messages", "temperature", "max_tokens"}; the
    reply is the first choice's message content. The prompt is passed through
    verbatim as the user message under a fixed system message. A call's wall
    time goes to its INFO log line, not to the caller.
    """

    def __init__(self, cfg: LlmConfig, api_key: str | None = None):
        self._cfg = cfg
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._session = LazySession()

    def complete(self, prompt: str, call: int) -> str:
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
        return text
