"""Scripted mock contract and the chat-completions wire format."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from defrefine.errors import ProviderError, ScriptExhaustedError
from defrefine.llm import DEFAULT_SYSTEM_MESSAGE, MAX_RESPONSE_BYTES, HttpLlm, LlmConfig, ScriptedLlm


class TestScriptedLlm:
    def test_plays_back_in_order(self):
        llm = ScriptedLlm(["A", "B"])
        assert llm.complete("p") == "A"
        assert llm.complete("p") == "B"
        assert llm.calls == 2

    def test_exhaustion(self):
        llm = ScriptedLlm(["only"])
        llm.complete("p")
        with pytest.raises(ScriptExhaustedError, match="script exhausted"):
            llm.complete("p")

    def test_advance_skips_responses(self):
        llm = ScriptedLlm(["A", "B", "C"])
        llm.advance(2)
        assert llm.complete("p") == "C"

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            ScriptedLlm(["A"]).complete("")

    def test_reported_latency_is_fixed(self):
        llm = ScriptedLlm(["A"], delay_s=0.0)
        llm.complete("p")
        assert llm.last_latency_ms == 0.0


class _ChatHttp(BaseHTTPRequestHandler):
    bodies: list = []
    statuses: list = []
    reply_text = '{"ok": true}'

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).bodies.append(body)
        if type(self).statuses:
            self.send_response(type(self).statuses.pop(0))
            self.end_headers()
            return
        payload = json.dumps(
            {
                "choices": [{"message": {"role": "assistant", "content": type(self).reply_text}}],
                "usage": {"prompt_tokens": 10, "completion_tokens": 5},
            }
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    _ChatHttp.bodies = []
    _ChatHttp.statuses = []
    _ChatHttp.reply_text = '{"ok": true}'
    server = HTTPServer(("127.0.0.1", 0), _ChatHttp)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def _cfg(endpoint, **kwargs):
    defaults = dict(endpoint=endpoint, model_id="chat-model", backoff_base=0.001)
    defaults.update(kwargs)
    return LlmConfig(**defaults)


class TestHttpLlm:
    def test_wire_format_and_temperature(self, chat_server):
        llm = HttpLlm(_cfg(chat_server, sampling_temperature=1.0, max_output_tokens=256), api_key="")
        text = llm.complete("revise these")
        assert text == '{"ok": true}'
        body = _ChatHttp.bodies[0]
        assert body["model"] == "chat-model"
        assert body["temperature"] == 1.0
        assert body["max_tokens"] == 256
        assert body["messages"][0] == {"role": "system", "content": DEFAULT_SYSTEM_MESSAGE}
        # The prompt passes through verbatim.
        assert body["messages"][1] == {"role": "user", "content": "revise these"}
        assert llm.last_latency_ms >= 0.0

    def test_retries_then_succeeds(self, chat_server):
        _ChatHttp.statuses = [503]
        llm = HttpLlm(_cfg(chat_server, retries=2), api_key="")
        assert llm.complete("p") == '{"ok": true}'
        assert len(_ChatHttp.bodies) == 2

    def test_unreachable_after_retries(self):
        llm = HttpLlm(_cfg("http://127.0.0.1:9/none", retries=1, timeout=0.2), api_key="")
        with pytest.raises(ProviderError, match="unreachable after 2 attempts"):
            llm.complete("p")

    def test_empty_response_rejected(self, chat_server):
        _ChatHttp.reply_text = ""
        llm = HttpLlm(_cfg(chat_server), api_key="")
        with pytest.raises(ProviderError, match="empty"):
            llm.complete("p")

    def test_size_cap(self, chat_server):
        _ChatHttp.reply_text = "x" * (MAX_RESPONSE_BYTES + 1)
        llm = HttpLlm(_cfg(chat_server), api_key="")
        with pytest.raises(ProviderError, match="size cap"):
            llm.complete("p")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LlmConfig(endpoint="http://x", model_id="m", sampling_temperature=-0.1)
        with pytest.raises(ValueError):
            LlmConfig(endpoint="http://x", model_id="m", max_output_tokens=0)
