"""Scripted mock contract and the chat-completions wire format."""

import json
import logging
import math
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest
import requests

from defrefine.errors import DefinitionParseError, ProviderError, ScriptExhaustedError
from defrefine.llm import DEFAULT_SYSTEM_MESSAGE, MAX_RESPONSE_BYTES, HttpLlm, LlmConfig, ScriptedLlm
from defrefine.refinement import parse_definitions


class TestScriptedLlm:
    def test_plays_back_in_order(self):
        llm = ScriptedLlm(["A", "B"])
        assert llm.complete("p", 0) == "A"
        assert llm.complete("p", 1) == "B"

    def test_exhaustion(self):
        llm = ScriptedLlm(["only"])
        llm.complete("p", 0)
        with pytest.raises(ScriptExhaustedError, match="script exhausted"):
            llm.complete("p", 1)
        assert llm.complete("p", 0) == "only"

    def test_replies_follow_the_call_number_out_of_order(self):
        llm = ScriptedLlm(["A", "B", "C"])
        assert [llm.complete("p", call) for call in (2, 0, 1, 2, 0)] == ["C", "A", "B", "C", "A"]

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            ScriptedLlm(["A"]).complete("", 0)

    @pytest.mark.parametrize("delay_s", [0.0, 0.02])
    def test_delay_waits_then_replies(self, delay_s):
        llm = ScriptedLlm(["A"], delay_s=delay_s)
        started = time.monotonic()
        reply = llm.complete("p", 0)
        assert time.monotonic() - started >= delay_s
        assert reply == "A"


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
        reply = llm.complete("revise these", 0)
        assert reply == '{"ok": true}'
        body = _ChatHttp.bodies[0]
        assert body["model"] == "chat-model"
        assert body["temperature"] == 1.0
        assert body["max_tokens"] == 256
        assert body["messages"][0] == {"role": "system", "content": DEFAULT_SYSTEM_MESSAGE}
        # The prompt passes through verbatim.
        assert body["messages"][1] == {"role": "user", "content": "revise these"}

    def test_reply_and_log_line_name_the_call(self, chat_server, caplog):
        llm = HttpLlm(_cfg(chat_server), api_key="")
        with caplog.at_level(logging.INFO, logger="defrefine.llm"):
            reply = llm.complete("p", 7)
        assert reply == '{"ok": true}'
        (line,) = [r.getMessage() for r in caplog.records if r.name == "defrefine.llm"]
        assert line.startswith("llm call 7 completed in ")

    def test_retries_then_succeeds(self, chat_server):
        _ChatHttp.statuses = [503]
        llm = HttpLlm(_cfg(chat_server, retries=2), api_key="")
        assert llm.complete("p", 0) == '{"ok": true}'
        assert len(_ChatHttp.bodies) == 2

    def test_unreachable_after_retries(self):
        llm = HttpLlm(_cfg("http://127.0.0.1:9/none", retries=1, timeout=0.2), api_key="")
        with pytest.raises(ProviderError, match="unreachable after 2 attempts"):
            llm.complete("p", 0)

    def test_empty_response_rejected(self, chat_server):
        _ChatHttp.reply_text = ""
        llm = HttpLlm(_cfg(chat_server), api_key="")
        with pytest.raises(ProviderError, match="empty"):
            llm.complete("p", 0)

    def test_size_cap(self, chat_server):
        _ChatHttp.reply_text = "x" * (MAX_RESPONSE_BYTES + 1)
        llm = HttpLlm(_cfg(chat_server), api_key="")
        with pytest.raises(ProviderError, match="size cap"):
            llm.complete("p", 0)

    def test_reply_with_a_lone_surrogate_reaches_the_parser(self, chat_server):
        # The reply's JSON holds a "\ud800" escape, so its content holds a lone
        # surrogate: the client returns it, and parse_definitions refuses it.
        _ChatHttp.reply_text = '{"a": "caf\u00e9 \ud800"}'
        reply = HttpLlm(_cfg(chat_server), api_key="").complete("p", 0)
        assert reply == '{"a": "caf\u00e9 \ud800"}'
        with pytest.raises(DefinitionParseError, match="not valid Unicode"):
            parse_definitions(reply, ["a"])

    def test_size_cap_counts_a_lone_surrogate_as_three_bytes(self, chat_server):
        _ChatHttp.reply_text = "\ud800" * (MAX_RESPONSE_BYTES // 3 + 1)
        llm = HttpLlm(_cfg(chat_server), api_key="")
        with pytest.raises(ProviderError, match="size cap"):
            llm.complete("p", 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LlmConfig(endpoint="http://x", model_id="m", sampling_temperature=-0.1)
        with pytest.raises(ValueError):
            LlmConfig(endpoint="http://x", model_id="m", max_output_tokens=0)

    @pytest.mark.parametrize(
        "temperature",
        [
            pytest.param(-0.1, id="negative"),
            pytest.param(math.nan, id="nan"),
            pytest.param(math.inf, id="infinite"),
        ],
    )
    def test_sampling_temperature_out_of_bounds_is_refused(self, temperature):
        with pytest.raises(ValueError, match="sampling_temperature must be a finite number >= 0"):
            LlmConfig(endpoint="http://x", model_id="m", sampling_temperature=temperature)

    def test_sampling_temperature_zero_is_allowed(self):
        assert LlmConfig(endpoint="http://x", model_id="m", sampling_temperature=0).sampling_temperature == 0


class _EchoChatHttp(BaseHTTPRequestHandler):
    """A chat endpoint whose reply is "echo: " and the prompt, from its own
    thread per request."""

    prompts: list = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][1]["content"]
        type(self).prompts.append(prompt)
        payload = json.dumps({"choices": [{"message": {"role": "assistant", "content": f"echo: {prompt}"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class TestHttpLlmThreads:
    def test_one_client_serves_eight_threads_at_once(self, monkeypatch):
        """Cells sharing one client each get the reply to their own prompt,
        and the threads that send the first requests share one Session."""
        sessions = []

        class CountedSession(requests.Session):
            def __init__(self):
                super().__init__()
                sessions.append(self)

        monkeypatch.setattr(requests, "Session", CountedSession)
        _EchoChatHttp.prompts = []
        server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoChatHttp)
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        llm = HttpLlm(_cfg(f"http://127.0.0.1:{server.server_port}/v1/chat/completions", retries=0), api_key="")
        n = 8
        start = threading.Barrier(n)
        replies: dict[int, str] = {}
        errors: list[Exception] = []

        def cell(i: int) -> None:
            try:
                start.wait(timeout=10)
                replies[i] = llm.complete(f"prompt {i}", i)
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=cell, args=(i,)) for i in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
            server.shutdown()
            server.server_close()
            for session in sessions:
                session.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert replies == {i: f"echo: prompt {i}" for i in range(n)}
        assert sorted(_EchoChatHttp.prompts) == sorted(f"prompt {i}" for i in range(n))
        assert len(sessions) == 1
