"""Query building, response parsing, mocked fetch flows, and key hygiene."""

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import bmcoop.promptgen as promptgen
from bmcoop.errors import DataError, NetworkError
from bmcoop.io import write_prompt_bank
from bmcoop.promptgen import (
    LlmEndpointConfig,
    build_query,
    fetch_prompts,
    parse_prompt_lines,
)
from bmcoop.types import ClassCatalog, PromptBank

CATALOG = ClassCatalog(names=["glioma tumor"], modalities=["MRI"])
ENDPOINT = LlmEndpointConfig(
    base_url="https://llm.example/v1",
    model="test-model",
    api_key_env_var="TEST_LLM_KEY",
    max_retries=2,
)


@pytest.fixture(autouse=True)
def sleeps(monkeypatch):
    """Every wait between re-queries, recorded instead of slept."""
    waits = []
    monkeypatch.setattr(promptgen.time, "sleep", waits.append)
    return waits


class TestBuildQuery:
    def test_template_with_slots_filled(self):
        q = build_query("glioma tumor", "MRI", 50)
        assert q == (
            "Give 50 textual descriptions of visual discriminative features "
            "for distinct medical cases of glioma tumor found in MRI."
        )

    def test_single_prompt_count(self):
        assert build_query("x", "CT", 1).startswith("Give 1 textual descriptions")

    def test_period_passes_through_verbatim(self):
        q = build_query("st. anne lesion", "CT", 3)
        assert "st. anne lesion" in q

    def test_empty_slots_rejected(self):
        with pytest.raises(DataError):
            build_query("", "MRI", 5)
        with pytest.raises(DataError):
            build_query("glioma", "  ", 5)
        with pytest.raises(DataError):
            build_query("glioma", "MRI", 0)


class TestParsePromptLines:
    def test_strips_enumerators(self):
        text = "1. first finding\n2) second finding\n- third finding\n* fourth\n(5) fifth\nplain sixth"
        assert parse_prompt_lines(text) == [
            "first finding", "second finding", "third finding",
            "fourth", "fifth", "plain sixth",
        ]

    def test_skips_blank_lines(self):
        assert parse_prompt_lines("a\n\n   \nb") == ["a", "b"]


def reply(content):
    return {"choices": [{"message": {"content": content}}]}


def numbered(lines):
    return "\n".join(f"{i + 1}. {line}" for i, line in enumerate(lines))


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv("TEST_LLM_KEY", "sk-super-secret-value")
    return "sk-super-secret-value"


class TestFetchPrompts:
    def test_full_response_first_try(self, monkeypatch, api_key):
        calls = []

        def fake_post(url, payload, headers, timeout):
            calls.append((url, payload, headers))
            return reply(numbered([f"finding number {i}" for i in range(50)]))

        monkeypatch.setattr(promptgen, "post_json", fake_post)
        bank = fetch_prompts(ENDPOINT, CATALOG, 50)
        assert len(calls) == 1
        assert calls[0][0] == "https://llm.example/v1/chat/completions"
        assert calls[0][2] == {"Authorization": f"Bearer {api_key}"}
        assert bank.prompts["glioma tumor"][0] == "finding number 0"  # numbering stripped
        assert len(bank.prompts["glioma tumor"]) == 50
        assert bank.modalities["glioma tumor"] == "MRI"

    def test_retry_merges_and_deduplicates(self, monkeypatch, api_key):
        first = [f'unique finding {i}' for i in range(48)]
        # retry repeats two old lines and brings two new ones
        second = [first[0], first[1], "late finding A", "late finding B"]
        responses = [numbered(first), numbered(second)]

        def fake_post(url, payload, headers, timeout):
            return reply(responses.pop(0))

        monkeypatch.setattr(promptgen, "post_json", fake_post)
        bank = fetch_prompts(ENDPOINT, CATALOG, 50)
        prompts = bank.prompts["glioma tumor"]
        assert len(prompts) == 50
        assert len(set(prompts)) == 50
        assert prompts[-2:] == ["late finding A", "late finding B"]

    def test_persistent_shortfall_lists_class(self, monkeypatch, api_key):
        def fake_post(url, payload, headers, timeout):
            return reply(numbered(["only one line"]))

        monkeypatch.setattr(promptgen, "post_json", fake_post)
        with pytest.raises(NetworkError, match="glioma tumor"):
            fetch_prompts(ENDPOINT, CATALOG, 50)

    def test_offline_fallback_skips_network(self, monkeypatch, tmp_path):
        def explode(*args, **kwargs):
            raise AssertionError("network must not be touched in fallback mode")

        monkeypatch.setattr(promptgen, "post_json", explode)
        bank = PromptBank(
            prompts={"glioma tumor": [f"finding {i}" for i in range(5)]},
            modalities={"glioma tumor": "MRI"},
        )
        path = tmp_path / "bank.json"
        write_prompt_bank(bank, path)
        loaded = fetch_prompts(ENDPOINT, CATALOG, 5, fallback_bank=str(path))
        assert loaded.prompts == bank.prompts

    def test_missing_api_key_is_network_error(self, monkeypatch):
        monkeypatch.delenv("TEST_LLM_KEY", raising=False)
        with pytest.raises(NetworkError, match="TEST_LLM_KEY"):
            fetch_prompts(ENDPOINT, CATALOG, 5)

    def test_timeout_is_network_error(self, monkeypatch, api_key):
        def fake_post(url, payload, headers, timeout):
            raise TimeoutError("too slow")

        monkeypatch.setattr(promptgen, "post_json", fake_post)
        with pytest.raises(NetworkError, match="timed out"):
            fetch_prompts(ENDPOINT, CATALOG, 5)

    def test_no_credentials_in_bank_or_logs(self, monkeypatch, api_key, tmp_path, caplog):
        def fake_post(url, payload, headers, timeout):
            return reply(numbered([f"finding {i}" for i in range(5)]))

        monkeypatch.setattr(promptgen, "post_json", fake_post)
        with caplog.at_level(logging.DEBUG, logger="bmcoop.promptgen"):
            bank = fetch_prompts(ENDPOINT, CATALOG, 5)
        path = tmp_path / "bank.json"
        write_prompt_bank(bank, path)
        assert api_key not in path.read_text()
        assert api_key not in json.dumps(bank.generator)
        for record in caplog.records:
            assert api_key not in record.getMessage()


@pytest.fixture
def local_endpoint(monkeypatch):
    """A 127.0.0.1 chat endpoint answering each POST with the next queued
    (status, JSON body); yields (endpoint config, replies, received requests)."""
    for var in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.delenv(var, raising=False)
    replies, received = [], []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            received.append((self.path, self.headers["Authorization"], json.loads(body)))
            status, doc = replies.pop(0)
            data = json.dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    endpoint = LlmEndpointConfig(
        base_url=f"http://127.0.0.1:{server.server_port}/v1",
        model="test-model",
        api_key_env_var="TEST_LLM_KEY",
        timeout=10.0,
    )
    try:
        yield endpoint, replies, received
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestHttpPost:
    def test_round_trip_over_http(self, local_endpoint, api_key):
        endpoint, replies, received = local_endpoint
        replies.append((200, reply(numbered(["finding a", "finding b"]))))
        bank = fetch_prompts(endpoint, CATALOG, 2)
        assert bank.prompts["glioma tumor"] == ["finding a", "finding b"]
        path, authorization, payload = received[0]
        assert path == "/v1/chat/completions"
        assert authorization == f"Bearer {api_key}"
        assert payload["model"] == "test-model"
        assert payload["messages"][0]["content"] == build_query("glioma tumor", "MRI", 2)

    def test_server_error_is_network_error(self, local_endpoint, api_key, sleeps):
        endpoint, replies, received = local_endpoint
        replies.extend([(503, {"error": "overloaded"})] * (endpoint.max_retries + 1))
        with pytest.raises(NetworkError, match="503"):
            fetch_prompts(endpoint, CATALOG, 2)
        # every attempt of the budget was spent, each wait twice the one before
        assert len(received) == endpoint.max_retries + 1
        assert sleeps == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_transient_error_then_success(self, local_endpoint, api_key, status, sleeps):
        endpoint, replies, received = local_endpoint
        replies.append((status, {"error": "try later"}))
        replies.append((200, reply(numbered(["finding a", "finding b"]))))
        bank = fetch_prompts(endpoint, CATALOG, 2)
        assert bank.prompts["glioma tumor"] == ["finding a", "finding b"]
        assert len(received) == 2
        assert sleeps == [promptgen.RETRY_WAIT_S]

    def test_client_error_fails_at_once(self, local_endpoint, api_key):
        endpoint, replies, received = local_endpoint
        replies.append((401, {"error": "bad key"}))
        with pytest.raises(NetworkError, match="401"):
            fetch_prompts(endpoint, CATALOG, 2)
        assert len(received) == 1


class TestValidateBank:
    def make_bank(self):
        return PromptBank(
            prompts={"glioma tumor": ["finding a", "finding b"]},
            modalities={"glioma tumor": "MRI"},
        )

    def test_clean_bank_no_diagnostics(self):
        assert self.make_bank().validate(CATALOG) == []

    def test_duplicate_prompt_flagged_once(self):
        bank = self.make_bank()
        bank.prompts["glioma tumor"] = ["same finding", "same finding"]
        notes = bank.validate(CATALOG)
        assert len(notes) == 1
        assert "duplicate" in notes[0]
