"""Client for materializing prompt banks from a chat-completion endpoint.

Generation is inherently nondeterministic, so nothing downstream ever
calls this module: training and evaluation consume only persisted bank
files. The API key is read from a named environment variable and is never
written into banks or logs.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from dataclasses import dataclass

from .errors import DataError, NetworkError
from .io import load_prompt_bank
from .types import ClassCatalog, PromptBank

log = logging.getLogger("bmcoop.promptgen")

QUERY_TEMPLATE = (
    "Give {n} textual descriptions of visual discriminative features "
    "for distinct medical cases of {class_name} found in {modality}."
)

# Seconds before the first re-query of a class; each later wait doubles it.
RETRY_WAIT_S = 1.0

# leading enumerators: "1." / "1)" / "(1)" / "-" / "*" / "•"
_ENUMERATOR = re.compile(r"^\s*(?:\(?\d+[.)]\s*|[-*•]\s+)")


@dataclass
class LlmEndpointConfig:
    base_url: str
    model: str
    api_key_env_var: str = "BMCOOP_API_KEY"
    timeout: float = 60.0
    max_retries: int = 3


def build_query(class_name: str, modality: str, n: int) -> str:
    """Fill the generation query template; slot values pass through verbatim."""
    if not class_name.strip():
        raise DataError("class name slot is empty")
    if not modality.strip():
        raise DataError("modality slot is empty")
    if n < 1:
        raise DataError(f"prompt count must be >= 1, got {n}")
    return QUERY_TEMPLATE.format(n=n, class_name=class_name, modality=modality)


def parse_prompt_lines(text: str) -> list[str]:
    """Split a completion into prompt strings, stripping list enumerators."""
    prompts = []
    for line in text.splitlines():
        stripped = _ENUMERATOR.sub("", line).strip()
        if stripped:
            prompts.append(stripped)
    return prompts


def post_json(url: str, payload: dict, headers: dict[str, str], timeout: float):
    """POST ``payload`` as JSON and return the decoded JSON reply.

    A malformed URL, transport failures and HTTP error statuses raise
    ``OSError`` (``TimeoutError`` for a timeout); a reply that is not JSON
    raises ``ValueError``.
    """
    # imported here so that only gen-prompts pays for loading the HTTP stack
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", **headers},
            method="POST",
        )
    except ValueError as e:
        raise OSError(f"invalid URL: {e}") from e
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())
    except urllib.error.URLError as e:
        if isinstance(e.reason, TimeoutError):
            raise TimeoutError(str(e.reason)) from e
        raise
    except http.client.HTTPException as e:
        raise OSError(f"malformed HTTP response: {e!r}") from e


class _TransientReply(NetworkError):
    """An HTTP 429 (rate limited) or 5xx (server side) reply: worth asking again."""


def _post_chat(config: LlmEndpointConfig, query: str) -> str:
    api_key = os.environ.get(config.api_key_env_var)
    if not api_key:
        raise NetworkError(
            f"environment variable {config.api_key_env_var!r} is not set"
        )
    url = config.base_url.rstrip("/") + "/chat/completions"
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": query}],
    }
    log.debug("POST %s model=%s key=<redacted>", url, config.model)
    try:
        body = post_json(url, payload, {"Authorization": f"Bearer {api_key}"}, config.timeout)
        return body["choices"][0]["message"]["content"]
    except TimeoutError as e:
        raise NetworkError(f"request to {url} timed out after {config.timeout}s") from e
    except OSError as e:
        # urllib's HTTPError carries the status as ``code``; transport errors carry none
        code = getattr(e, "code", None)
        transient = isinstance(code, int) and (code == 429 or 500 <= code <= 599)
        raise (_TransientReply if transient else NetworkError)(
            f"request to {url} failed: {e}"
        ) from e
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise NetworkError(f"unexpected response shape from {url}: {e}") from e


def fetch_prompts(
    config: LlmEndpointConfig,
    catalog: ClassCatalog,
    n: int,
    fallback_bank: str | None = None,
) -> PromptBank:
    """Collect exactly ``n`` prompts per catalog class.

    A short response or an HTTP 429 or 5xx reply triggers a re-query, at
    most ``max_retries`` of them per class; the wait before re-query k is
    ``RETRY_WAIT_S * 2**(k - 1)``. Parsed lines are merged with exact-string
    deduplication. Any other failed request ends the fetch at once. If any
    class still falls short after the last attempt the whole fetch fails,
    listing the deficient classes (or naming the 429 or 5xx that the last
    attempt got). With ``fallback_bank`` set, the bank is loaded from disk
    instead and no network activity happens.
    """
    if fallback_bank is not None:
        bank = load_prompt_bank(fallback_bank)
        bank.validate(catalog, n_expected=n)
        return bank

    prompts: dict[str, list[str]] = {}
    modalities: dict[str, str] = {}
    deficits: dict[str, int] = {}
    for name, modality in zip(catalog.names, catalog.modalities):
        query = build_query(name, modality, n)
        collected: list[str] = []
        seen: set[str] = set()
        for attempt in range(config.max_retries + 1):
            if attempt > 0:
                time.sleep(RETRY_WAIT_S * 2 ** (attempt - 1))
            try:
                content = _post_chat(config, query)
            except _TransientReply as e:
                if attempt == config.max_retries:
                    raise
                log.warning("attempt %d for %r: %s; asking again", attempt + 1, name, e)
                continue
            for line in parse_prompt_lines(content):
                if line not in seen:
                    seen.add(line)
                    collected.append(line)
            if len(collected) >= n:
                break
        if len(collected) < n:
            deficits[name] = len(collected)
            continue
        prompts[name] = collected[:n]
        modalities[name] = modality
    if deficits:
        short = ", ".join(f"{k} ({v}/{n})" for k, v in deficits.items())
        raise NetworkError(f"could not collect {n} prompts for: {short}")
    return PromptBank(
        prompts=prompts,
        modalities=modalities,
        query_template=QUERY_TEMPLATE,
        generator={"model": config.model},
    )

