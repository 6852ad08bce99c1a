"""REST client that materializes repositories and issues into the
corpus-directory schema.

Pagination runs until exhaustion, pull requests are dropped, missing repos are
logged and skipped, and throttling/backoff keeps within a requests-per-hour
budget. Output files are rewritten from scratch and deterministically sorted,
so re-running refreshes the corpus in place.
"""

from __future__ import annotations

import base64
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

import requests

from .errors import IssueforgeError
from .ingestion import Corpus, RawIssue, RepoRecord, write_corpus

logger = logging.getLogger(__name__)

PER_PAGE = 100
MAX_RETRY_AFTER_S = 3600  # a longer Retry-After fails the request instead of sleeping


class AuthFailure(IssueforgeError):
    pass


class RateLimited(IssueforgeError):
    pass


class NotFound(IssueforgeError):
    pass


class RequestFailed(IssueforgeError):
    pass


class _RateGate:
    """Serializes request starts to at most ``per_hour`` per hour."""

    def __init__(self, per_hour: int, sleeper: Callable[[float], None]):
        self._interval = 3600.0 / per_hour if per_hour > 0 else 0.0
        self._sleeper = sleeper
        self._lock = threading.Lock()
        self._next_allowed = 0.0

    def wait(self) -> None:
        if self._interval <= 0:
            return
        with self._lock:
            now = time.monotonic()
            delay = self._next_allowed - now
            self._next_allowed = max(now, self._next_allowed) + self._interval
        if delay > 0:
            self._sleeper(delay)


class Client:
    def __init__(
        self,
        base_url: str = "https://api.github.com",
        token: str | None = None,
        rate_limit: int = 5000,
        max_retries: int = 5,
        session: requests.Session | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.session = session or requests.Session()
        self.max_retries = max_retries
        self.sleeper = sleeper
        self.gate = _RateGate(rate_limit, sleeper)
        self.headers = {"Accept": "application/vnd.github+json"}
        if token:
            self.headers["Authorization"] = f"Bearer {token}"

    def get(self, path: str, params: dict | None = None) -> requests.Response:
        url = f"{self.base_url}{path}"
        backoff = 1.0
        for attempt in range(self.max_retries + 1):
            self.gate.wait()
            try:
                response = self.session.get(url, params=params, headers=self.headers, timeout=30)
            except requests.RequestException as exc:
                raise RequestFailed(f"{url}: {exc}") from exc
            if response.status_code == 401:
                raise AuthFailure(f"authentication failed for {url}")
            if response.status_code == 404:
                raise NotFound(url)
            if response.status_code in (403, 429):
                if attempt == self.max_retries:
                    raise RateLimited(f"rate limited after {attempt} retries: {url}")
                # Retry-After may also be an HTTP date; only a number of seconds is used
                retry_after = response.headers.get("Retry-After", "")
                delay = float(retry_after) if retry_after.isdecimal() else backoff
                if delay > MAX_RETRY_AFTER_S:
                    raise RateLimited(f"{url}: Retry-After asks for {retry_after} s, over {MAX_RETRY_AFTER_S} s")
                logger.warning("rate limited on %s, retrying in %.1fs", url, delay)
                self.sleeper(delay)
                backoff *= 2
                continue
            if not response.ok:  # any other 4xx or 5xx
                raise RequestFailed(f"HTTP {response.status_code} for {url}")
            return response

    def get_json(self, path: str, params: dict | None = None):
        """The answer's JSON; 204 No Content, GitHub's answer to an empty repository's contributors, is an
        empty list, so it ends a list and fails any other payload."""
        response = self.get(path, params=params)
        if response.status_code == 204:
            return []
        try:
            return response.json()
        except ValueError as exc:  # requests' JSONDecodeError, e.g. a proxy's HTML page
            raise RequestFailed(f"{response.url}: response is not JSON") from exc

    def paginate(self, path: str, params: dict | None = None) -> list:
        """Fetch every page of a list endpoint until exhaustion."""
        items: list = []
        page = 1
        while True:
            page_params = dict(params or {})
            page_params.update({"per_page": PER_PAGE, "page": page})
            batch = self.get_json(path, params=page_params)
            if not isinstance(batch, list):
                raise RequestFailed(f"{self.base_url}{path}: expected a JSON list")
            if not batch:
                break
            items.extend(batch)
            if len(batch) < PER_PAGE:
                break
            page += 1
        return items


def _string(value, name: str) -> str:
    """``value`` when it is a string; anything else is the ``TypeError`` of a bad payload, naming the field."""
    if not isinstance(value, str):
        raise TypeError(f"{name}: expected a string, got {type(value).__name__}")
    return value


def _decode_content(payload: dict) -> str:
    """A readme payload's text; bad base64 is a ``binascii.Error``, the ``ValueError`` of a bad payload."""
    content = _string(payload.get("content", ""), "readme content")
    if payload.get("encoding") == "base64":
        return base64.b64decode(content).decode("utf-8", errors="replace")
    return content


def _harvest_repo(client: Client, full_name: str) -> tuple[RepoRecord, list[RawIssue]] | None:
    try:
        repo = client.get_json(f"/repos/{full_name}")
    except NotFound:
        logger.warning("repo not found, skipped: %s", full_name)
        return None
    contributors = client.paginate(f"/repos/{full_name}/contributors")
    try:
        readme = client.get_json(f"/repos/{full_name}/readme")
    except NotFound:
        readme = None
    items = client.paginate(f"/repos/{full_name}/issues", params={"state": "all"})

    # a payload of the wrong shape, or without a field read here, fails the request
    try:
        repo_id = str(repo["id"])
        issues = [
            RawIssue(
                issue_id=str(item["id"]),
                repo_id=repo_id,
                title=_string(item.get("title") or "", "title"),
                body=_string(item.get("body") or "", "body"),
                label_names=tuple(_string(label["name"], "label name") for label in item.get("labels", [])),
                created_at=_string(item.get("created_at") or "", "created_at"),
            )
            for item in items
            if "pull_request" not in item
        ]
        record = RepoRecord(
            repo_id=repo_id,
            full_name=full_name,
            contributors=len(contributors),
            stars=int(repo.get("stargazers_count", 0)),
            readme_text=None if readme is None else _decode_content(readme),
            about_text=None if repo.get("description") is None else _string(repo["description"], "description"),
        )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise RequestFailed(f"{client.base_url}/repos/{full_name}: unexpected payload: {exc!r}") from exc
    return record, issues


def fetch_remote(client: Client, repo_list: list[str], out_dir: Path | str, parallel: int = 4) -> Path:
    """Harvest ``repo_list`` through ``client`` into a corpus directory. Unknown repos are skipped, and so
    is a repo whose id an earlier name has fetched (a repeated or renamed repo)."""
    corpus = Corpus()
    workers = max(1, min(parallel, max(len(repo_list), 1)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda name: _harvest_repo(client, name), repo_list))
    for result in results:
        if result is None:
            continue
        record, issues = result
        if record.repo_id in corpus.repos:
            logger.warning("repo %s repeats repo id %s of %s, skipped", record.full_name, record.repo_id,
                           corpus.repos[record.repo_id].full_name)
            continue
        corpus.repos[record.repo_id] = record
        corpus.issues.extend(issues)
    # the forge's answer order varies; sorted issues keep the written corpus deterministic
    corpus.issues.sort(key=lambda issue: (issue.repo_id, issue.issue_id))
    return write_corpus(corpus, out_dir)
