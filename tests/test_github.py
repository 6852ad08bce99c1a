import base64
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest
import requests

from issueforge.github import MAX_RETRY_AFTER_S, AuthFailure, Client, RateLimited, RequestFailed, fetch_remote
from issueforge.ingestion import load_corpus


class FakeForge:
    """In-memory repo store served over HTTP with GitHub-like routes."""

    def __init__(self):
        self.repos: dict[str, dict] = {}
        self.fail_with: int | None = None
        self.rate_limit_hits_remaining = 0
        self.requests_seen: list[str] = []
        # repos whose contributors are answered 204 No Content, as GitHub answers for an empty repository
        self.contributors_no_content: set[str] = set()

    def add_repo(self, full_name: str, repo_id: int, issues: list[dict], stars: int = 10,
                 contributors: int = 3, readme: str = "# Hello\n\nAn app.", description: str = "An app."):
        self.repos[full_name] = {
            "meta": {"id": repo_id, "full_name": full_name, "stargazers_count": stars, "description": description},
            "issues": issues,
            "contributors": [{"login": f"user{i}"} for i in range(contributors)],
            "readme": readme,
        }


class _Handler(BaseHTTPRequestHandler):
    forge: FakeForge = None  # set per-server

    def log_message(self, *args):
        pass

    def _send(self, payload, status=200):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        forge = self.forge
        parsed = urlparse(self.path)
        forge.requests_seen.append(parsed.path)
        if forge.fail_with == 401:
            self._send({"message": "bad credentials"}, 401)
            return
        if forge.rate_limit_hits_remaining > 0:
            forge.rate_limit_hits_remaining -= 1
            self._send({"message": "rate limited"}, 429)
            return
        parts = parsed.path.strip("/").split("/")
        query = parse_qs(parsed.query)
        page = int(query.get("page", ["1"])[0])
        per_page = int(query.get("per_page", ["100"])[0])
        if parts[0] != "repos" or len(parts) < 3:
            self._send({"message": "not found"}, 404)
            return
        full_name = f"{parts[1]}/{parts[2]}"
        repo = forge.repos.get(full_name)
        if repo is None:
            self._send({"message": "not found"}, 404)
            return
        rest = parts[3:]
        if not rest:
            self._send(repo["meta"])
        elif rest == ["contributors"] and full_name in forge.contributors_no_content:
            self.send_response(204)
            self.end_headers()
        elif rest == ["contributors"]:
            self._send(self._page(repo["contributors"], page, per_page))
        elif rest == ["readme"]:
            content = base64.b64encode(repo["readme"].encode()).decode()
            self._send({"content": content, "encoding": "base64"})
        elif rest == ["issues"]:
            self._send(self._page(repo["issues"], page, per_page))
        else:
            self._send({"message": "not found"}, 404)

    @staticmethod
    def _page(items, page, per_page):
        start = (page - 1) * per_page
        return items[start : start + per_page]


@pytest.fixture
def forge_server():
    forge = FakeForge()
    handler = type("Handler", (_Handler,), {"forge": forge})
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_port}"
    yield forge, url
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


def make_issues(n: int, offset: int = 0, prs: int = 0) -> list[dict]:
    issues = [
        {
            "id": offset + i,
            "title": f"issue {offset + i}",
            "body": f"body {offset + i}",
            "labels": [{"name": "bug"}],
            "created_at": "2023-02-01T00:00:00Z",
        }
        for i in range(n)
    ]
    for i in range(prs):
        issues.append(
            {
                "id": offset + n + i,
                "title": f"pr {i}",
                "body": "",
                "labels": [],
                "created_at": "2023-02-01T00:00:00Z",
                "pull_request": {"url": "x"},
            }
        )
    return issues


def test_two_pages_of_issues(forge_server, tmp_path):
    forge, url = forge_server
    forge.add_repo("demo/big", 1, make_issues(200))
    out = fetch_remote(Client(base_url=url, sleeper=lambda s: None), ["demo/big"], tmp_path / "corpus")
    corpus = load_corpus(out)
    assert len(corpus.issues) == 200
    assert corpus.repos[str(1)].contributors == 3


def test_harvested_issues_are_written_sorted(forge_server, tmp_path):
    # the forge answers newest first, and the repo list is not in repo id order
    forge, url = forge_server
    forge.add_repo("demo/b", 30, make_issues(3, offset=8)[::-1])
    forge.add_repo("demo/a", 4, make_issues(2, offset=20)[::-1])
    out = fetch_remote(Client(base_url=url, sleeper=lambda s: None), ["demo/b", "demo/a"], tmp_path / "corpus")
    written = [(issue.repo_id, issue.issue_id) for issue in load_corpus(out).issues]
    assert written == [("30", "10"), ("30", "8"), ("30", "9"), ("4", "20"), ("4", "21")]


def test_contributors_answered_with_204_are_none(forge_server, tmp_path):
    # the 204's empty body was once "not JSON", and the whole harvest failed with nothing written
    forge, url = forge_server
    forge.add_repo("demo/full", 1, make_issues(2))
    forge.add_repo("demo/empty", 2, [])
    forge.contributors_no_content.add("demo/empty")
    out = fetch_remote(Client(base_url=url, sleeper=lambda s: None), ["demo/full", "demo/empty"], tmp_path / "corpus")
    corpus = load_corpus(out)
    assert {record.full_name: record.contributors for record in corpus.repos.values()} == {
        "demo/full": 3, "demo/empty": 0}
    assert len(corpus.issues) == 2


def test_unknown_repo_skipped_others_unaffected(forge_server, tmp_path):
    forge, url = forge_server
    forge.add_repo("demo/real", 2, make_issues(3))
    out = fetch_remote(Client(base_url=url, sleeper=lambda s: None), ["demo/ghost", "demo/real"], tmp_path / "corpus")
    corpus = load_corpus(out)
    assert set(corpus.repos) == {"2"}
    assert len(corpus.issues) == 3


def test_empty_repo_list_writes_empty_files(forge_server, tmp_path):
    _, url = forge_server
    out = fetch_remote(Client(base_url=url, sleeper=lambda s: None), [], tmp_path / "corpus")
    corpus = load_corpus(out)
    assert corpus.repos == {} and corpus.issues == []


@pytest.mark.parametrize("names", [["a/x", "a/x"], ["a/x", "a/renamed"]], ids=["repeated", "two-names-one-id"])
def test_a_repeated_repo_is_harvested_once(forge_server, tmp_path, caplog, names):
    # every issue of the repo was once written twice, and load_corpus rejected the duplicate issue_id
    forge, url = forge_server
    forge.add_repo("a/x", 9, make_issues(3))
    forge.add_repo("a/renamed", 9, make_issues(3))
    corpus = load_corpus(fetch_remote(Client(base_url=url, sleeper=lambda s: None), names, tmp_path / "corpus"))
    assert [record.full_name for record in corpus.repos.values()] == ["a/x"]
    assert sorted(issue.issue_id for issue in corpus.issues) == ["0", "1", "2"]
    assert f"repo {names[1]} repeats repo id 9 of a/x, skipped" in caplog.text


def test_pull_requests_excluded(forge_server, tmp_path):
    forge, url = forge_server
    forge.add_repo("demo/mixed", 3, make_issues(5, prs=4))
    out = fetch_remote(Client(base_url=url, sleeper=lambda s: None), ["demo/mixed"], tmp_path / "corpus")
    corpus = load_corpus(out)
    assert len(corpus.issues) == 5


def test_templates_and_readme_fetched(forge_server, tmp_path):
    forge, url = forge_server
    forge.add_repo("demo/tpl", 4, make_issues(1))
    out = fetch_remote(Client(base_url=url, sleeper=lambda s: None), ["demo/tpl"], tmp_path / "corpus")
    corpus = load_corpus(out)
    assert not [path for path in forge.requests_seen if "/contents/" in path]
    assert corpus.repos["4"].readme_text.startswith("# Hello")
    assert corpus.repos["4"].about_text == "An app."


def test_auth_failure(forge_server, tmp_path):
    forge, url = forge_server
    forge.fail_with = 401
    forge.add_repo("demo/x", 5, [])
    with pytest.raises(AuthFailure):
        fetch_remote(Client(base_url=url, sleeper=lambda s: None), ["demo/x"], tmp_path / "corpus")


def test_rate_limit_backoff_then_success(forge_server, tmp_path):
    forge, url = forge_server
    forge.add_repo("demo/slow", 6, make_issues(2))
    forge.rate_limit_hits_remaining = 2
    sleeps: list[float] = []
    out = fetch_remote(
        Client(base_url=url, sleeper=sleeps.append, max_retries=5), ["demo/slow"], tmp_path / "corpus"
    )
    corpus = load_corpus(out)
    assert len(corpus.issues) == 2
    assert len([s for s in sleeps if s > 0]) >= 2  # backed off at least twice


def test_rate_limit_exhausted(forge_server):
    forge, url = forge_server
    forge.add_repo("demo/wall", 7, [])
    forge.rate_limit_hits_remaining = 99
    client = Client(base_url=url, max_retries=2, sleeper=lambda s: None)
    with pytest.raises(RateLimited):
        client.get_json("/repos/demo/wall")


def test_refetch_is_idempotent(forge_server, tmp_path):
    forge, url = forge_server
    forge.add_repo("demo/stable", 8, make_issues(7))
    out1 = fetch_remote(Client(base_url=url, sleeper=lambda s: None), ["demo/stable"], tmp_path / "a")
    out2 = fetch_remote(Client(base_url=url, sleeper=lambda s: None), ["demo/stable"], tmp_path / "b")
    for name in ("repos.jsonl", "issues.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class _StubSession:
    """Answers every GET with ``outcome``: an exception to raise or a response to return."""

    def __init__(self, outcome):
        self.outcome = outcome

    def get(self, url, **kwargs):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


def _response(status: int, body: bytes = b"{}") -> requests.Response:
    response = requests.Response()
    response.status_code = status
    response._content = body
    return response


@pytest.mark.parametrize(
    "outcome",
    [requests.ConnectionError("connection refused"), requests.Timeout("read timed out"), _response(503),
     _response(200, b"<html>proxy error</html>")],
    ids=["connection-error", "timeout", "server-error", "body-not-json"],
)
def test_failed_request_is_an_issueforge_error(outcome):
    client = Client(base_url="http://forge.invalid", session=_StubSession(outcome), sleeper=lambda s: None)
    with pytest.raises(RequestFailed):
        client.get_json("/repos/demo/x")


def test_retry_after_that_is_a_date_falls_back_to_the_backoff():
    response = _response(429)
    response.headers["Retry-After"] = "Wed, 21 Oct 2015 07:28:00 GMT"  # the HTTP-date form
    sleeps: list[float] = []
    client = Client(base_url="http://forge.invalid", rate_limit=0, max_retries=2,
                    session=_StubSession(response), sleeper=sleeps.append)
    with pytest.raises(RateLimited):
        client.get_json("/repos/demo/x")
    assert sleeps == [1.0, 2.0]


def _client_answering_retry_after(value: str, sleeps: list[float]) -> Client:
    response = _response(429)
    response.headers["Retry-After"] = value
    return Client(base_url="http://forge.invalid", rate_limit=0, max_retries=1,
                  session=_StubSession(response), sleeper=sleeps.append)


@pytest.mark.parametrize("value", ["99999999999999999999", "86400"])
def test_retry_after_above_the_bound_fails_without_sleeping(value):
    # time.sleep(1e20) raises OverflowError, and a day's sleep would hang the harvest
    sleeps: list[float] = []
    with pytest.raises(RateLimited, match=rf"http://forge.invalid/repos/demo/x: Retry-After asks for {value} s"):
        _client_answering_retry_after(value, sleeps).get_json("/repos/demo/x")
    assert sleeps == []


def test_retry_after_at_the_bound_is_slept():
    sleeps: list[float] = []
    with pytest.raises(RateLimited, match="rate limited after 1 retries"):
        _client_answering_retry_after(str(MAX_RETRY_AFTER_S), sleeps).get_json("/repos/demo/x")
    assert MAX_RETRY_AFTER_S == 3600
    assert sleeps == [3600.0]


class _RoutedSession:
    """Answers a GET of ``http://forge.invalid<path>`` with 200 and the JSON body given for the path."""

    def __init__(self, bodies: dict[str, object]):
        self.bodies = bodies

    def get(self, url, **kwargs):
        return _response(200, json.dumps(self.bodies[url.removeprefix("http://forge.invalid")]).encode())


def _repo_answers(repo=None, contributors=None, issues=None, readme=None) -> dict[str, object]:
    return {
        "/repos/demo/x": {"id": 1} if repo is None else repo,
        "/repos/demo/x/contributors": [] if contributors is None else contributors,
        "/repos/demo/x/readme": {"content": ""} if readme is None else readme,
        "/repos/demo/x/issues": [] if issues is None else issues,
    }


@pytest.mark.parametrize(
    "answers",
    [
        _repo_answers(repo={"full_name": "demo/x"}),
        _repo_answers(repo=[{"id": 1}]),
        _repo_answers(repo={"id": 1, "stargazers_count": "many"}),
        _repo_answers(contributors={"message": "x"}),
        _repo_answers(issues=[{"title": "no id"}]),
        _repo_answers(issues=[{"id": 2, "labels": ["bug"]}]),
        # once kept as the readme's text
        _repo_answers(readme={"content": "abc", "encoding": "base64"}),
        # once written, for load_corpus to reject the corpus (a field of the wrong type)
        _repo_answers(readme={"content": 5}),
        _repo_answers(repo={"id": 1, "description": 5}),
        _repo_answers(issues=[{"id": 2, "title": 5}]),
        _repo_answers(issues=[{"id": 2, "body": ["x"]}]),
        _repo_answers(issues=[{"id": 2, "labels": [{"name": 7}]}]),
        _repo_answers(issues=[{"id": 2, "created_at": 3}]),
    ],
    ids=["repo-without-id", "repo-a-list", "stars-not-a-number", "contributors-an-object", "issue-without-id",
         "label-not-an-object", "readme-bad-base64", "readme-content-a-number", "description-a-number",
         "title-a-number", "body-a-list", "label-name-a-number", "created-at-a-number"],
)
def test_malformed_payload_is_a_failed_request_naming_the_url(tmp_path, answers):
    with pytest.raises(RequestFailed, match="forge.invalid/repos/demo/x"):
        fetch_remote(Client(base_url="http://forge.invalid", session=_RoutedSession(answers), sleeper=lambda s: None),
                     ["demo/x"], tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()


def test_well_formed_answers_harvest_the_repo(tmp_path):
    answers = _repo_answers(issues=[{"id": 2, "title": "t", "labels": [{"name": "bug"}]}])
    corpus = load_corpus(fetch_remote(Client(base_url="http://forge.invalid", session=_RoutedSession(answers),
                                             sleeper=lambda s: None), ["demo/x"], tmp_path / "corpus"))
    assert list(corpus.repos) == ["1"] and [issue.label_names for issue in corpus.issues] == [("bug",)]


def test_readme_not_in_base64_is_kept_as_its_text(tmp_path):
    # content without a space was once base64-decoded whatever its encoding: "TODO" became "L\ufffd\ufffd"
    answers = _repo_answers(readme={"content": "TODO", "encoding": "utf-8"})
    corpus = load_corpus(fetch_remote(Client(base_url="http://forge.invalid", session=_RoutedSession(answers),
                                             sleeper=lambda s: None), ["demo/x"], tmp_path / "corpus"))
    assert corpus.repos["1"].readme_text == "TODO"
