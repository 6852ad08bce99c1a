"""Corpus model and on-disk interchange for repositories and issues.

A corpus directory holds two JSON-lines files, ``repos.jsonl`` and
``issues.jsonl``; any other file in it is ignored. Every pipeline stage works
from this layout so the whole system is testable offline. The profile readers
(``similar``, ``augment``/``sweep --corpus``, ``experiment``) need the repository
records alone: ``load_repos`` reads ``repos.jsonl`` from any directory that
holds one, a corpus, a ``filter`` output or a ``pipeline`` run.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path

from .errors import ValidationError

logger = logging.getLogger(__name__)


class SchemaViolation(ValidationError):
    def __init__(self, filename: str, line_number: int, field_name: str, message: str):
        self.filename = filename
        self.line_number = line_number
        self.field = field_name
        super().__init__(f"{filename}:{line_number}: field {field_name!r}: {message}")


class DanglingRepoRef(ValidationError):
    pass


@dataclass(frozen=True, slots=True)
class RepoRecord:
    repo_id: str
    full_name: str
    contributors: int
    stars: int
    readme_text: str | None = None
    about_text: str | None = None


@dataclass(frozen=True, slots=True)
class RawIssue:
    issue_id: str
    repo_id: str
    title: str
    body: str
    label_names: tuple[str, ...]
    created_at: str


@dataclass
class Corpus:
    repos: dict[str, RepoRecord] = field(default_factory=dict)
    issues: list[RawIssue] = field(default_factory=list)


_REPO_FIELDS = {
    "repo_id": str,
    "full_name": str,
    "contributors": int,
    "stars": int,
}
_ISSUE_FIELDS = {
    "issue_id": str,
    "repo_id": str,
    "title": str,
    "body": str,
    "labels": list,
    "created_at": str,
}


def decoded_lines(path: Path | str) -> Iterator[tuple[int, str]]:
    """Yield (line number, line with its ending) for each line of a UTF-8 file; a line ends at a line
    feed. A line that is not UTF-8 is a ValidationError naming ``path:line``. Every input file is
    decoded here, and a missing or unreadable one is the OSError of ``open``.
    """
    with Path(path).open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            yield lineno, line


def table_lines(path: Path | str) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its line ending) for each line of a table file that is
    neither blank nor a comment, a line whose first non-space character is ``#``. Every hand-curated
    table is read here, and its loader splits and checks each line.
    """
    for lineno, line in decoded_lines(path):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line.rstrip("\r\n")


def parse_jsonl(
    path: Path, required: dict[str, type], allowed: dict[str, frozenset[str]] | None = None
) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line; SchemaViolation names a bad line.

    Lines are read and checked one at a time, so a caller holds one decoded
    object, not the whole file, and a caller's own check of line n is raised
    before any line after n is read. A ``list`` field must hold strings.
    ``allowed`` gives the permitted values of a required ``str`` field, or of
    each element of a required ``list`` field, which must hold at least one.
    """
    for lineno, line in decoded_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(path.name, lineno, "<line>", f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise SchemaViolation(path.name, lineno, "<line>", "expected a JSON object")
        for name, type_ in required.items():
            if name not in obj:
                raise SchemaViolation(path.name, lineno, name, "missing")
            value = obj[name]
            if type_ is int:
                if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                    raise SchemaViolation(path.name, lineno, name, "expected a non-negative integer")
            elif not isinstance(value, type_):
                raise SchemaViolation(path.name, lineno, name, f"expected {type_.__name__}")
            elif type_ is list and not all(map(isinstance, value, repeat(str))):
                raise SchemaViolation(path.name, lineno, name, "expected a list of strings")
        for name, values in (allowed or {}).items():
            if not (held := obj[name] if isinstance(obj[name], list) else (obj[name],)):
                raise SchemaViolation(path.name, lineno, name, "expected one or more values")
            if not values.issuperset(held):
                raise SchemaViolation(path.name, lineno, name, f"values must be drawn from {sorted(values)}")
        yield lineno, obj


def load_repos(path: Path | str) -> dict[str, RepoRecord]:
    """``repo_id`` -> record for each line of ``<path>/repos.jsonl``; no other file is read."""
    repos_file = Path(path) / "repos.jsonl"
    repos: dict[str, RepoRecord] = {}
    for lineno, row in parse_jsonl(repos_file, _REPO_FIELDS):
        if row["repo_id"] in repos:
            raise SchemaViolation(repos_file.name, lineno, "repo_id", "duplicate repo_id")
        for name in ("readme_text", "about_text"):
            if row.get(name) is not None and not isinstance(row[name], str):
                raise SchemaViolation(repos_file.name, lineno, name, "expected str or null")
        repos[row["repo_id"]] = RepoRecord(
            repo_id=row["repo_id"],
            full_name=row["full_name"],
            contributors=row["contributors"],
            stars=row["stars"],
            readme_text=row.get("readme_text"),
            about_text=row.get("about_text"),
        )
    return repos


def load_corpus(path: Path | str) -> Corpus:
    """Load and cross-link a corpus directory; every issue must resolve to a repo."""
    issues_file = Path(path) / "issues.jsonl"
    repos = load_repos(path)

    issues: list[RawIssue] = []
    seen_issue_ids: set[str] = set()
    for lineno, row in parse_jsonl(issues_file, _ISSUE_FIELDS):
        if row["issue_id"] in seen_issue_ids:
            raise SchemaViolation(issues_file.name, lineno, "issue_id", "duplicate issue_id")
        seen_issue_ids.add(row["issue_id"])
        if row["repo_id"] not in repos:
            raise DanglingRepoRef(
                f"{issues_file.name}:{lineno}: issue {row['issue_id']!r} references unknown repo {row['repo_id']!r}"
            )
        issues.append(RawIssue(row["issue_id"], row["repo_id"], row["title"], row["body"], tuple(row["labels"]),
                               row["created_at"]))
    return Corpus(repos=repos, issues=issues)


def write_jsonl(rows: Iterable[dict], path: Path | str) -> Path:
    """One sorted-key JSON object per line, exactly as ``json.dumps(row, sort_keys=True, ensure_ascii=False)``
    writes it: a ``str`` enum member as its value, a tuple as a list.

    ``json.dumps`` makes a new C encoder for every call; here one, made with the
    same arguments, encodes every row of the file (where CPython has no C
    encoder, ``JSONEncoder.encode`` does).
    """
    path = Path(path)
    encoder = json.JSONEncoder(sort_keys=True, ensure_ascii=False)
    if c_make_encoder is None:
        lines = (encoder.encode(row) + "\n" for row in rows)
    else:
        # the arguments JSONEncoder.iterencode passes; {} holds the circular-reference markers
        iterencode = c_make_encoder(
            {}, encoder.default, encode_basestring, None,
            encoder.key_separator, encoder.item_separator, encoder.sort_keys, encoder.skipkeys, encoder.allow_nan,
        )
        lines = ("".join(iterencode(row, 0)) + "\n" for row in rows)
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines(lines)
    return path


def write_repos(repos: dict[str, RepoRecord], path: Path | str) -> Path:
    """Write the records as a ``repos.jsonl`` file, sorted by ``repo_id``."""
    return write_jsonl((asdict(repos[repo_id]) for repo_id in sorted(repos)), path)


def write_corpus(corpus: Corpus, path: Path | str) -> Path:
    """Write a corpus directory in the interchange schema: the repos sorted by ``repo_id``, the issues in
    corpus order."""
    base = Path(path)
    base.mkdir(parents=True, exist_ok=True)
    write_repos(corpus.repos, base / "repos.jsonl")
    write_jsonl(
        ({"issue_id": i.issue_id, "repo_id": i.repo_id, "title": i.title, "body": i.body,
          "labels": i.label_names, "created_at": i.created_at} for i in corpus.issues),
        base / "issues.jsonl",
    )
    return base


def filter_repos(corpus: Corpus, min_labeled_issues: int = 30, min_contributors: int = 2) -> Corpus:
    """Keep repos with more than ``min_labeled_issues`` labeled issues and at
    least ``min_contributors`` contributors, plus only their issues."""
    labeled = Counter(issue.repo_id for issue in corpus.issues if issue.label_names)
    kept = {
        repo_id: record
        for repo_id, record in corpus.repos.items()
        if labeled[repo_id] > min_labeled_issues and record.contributors >= min_contributors
    }
    issues = [issue for issue in corpus.issues if issue.repo_id in kept]
    logger.info(
        "filter_repos: kept %d/%d repos, dropped %d repos and %d issues",
        len(kept),
        len(corpus.repos),
        len(corpus.repos) - len(kept),
        len(corpus.issues) - len(issues),
    )
    return Corpus(repos=kept, issues=issues)
