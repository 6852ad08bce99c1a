"""Extraction scored against gold annotations: the bundled fixture of 100 issues, or hand-built pairs.

A fixture is JSONL, one issue a line: ``issue_id`` and ``body`` strings, with
optional ``repo_id``, ``title``, ``labels`` and ``created_at``, and
``gold_text``, the section a reader takes as the issue's review-like text, or
null for an issue that has none. ``scripts/make_fixtures.py`` writes the
bundled one from its own templates.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from issueforge.extraction import PatternSet, extract
from issueforge.ingestion import RawIssue, SchemaViolation, parse_jsonl
from issueforge.textprep import WordLists

GOLD_FIXTURE = Path(__file__).resolve().parent / "data" / "extraction_gold.jsonl"


def load_gold(path: Path = GOLD_FIXTURE) -> list[tuple[RawIssue, str | None]]:
    """(issue, gold text) of each fixture line; a line without a string or null ``gold_text`` is a SchemaViolation."""
    gold = []
    for lineno, row in parse_jsonl(path, {"issue_id": str, "body": str}):
        if "gold_text" not in row:
            raise SchemaViolation(path.name, lineno, "gold_text", "missing")
        if row["gold_text"] is not None and not isinstance(row["gold_text"], str):
            raise SchemaViolation(path.name, lineno, "gold_text", "expected str or null")
        issue = RawIssue(
            issue_id=row["issue_id"],
            repo_id=row.get("repo_id", "fixture"),
            title=row.get("title", ""),
            body=row["body"],
            label_names=tuple(row.get("labels", [])),
            created_at=row.get("created_at", "2023-01-01T00:00:00Z"),
        )
        gold.append((issue, row["gold_text"]))
    return gold


def score(gold: list[tuple[RawIssue, str | None]], patterns: PatternSet, lists: WordLists) -> dict:
    """How many ``extract`` results are correct, from the wrong section, missed or spurious, the
    share correct (``accuracy``), and how many results each pattern matched."""
    outcomes: Counter[str] = Counter(correct=0, wrong_section=0, missed=0, spurious=0)
    per_pattern: Counter[str] = Counter()
    for issue, gold_text in gold:
        result = extract(issue, patterns, lists)
        if result is None:
            outcomes["correct" if gold_text is None else "missed"] += 1
            continue
        text, pattern = result
        if pattern is not None:
            per_pattern[pattern] += 1
        if gold_text is None:
            outcomes["spurious"] += 1
        else:
            outcomes["correct" if text == gold_text else "wrong_section"] += 1
    return {"total": len(gold), **outcomes, "accuracy": outcomes["correct"] / len(gold),
            "per_pattern": dict(sorted(per_pattern.items()))}
