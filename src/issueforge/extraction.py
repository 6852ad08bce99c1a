"""Locate the review-like target section of an issue body.

Bodies are split into titled sections (markdown headings, bold-line titles,
or form-style field labels); titles are normalized (lowercase, stopwords
removed except what/about/should, stemmed) and matched against an ordered set
of 19 regex patterns. The first section whose title matches any pattern is
the target. Unstructured bodies contribute only if they are one paragraph.

Issue templates make a handful of titles recur across thousands of bodies, so
the per-title work is done once: each ``PatternSet`` memoizes, per stopword set
(all that ``normalize_title`` reads of the word lists) and raw title, the name
of the first pattern that matches the normalized title. ``extract`` looks titles
up in body order only up to the first match. Lines that cannot be a fence or a
title are skipped unparsed.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .ingestion import RawIssue, table_lines
from .stemmer import stem
from .textprep import DIGITS, MEMO_LIMIT, WordLists, default_data_dir, strip_noise, tokenize


@dataclass(frozen=True)
class TitlePattern:
    name: str
    regex: re.Pattern


@dataclass(frozen=True)
class PatternSet:
    patterns: tuple[TitlePattern, ...]
    # (stopwords, raw title) -> name of the first pattern that matches the normalized title, or None
    _matches: dict[tuple, str | None] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __iter__(self):
        return iter(self.patterns)


# Words whose presence flips a title's meaning; kept during normalization.
TITLE_RETAINED_STOPWORDS = frozenset({"what", "about", "should"})

# The flags column (bug, feature, other) documents what a pattern is for; it is checked, not used.
_PATTERN_FLAGS = frozenset("BFO")


def load_patterns(path: Path | str | None = None) -> PatternSet:
    """Load "name<TAB>regex<TAB>flags" pattern lines (bundled set by default); a file without one is invalid,
    and so is a line whose name is empty or named on an earlier line."""
    path = default_data_dir() / "patterns.tsv" if path is None else path
    patterns = []
    for lineno, line in table_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValidationError(f"{path}:{lineno}: expected name<TAB>regex<TAB>flags")
        name, regex, flags = parts[0].strip(), parts[1], parts[2].strip()
        if not name or name in (p.name for p in patterns):
            raise ValidationError(f"{path}:{lineno}: pattern name must be non-empty and unique, got {name!r}")
        if not set(flags) <= _PATTERN_FLAGS:
            raise ValidationError(f"{path}:{lineno}: flags must be drawn from B, F and O, got {flags!r}")
        try:
            patterns.append(TitlePattern(name=name, regex=re.compile(regex)))
        except re.error as exc:
            raise ValidationError(f"{path}:{lineno}: invalid regex: {exc}") from exc
    if not patterns:
        raise ValidationError(f"{path}: no pattern line")
    return PatternSet(patterns=tuple(patterns))


def normalize_title(raw: str, lists: WordLists) -> str:
    """Lowercase, drop stopwords (keeping what/about/should), and stem a title."""
    tokens = []
    for tok in tokenize(raw):
        if not tok.isalpha():
            tok = DIGITS.sub("", tok)
            if not tok:
                continue
        if tok in lists.stopwords and tok not in TITLE_RETAINED_STOPWORDS:
            continue
        tokens.append(stem(tok))
    return " ".join(tokens)


# --- section splitting --------------------------------------------------------

_ATX_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_BOLD_LINE = re.compile(r"^\s*(?:\*\*(.+?)\*\*|__(.+?)__)\s*:?\s*$")
_FIELD_LABEL = re.compile(r"^\s*([^:\n]{1,60}):\s*$")
_LIST_OR_QUOTE = re.compile(r"^\s*(?:[-*+>]|\d+[.)])\s")
_FENCE = re.compile(r"^\s*(```|~~~)")


def _title_of_line(line: str) -> str | None:
    match = _ATX_HEADING.match(line)
    if match and match.group(2).strip():
        return match.group(2).strip()
    match = _BOLD_LINE.match(line)
    if match:
        title = (match.group(1) or match.group(2)).strip()
        if title:
            return title
    if _LIST_OR_QUOTE.match(line):
        return None
    match = _FIELD_LABEL.match(line)
    if match:
        title = match.group(1).strip()
        # short label lines only: a sentence ending in ":" is not a field label
        if title and len(title.split()) <= 8 and re.search(r"[A-Za-z]", title):
            return title
    return None


# First non-space characters of a fence, an ATX heading or a bold line. A field
# label ends in ":" plus whitespace, so a line that does neither is none of them.
_MARKUP_STARTS = frozenset("#*_`~")


def _titled_lines(body: str) -> tuple[list[str], list[tuple[int, str]]]:
    """The body's lines, and (line index, raw title) of each titled line; fence interiors are opaque."""
    lines = body.splitlines()
    in_fence = False
    titles: list[tuple[int, str]] = []
    for idx, line in enumerate(lines):
        if line.lstrip()[:1] not in _MARKUP_STARTS and not line.rstrip().endswith(":"):
            continue
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        title = _title_of_line(line)
        if title is not None:
            titles.append((idx, title))
    return lines, titles


# --- target matching ------------------------------------------------------------

def _first_match(raw_title: str, patterns: PatternSet, lists: WordLists) -> str | None:
    """Name of the first pattern (in set order) that matches a title once normalized, or None."""
    memo = patterns._matches
    key = (lists.stopwords, raw_title)
    if key not in memo:
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
        normalized = normalize_title(raw_title, lists)
        memo[key] = next((p.name for p in patterns if p.regex.search(normalized)), None)
    return memo[key]


def _paragraphs(text: str) -> list[str]:
    blocks: list[list[str]] = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip():
            current.append(line)
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return ["\n".join(block) for block in blocks]


def extract(issue: RawIssue, patterns: PatternSet, lists: WordLists) -> tuple[str, str | None] | None:
    """(target text, name of the pattern it matched) for one issue: a matched section's content, or the
    whole body, with no pattern, when it is an unstructured single paragraph. None when nothing qualifies."""
    lines, titles = _titled_lines(issue.body)
    if titles:
        for order, (start, raw_title) in enumerate(titles):
            name = _first_match(raw_title, patterns, lists)
            if name is not None:
                break
        else:
            return None
        end = titles[order + 1][0] if order + 1 < len(titles) else len(lines)
        text = "\n".join(lines[start + 1 : end]).strip()
        return (text, name) if text else None
    stripped = strip_noise(issue.body, lists)
    paragraphs = _paragraphs(stripped)
    if len(paragraphs) != 1:
        return None
    text = paragraphs[0].strip()
    return (text, None) if text else None


def extract_rows(
    issues: Iterable[RawIssue],
    patterns: PatternSet,
    lists: WordLists,
    intents: Mapping[str, list[str]],
) -> tuple[list[dict], dict]:
    """A row, with its intent values, per issue that ``intents`` names and ``extract`` finds a target in,
    plus the counts of ``considered`` and ``extracted`` issues, ``modes`` and ``per_pattern``."""
    rows: list[dict] = []
    modes: dict[str, int] = {}
    per_pattern: dict[str, int] = {}
    considered = 0
    for issue in issues:
        if issue.issue_id not in intents:
            continue
        considered += 1
        result = extract(issue, patterns, lists)
        if result is None:
            continue
        text, pattern = result
        mode = "single_paragraph" if pattern is None else "section_match"
        modes[mode] = modes.get(mode, 0) + 1
        if pattern is not None:
            per_pattern[pattern] = per_pattern.get(pattern, 0) + 1
        rows.append(
            {
                "issue_id": issue.issue_id,
                "repo_id": issue.repo_id,
                "title": issue.title,
                "text": text,
                "mode": mode,
                "matched_pattern": pattern,
                "intents": intents[issue.issue_id],
            }
        )
    return rows, {"considered": considered, "extracted": len(rows), "modes": modes, "per_pattern": per_pattern}
