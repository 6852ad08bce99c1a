"""Noise filtering, tokenization, and normalization of issue/review text.

The pipeline turns raw text into lowercase lemma tokens: noise constructs are
stripped (issue text only), negative modifiers collapse to "not", stopwords are
dropped except the intent-bearing modals, and remaining tokens are lemmatized
against a bundled lookup table with a stemmer fallback.

Most issue text holds few noise constructs and no special phrase, so
``strip_noise`` runs a scan only where a cheap substring test says it can
match; its output equals running every scan. The special-phrase patterns are
compiled when a ``WordLists`` is built, and ``preprocess`` normalizes each
distinct token once per ``WordLists``, in a memo that lives on the word lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import ValidationError
from .ingestion import table_lines
from .stemmer import stem


class Source(str, Enum):
    REVIEW = "review"
    ISSUE_TITLE = "issue_title"
    ISSUE_BODY = "issue_body"


@dataclass(frozen=True, slots=True)
class ProcessedDocument:
    """A single unit of training data: one preprocessed text plus its labels."""

    doc_id: str
    source: Source
    tokens: tuple[str, ...]
    intents: frozenset = frozenset()
    app_id: str | None = None


def is_primary(doc: ProcessedDocument) -> bool:
    """A row is primary (a review, which test folds may hold) or auxiliary (an issue document, train-only)."""
    return doc.source is Source.REVIEW


# Modals kept despite being (near-)stopwords: they signal request/report intent.
RETAINED_MODALS = frozenset({"could", "would", "should"})
FUSED_HAVE_TO = "have-to"

MIN_DOC_TOKENS = 3

# Every memo of a pure function in the mining layers is exact, and is emptied when
# it reaches this size, which bounds its memory on a wide vocabulary.
MEMO_LIMIT = 1 << 16


@dataclass(frozen=True)
class WordLists:
    negative_modifiers: frozenset[str]
    special_phrases: tuple[str, ...]
    stopwords: frozenset[str]
    lemmas: dict[str, str]
    # token -> what preprocess emits for it, or None when it drops it (see _normalize_token)
    _tokens: dict[str, str | None] = field(default_factory=dict, init=False, repr=False, compare=False)
    # Each special phrase as a whole-word pattern, with its lowercase form when ASCII (else None), applied
    # in list order: one alternation would remove different text when phrases overlap. On ASCII text an
    # ASCII phrase matches only where its lowercase occurs in the text's lowercase, so strip_noise scans
    # for it only there. IGNORECASE also matches some non-ASCII letters to ASCII ones ("ſ" to "s", "İ" and
    # "ı" to "i", the Kelvin sign to "k"), so non-ASCII text and non-ASCII phrases are always scanned.
    _phrases: tuple[tuple[re.Pattern, str | None], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_phrases", tuple(
            (re.compile(r"\b" + re.escape(phrase) + r"\b", re.IGNORECASE), phrase.lower() if phrase.isascii() else None)
            for phrase in self.special_phrases
        ))


def default_data_dir() -> Path:
    return Path(str(resources.files("issueforge").joinpath("data")))


def load_wordlists(directory: Path | str | None = None) -> WordLists:
    """Load the bundled word lists, or the same-named files from a directory."""
    base = Path(directory) if directory is not None else default_data_dir()
    modifiers = frozenset(line.strip() for _, line in table_lines(base / "negative_modifiers.txt"))
    if len(modifiers) != 44:
        raise ValidationError(f"{base / 'negative_modifiers.txt'}: must have 44 distinct entries, "
                              f"found {len(modifiers)}")
    phrases = tuple(line.strip() for _, line in table_lines(base / "special_phrases.txt"))
    words = [line.strip() for _, line in table_lines(base / "stopwords.txt")]
    stop = frozenset(words) | {word.replace("'", "") for word in words}
    if not stop:  # with none, normalize_title would keep every word of a section title
        raise ValidationError(f"{base / 'stopwords.txt'}: no stopword")
    lemmas = _load_lemmas(base / "lemmas.txt")
    return WordLists(
        negative_modifiers=modifiers,
        special_phrases=phrases,
        stopwords=stop,
        lemmas=lemmas,
    )


_WORD = re.compile(r"[a-z]+")


def _load_lemmas(path: Path) -> dict[str, str]:
    """form -> lemma from "form<TAB>lemma" lines. Both sides must be ``[a-z]+`` words: a lemma
    lookup sees only such tokens, and ``preprocess`` emits the lemma as one."""
    raw: dict[str, str] = {}
    for lineno, line in table_lines(path):
        line = line.strip()
        # a stripped line with a tab has text on both sides of it
        form, tab, lemma = line.partition("\t")
        if not tab:
            raise ValidationError(f"{path}:{lineno}: expected form<TAB>lemma, got {line!r}")
        form, lemma = form.strip(), lemma.strip()
        if not (_WORD.fullmatch(form) and _WORD.fullmatch(lemma)):
            raise ValidationError(f"{path}:{lineno}: form and lemma must be [a-z]+ words, got {line!r}")
        raw[form] = lemma
    resolved: dict[str, str] = {}
    for form, lemma in raw.items():
        seen = {form}
        while lemma in raw and raw[lemma] != lemma and lemma not in seen:
            seen.add(lemma)
            lemma = raw[lemma]
        resolved[form] = lemma
    # identity rows for lemma values keep re-application stable
    for lemma in list(resolved.values()):
        resolved.setdefault(lemma, lemma)
    return resolved


# --- noise filtering (issue text only) -------------------------------------

_FENCED_CODE = re.compile(r"```.*?(?:```|\Z)", re.DOTALL)
_INLINE_CODE = re.compile(r"`[^`\n]*`")
_HTML_TAG = re.compile(r"<[^>\n]+>")
_CHECKLIST_LINE = re.compile(r"^[ \t]*[-*+][ \t]+\[[ xX]\][^\n]*\n?", re.MULTILINE)
# line-level heuristics for stack traces / error dumps
_STACK_FRAME_LINE = re.compile(r"^[ \t]*at[ \t]+[\w$.<>/]+\([^)\n]*\)[^\n]*\n?", re.MULTILINE)
_ERROR_MESSAGE_LINE = re.compile(r"^[ \t]*[\w.$]*(?:Exception|Error)\b[^\n]*\n?", re.MULTILINE)
_UNDERSCORE_PHRASE = re.compile(r"(?<!\w)_[^_\n]+_(?!\w)")
_URL = re.compile(r"https?://[^\s)\]>]+|\bwww\.[^\s)\]>]+")
_MENTION = re.compile(r"(?<![\w@])@[A-Za-z0-9][A-Za-z0-9-]*")
_ISSUE_REF = re.compile(r"(?<![\w&])#\d+\b")


def strip_noise(text: str, lists: WordLists) -> str:
    """Remove the enumerated noise constructs, leaving all other text intact. A construct is
    scanned for only when the text holds a literal that every match of it contains, and a
    special phrase on ASCII text only when the text's lowercase holds the phrase's."""
    if "`" in text:
        text = _FENCED_CODE.sub("", text)
        text = _INLINE_CODE.sub("", text)
    if "<" in text:
        text = _HTML_TAG.sub("", text)
    if "[" in text:
        text = _CHECKLIST_LINE.sub("", text)
    if "(" in text:
        text = _STACK_FRAME_LINE.sub("", text)
    if "Error" in text or "Exception" in text:
        text = _ERROR_MESSAGE_LINE.sub("", text)
    if "_" in text:
        text = _UNDERSCORE_PHRASE.sub("", text)
    if "http" in text or "www." in text:
        text = _URL.sub("", text)
    if "@" in text:
        text = _MENTION.sub("", text)
    if "#" in text:
        text = _ISSUE_REF.sub("", text)
    lowered = text.lower() if text.isascii() else None
    for pattern, needle in lists._phrases:
        if lowered is not None and needle is not None and needle not in lowered:
            continue
        text, removed = pattern.subn("", text)
        if removed and lowered is not None:
            lowered = text.lower()
    return text


# --- tokenization and normalization -----------------------------------------

_TOKEN = re.compile(r"[a-z0-9]+")
# tokenize() yields only [a-z0-9]+ tokens, so a token holds a digit exactly when
# it is not all letters: callers run this sub only when ``not tok.isalpha()``.
DIGITS = re.compile(r"[0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; apostrophes fuse ("don't" -> "dont")."""
    return _TOKEN.findall(text.lower().replace("'", "").replace("’", ""))


def _fuse_have_to(tokens: list[str]) -> list[str]:
    fused: list[str] = []
    for tok in tokens:
        if tok == "to" and fused and fused[-1] == "have":
            fused[-1] = FUSED_HAVE_TO
        else:
            fused.append(tok)
    return fused


def lemmatize(token: str, lists: WordLists) -> str:
    if token in lists.lemmas:
        return lists.lemmas[token]
    return stem(token)


def _normalize_token(tok: str, lists: WordLists) -> str | None:
    """The token preprocess emits for one input token, or None when it drops the token."""
    if tok == FUSED_HAVE_TO:
        return tok
    if not tok.isalpha():
        tok = DIGITS.sub("", tok)
        if not tok:
            return None
    if tok in lists.negative_modifiers:
        return "not"
    if tok in RETAINED_MODALS:
        return tok
    if tok in lists.stopwords:
        return None
    lemma = lemmatize(tok, lists)
    if lemma in lists.stopwords and lemma != "not":
        return None
    return lemma


def preprocess(text: str, lists: WordLists, *, filter_noise: bool = True) -> list[str]:
    """Run the full token pipeline. Reviews skip the noise filter (``filter_noise=False``)."""
    if filter_noise:
        text = strip_noise(text, lists)
    tokens = tokenize(text)
    if "have" in tokens:
        tokens = _fuse_have_to(tokens)
    memo = lists._tokens
    out: list[str] = []
    for tok in tokens:
        if tok not in memo:
            if len(memo) >= MEMO_LIMIT:
                memo.clear()
            memo[tok] = _normalize_token(tok, lists)
        lemma = memo[tok]
        if lemma is not None:
            out.append(lemma)
    return out


# Markers of code identifiers: a camelCase hump, a snake_case join, or a
# dotted path. The dotted pattern starts at the last ASCII letter or "_" of
# the word before the ".", so no character is scanned twice and a title of
# any length takes linear time.
_HUMP_OR_JOIN = re.compile(r"[a-z][A-Z]|\w_\w")
_DOTTED_PATH = re.compile(r"[A-Za-z_][^\WA-Za-z_]*\.[A-Za-z_]")


def has_identifier_token(text: str) -> bool:
    """Whether ``text`` holds a camelCase, snake_case or dotted.path identifier."""
    return bool(_HUMP_OR_JOIN.search(text)) or ("." in text and bool(_DOTTED_PATH.search(text)))


def admit(tokens: list[str] | tuple[str, ...], source: Source, title_raw: str | None = None) -> bool:
    """Admission rule for a processed document: enough tokens, and titles free of code identifiers."""
    if len(tokens) < MIN_DOC_TOKENS:
        return False
    if source is Source.ISSUE_TITLE and title_raw is not None and has_identifier_token(title_raw):
        return False
    return True
