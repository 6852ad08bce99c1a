"""Issue-label normalization and intent assignment.

Raw label strings are reduced to a canonical lowercase stemmed surface form
("Type: Enhancement" -> "type enhanc"), then mapped to intent classes through
a curated lexicon. Negated phrases collapse to a single "not" token so that
variants like "can't reproduce" and "could not reproduce" unify.

A surface's frequency is the number of issues that carry it, each counted once
however many of its labels share the surface (see ``assign_intents``).
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from pathlib import Path

from .errors import ValidationError
from .ingestion import Corpus, table_lines
from .stemmer import stem
from .textprep import WordLists, default_data_dir


class IntentClass(str, Enum):
    BUG_REPORT = "bug"
    FEATURE_REQUEST = "feature"
    OTHER = "other"


# an intent's value -> its member: a dict lookup costs less than calling IntentClass
INTENT_OF = {i.value: i for i in IntentClass}
INTENT_VALUES = frozenset(INTENT_OF)


_NON_LETTER = re.compile(r"[^a-z ]+")
_APOSTROPHES = re.compile(r"['’]")


def normalize_label(raw: str, lists: WordLists) -> str:
    """Normalize one raw label to its surface form; may return "" (caller discards)."""
    text = raw.lower()
    text = _APOSTROPHES.sub("", text)
    text = text.encode("ascii", errors="ignore").decode("ascii")
    text = _NON_LETTER.sub(" ", text)
    # short tokens go after stemming, so a stem of one letter ("oed" -> "o") goes too
    tokens = [tok for tok in map(stem, text.split()) if len(tok) > 1]
    tokens = ["not" if tok in lists.negative_modifiers else tok for tok in tokens]
    tokens = _collapse_negations(tokens, lists.negative_modifiers)
    return " ".join(tokens)


def _collapse_negations(tokens: list[str], modifiers: frozenset[str]) -> list[str]:
    """Fold "<aux> not" pairs whose contracted form is a known modifier
    (could+not ~ couldnt), and runs of "not", into a single "not"."""
    out: list[str] = []
    for tok in tokens:
        if tok == "not" and out:
            prev = out[-1]
            if prev == "not":
                continue
            if prev + "n" in modifiers or prev + "nt" in modifiers or prev + "not" in modifiers:
                out[-1] = "not"
                continue
        out.append(tok)
    return out


def _surfaces(corpus: Corpus, lists: WordLists) -> dict[str, str]:
    """Map each distinct raw label string in the corpus to its surface form."""
    surfaces: dict[str, str] = {}
    for issue in corpus.issues:
        for raw in issue.label_names:
            if raw not in surfaces:
                surfaces[raw] = normalize_label(raw, lists)
    return surfaces


def load_lexicon(path: Path | str | None, lists: WordLists) -> dict[str, IntentClass]:
    """Read a "surface<TAB>class" lexicon file, the bundled one by default, into surface -> class. The file
    needs one entry at least, and each surface must be its own normalized form."""
    path = default_data_dir() / "lexicon.tsv" if path is None else path
    entries: dict[str, IntentClass] = {}
    for lineno, line in table_lines(path):
        surface, _, class_name = line.strip().partition("\t")
        surface = surface.strip()
        try:
            intent = IntentClass(class_name.strip())
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: unknown intent class {class_name.strip()!r}")
        if (normalized := normalize_label(surface, lists)) != surface:
            raise ValidationError(f"{path}:{lineno}: lexicon key {surface!r} is not in normalized surface form "
                                  f"(normalizes to {normalized!r})")
        if surface in entries and entries[surface] is not intent:
            raise ValidationError(f"{path}:{lineno}: surface {surface!r} mapped to more than one class")
        entries[surface] = intent
    if not entries:
        raise ValidationError(f"{path}: no lexicon entry")
    return entries


def assign_intents(
    corpus: Corpus,
    lexicon: dict[str, IntentClass],
    lists: WordLists,
    min_label_frequency: int = 11,
) -> dict[str, frozenset[IntentClass]]:
    """Map issue_id -> intent classes through ``lexicon`` (surface -> class). Issues matching
    no lexicon entry (or only entries rarer than ``min_label_frequency``) are unrelated and
    omitted. The lexicon is taken as valid: ``load_lexicon`` has checked its keys."""
    surfaces = _surfaces(corpus, lists)
    # load_corpus rejects a duplicate issue_id, so counting issues counts distinct ids
    frequency = Counter(surface for issue in corpus.issues
                        for surface in {surfaces[raw] for raw in issue.label_names} if surface)
    assigned: dict[str, frozenset[IntentClass]] = {}
    for issue in corpus.issues:
        intents = set()
        for raw in issue.label_names:
            surface = surfaces[raw]
            if not surface or surface not in lexicon:
                continue
            if frequency[surface] < min_label_frequency:
                continue
            intents.add(lexicon[surface])
        if intents:
            assigned[issue.issue_id] = frozenset(intents)
    return assigned
