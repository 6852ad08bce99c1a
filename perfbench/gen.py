"""Seeded, deterministic input generator for the issueforge benchmark.

Builds a corpus directory (``repos.jsonl``, ``issues.jsonl``), a review CSV
and the label map that adapts it, shaped like the bundled fixtures: bodies
with bold/ATX/field-label headings whose titles hit the P1-P19 patterns,
single- and multi-paragraph bodies, decoy-only bodies, and noise (code
fences, stack frames, error lines, URLs, mentions, checklists). Issue labels
are raw variants of the ``lexicon.tsv`` surfaces plus unmapped ones.

Two vocabulary modes:

* ``zipf`` -- words drawn Zipf-style from an English head (the bundled
  ``stopwords.txt`` and ``lemmas.txt`` words) followed by a long tail of
  pseudo-words;
* ``wide`` -- every title and body word is a fresh uniform pseudo-word, so
  almost no word repeats.

The same arguments always give byte-identical files. Only the standard
library's ``random.Random`` is used, whose stream is fixed for a seed.
``run.py`` calls ``generate()`` with the sizes of each workload.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "issueforge" / "data"

TAIL_WORDS = 30_000
ZIPF_EXPONENT = 1.0
ZIPF_OFFSET = 2.7  # Zipf-Mandelbrot shift: flattens the very top ranks
VOCABULARY_SEED = 20230828

# Section titles that normalize onto the bundled title patterns (P1-P19).
TARGET_TITLES = [
    "Actual behaviour", "Actual results", "What is the current behavior?", "Observed behaviour",
    "Describe the bug", "Bug description", "Describe your question in detail", "Ask your question",
    "Problem statement", "Tell us about the problem", "What problem are you trying to solve?",
    "Short description", "New feature you want", "Feature request", "Feature suggestion",
    "What feature would you like to see?", "What is this issue about?", "What happened?",
    "What is the problem?", "User problem", "Summary of issue", "Describe the issue", "Issue details",
    "User benefit", "What did you see instead?", "Is your feature request related to a problem?",
    "Description", "Summary", "Overview", "Motivation",
]
# Titles that match no pattern.
DECOY_TITLES = [
    "Steps to reproduce", "Expected behavior", "Environment", "Device information",
    "Additional context", "Screenshots", "Logs", "Checklist", "Version", "Possible solution",
]

# Raw label variants per intent; each normalizes onto a lexicon.tsv surface.
BUG_LABELS = [
    "bug", "Bug", "type: bug", "Type: Bug", "crash", "Crash", "Type: Confirmed Bug", "is: possible bug",
    "Render Bug", "bug: crash", "problem", "defect", "Defect", "error", "regression", "Regression",
    "broken", "Bug (minor)", "bug-beta", "Type: Can't Reproduce", "type: possible bug", "Bug: General",
]
FEATURE_LABELS = [
    "enhancement", "Enhancement", "type: enhancement", "Type: Enhancement", "feature", "Feature",
    "type: feature", "feature request", "Feature Request", "feature: enhancement", "improvement",
    "Improvement", "user story", "proposal", "idea", "suggestion", "nice to have", "new feature",
    "cat: enhancement",
]
OTHER_LABELS = [
    "question", "Question", "type: question", "question: answered", "faq", "FAQ", "is: faq candidate",
    "support", "usage question", "category: question",
]
# Labels with no lexicon entry.
UNMAPPED_LABELS = [
    "help wanted", "good first issue", "priority: high", "wontfix", "duplicate", "documentation",
    "dependencies", "ui", "android", "ios", "P2", "needs triage", "stale", "in progress", "kind/bug",
]

BUG_WORDS = ["crash", "freeze", "error", "broken", "fail", "stuck", "wrong", "lost", "slow", "hang"]
FEATURE_WORDS = ["add", "option", "support", "please", "wish", "allow", "setting", "export", "theme", "widget"]
OTHER_WORDS = ["love", "great", "thanks", "nice", "useful", "how", "where", "question", "help", "good"]
INTENT_WORDS = {"bug": BUG_WORDS, "feature": FEATURE_WORDS, "other": OTHER_WORDS}

# (shape, weight) of issue bodies.
BODY_SHAPES = [
    ("bold", 0.28), ("atx", 0.24), ("field", 0.08), ("single", 0.20), ("multi", 0.10),
    ("decoy", 0.06), ("empty", 0.04),
]

# (label name in the review CSV, mapped intent or "drop", weight)
REVIEW_LABELS = [
    ("bug report", "bug", 0.33), ("feature request", "feature", 0.24), ("praise", "other", 0.22),
    ("question", "other", 0.13), ("spam", "drop", 0.08),
]

ONSETS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
          "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr", "sh", "sl", "st", "str", "th", "tr"]
VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "io", "ou", "oo", "y"]
CODAS = ["", "", "", "n", "r", "s", "t", "l", "m", "nd", "ng", "rt", "st", "ck", "x"]
SUFFIXES = ["", "", "", "", "s", "ed", "ing", "er", "ly", "ness", "ation", "ment", "ful", "ive",
            "able", "ize", "ity", "ous", "al", "ies"]


def _read_words(name: str) -> list[str]:
    words = []
    for line in (DATA / name).read_text(encoding="utf-8").splitlines():
        words.extend(part.strip() for part in line.split("\t") if part.strip())
    return words


SYLLABLES = [onset + vowel + coda for onset in ONSETS for vowel in VOWELS for coda in CODAS]


def _pseudo_words(rng: random.Random, n: int) -> list[str]:
    """``n`` two-syllable pseudo-words with an optional English suffix."""
    syllables = rng.choices(SYLLABLES, k=2 * n)
    suffixes = rng.choices(SUFFIXES, k=n)
    return [syllables[2 * i] + syllables[2 * i + 1] + suffixes[i] for i in range(n)]


class Vocabulary:
    """Zipf-ranked head + tail, or (``wide``) fresh pseudo-words on every draw."""

    def __init__(self, rng: random.Random, mode: str):
        self.rng = rng
        self.mode = mode
        # the ranked word list is the same for every seed; only the draws depend on it
        fixed = random.Random(VOCABULARY_SEED)
        head = list(dict.fromkeys(_read_words("stopwords.txt") + _read_words("lemmas.txt")))
        fixed.shuffle(head)
        known = set(head)
        tail = [w for w in dict.fromkeys(_pseudo_words(fixed, 2 * TAIL_WORDS)) if w not in known][:TAIL_WORDS]
        self.words = head + tail
        weights = ((rank + ZIPF_OFFSET) ** -ZIPF_EXPONENT for rank in range(1, len(self.words) + 1))
        self.cum_weights = list(itertools.accumulate(weights))

    def draw(self, n: int) -> list[str]:
        if self.mode == "wide":
            return _pseudo_words(self.rng, n)
        return self.rng.choices(self.words, cum_weights=self.cum_weights, k=n)

    def sentence(self, lo: int = 6, hi: int = 14, signal: list[str] | None = None) -> str:
        words = self.draw(self.rng.randint(lo, hi))
        if signal:
            words[self.rng.randrange(len(words))] = self.rng.choice(signal)
        return " ".join(words).capitalize() + "."

    def paragraph(self, signal: list[str] | None, lo: int = 1, hi: int = 3) -> str:
        return " ".join(self.sentence(signal=signal) for _ in range(self.rng.randint(lo, hi)))


def _noise(rng: random.Random, vocab: Vocabulary) -> str:
    kind = rng.choice(("fence", "stack", "error", "url", "mention", "checklist", "inline"))
    if kind == "fence":
        return "```\n" + "\n".join(f"{w} = {rng.randint(0, 99)}" for w in vocab.draw(3)) + "\n```"
    if kind == "stack":
        return "\n".join(
            f"    at com.{w}.Main.run(Main.java:{rng.randint(1, 400)})" for w in vocab.draw(rng.randint(2, 4))
        )
    if kind == "error":
        return f"java.lang.IllegalStateException: {' '.join(vocab.draw(4))}"
    if kind == "url":
        return f"See https://example.org/{vocab.draw(1)[0]}/{rng.randint(1, 9999)} for details."
    if kind == "mention":
        return f"cc @{vocab.draw(1)[0]} and #{rng.randint(1, 5000)}"
    if kind == "checklist":
        return "- [x] I searched existing issues\n- [ ] I tried a clean install"
    return f"Calling `{vocab.draw(1)[0]}()` returns nothing."


def _section(heading: str, content: str, style: str) -> str:
    if style == "atx":
        return f"### {heading}\n\n{content}\n"
    if style == "field":
        return f"{heading.rstrip('?')}:\n{content}\n"
    return f"**{heading}**\n{content}\n"


def _body(rng: random.Random, vocab: Vocabulary, shape: str, signal: list[str] | None) -> str:
    if shape == "empty":
        return ""
    if shape == "single":
        text = vocab.paragraph(signal, 1, 4)
        if rng.random() < 0.4:
            text += " " + rng.choice(("Details at https://example.org/x.", "cc @maintainer", "Related to #12."))
        return text
    if shape == "multi":
        return "\n\n".join(vocab.paragraph(signal) for _ in range(rng.randint(2, 4)))
    style = "bold" if shape == "decoy" else shape
    decoys = rng.sample(DECOY_TITLES, 3)
    n_before = rng.randint(0, 2)
    parts = [_section(title, vocab.paragraph(None, 1, 2), style) for title in decoys[:n_before]]
    if shape != "decoy":
        content = vocab.paragraph(signal)
        if rng.random() < 0.35:
            content += "\n\n" + _noise(rng, vocab)
        parts.append(_section(rng.choice(TARGET_TITLES), content, style))
    for title in decoys[n_before:]:
        content = vocab.paragraph(None, 1, 2)
        if rng.random() < 0.25:
            content += "\n" + _noise(rng, vocab)
        parts.append(_section(title, content, style))
    return "\n".join(parts)


def _labels(rng: random.Random, intent: str | None, repo_labels: list[str]) -> list[str]:
    labels = []
    if intent == "bug":
        labels.append(rng.choice(BUG_LABELS))
    elif intent == "feature":
        labels.append(rng.choice(FEATURE_LABELS))
    elif intent == "other":
        labels.append(rng.choice(OTHER_LABELS))
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        labels.append(rng.choice(UNMAPPED_LABELS if rng.random() < 0.7 else repo_labels))
    return list(dict.fromkeys(labels))


def generate(
    out: Path | str,
    seed: int,
    n_issues: int,
    n_repos: int,
    n_reviews: int,
    vocab_mode: str,
) -> dict:
    """Write ``corpus/``, ``reviews.csv`` and ``labelmap.tsv`` under ``out``; return input statistics."""
    out = Path(out)
    corpus = out / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    vocab = Vocabulary(rng, vocab_mode)
    # the topic words behind readmes and reviews always come from the ranked list,
    # so similarity profiles and review labels carry signal in either mode
    topic_vocab = vocab if vocab_mode == "zipf" else Vocabulary(random.Random(seed + 1), "zipf")

    # repositories: ~10% fail the activity filter (one contributor, or too few labeled issues)
    n_inactive = max(1, n_repos // 10)
    clusters = [topic_vocab.draw(12) for _ in range(max(1, n_repos // 5))]
    repos = []
    for index in range(n_repos):
        name = _pseudo_words(rng, 1)[0]
        topic = clusters[index % len(clusters)] + topic_vocab.draw(6)
        features = " ".join(rng.choice(topic) for _ in range(rng.randint(12, 24)))
        readme = (
            f"# {name.capitalize()}\n\n{topic_vocab.sentence()}\n\n## Features\n\n{features}.\n\n"
            f"## Install\n\nDownload the latest release and run the installer.\n"
        )
        repos.append(
            {
                "repo_id": f"r{index:03d}-{name}",
                "full_name": f"org{index % 7}/{name}",
                "contributors": 1 if index < (n_inactive + 1) // 2 else rng.randint(2, 40),
                "stars": rng.randint(0, 5000),
                "readme_text": readme,
                "about_text": " ".join(rng.choice(topic) for _ in range(8)),
            }
        )
    small = {repo["repo_id"] for repo in repos[(n_inactive + 1) // 2 : n_inactive]}
    big = [repo["repo_id"] for repo in repos if repo["repo_id"] not in small]
    repo_weights = [rng.uniform(0.7, 1.3) for _ in big]
    repo_labels = {repo["repo_id"]: [f"area: {_pseudo_words(rng, 1)[0]}" for _ in range(3)] for repo in repos}

    n_small = 20 * len(small)
    owners = sorted(small) * 20 + rng.choices(big, weights=repo_weights, k=max(n_issues - n_small, 0))
    shape_names = [name for name, _ in BODY_SHAPES]
    shape_weights = [weight for _, weight in BODY_SHAPES]
    shapes: Counter = Counter()
    issues = []
    for index, repo_id in enumerate(owners[:n_issues]):
        intent = rng.choices(("bug", "feature", "other", None), weights=(0.45, 0.32, 0.13, 0.10))[0]
        signal = INTENT_WORDS.get(intent)
        shape = rng.choices(shape_names, weights=shape_weights)[0]
        shapes[shape] += 1
        title = vocab.sentence(3, 9, signal).rstrip(".")
        if rng.random() < 0.05:
            title += f" in {vocab.draw(1)[0]}_{vocab.draw(1)[0]}"  # identifier: title not admitted
        issues.append(
            {
                "issue_id": f"i{index:06d}",
                "repo_id": repo_id,
                "title": title,
                "body": _body(rng, vocab, shape, signal),
                "labels": _labels(rng, intent, repo_labels[repo_id]),
                "created_at": f"2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T{rng.randint(0, 23):02d}:00:00Z",
            }
        )

    for name, rows in (("repos.jsonl", repos), ("issues.jsonl", issues)):
        with (corpus / name).open("w", encoding="utf-8", newline="\n") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")

    with (out / "labelmap.tsv").open("w", encoding="utf-8", newline="\n") as handle:
        for label, target, _ in REVIEW_LABELS:
            handle.write(f"{label}\t{target}\n")
    review_apps = [repo["repo_id"] for repo in repos[n_inactive:]]
    # augmentation targets the busiest active repository
    active_repo = max((w, r) for w, r in zip(repo_weights, big) if r in review_apps)[1]
    with (out / "reviews.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["text", "label", "app_id"])
        for _ in range(n_reviews):
            label, target, _ = rng.choices(REVIEW_LABELS, weights=[w for _, _, w in REVIEW_LABELS])[0]
            words = topic_vocab.draw(rng.randint(2, 16))
            for _ in range(rng.randint(0, 2)):
                words.insert(rng.randrange(len(words) + 1), rng.choice(INTENT_WORDS.get(target, OTHER_WORDS)))
            if rng.random() < 0.15:  # label noise keeps the classifier off the ceiling
                words.insert(0, rng.choice(rng.choice(list(INTENT_WORDS.values()))))
            writer.writerow([" ".join(words), label, rng.choice(review_apps)])

    return {
        "issues": len(issues),
        "repos": len(repos),
        "reviews": n_reviews,
        "vocab": vocab_mode,
        "active_repo": active_repo,
        "body_shapes": {name: round(shapes[name] / max(len(issues), 1), 4) for name in shape_names},
    }

