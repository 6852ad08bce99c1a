#!/usr/bin/env python3
"""Regenerate the fixture data (the bundled demo corpus and synthetic recall
corpus, and the tests' extraction gold set) and verify their intended properties.

Deterministic: running it twice produces byte-identical files.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

DATA = ROOT / "src" / "issueforge" / "data"

from issueforge import augmentation, classifier, extraction, textprep  # noqa: E402
from issueforge.labels import IntentClass  # noqa: E402

from extraction_gold import GOLD_FIXTURE, load_gold, score  # noqa: E402


def jsonl(rows: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# demo corpus
# ---------------------------------------------------------------------------

BUG_BODY = """**Describe the bug**
{text}

**To Reproduce**
Steps to reproduce the behavior
1. Open the app
2. {step}

**Expected behavior**
It should keep working without any hiccups.
"""

BUG_BODY_ATX = """### Steps to reproduce

1. Open the {noun} screen
2. {step}

### Actual behaviour

{text}

### Expected behaviour

Everything keeps working.
"""

FEATURE_BODY = """**Is your feature request related to a problem?**
{text}

**Describe alternatives you've considered**
Living with it, which is getting old.
"""

FEATURE_BODY_ATX = """### What feature would you like to see?

{text}

### Additional context

Several people asked for this on the forum.
"""

QUESTION_BODY = """### Ask your question

{text}
"""

PLAIN_BODY = "{text}"


def demo_corpus() -> None:
    repos = [
        {
            "repo_id": "r-podkit",
            "full_name": "demo/podkit",
            "contributors": 6,
            "stars": 840,
            "readme_text": (
                "# PodKit\n\nA podcast player and manager for phones.\n\n"
                "## Features\n\nSubscribe to podcast feeds, download episodes for offline "
                "playback, variable speed audio player, sleep timer, queue management.\n\n"
                "## Install\n\nGrab the apk from the releases page.\n"
            ),
            "about_text": "Podcast player with offline episode downloads and playback queue.",
        },
        {
            "repo_id": "r-audiocast",
            "full_name": "demo/audiocast",
            "contributors": 4,
            "stars": 310,
            "readme_text": (
                "# AudioCast\n\nLightweight podcast and audiobook player.\n\n"
                "## Overview\n\nPlay podcast episodes and audiobooks, manage a download "
                "queue, stream audio over the network, chapter support.\n\n"
                "## License\n\nGPLv3.\n"
            ),
            "about_text": "Podcast and audiobook playback app with download queue.",
        },
        {
            "repo_id": "r-notely",
            "full_name": "demo/notely",
            "contributors": 3,
            "stars": 120,
            "readme_text": (
                "# Notely\n\nPlain text notes, synced.\n\n"
                "## Description\n\nWrite notes in markdown, organize notebooks with tags, "
                "sync notes between devices over webdav.\n"
            ),
            "about_text": "Markdown note taking app with tag organization and sync.",
        },
        {
            "repo_id": "r-mapgo",
            "full_name": "demo/mapgo",
            "contributors": 5,
            "stars": 450,
            "readme_text": (
                "# MapGo\n\nOffline maps and navigation.\n\n"
                "## What it does\n\nDownload map regions, plan routes, turn by turn "
                "navigation, search for places offline.\n"
            ),
            "about_text": "Offline navigation app with downloadable map regions.",
        },
        {
            "repo_id": "r-lowact",
            "full_name": "demo/lowact",
            "contributors": 1,
            "stars": 3,
            "readme_text": "# LowAct\n\nAbandoned experiment.\n",
            "about_text": None,
        },
    ]

    bug_rows = [
        ("the player crashes when I rotate the phone during playback", "Rotate the phone"),
        ("downloads freeze at 99 percent and never finish", "Download any episode"),
        ("the app closes itself when resuming from the lock screen", "Lock and unlock the phone"),
        ("queue order gets scrambled after syncing", "Sync the queue"),
        ("sleep timer keeps playing past the configured time", "Set a sleep timer"),
        ("cover art disappears after clearing the cache", "Clear the cache"),
        ("search results crash the app when the query has emoji", "Search with emoji"),
        ("notes lose their tags after the latest update", "Edit any tagged note"),
        ("sync deletes the newest note instead of uploading it", "Sync twice in a row"),
        ("navigation voice cuts out in the middle of directions", "Start any route"),
        ("offline maps fail to load after the region update", "Open a downloaded region"),
        ("route planner freezes when adding a third stop", "Add three stops"),
    ]
    feature_rows = [
        "it would be great to have chapter marks in the player",
        "please add a dark theme for night listening",
        "support importing opml subscription lists",
        "add an option to skip intro seconds per podcast",
        "notebooks should support nested folders",
        "a widget for quick notes would help a lot",
        "could you add cycling profiles to the route planner",
        "let me pin favorite places on the map home screen",
    ]
    question_rows = [
        "how do I move my library to a new phone",
        "is there a way to back up my notes automatically",
        "where are downloaded map regions stored on disk",
        "can I sync over my own server instead of the cloud",
    ]

    repo_cycle = ["r-podkit", "r-audiocast", "r-notely", "r-mapgo"]
    issues = []
    counter = 1

    def add_issue(repo_id: str, title: str, body: str, labels: list[str]):
        nonlocal counter
        issues.append(
            {
                "issue_id": f"i{counter:04d}",
                "repo_id": repo_id,
                "title": title,
                "body": body,
                "labels": labels,
                "created_at": f"2023-01-{(counter % 27) + 1:02d}T10:00:00Z",
            }
        )
        counter += 1

    rng = random.Random(42)
    bug_labels = [["bug"], ["Bug"], ["type: bug"], ["crash"], ["bug", "help wanted"]]
    feature_labels = [["enhancement"], ["feature request"], ["Feature"], ["type: enhancement"]]
    question_labels = [["question"], ["Question"], ["type: question"]]

    for index, (text, step) in enumerate(bug_rows):
        repo = repo_cycle[index % 4]
        body_tpl = BUG_BODY if index % 2 == 0 else BUG_BODY_ATX
        body = body_tpl.format(text=text.capitalize() + ".", step=step, noun="main")
        add_issue(repo, f"{text[:40].capitalize()}", body, bug_labels[index % len(bug_labels)])
    for index, text in enumerate(feature_rows):
        repo = repo_cycle[index % 4]
        body_tpl = FEATURE_BODY if index % 2 == 0 else FEATURE_BODY_ATX
        body = body_tpl.format(text=text.capitalize() + ".")
        add_issue(repo, f"{text[:40].capitalize()}", body, feature_labels[index % len(feature_labels)])
    for index, text in enumerate(question_rows):
        repo = repo_cycle[index % 4]
        add_issue(repo, f"{text[:40].capitalize()}?", QUESTION_BODY.format(text=text.capitalize() + "?"), question_labels[index % len(question_labels)])
    # single paragraph, unstructured
    for index, (text, _) in enumerate(bug_rows[:6]):
        repo = repo_cycle[(index + 1) % 4]
        add_issue(repo, f"Problem with {text.split()[0]}", PLAIN_BODY.format(text=text.capitalize() + ". Happens every single time."), [["bug"], ["crash"]][index % 2])
    # labeled but unextractable: unstructured multi-paragraph technical writeups
    multi_para = (
        "The scheduler wakes up every thirty seconds even when idle.\n\n"
        "Profiling shows the alarm is re-registered on every tick.\n\n"
        "That path should be reached once per session only."
    )
    for index in range(3):
        repo = repo_cycle[index % 4]
        add_issue(repo, f"Background wakeups {index + 1}", multi_para, ["bug"])
    # extractable but below the admission minimum
    add_issue("r-notely", "Crashes constantly", "Crashes constantly.", ["crash"])
    # unrelated labels, dropped by intent assignment
    for index in range(4):
        repo = repo_cycle[index % 4]
        add_issue(repo, "Internal housekeeping", "Refactor the build scripts.\n\nSplit the gradle files.", [["priority: high"], ["wontfix"], ["documentation"], ["good first issue"]][index])
    # low-activity repo: below every filter threshold
    add_issue("r-lowact", "Old crash", "Crashes on start.", ["bug"])
    add_issue("r-lowact", "Stale", "", [])

    out = DATA / "demo_corpus"
    jsonl(repos, out / "repos.jsonl")
    jsonl(issues, out / "issues.jsonl")

    reviews = []
    review_bug = [
        "app crashes every time I rotate my phone",
        "keeps freezing when I open the downloads tab",
        "latest update broke playback entirely",
        "crashes on startup after the update",
        "sync fails and deletes my notes",
        "the map screen goes black and the app closes",
        "player stops working when a call comes in",
        "widget crashes the launcher constantly",
        "cannot download episodes anymore always an error",
        "app freezes for ten seconds when searching",
        "notifications crash the app when tapped",
        "import hangs forever and I lose my list",
    ]
    review_feature = [
        "please add a dark mode for night use",
        "would love chapter support in the player",
        "wish there was a sleep timer with fade out",
        "add folders for organizing my notes please",
        "let us import subscriptions from other apps",
        "route planner should support bike paths",
        "give us an option to back up settings",
        "a tablet layout would be really nice",
    ]
    review_other = [
        "great app I use it every single day",
        "love the clean interface and simple design",
        "how do I move my data to a new phone",
        "works fine on my device good job team",
        "decent player but nothing special honestly",
        "been using this for years still solid",
        "the developer responds quickly to feedback",
        "does exactly what it promises nothing more",
        "where can I find the user manual",
        "pretty good overall would recommend to friends",
    ]
    apps = ["r-podkit", "r-audiocast", "r-notely", "r-mapgo"]
    for index, text in enumerate(review_bug * 2):
        reviews.append((text, "bug", apps[index % 4]))
    for index, text in enumerate(review_feature * 2):
        reviews.append((text, "feature", apps[index % 4]))
    for index, text in enumerate(review_other * 2):
        reviews.append((text, "other", apps[index % 4]))
    rng.shuffle(reviews)
    with (out / "primary_demo.csv").open("w", encoding="utf-8") as handle:
        handle.write("text,label,app_id\n")
        for text, label, app in reviews:
            handle.write(f"{text},{label},{app}\n")

    (out / "labelmap_demo.tsv").write_text("bug\tbug\nfeature\tfeature\nother\tother\n", encoding="utf-8")

    config = {
        "seed": 7,
        "corpus_dir": ".",
        "primary_csv": "primary_demo.csv",
        "label_map": "labelmap_demo.tsv",
        "min_labeled_issues": 5,
        "min_contributors": 2,
        "min_label_frequency": 1,
        "method": "between-app",
        "ratio": 0.3,
        "folds": 5,
    }
    (out / "demo_config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"demo corpus: {len(repos)} repos, {len(issues)} issues, {len(reviews)} reviews")


# ---------------------------------------------------------------------------
# extraction gold fixture (100 annotated issues)
# ---------------------------------------------------------------------------

TARGET_SECTIONS = [
    "### Actual behaviour",
    "### Actual results",
    "**What is the current behavior?**",
    "**Describe the bug**",
    "### Describe your question in detail",
    "**Ask your question**",
    "### Problem statement",
    "**Tell us about the problem**",
    "### Problem you are trying to solve",
    "Short description:",
    "**Describe the feature you want**",
    "### Feature request",
    "### What feature would you like to see?",
    "**What is this issue about?**",
    "### What happened?",
    "### What is the problem?",
    "User problem:",
    "**Summary of issue**",
    "### Bug explanation",
    "**Describe the issue**",
    "### Issue details",
    "User benefit:",
    "### What did you see instead?",
    "**Is your feature request related to a problem?**",
    "### Description",
    "**Summary**",
    "### Overview",
    "### Motivation",
]

DECOY_SECTIONS = [
    ("### Steps to reproduce", "1. Open the app\n2. Tap the first item\n3. Wait a few seconds"),
    ("**Expected behavior**", "The list keeps scrolling smoothly."),
    ("### Environment", "- Device Pixel 6\n- OS Android 13\n- App version 2.4.1"),
    ("**Device information**", "Samsung Galaxy S21, stock firmware."),
    ("### Additional context", "This started after the spring update."),
    ("### Screenshots", "See the attached images."),
    ("**Logs**", "```\n12:01 starting session\n12:02 session aborted\n```"),
    ("### Checklist", "- [x] I searched for duplicates\n- [ ] I tried a clean install"),
    ("### Version", "2.4.1 from the store."),
]

TARGET_TEXTS = [
    "The player stops as soon as the screen turns off, even with background playback enabled in the settings.",
    "Scrolling the episode list stutters badly and sometimes the whole app stops responding for a few seconds.",
    "After the last update every download fails at the very end with a storage message, although there is plenty of space left.",
    "The app shows a blank page instead of my library whenever I come back from another app.",
    "Search never returns anything for podcasts with accented names, the spinner just keeps going forever.",
    "Whenever I rotate the phone during playback the audio restarts from the beginning of the episode.",
    "The widget shows stale information until I open the app, which defeats the point of a widget.",
    "Importing my subscriptions silently drops every feed that needs authentication.",
    "The sleep timer ignores the chosen duration and stops the audio after one minute.",
    "My notes lose their formatting when I sync them across two phones.",
    "It would help to have a per podcast playback speed instead of one global slider.",
    "Please consider an export to plain files so I can back up my data without the cloud.",
    "A compact layout for small screens would make the queue usable one handed.",
    "I would love an option to auto delete finished episodes after a week.",
    "Let users reorder the bottom navigation tabs to match how they actually use the app.",
    "Could the router planning consider elevation so bike routes avoid steep climbs.",
    "How can I move everything to a new device without losing my listening history.",
    "Is there a supported way to run the sync against my own server.",
    "What does the orange dot next to an episode actually mean.",
    "The night theme keeps switching back to light after a restart, which hurts in the dark.",
    "Pinch to zoom stops working after opening the route overview once.",
    "Voice navigation speaks street names in the wrong language half of the time.",
]

SINGLE_PARAGRAPHS = [
    "App crashes when rotating the screen while a video plays, every single time on my device.",
    "Since yesterday the login button does nothing, I tap it and nothing happens at all.",
    "Playback speed resets to normal after every episode which is really annoying on long commutes.",
    "Would be nice to have a button to mark everything as played in one go.",
    "The app drains the battery like crazy even when I am not using it.",
    "Episodes keep redownloading themselves and eating my mobile data.",
    "Please let me hide podcasts I finished, the list is getting unmanageable.",
    "Offline search finds nothing even for places I can see on the downloaded map.",
    "The backup file it creates is always empty, zero bytes, tried three times.",
    "Adding a note from the share menu cuts off everything after the first line.",
    "Sound keeps playing out of the phone speaker even with headphones connected.",
    "The app logs me out every few days and I have to set everything up again.",
]

MULTI_PARAGRAPHS = [
    (
        "The sync engine has been rewritten in version 3 and since then conflicts are resolved by last write wins.\n\n"
        "That means edits from my tablet silently overwrite newer edits from my phone whenever the tablet comes online later.\n\n"
        "I dug through the logs and the vector clocks are never compared, the timestamp is used directly."
    ),
    (
        "I want to propose a plugin interface for custom audio effects.\n\n"
        "The current pipeline hardcodes the equalizer, so anything else requires forking the whole project.\n\n"
        "A small registration hook would be enough for most use cases."
    ),
    (
        "Navigation rerouting takes upwards of thirty seconds on longer routes.\n\n"
        "Profiling shows the whole graph is rebuilt instead of patching the affected edges.\n\n"
        "Happy to contribute a fix if the approach sounds right."
    ),
    (
        "There are three separate settings screens and each one has its own search toggle.\n\n"
        "They interact in confusing ways and two of them reset on restart.\n\n"
        "Consolidating them would avoid a whole class of bug reports."
    ),
]

UNCOMMON_TITLE_SECTIONS = [
    ("### Current situation", "The export button has been greyed out since the storage permission change."),
    ("### Bug info", "Opening a shared link brings up an empty player with no controls."),
    ("### What went wrong", "The queue reshuffles itself after every app restart."),
    ("### Defect description", "Bookmarks vanish when the app updates in the background."),
    ("### Observed issue", "The map tiles flicker between zoom levels on older devices."),
    ("### Report", "Streaming over mobile data stops after exactly ten minutes."),
]


def extraction_gold() -> None:
    lists = textprep.load_wordlists()
    patterns = extraction.load_patterns()
    rng = random.Random(1234)
    rows: list[dict] = []
    counter = 1

    def add(body: str, gold: str | None, title: str = "Fixture issue"):
        nonlocal counter
        rows.append(
            {
                "issue_id": f"g{counter:04d}",
                "repo_id": "fixture",
                "title": title,
                "body": body,
                "labels": ["bug"],
                "created_at": "2023-03-01T00:00:00Z",
                "gold_text": gold,
            }
        )
        counter += 1

    # 57 structured issues whose target section should be extracted
    for index in range(57):
        title = TARGET_SECTIONS[index % len(TARGET_SECTIONS)]
        text = TARGET_TEXTS[index % len(TARGET_TEXTS)]
        parts: list[str] = []
        n_before = index % 3  # 0, 1 or 2 decoy sections before the target
        decoys = rng.sample(DECOY_SECTIONS, 3)
        for decoy_title, decoy_content in decoys[:n_before]:
            parts.append(f"{decoy_title}\n{decoy_content}\n")
        parts.append(f"{title}\n{text}\n")
        for decoy_title, decoy_content in decoys[n_before:]:
            parts.append(f"{decoy_title}\n{decoy_content}\n")
        add("\n".join(parts), text)

    # 17 unstructured single-paragraph issues taken whole
    for index in range(17):
        text = SINGLE_PARAGRAPHS[index % len(SINGLE_PARAGRAPHS)]
        add(text, text)

    # 10 unstructured multi-paragraph issues: correctly skipped
    for index in range(10):
        add(MULTI_PARAGRAPHS[index % len(MULTI_PARAGRAPHS)], None)

    # 4 structured issues with only non-target sections: correctly skipped
    for index in range(4):
        decoys = rng.sample(DECOY_SECTIONS, 3)
        body = "\n".join(f"{t}\n{c}\n" for t, c in decoys)
        add(body, None)

    # 12 annotated-but-missed issues: uncommon titles (6), review-like text
    # hidden in multi-paragraph bodies (4), and boilerplate-first bodies where
    # the annotator wanted the later section (2). These model the failure
    # modes a manual audit finds.
    for title, content in UNCOMMON_TITLE_SECTIONS:
        body = f"{title}\n{content}\n\n### Extra notes\nMore detail on request.\n"
        add(body, content)
    for index in range(4):
        wanted = SINGLE_PARAGRAPHS[(index + 5) % len(SINGLE_PARAGRAPHS)]
        body = wanted + "\n\nEdit: adding my device details below.\n\nPixel 7, latest firmware, reproduced five times."
        add(body, wanted)
    for index in range(2):
        wanted = TARGET_TEXTS[(index + 7) % len(TARGET_TEXTS)]
        body = (
            "### Description\nAuto generated from the in-app reporter.\n\n"
            f"### Actual behaviour\n{wanted}\n"
        )
        add(body, wanted)

    assert len(rows) == 100, len(rows)
    jsonl(rows, GOLD_FIXTURE)

    report = score(load_gold(), patterns, lists)
    print(
        f"extraction gold: accuracy={report['accuracy']:.2f} "
        f"(correct={report['correct']} wrong={report['wrong_section']} "
        f"missed={report['missed']} spurious={report['spurious']})"
    )
    assert report["accuracy"] >= 0.82, report


# ---------------------------------------------------------------------------
# synthetic recall corpus
# ---------------------------------------------------------------------------

FILLER = ["screen", "update", "phone", "version", "time", "button", "menu", "list", "page", "setting"]
VOCAB_A = ["crash", "freeze", "error", "restart", "broken"]
VOCAB_B = ["flicker", "glitch", "strobe"]
VOCAB_OTHER = ["love", "great", "nice", "clean", "simple", "fast", "solid", "helpful"]
VOCAB_FEATURE = ["add", "option", "support", "theme", "export", "folder", "widget", "shortcut"]


def synthetic_recall() -> None:
    rng = random.Random(99)
    out = DATA / "synthetic_recall"
    out.mkdir(parents=True, exist_ok=True)

    def sentence(core: list[str]) -> str:
        words = list(core) + rng.sample(FILLER, 3)
        rng.shuffle(words)
        return "the app " + " ".join(words)

    rows: list[tuple[str, str]] = []
    for _ in range(28):  # bug positives, common vocabulary
        rows.append((sentence(rng.sample(VOCAB_A, 2)), "bug"))
    for _ in range(12):  # bug positives, rare subtype vocabulary
        rows.append((sentence(rng.sample(VOCAB_B, 2)), "bug"))
    for _ in range(18):  # same-template negatives: the subtype is net-negative
        rows.append((sentence(rng.sample(VOCAB_B, 2)), "other"))  # in the primary alone
    for _ in range(20):  # feature positives
        rows.append((sentence(rng.sample(VOCAB_FEATURE, 2)), "feature"))
    for _ in range(22):  # plain negatives
        rows.append((sentence(rng.sample(VOCAB_OTHER, 2)), "other"))
    rng.shuffle(rows)
    with (out / "primary.csv").open("w", encoding="utf-8") as handle:
        handle.write("text,label\n")
        for text, label in rows:
            handle.write(f"{text},{label}\n")

    pool_rows = []
    for index in range(45):  # auxiliary bug issues dominated by the rare subtype
        tokens = rng.sample(VOCAB_B, 2) + rng.sample(FILLER, 2) + ["app"]
        rng.shuffle(tokens)
        pool_rows.append(
            {
                "doc_id": f"aux{index:03d}:body",
                "source": "issue_body",
                "app_id": f"app-{index % 5}",
                "tokens": tokens,
                "intents": ["bug"],
            }
        )
    for index in range(15):
        tokens = rng.sample(VOCAB_A, 2) + rng.sample(FILLER, 2) + ["app"]
        rng.shuffle(tokens)
        pool_rows.append(
            {
                "doc_id": f"aux{index + 45:03d}:body",
                "source": "issue_body",
                "app_id": f"app-{index % 5}",
                "tokens": tokens,
                "intents": ["bug"],
            }
        )
    jsonl(pool_rows, out / "pool.jsonl")

    # verify the designed recall gap holds for five seeds
    lists = textprep.load_wordlists()
    label_map = {"bug": IntentClass.BUG_REPORT, "feature": IntentClass.FEATURE_REQUEST, "other": IntentClass.OTHER}
    primary = augmentation.load_primary(out / "primary.csv", label_map, lists)
    pool = augmentation.load_docs(out / "pool.jsonl")
    gaps = []
    for seed in range(5):
        spec = augmentation.AugmentationSpec(method=augmentation.Method.BETWEEN_APP, ratio=0.3, seed=seed)
        dataset = augmentation.augment(primary, pool, spec)
        baseline = classifier.cross_validate(primary, IntentClass.BUG_REPORT, seed=seed)
        augmented = classifier.cross_validate(dataset.rows, IntentClass.BUG_REPORT, seed=seed)
        print(
            f"  seed={seed} baseline R={baseline.means['recall']:.2f} P={baseline.means['precision']:.2f}"
            f" | augmented R={augmented.means['recall']:.2f} P={augmented.means['precision']:.2f}"
        )
        assert 0.05 < baseline.means["recall"] < 0.95, "baseline must be a working, non-saturated model"
        assert augmented.means["precision"] > 0.5, "augmented model must not be an all-positive predictor"
        gaps.append(augmented.means["recall"] - baseline.means["recall"])
    print("synthetic recall gaps by seed:", [f"{g:.3f}" for g in gaps])
    assert min(gaps) >= 0.15, gaps


if __name__ == "__main__":
    demo_corpus()
    extraction_gold()
    synthetic_recall()
    print("fixtures written to", DATA, "and", GOLD_FIXTURE.parent)
