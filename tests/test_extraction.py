import re
import shutil
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from issueforge import extraction
from issueforge.errors import ValidationError
from issueforge.extraction import (
    extract,
    load_patterns,
    normalize_title,
)
from issueforge.ingestion import RawIssue, RepoRecord, SchemaViolation
from issueforge.similarity import PROFILE_SECTION_TITLES, profile_text
from issueforge.textprep import default_data_dir, load_wordlists, strip_noise

from extraction_gold import load_gold, score
from title_examples import DESIGNATED_TITLES, NEGATIVE_TITLES


def make_issue(body: str, issue_id: str = "i1", title: str = "some issue") -> RawIssue:
    return RawIssue(
        issue_id=issue_id,
        repo_id="r1",
        title=title,
        body=body,
        label_names=("bug",),
        created_at="2023-01-01T00:00:00Z",
    )


def make_repo(readme: str) -> RepoRecord:
    return RepoRecord(repo_id="r1", full_name="o/r1", contributors=2, stars=0, readme_text=readme)


# --- oracle: the per-line splitter and the section matcher, without pre-check or memos ---

@dataclass(frozen=True)
class Section:
    raw_title: str
    normalized_title: str
    content: str
    order: int


def _oracle_titled_lines(body):
    """(lines, (line index, raw title) of each titled line): every line parsed."""
    lines = body.splitlines()
    in_fence = False
    titles = []
    for idx, line in enumerate(lines):
        if extraction._FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        title = extraction._title_of_line(line)
        if title is not None:
            titles.append((idx, title))
    return lines, titles


def _oracle_split(body, lists):
    """(preamble, sections): every line parsed, every title normalized afresh."""
    lines, titles = _oracle_titled_lines(body)
    if not titles:
        return body, []
    preamble = "\n".join(lines[: titles[0][0]])
    sections = []
    for order, (start, raw_title) in enumerate(titles):
        end = titles[order + 1][0] if order + 1 < len(titles) else len(lines)
        content = "\n".join(lines[start + 1 : end]).strip("\n")
        sections.append(Section(raw_title, normalize_title(raw_title, lists), content, order))
    return preamble, sections


def _oracle_profile_text(readme, lists):
    """A ReadMe's profile text from the oracle's sections: the preamble and every description-like section."""
    preamble, sections = _oracle_split(readme, lists)
    wanted = {normalize_title(title, lists) for title in PROFILE_SECTION_TITLES}
    parts = [preamble] if preamble.strip() else []
    parts += [s.content for s in sections if s.normalized_title in wanted and s.content.strip()]
    return "\n".join(parts)


def split_sections(body, lists):
    return _oracle_split(body, lists)[1]


def match_target(sections, patterns):
    """First section (in body order) whose normalized title matches any pattern."""
    for section in sections:
        for pattern in patterns:
            if pattern.regex.search(section.normalized_title):
                return section, pattern.name
    return None


def _oracle_extract(issue, patterns, lists):
    sections = split_sections(issue.body, lists)
    if sections:
        matched = match_target(sections, patterns)
        if matched is None:
            return None
        section, name = matched
        text = section.content.strip()
        if not text:
            return None
        return text, name
    paragraphs = extraction._paragraphs(strip_noise(issue.body, lists))
    if len(paragraphs) != 1 or not paragraphs[0].strip():
        return None
    return paragraphs[0].strip(), None


# --- title normalization --------------------------------------------------------------

def test_normalize_title_keeps_flip_words(lists):
    assert normalize_title("What should happen", lists) == "what should happen"
    assert normalize_title("What is this issue about?", lists) == "what issu about"


def test_normalize_title_strips_and_stems(lists):
    assert normalize_title("Actual behaviour after performing these steps", lists) == (
        "actual behaviour perform step"
    )


# --- section splitting ------------------------------------------------------------------

def test_bold_line_title(lists):
    sections = split_sections("**Describe the bug**\nRotating crashes", lists)
    assert len(sections) == 1
    assert sections[0].raw_title == "Describe the bug"
    assert sections[0].content == "Rotating crashes"


def test_no_headings_means_no_sections(lists):
    assert split_sections("just a paragraph of text\nwith two lines", lists) == []


def test_heading_inside_code_fence_ignored(lists):
    body = "### One\nalpha\n```\n### Not a title\ncode\n```\n### Two\nbeta\n### Three\ngamma"
    sections = split_sections(body, lists)
    assert [s.raw_title for s in sections] == ["One", "Two", "Three"]
    assert "### Not a title" in sections[0].content


def test_field_label_title(lists):
    sections = split_sections("Actual behaviour:\nThe app closes immediately.", lists)
    assert len(sections) == 1
    assert sections[0].raw_title == "Actual behaviour"


def test_long_colon_sentence_is_not_a_title(lists):
    body = "This is a very long sentence that happens to end with a colon and keeps going on:\ncontent"
    assert split_sections(body, lists) == []


def test_orders_are_sequential(lists):
    body = "# A\none\n## B\ntwo\n### C\nthree"
    sections = split_sections(body, lists)
    assert [s.order for s in sections] == [0, 1, 2]


def test_preamble_separated(lists):
    body = "intro text\n# Title\nbody"
    assert extraction._titled_lines(body) == (["intro text", "# Title", "body"], [(1, "Title")])
    # the profile keeps the preamble, and a section only when its title is description-like
    assert profile_text(make_repo(body), lists) == "intro text"
    assert profile_text(make_repo("intro text\n# Features\nbody"), lists) == "intro text\nbody"


# --- pattern matching -------------------------------------------------------------------

def test_designated_titles_all_match(lists, patterns):
    by_name = {p.name: p for p in patterns}
    for name, title in DESIGNATED_TITLES:
        normalized = normalize_title(title, lists)
        assert by_name[name].regex.search(normalized), (name, title, normalized)


def test_negative_titles_match_nothing(lists, patterns):
    for title in NEGATIVE_TITLES:
        normalized = normalize_title(title, lists)
        hits = [p.name for p in patterns if p.regex.search(normalized)]
        assert hits == [], (title, normalized, hits)


def test_expected_should_blocked_by_lookahead(lists, patterns):
    p12 = next(p for p in patterns if p.name == "P12")
    assert not p12.regex.search("what should happen")
    assert not p12.regex.search("what expect happen")
    assert p12.regex.search("what happen")


def test_first_matching_section_wins(lists, patterns):
    body = "### Steps to reproduce\nsteps here\n### Actual result\nthe good stuff"
    sections = split_sections(body, lists)
    matched = match_target(sections, patterns)
    assert matched is not None
    section, name = matched
    assert section.raw_title == "Actual result"
    assert name == "P1"


def test_match_reports_lowest_numbered_pattern(lists, patterns):
    # a title matching several patterns reports the first in P1..P19 order
    sections = split_sections("### Describe the bug\ntext", lists)
    _, name = match_target(sections, patterns)
    assert name == "P3"


def test_p19_whole_title_only(lists, patterns):
    p19 = next(p for p in patterns if p.name == "P19")
    assert p19.regex.search("summari")
    assert p19.regex.search("descript")
    assert p19.regex.search("use case")
    assert not p19.regex.search("behavior actual")
    assert not p19.regex.search("observ issu")
    assert not p19.regex.search("actual behaviour")


P19_SINGLE = ["overview", "summari", "descript", "issu", "result", "problem", "bug", "featur",
              "usecas", "question", "actual", "observ", "motiv", "stori"]


@given(st.lists(st.sampled_from(P19_SINGLE), min_size=2, max_size=4))
@settings(max_examples=100)
def test_p19_never_matches_multi_token_combinations(tokens):
    p19 = next(p for p in load_patterns() if p.name == "P19")
    title = " ".join(tokens)
    if title in ("use case", "usr stori"):
        return
    assert not p19.regex.search(title)


# --- extract ----------------------------------------------------------------------------

def test_extract_section_match(lists, patterns):
    body = "### First occurred\n2023-01-01\n### Actual Behaviour\nApp hangs on launch."
    assert extract(make_issue(body), patterns, lists) == ("App hangs on launch.", "P1")


def test_extract_multi_paragraph_rejected(lists, patterns):
    body = "first paragraph\n\nsecond paragraph\n\nthird paragraph"
    assert extract(make_issue(body), patterns, lists) is None


def test_extract_single_paragraph(lists, patterns):
    assert extract(make_issue("App crashes when rotating"), patterns, lists) == ("App crashes when rotating", None)


def test_extract_empty_body(lists, patterns):
    assert extract(make_issue(""), patterns, lists) is None


def test_extract_no_matching_section(lists, patterns):
    body = "### Environment\nAndroid 13\n### Logs\nnothing useful"
    assert extract(make_issue(body), patterns, lists) is None


def test_extract_empty_matched_section_rejected(lists, patterns):
    body = "### Actual behaviour\n\n### Logs\nstuff"
    assert extract(make_issue(body), patterns, lists) is None


def test_first_match_stable_when_later_sections_removed(lists, patterns):
    body = "### Summary\ncore text\n### Actual behaviour\nlater text"
    truncated = "### Summary\ncore text"
    full = extract(make_issue(body), patterns, lists)
    cut = extract(make_issue(truncated), patterns, lists)
    assert full == cut == ("core text", "P19")


def test_extract_single_paragraph_with_noise(lists, patterns):
    body = "The sync fails for me constantly https://forum.example/post/1 `retry()`"
    result = extract(make_issue(body), patterns, lists)
    assert result is not None
    text, pattern = result
    assert pattern is None
    assert "https" not in text and "retry" not in text


# --- gold fixture verification ----------------------------------------------------------

def test_all_correct_fixture_scores_one(lists, patterns):
    gold = [
        (make_issue("### Actual behaviour\ngood text", "a1"), "good text"),
        (make_issue("one paragraph only", "a2"), "one paragraph only"),
        (make_issue("p1\n\np2", "a3"), None),
    ]
    assert score(gold, patterns, lists)["accuracy"] == 1.0


def test_adversarial_fixture_scores_point_eight(lists, patterns):
    gold = [(make_issue(f"### Actual behaviour\ntext {index}", f"b{index}"), f"text {index}") for index in range(8)]
    # two issues whose annotation cannot be produced: uncommon title, multi-paragraph
    gold.append((make_issue("### Current situation\nwanted", "b8"), "wanted"))
    gold.append((make_issue("wanted\n\nextra detail", "b9"), "wanted"))
    report = score(gold, patterns, lists)
    assert report["accuracy"] == pytest.approx(0.8)
    assert report["missed"] == 2


def test_bundled_gold_fixture_meets_floor(lists, patterns):
    gold = load_gold()
    assert len(gold) == 100
    report = score(gold, patterns, lists)
    assert report["accuracy"] >= 0.80
    assert report["total"] == 100
    assert report["per_pattern"]  # at least one pattern fired


def test_missing_gold_raises(tmp_path):
    fixture = tmp_path / "gold.jsonl"
    fixture.write_text('{"issue_id": "x", "body": "text"}\n', encoding="utf-8")
    with pytest.raises(SchemaViolation, match=re.escape("gold.jsonl:1: field 'gold_text': missing")):
        load_gold(fixture)


@pytest.mark.parametrize("line,field", [
    ('{"issue_id": "x", "body": "text", "gold_text": 5}', "gold_text"),
    ('{"issue_id": 1, "body": "text", "gold_text": null}', "issue_id"),
    ('{"issue_id": "x", "gold_text": "text"}', "body"),
    ('{"issue_id": "x", "body"', "<line>"),
    ('["x", "text"]', "<line>"),
], ids=["gold-a-number", "id-a-number", "no-body", "not-json", "not-an-object"])
def test_malformed_gold_line_is_a_schema_violation(tmp_path, line, field):
    # such a line was once read as a gold issue, or ended in a KeyError or a JSONDecodeError
    fixture = tmp_path / "gold.jsonl"
    fixture.write_text('{"issue_id": "a", "body": "text", "gold_text": null}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(SchemaViolation, match=re.escape(f"gold.jsonl:2: field {field!r}: ")):
        load_gold(fixture)


def test_custom_pattern_file(tmp_path, lists):
    custom = tmp_path / "patterns.tsv"
    custom.write_text("X1\t.*crash\tB\nX2\twhat broke\tBF\n", encoding="utf-8")
    patterns = load_patterns(custom)
    assert [p.name for p in patterns] == ["X1", "X2"]
    sections = split_sections("### Crash report\ndetails here", lists)
    matched = match_target(sections, patterns)
    assert matched is not None and matched[1] == "X1"


def test_pattern_file_rejects_bad_lines(tmp_path):
    bad = tmp_path / "patterns.tsv"
    bad.write_text("only-one-field\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_patterns(bad)
    # a flag outside B/F/O is reported with its file and line, like a wrong column count
    bad.write_text("X1\t.*crash\tB\nX2\twhat broke\tBQ\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"patterns\.tsv:2: "):
        load_patterns(bad)


@pytest.mark.parametrize("text", ["", "\n\n", "# no pattern\n\n# X1\tcrash\tB\n"], ids=["empty", "blank", "comments"])
def test_pattern_file_without_a_pattern_is_rejected(tmp_path, text):
    empty = tmp_path / "patterns.tsv"
    empty.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=r"patterns\.tsv: no pattern line"):
        load_patterns(empty)


BODY_STRATEGY = st.text(
    alphabet=st.sampled_from(list("ab #*`_:\n-[]x.")), max_size=120
)
_LISTS = load_wordlists()
_PATTERNS = load_patterns()


@given(BODY_STRATEGY)
@settings(max_examples=150)
def test_extract_is_pure(body):
    issue = make_issue(body)
    first = extract(issue, _PATTERNS, _LISTS)
    second = extract(issue, _PATTERNS, _LISTS)
    assert first == second
    if first is not None:
        text, pattern = first
        assert text
        # a section matched exactly when the body has a titled line; a single paragraph has none
        assert (pattern is not None) == bool(extraction._titled_lines(body)[1])


# Lines that are, or nearly are, fences and titles of every kind the splitter knows,
# with matching and non-matching titles; joined by every line break splitlines() knows.
BODY_LINES = [
    "```", "~~~", "  ```", "\t~~~ js", "``", "~~", " ```python", "text ``` inline",
    "# Actual behaviour", "### Steps to reproduce", "#Actual behaviour", "####### Summary", "  ## Summary",
    "# ", "## Expected behavior ##", "**Describe the bug**", "__Expected result__:", " **Environment** : ",
    "**", "*emphasis* only", "_Originally posted by x_",
    "Actual result:", "Steps to reproduce:  ", "Android 13:\t", "Logs:", "1234:", ":",
    "a very long sentence that goes on and on and on until it ends with:",
    "- list item ending:", "* Actual behaviour:", "1. Summary:", "> quoted:", "- [ ] box:",
    "App hangs on launch.", "core text", "", "   ", "\u00a0# nbsp heading", "\u00a0Summary:\u00a0",
    "## Features", "Overview:",
]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"]
MIXED_BODIES = st.lists(st.tuples(st.sampled_from(BODY_LINES), st.sampled_from(LINE_BREAKS)), max_size=14).map(
    lambda parts: "".join(line + brk for line, brk in parts)
)


@given(MIXED_BODIES)
@example("### Environment\r\nAndroid 13\r\n~~~\r\n### Summary\r\n~~~\r\nActual result:\x85hangs")
@example("  ```\u2028# Actual behaviour\u2028```\u2028**Describe the bug**\x0bcrash")
@settings(max_examples=400)
def test_extract_and_split_equal_the_per_line_oracle(body):
    issue = make_issue(body)
    assert extract(issue, _PATTERNS, _LISTS) == _oracle_extract(issue, _PATTERNS, _LISTS)
    assert extraction._titled_lines(body) == _oracle_titled_lines(body)
    assert profile_text(make_repo(body), _LISTS) == _oracle_profile_text(body, _LISTS)


def test_pattern_memo_is_per_pattern_set(tmp_path, lists):
    custom = tmp_path / "patterns.tsv"
    custom.write_text("X1\tissu\tB\nX2\twhat broke\tBF\n", encoding="utf-8")
    custom_patterns = load_patterns(custom)
    bundled = load_patterns()
    issue = make_issue("### Summary\nsummary text\n### Actual behaviour\nactual text\n### Issue\nissue text")
    # alternate the two sets, so a memo shared between them answers for the other set
    for _ in range(2):
        for patterns in (custom_patterns, bundled):
            assert extract(issue, patterns, lists) == _oracle_extract(issue, patterns, lists)
    # the sets pick different sections: only the bundled set matches "summari"
    custom_result, bundled_result = extract(issue, custom_patterns, lists), extract(issue, bundled, lists)
    assert custom_result == ("issue text", "X1")
    assert bundled_result == ("summary text", "P19")
    # an equal set built afresh gives the same answer
    assert extract(issue, load_patterns(custom), lists) == ("issue text", "X1")


def test_title_memo_is_per_stopword_set(tmp_path, lists):
    for name in ("negative_modifiers.txt", "special_phrases.txt", "lemmas.txt"):
        shutil.copy(default_data_dir() / name, tmp_path / name)
    (tmp_path / "stopwords.txt").write_text("the\n", encoding="utf-8")
    few_stopwords = load_wordlists(tmp_path)
    body = "### Steps to reproduce the bug\nsteps\n### What is the actual result\nresult"
    _, titles = extraction._titled_lines(body)
    for _ in range(2):
        for word_lists in (few_stopwords, lists):
            normalized = [normalize_title(raw_title, word_lists) for _, raw_title in titles]
            assert normalized == [section.normalized_title for section in _oracle_split(body, word_lists)[1]]
    assert normalize_title(titles[0][1], few_stopwords) == "step to reproduc bug"
    assert normalize_title(titles[0][1], lists) == "step reproduc bug"
    # a profile section is wanted under the stopword set it is read with: "An overview" normalizes to
    # "overview" where "an" is a stopword, and is no description-like title where it is not
    readme = make_repo("intro\n## An overview\noverview text")
    for _ in range(2):
        assert profile_text(readme, lists) == "intro\noverview text"
        assert profile_text(readme, few_stopwords) == "intro"
    # one pattern set memoizes a raw title once per stopword set: "Your issue" normalizes to
    # "issu" (P19) where "your" is a stopword, and to "your issu" (no pattern) where it is not
    issue, patterns = make_issue("### Your issue\nissue text\n### What is the actual result\nresult text"), load_patterns()
    for _ in range(2):
        assert extract(issue, patterns, lists) == ("issue text", "P19")
        assert extract(issue, patterns, few_stopwords) == ("result text", "P1")
    assert len(patterns._matches) == 3
