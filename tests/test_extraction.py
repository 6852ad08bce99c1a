import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issueforge.extraction import (
    ExtractionMode,
    GoldIssue,
    MissingGold,
    extract,
    load_gold_fixture,
    load_patterns,
    match_target,
    normalize_title,
    split_sections,
    split_with_preamble,
    verify_patterns,
)
from issueforge.ingestion import RawIssue
from issueforge.textprep import load_wordlists

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
    preamble, sections = split_with_preamble("intro text\n# Title\nbody", lists)
    assert preamble == "intro text"
    assert len(sections) == 1


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
    result = extract(make_issue(body), patterns, lists)
    assert result is not None
    assert result.mode is ExtractionMode.SECTION_MATCH
    assert result.matched_pattern == "P1"
    assert result.text == "App hangs on launch."


def test_extract_multi_paragraph_rejected(lists, patterns):
    body = "first paragraph\n\nsecond paragraph\n\nthird paragraph"
    assert extract(make_issue(body), patterns, lists) is None


def test_extract_single_paragraph(lists, patterns):
    result = extract(make_issue("App crashes when rotating"), patterns, lists)
    assert result is not None
    assert result.mode is ExtractionMode.SINGLE_PARAGRAPH
    assert result.matched_pattern is None
    assert result.text == "App crashes when rotating"


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
    assert full is not None and cut is not None
    assert full.text == cut.text == "core text"
    assert full.matched_pattern == cut.matched_pattern


def test_extract_single_paragraph_with_noise(lists, patterns):
    body = "The sync fails for me constantly https://forum.example/post/1 `retry()`"
    result = extract(make_issue(body), patterns, lists)
    assert result is not None
    assert result.mode is ExtractionMode.SINGLE_PARAGRAPH
    assert "https" not in result.text and "retry" not in result.text


# --- gold fixture verification ----------------------------------------------------------

def test_all_correct_fixture_scores_one(lists, patterns):
    gold = [
        GoldIssue(issue=make_issue("### Actual behaviour\ngood text", "a1"), gold_text="good text"),
        GoldIssue(issue=make_issue("one paragraph only", "a2"), gold_text="one paragraph only"),
        GoldIssue(issue=make_issue("p1\n\np2", "a3"), gold_text=None),
    ]
    report = verify_patterns(gold, patterns, lists)
    assert report.accuracy == 1.0


def test_adversarial_fixture_scores_point_eight(lists, patterns):
    gold = []
    for index in range(8):
        gold.append(
            GoldIssue(
                issue=make_issue(f"### Actual behaviour\ntext {index}", f"b{index}"),
                gold_text=f"text {index}",
            )
        )
    # two issues whose annotation cannot be produced: uncommon title, multi-paragraph
    gold.append(GoldIssue(issue=make_issue("### Current situation\nwanted", "b8"), gold_text="wanted"))
    gold.append(GoldIssue(issue=make_issue("wanted\n\nextra detail", "b9"), gold_text="wanted"))
    report = verify_patterns(gold, patterns, lists)
    assert report.accuracy == pytest.approx(0.8)
    assert report.missed == 2


def test_bundled_gold_fixture_meets_floor(lists, patterns):
    gold = load_gold_fixture()
    assert len(gold) == 100
    report = verify_patterns(gold, patterns, lists)
    assert report.accuracy >= 0.80
    assert report.total == 100
    assert report.per_pattern  # at least one pattern fired


def test_missing_gold_raises(tmp_path):
    fixture = tmp_path / "gold.jsonl"
    fixture.write_text('{"issue_id": "x", "body": "text"}\n', encoding="utf-8")
    with pytest.raises(MissingGold):
        load_gold_fixture(fixture)


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
        assert first.text
        assert (first.matched_pattern is not None) == (first.mode is ExtractionMode.SECTION_MATCH)
