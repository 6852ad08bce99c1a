import re
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from issueforge.errors import ValidationError
from issueforge.ingestion import Corpus, RawIssue, RepoRecord, load_corpus
from issueforge.labels import (
    IntentClass,
    assign_intents,
    load_lexicon,
    normalize_label,
)
from issueforge.textprep import default_data_dir, load_wordlists


def make_corpus(issue_labels: list[list[str]]) -> Corpus:
    repos = {"r1": RepoRecord(repo_id="r1", full_name="demo/one", contributors=2, stars=1)}
    issues = [
        RawIssue(
            issue_id=f"i{index}",
            repo_id="r1",
            title=f"issue {index}",
            body="",
            label_names=tuple(labels),
            created_at="2023-01-01T00:00:00Z",
        )
        for index, labels in enumerate(issue_labels)
    ]
    return Corpus(repos=repos, issues=issues)


SIX_NEGATED_VARIANTS = [
    "not reproduced",
    "cannot-reproduce",
    "non-reproduce",
    "could not reproduce",
    "cant-reproduce",
    "can't reproduce",
]


def test_priority_label_vanishes(lists):
    assert normalize_label("P1", lists) == ""


def test_negated_variants_unify(lists):
    assert {normalize_label(raw, lists) for raw in SIX_NEGATED_VARIANTS} == {"not reproduc"}


def test_derivational_family_collapses(lists):
    forms = {normalize_label(w, lists) for w in ("reproduced", "reproduction", "reproducible")}
    assert len(forms) == 1


def test_type_enhancement(lists):
    assert normalize_label("Type: enhancement", lists) == "type enhanc"
    assert normalize_label("type/enhancement", lists) == "type enhanc"


def test_emoji_and_unicode_stripped(lists):
    assert normalize_label("\U0001f41b bug", lists) == "bug"


LABELISH = st.text(alphabet=string.ascii_letters + string.digits + " :-_'/.!", min_size=1, max_size=25)


@given(LABELISH)
@example("OED")  # stems to the one letter "o", which must go like any short token
@settings(max_examples=300)
def test_normalize_idempotent(raw):
    lists = load_wordlists()
    once = normalize_label(raw, lists)
    assert normalize_label(once, lists) == once


@given(LABELISH)
@settings(max_examples=300)
def test_normalized_form_invariants(raw):
    lists = load_wordlists()
    surface = normalize_label(raw, lists)
    assert surface == surface.lower()
    assert not any(ch.isdigit() for ch in surface)
    for tok in surface.split():
        assert len(tok) > 1 or tok == ""  # no isolated single letters
        if tok != "not":
            assert tok not in lists.negative_modifiers


# --- label frequency ---------------------------------------------------------------

@pytest.mark.parametrize(
    "issue_labels,bug_issues,frequency",
    [
        ([["Bug"], ["bug"]], ["i0", "i1"], 2),
        ([["Bug", "bug", "BUG"]], ["i0"], 1),
        ([["Bug", "P1"], ["bug"], ["BUG!"], ["Type: Enhancement"], ["P1"]], ["i0", "i1", "i2"], 3),
        ([[], []], [], 0),
    ],
    ids=["case-variants-on-two-issues", "case-variants-on-one-issue", "five-issues-by-hand", "no-labels"],
)
def test_label_frequency_counts_each_issue_once(lists, issue_labels, bug_issues, frequency):
    # "P1" normalizes to the empty surface, which is never counted, even where the lexicon names it
    lexicon = {"bug": IntentClass.BUG_REPORT, "": IntentClass.FEATURE_REQUEST}
    corpus = make_corpus(issue_labels)
    assigned = assign_intents(corpus, lexicon, lists, min_label_frequency=frequency)
    assert assigned == {issue_id: frozenset({IntentClass.BUG_REPORT}) for issue_id in bug_issues}
    assert assign_intents(corpus, lexicon, lists, min_label_frequency=frequency + 1) == {}


# --- assign_intents --------------------------------------------------------------

@pytest.fixture(scope="module")
def lexicon():
    return {"bug": IntentClass.BUG_REPORT, "crash": IntentClass.BUG_REPORT, "enhanc": IntentClass.FEATURE_REQUEST}


def test_unrelated_label_excluded(lists, lexicon):
    corpus = make_corpus([["priority high"], ["crash"]])
    assigned = assign_intents(corpus, lexicon, lists, min_label_frequency=1)
    assert "i0" not in assigned
    assert assigned["i1"] == frozenset({IntentClass.BUG_REPORT})


def test_both_intents_union(lists, lexicon):
    corpus = make_corpus([["crash", "enhancement"]])
    assigned = assign_intents(corpus, lexicon, lists, min_label_frequency=1)
    assert assigned["i0"] == frozenset({IntentClass.BUG_REPORT, IntentClass.FEATURE_REQUEST})


def test_min_frequency_applies(lists, lexicon):
    corpus = make_corpus([["crash"], ["crash"], ["enhancement"]])
    assigned = assign_intents(corpus, lexicon, lists, min_label_frequency=2)
    assert assigned.get("i0") == frozenset({IntentClass.BUG_REPORT})
    assert "i2" not in assigned  # enhanc appears on one issue only


def test_lexicon_key_must_be_normalized(tmp_path, lists):
    # the error names the key's line, as every table error does
    bad = tmp_path / "lexicon.tsv"
    bad.write_text("crash\tbug\nEnhancement\tfeature\n", encoding="utf-8")
    message = f"{bad}:2: lexicon key 'Enhancement' is not in normalized surface form (normalizes to 'enhanc')"
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_lexicon(bad, lists)


@pytest.mark.parametrize("text", ["", "\n  \n", "# crash\tbug\n"], ids=["empty", "blank", "comments"])
def test_lexicon_without_an_entry_is_rejected(tmp_path, lists, text):
    empty = tmp_path / "lexicon.tsv"
    empty.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=r"lexicon\.tsv: no lexicon entry"):
        load_lexicon(empty, lists)


def test_lexicon_defaults_to_the_bundled_file(lists):
    from issueforge.textprep import default_data_dir

    assert load_lexicon(None, lists) == load_lexicon(default_data_dir() / "lexicon.tsv", lists)


def test_bundled_lexicon_is_valid(lists):
    from issueforge.textprep import default_data_dir

    lexicon = load_lexicon(default_data_dir() / "lexicon.tsv", lists)
    assert len(lexicon) >= 30
    assert lexicon["crash"] is IntentClass.BUG_REPORT
    assert lexicon["type not reproduc"] is IntentClass.BUG_REPORT
    assert lexicon["enhanc"] is IntentClass.FEATURE_REQUEST
    assert lexicon["question"] is IntentClass.OTHER


LABEL_POOL = ["bug", "crash", "enhancement", "question", "priority high", "wontfix", "P1"]


@given(
    st.lists(st.lists(st.sampled_from(LABEL_POOL), max_size=3), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_lexicon_growth_is_monotone(issue_labels, min_freq):
    lists = load_wordlists()
    corpus = make_corpus(issue_labels)
    small = {"bug": IntentClass.BUG_REPORT}
    big = {
        "bug": IntentClass.BUG_REPORT,
        "crash": IntentClass.BUG_REPORT,
        "enhanc": IntentClass.FEATURE_REQUEST,
        "question": IntentClass.OTHER,
    }
    before = assign_intents(corpus, small, lists, min_label_frequency=min_freq)
    after = assign_intents(corpus, big, lists, min_label_frequency=min_freq)
    for issue_id, intents in before.items():
        assert intents <= after.get(issue_id, frozenset())


@given(
    st.lists(st.lists(st.sampled_from(LABEL_POOL), max_size=3), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_raising_min_frequency_never_adds(issue_labels, min_freq):
    lists = load_wordlists()
    corpus = make_corpus(issue_labels)
    lexicon = {"bug": IntentClass.BUG_REPORT, "crash": IntentClass.BUG_REPORT, "question": IntentClass.OTHER}
    low = assign_intents(corpus, lexicon, lists, min_label_frequency=min_freq)
    high = assign_intents(corpus, lexicon, lists, min_label_frequency=min_freq + 1)
    for issue_id, intents in high.items():
        assert intents <= low.get(issue_id, frozenset())


# --- oracles: normalize every label occurrence ----------------------------------

def _table_oracle(corpus, lists):
    originals, issue_sets = {}, {}
    for issue in corpus.issues:
        for raw in issue.label_names:
            surface = normalize_label(raw, lists)
            if surface:
                originals.setdefault(surface, set()).add(raw)
                issue_sets.setdefault(surface, set()).add(issue.issue_id)
    table = [(surface, frozenset(originals[surface]), len(ids)) for surface, ids in issue_sets.items()]
    return sorted(table, key=lambda entry: (-entry[2], entry[0]))


def _assign_oracle(corpus, lexicon, lists, min_label_frequency):
    frequency = {surface: count for surface, _, count in _table_oracle(corpus, lists)}
    assigned = {}
    for issue in corpus.issues:
        intents = set()
        for raw in issue.label_names:
            surface = normalize_label(raw, lists)
            if surface in lexicon and frequency.get(surface, 0) >= min_label_frequency:
                intents.add(lexicon[surface])
        if intents:
            assigned[issue.issue_id] = frozenset(intents)
    return assigned


@pytest.fixture(scope="module")
def bundled_lexicon(lists):
    return load_lexicon(default_data_dir() / "lexicon.tsv", lists)


@pytest.mark.parametrize("min_freq", [1, 2, 3, 11])
def test_demo_corpus_matches_oracle(lists, bundled_lexicon, min_freq):
    corpus = load_corpus(default_data_dir() / "demo_corpus")
    assigned = assign_intents(corpus, bundled_lexicon, lists, min_label_frequency=min_freq)
    assert assigned == _assign_oracle(corpus, bundled_lexicon, lists, min_freq)
    if min_freq == 1:
        assert assigned


ORACLE_POOL = LABEL_POOL + SIX_NEGATED_VARIANTS + ["Bug", "BUG 🐛", "Type: Enhancement", "type-enhancement", ""]


@given(
    st.lists(
        st.lists(st.one_of(st.sampled_from(ORACLE_POOL), st.text(max_size=12)), max_size=4),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_label_lists_match_oracle(lists, bundled_lexicon, issue_labels, min_freq):
    corpus = make_corpus(issue_labels)
    assigned = assign_intents(corpus, bundled_lexicon, lists, min_label_frequency=min_freq)
    assert assigned == _assign_oracle(corpus, bundled_lexicon, lists, min_freq)
