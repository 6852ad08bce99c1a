import dataclasses
import re
import shutil
import string
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from issueforge import textprep
from issueforge.errors import ValidationError
from issueforge.textprep import (
    FUSED_HAVE_TO,
    RETAINED_MODALS,
    Source,
    admit,
    default_data_dir,
    has_identifier_token,
    load_wordlists,
    preprocess,
    strip_noise,
    tokenize,
)


def test_wordlists_shapes(lists):
    assert len(lists.negative_modifiers) == 44
    assert len(lists.special_phrases) == 6
    assert "what" in lists.stopwords and "about" in lists.stopwords and "should" in lists.stopwords


def test_bundled_lemma_table_loads():
    lines = (default_data_dir() / "lemmas.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 435 and all(re.fullmatch(r"[a-z]+\t[a-z]+", line) for line in lines)
    assert all(lemma for lemma in load_wordlists().lemmas.values())


@pytest.mark.parametrize("bad_line", ["crashes", "crashes\t", "\tcrash", "crashes crash"])
def test_lemma_line_without_both_sides_is_rejected(tmp_path, bad_line):
    # such a line once mapped its form to "", and preprocess emitted an empty token
    for name in ("negative_modifiers.txt", "special_phrases.txt", "stopwords.txt", "lemmas.txt"):
        shutil.copy(default_data_dir() / name, tmp_path / name)
    with (tmp_path / "lemmas.txt").open("a", encoding="utf-8") as handle:
        handle.write(bad_line + "\n")
    with pytest.raises(ValidationError, match=re.escape(f"{tmp_path / 'lemmas.txt'}:436: expected form<TAB>lemma")):
        load_wordlists(tmp_path)


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_stopword_list_without_a_word_is_rejected(tmp_path, text):
    # with no stopword, normalize_title once kept every title word, and fewer titles matched a pattern
    for name in ("negative_modifiers.txt", "special_phrases.txt", "lemmas.txt"):
        shutil.copy(default_data_dir() / name, tmp_path / name)
    (tmp_path / "stopwords.txt").write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"{tmp_path / 'stopwords.txt'}: no stopword")):
        load_wordlists(tmp_path)


def test_a_repeated_negative_modifier_counts_once(tmp_path):
    # a 44-line file with one line repeated once loaded, with 43 modifiers
    for name in ("special_phrases.txt", "stopwords.txt", "lemmas.txt"):
        shutil.copy(default_data_dir() / name, tmp_path / name)
    modifiers = (default_data_dir() / "negative_modifiers.txt").read_text(encoding="utf-8").splitlines()
    (tmp_path / "negative_modifiers.txt").write_text("\n".join(modifiers[:-1] + modifiers[:1]) + "\n", encoding="utf-8")
    message = f"{tmp_path / 'negative_modifiers.txt'}: must have 44 distinct entries, found 43"
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_wordlists(tmp_path)


@pytest.mark.parametrize("bad_line", ["Crashes\tfail", "freezes\tHang Up", "crashes\tcrash2", "naïve\tnaive",
                                      "don't\tdo", "re-open\topen"])
def test_lemma_line_outside_the_token_alphabet_is_rejected(tmp_path, bad_line):
    # "Crashes" could never match a token, and "Hang Up" was once emitted as a token into docs.jsonl
    for name in ("negative_modifiers.txt", "special_phrases.txt", "stopwords.txt", "lemmas.txt"):
        shutil.copy(default_data_dir() / name, tmp_path / name)
    with (tmp_path / "lemmas.txt").open("a", encoding="utf-8") as handle:
        handle.write(bad_line + "\n")
    message = f"{tmp_path / 'lemmas.txt'}:436: form and lemma must be [a-z]+ words, got {bad_line!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_wordlists(tmp_path)


# --- strip_noise -----------------------------------------------------------------

def test_underscore_phrase_and_mention_removed(lists):
    out = strip_noise("_Originally posted by @user_ App crashes", lists)
    assert out.strip() == "App crashes"


def test_issue_refs_and_urls_removed(lists):
    out = strip_noise("see #42 and https://x.y", lists)
    assert "#42" not in out and "https" not in out
    assert out.split() == ["see", "and"]


def test_fence_checklist_sentence_fixture(lists):
    text = "```\ninternal code\n```\n- [ ] box one\n- [x] box two\nThe app crashes on rotate."
    out = strip_noise(text, lists)
    assert "internal code" not in out
    assert "box one" not in out and "box two" not in out
    assert "The app crashes on rotate." in out


def test_stack_and_error_lines_removed(lists):
    text = (
        "It died with this:\n"
        "java.lang.NullPointerException: oops\n"
        "    at com.app.Main.onCreate(Main.java:10)\n"
        "then restarted"
    )
    out = strip_noise(text, lists)
    assert "NullPointerException" not in out and "onCreate" not in out
    assert "It died with this:" in out and "then restarted" in out


def test_special_phrases_removed(lists):
    out = strip_noise("Originally reported by a tester, crashes a lot", lists)
    assert "reported by" not in out.lower()


def test_snake_case_untouched_by_underscore_rule(lists):
    assert strip_noise("set my_var_name to null", lists) == "set my_var_name to null"


CLEAN_ALPHABET = string.ascii_letters + " \n.,!?"


@given(st.text(alphabet=CLEAN_ALPHABET, max_size=200))
@settings(max_examples=200)
def test_strip_noise_identity_on_clean_text(text):
    lists = load_wordlists()
    # inputs with none of the noise constructs come through byte-identical;
    # generated text can still trip the error-line and bare-url heuristics
    if any(marker in text for marker in ("Exception", "Error", "www.")):
        return
    if any(phrase in text.lower() for phrase in lists.special_phrases):
        return
    assert strip_noise(text, lists) == text


# The ten construct patterns in the order strip_noise applies them.
CONSTRUCTS = (
    textprep._FENCED_CODE, textprep._INLINE_CODE, textprep._HTML_TAG, textprep._CHECKLIST_LINE,
    textprep._STACK_FRAME_LINE, textprep._ERROR_MESSAGE_LINE, textprep._UNDERSCORE_PHRASE, textprep._URL,
    textprep._MENTION, textprep._ISSUE_REF,
)


def _strip_noise_oracle(text, lists):
    """strip_noise without its literal pre-checks or compiled phrase patterns:
    every construct scan, then one re.sub per phrase in list order."""
    for pattern in CONSTRUCTS:
        text = pattern.sub("", text)
    for phrase in lists.special_phrases:
        text = re.sub(r"\b" + re.escape(phrase) + r"\b", "", text, flags=re.IGNORECASE)
    return text


# Six phrases, like the bundled list, several overlapping each other.
OVERLAPPING_PHRASES = ["b c", "a b", "reported", "by a", "on by", "c"]
BUNDLED_PHRASES = load_wordlists().special_phrases


@pytest.fixture(scope="module")
def overlapping_lists(tmp_path_factory):
    directory = tmp_path_factory.mktemp("wordlists")
    for name in ("negative_modifiers.txt", "stopwords.txt", "lemmas.txt"):
        shutil.copy(default_data_dir() / name, directory / name)
    (directory / "special_phrases.txt").write_text("\n".join(OVERLAPPING_PHRASES) + "\n", encoding="utf-8")
    return load_wordlists(directory)


# Non-ASCII letters that IGNORECASE matches to an ASCII one: long s, dotless i,
# dotted capital I and the Kelvin sign.
LOOKALIKES = {"s": "ſ", "i": "ıİ", "k": "\u212a"}


def _any_case(phrase_strategy):
    """A phrase with each letter in either case, or as a non-ASCII letter that matches it."""
    return phrase_strategy.flatmap(
        lambda phrase: st.tuples(
            *(st.sampled_from([c.lower(), c.upper(), *LOOKALIKES.get(c.lower(), "")]) for c in phrase)
        ).map("".join)
    )


def _mixed_text(phrases):
    filler = st.text(alphabet=string.ascii_letters + " \n.,#@_`" + "".join(LOOKALIKES.values()), max_size=8)
    return st.lists(st.one_of(_any_case(st.sampled_from(phrases)), filler), max_size=12).map("".join)


# Each construct's literal, pieces that join into one once the text between
# them is removed, and the line and word boundaries the patterns test.
TRIGGERS = ["`", "```", "<b>", "</b>", "- [ ] ", "* [x] ", "at x.y(z)", "(", "FooError", "Exception", "Err", "or",
            "_a_", "_", "http://", "https://x.y", "ht", "tp://", "www.", "ww", "@u", "@", "#1", "#", "\n", " "]


@given(st.lists(st.one_of(st.sampled_from(TRIGGERS), st.text(alphabet=string.ascii_letters + " \n.", max_size=6)),
                max_size=16).map("".join))
@example("ht<b>tp://x.y z")  # a URL that only the tag removal makes
@example("Err`x`or: boom\nok")  # an error line that only the inline-code removal makes
@settings(max_examples=500)
def test_literal_prechecks_skip_only_scans_that_remove_nothing(lists, text):
    assert strip_noise(text, lists) == _strip_noise_oracle(text, lists)


def test_overlapping_phrases_are_removed_in_list_order(overlapping_lists):
    # "b c" goes first, so "a b" no longer matches; one alternation would take "a b"
    assert strip_noise("a b c d", overlapping_lists) == _strip_noise_oracle("a b c d", overlapping_lists)
    assert strip_noise("a b c d", overlapping_lists) == "a  d"


@given(_mixed_text(BUNDLED_PHRASES))
@settings(max_examples=200)
def test_strip_noise_equals_per_phrase_loop(lists, text):
    assert strip_noise(text, lists) == _strip_noise_oracle(text, lists)


@given(_mixed_text(OVERLAPPING_PHRASES + list(BUNDLED_PHRASES)))
@settings(max_examples=200)
def test_strip_noise_equals_per_phrase_loop_for_other_lists(lists, overlapping_lists, text):
    # alternate the two lists, so a pattern cache keyed on anything but the
    # phrases themselves returns the other list's patterns
    assert strip_noise(text, overlapping_lists) == _strip_noise_oracle(text, overlapping_lists)
    assert strip_noise(text, lists) == _strip_noise_oracle(text, lists)
    assert strip_noise(text, overlapping_lists) == _strip_noise_oracle(text, overlapping_lists)


@pytest.mark.parametrize(
    "phrases,text",
    [
        (("c++ by", "a.b"), "written in C++ by hand; a.b but not axb"),
        (("c++ by", "a.b"), "axb and c by"),
        (BUNDLED_PHRASES, "reported`x` by a tester, then <b>posted</b> by me"),
        (BUNDLED_PHRASES, "Crashes on start.\nSee https://example.org/created-by for logs"),
    ],
    ids=["metacharacters", "metacharacters-no-match", "created-by-earlier-subs", "no-phrase"],
)
def test_phrase_removal_equals_per_phrase_loop(lists, phrases, text):
    phrase_lists = dataclasses.replace(lists, special_phrases=phrases)
    assert strip_noise(text, phrase_lists) == _strip_noise_oracle(text, phrase_lists)


@pytest.mark.parametrize(
    "phrases,text",
    [(BUNDLED_PHRASES, "poſted by x"), (BUNDLED_PHRASES, "orİginal issue by x"), (("kept by",), "\u212aept by x")],
)
def test_non_ascii_text_is_scanned_for_ascii_phrases(lists, phrases, text):
    # the phrase's lowercase form is not in the text's, yet IGNORECASE matches it
    phrase_lists = dataclasses.replace(lists, special_phrases=phrases)
    assert strip_noise(text, phrase_lists) == _strip_noise_oracle(text, phrase_lists) == " x"


def test_non_ascii_phrase_is_scanned_for_on_ascii_text(lists):
    phrase_lists = dataclasses.replace(lists, special_phrases=("ſtarted by",))
    assert strip_noise("started by x", phrase_lists) == _strip_noise_oracle("started by x", phrase_lists) == " x"


def test_phrase_removal_rescans_the_changed_text(lists):
    # "created by" only forms once "foo." is removed from between its words
    phrase_lists = dataclasses.replace(lists, special_phrases=("foo.", "created by"))
    text = "created foo.by x"
    assert strip_noise(text, phrase_lists) == _strip_noise_oracle(text, phrase_lists) == " x"


def test_empty_phrase_list_removes_no_phrase(lists):
    no_phrases = dataclasses.replace(lists, special_phrases=())
    assert strip_noise("reported`x` by a tester", no_phrases) == "reported by a tester"


# --- preprocess --------------------------------------------------------------------

def test_negation_contraction(lists):
    assert preprocess("doesn't work", lists) == ["not", "work"]


def test_have_to_fusion(lists):
    assert preprocess("You have to restart", lists) == [FUSED_HAVE_TO, "restart"]


def test_empty_text(lists):
    assert preprocess("", lists) == []


def test_retained_modals_survive(lists):
    tokens = preprocess("it would be nice, you should try, I could help", lists)
    assert "would" in tokens and "should" in tokens and "could" in tokens


def test_digits_and_punctuation_dropped(lists):
    tokens = preprocess("Version 2.3.1 crashes 100% of the time!!", lists)
    assert all(not any(ch.isdigit() for ch in tok) for tok in tokens)
    assert "crash" in tokens


def test_lemma_lookup_with_stem_fallback(lists):
    assert preprocess("crashes rotating flickering", lists) == ["crash", "rotate", "flicker"]


WORDS = st.sampled_from(
    ["app", "crashes", "screen", "rotate", "doesnt", "love", "Features", "update", "slow", "23", "don't", "could"]
)


@given(st.lists(WORDS, min_size=0, max_size=30))
@settings(max_examples=200)
def test_output_invariants(words):
    lists = load_wordlists()
    tokens = preprocess(" ".join(words), lists)
    for tok in tokens:
        assert tok == tok.lower()
        assert not any(ch.isdigit() for ch in tok)
        if tok in lists.stopwords:
            assert tok == "not" or tok in RETAINED_MODALS


@given(st.lists(WORDS, min_size=0, max_size=30))
@settings(max_examples=200)
def test_preprocess_idempotent(words):
    lists = load_wordlists()
    once = preprocess(" ".join(words), lists)
    assert preprocess(" ".join(once), lists) == once


def test_modifier_occurrences_map_to_not_positionally(lists):
    text = "cannot open wasnt saved never works"
    tokens = preprocess(text, lists)
    assert tokens == ["not", "open", "not", "save", "not", "work"]


# --- the per-token memo against the per-token loop ----------------------------------
# The oracle is the earlier preprocess and have-to fusion, kept verbatim: every
# token walks the whole chain, with nothing remembered between tokens or calls.

def _fuse_have_to_oracle(tokens):
    fused = []
    i = 0
    while i < len(tokens):
        if tokens[i] == "have" and i + 1 < len(tokens) and tokens[i + 1] == "to":
            fused.append(FUSED_HAVE_TO)
            i += 2
        else:
            fused.append(tokens[i])
            i += 1
    return fused


def _preprocess_oracle(text, lists, *, filter_noise=True):
    if filter_noise:
        text = strip_noise(text, lists)
    tokens = tokenize(text)
    if "have" in tokens:
        tokens = _fuse_have_to_oracle(tokens)
    out = []
    for tok in tokens:
        if tok == FUSED_HAVE_TO:
            out.append(tok)
            continue
        if not tok.isalpha():
            tok = textprep.DIGITS.sub("", tok)
            if not tok:
                continue
        if tok in lists.negative_modifiers:
            out.append("not")
            continue
        if tok in RETAINED_MODALS:
            out.append(tok)
            continue
        if tok in lists.stopwords:
            continue
        lemma = textprep.lemmatize(tok, lists)
        if lemma in lists.stopwords and lemma != "not":
            continue
        out.append(lemma)
    return out


# Stopwords, negative modifiers, modals, lemma-table forms, have/to, digits, and
# words whose lemma or stem is a stopword ("has" -> "have"), among free text.
MEMO_WORDS = ["app", "crashes", "Features", "don't", "doesnt", "never", "could", "should", "the", "what", "have",
              "to", "has", "is", "being", "23", "v2", "x86", "rotating", "nots", "ours", "theirs"]
FREE_WORD = st.text(alphabet=string.ascii_letters + "0123456789'", min_size=1, max_size=8)
MEMO_TEXT = st.lists(st.one_of(st.sampled_from(MEMO_WORDS), FREE_WORD), max_size=30).map(" ".join)


@given(MEMO_TEXT, st.booleans())
@example("have have to to have", False)
@settings(max_examples=300)
def test_memoized_preprocess_equals_per_token_loop(lists, text, filter_noise):
    expected = _preprocess_oracle(text, lists, filter_noise=filter_noise)
    assert preprocess(text, lists, filter_noise=filter_noise) == expected
    assert preprocess(text, lists, filter_noise=filter_noise) == expected  # every token now a memo hit


@given(MEMO_TEXT)
@settings(max_examples=100)
def test_token_memos_of_different_word_lists_are_isolated(lists, text):
    # "app" and "crashes" become stopwords here and "the" and "has" stop being ones
    other = dataclasses.replace(lists, stopwords=(lists.stopwords - {"the", "has"}) | {"app", "crash", "crashes"})
    assert other._tokens is not lists._tokens
    for word_lists in (lists, other, lists, other):
        assert preprocess(text, word_lists) == _preprocess_oracle(text, word_lists)


def test_token_memo_is_emptied_at_the_limit(lists, monkeypatch):
    monkeypatch.setattr(textprep, "MEMO_LIMIT", 2)
    fresh = dataclasses.replace(lists)
    text = "app crashes the 23 rotating screens could never have to update app"
    for _ in range(2):
        assert preprocess(text, fresh) == _preprocess_oracle(text, fresh)
        assert len(fresh._tokens) <= 2


# --- admit --------------------------------------------------------------------------

def test_admit_too_short(lists):
    assert not admit(["app", "crash"], Source.ISSUE_BODY)


def test_admit_identifier_title(lists):
    assert not admit(["a", "b", "c"], Source.ISSUE_TITLE, "NullPointerException in onCreate()")


def test_admit_ok(lists):
    assert admit(["app", "crash", "rotate"], Source.ISSUE_TITLE, "App crashes when rotating")


def test_admit_body_ignores_title(lists):
    assert admit(["app", "crash", "rotate"], Source.ISSUE_BODY, "onCreate() crash")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("plain words only", False),
        ("camelCase word", True),
        ("snake_case word", True),
        ("com.example.app path", True),
        ("version 1.2.3 mention", False),
        ("App crashes", False),
    ],
)
def test_identifier_detection(text, expected):
    assert has_identifier_token(text) is expected


# the backtracking pattern has_identifier_token replaced, kept as its reference
_IDENTIFIER_REFERENCE = re.compile(
    r"[A-Za-z0-9_]*[a-z][A-Z][A-Za-z0-9_]*"
    r"|\w+_\w+"
    r"|[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+"
)


@given(st.text(alphabet="aZq_.9 \t-éß٣Kx", max_size=24) | st.text(max_size=24))
@settings(max_examples=3000, deadline=None)
@example("a1.b")
@example("٣.a")
@example("é_é")
@example("xé٣.Z")
@example("9a.")
def test_identifier_detection_matches_reference_pattern(text):
    assert has_identifier_token(text) is bool(_IDENTIFIER_REFERENCE.search(text))


@pytest.mark.parametrize(
    "title,expected",
    [
        ("a" * 100_000, False),
        ("a1" * 50_000, False),
        (("a" + "9" * 99) * 1_000, False),
        ("Crash " * 16_667, False),
        ("a" * 99_998 + ".b", True),
        ("a" * 99_998 + "_b", True),
    ],
)
def test_identifier_detection_on_a_100k_character_title_is_fast(title, expected):
    # the reference pattern backtracks quadratically on one long word
    started = time.perf_counter()
    assert has_identifier_token(title) is expected
    assert time.perf_counter() - started < 1.0


def test_tokenize_apostrophes():
    assert tokenize("don't can't What's") == ["dont", "cant", "whats"]


@given(st.text() | st.text(alphabet="aZ09 '’-_İıſ\u212aé\n\t", max_size=40))
@example("İstanbul ſtop \u212aelvin v2.0 re-open don't")
@settings(max_examples=300)
def test_tokenize_equals_split_and_filter(text):
    # the earlier tokenize, word for word
    s = text.lower().replace("'", "").replace("’", "")
    assert tokenize(text) == [t for t in re.split(r"[^a-z0-9]+", s) if t]
