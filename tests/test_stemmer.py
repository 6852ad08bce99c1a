import importlib
import inspect
import pkgutil
import random
import re
import string
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from issueforge import extraction, labels, stemmer, textprep
from issueforge.stemmer import (
    DOUBLES,
    LI_ENDINGS,
    _EXCEPTIONS,
    _STEP2_RULES,
    _STEP3_RULES,
    _STEP4_SUFFIXES,
    _STOP_AFTER_1A,
    stem,
)
from issueforge.textprep import default_data_dir, load_wordlists, preprocess

# (word, stem) pairs covering each suffix-stripping step plus the surfaces the
# shipped pattern set and lexicon depend on
KNOWN = [
    ("actual", "actual"),
    ("actually", "actual"),
    ("behavior", "behavior"),
    ("behaviour", "behaviour"),
    ("outcome", "outcom"),
    ("observed", "observ"),
    ("describe", "describ"),
    ("description", "descript"),
    ("explanation", "explan"),
    ("explain", "explain"),
    ("question", "question"),
    ("questions", "question"),
    ("feature", "featur"),
    ("features", "featur"),
    ("statement", "statement"),
    ("address", "address"),
    ("trying", "tri"),
    ("solve", "solv"),
    ("solved", "solv"),
    ("suggested", "suggest"),
    ("suggestion", "suggest"),
    ("requirement", "requir"),
    ("issue", "issu"),
    ("issues", "issu"),
    ("expected", "expect"),
    ("happened", "happen"),
    ("summary", "summari"),
    ("experience", "experi"),
    ("related", "relat"),
    ("story", "stori"),
    ("stories", "stori"),
    ("motivation", "motiv"),
    ("usecase", "usecas"),
    ("performing", "perform"),
    ("steps", "step"),
    ("reproduce", "reproduc"),
    ("reproduced", "reproduc"),
    ("reproducible", "reproduc"),
    ("reproduction", "reproduc"),
    ("enhancement", "enhanc"),
    ("improvement", "improv"),
    ("proposal", "propos"),
    ("propose", "propos"),
    ("category", "categori"),
    ("candidate", "candid"),
    ("possible", "possibl"),
    ("type", "type"),
    ("nice", "nice"),
    ("crashes", "crash"),
    ("dying", "die"),
    ("lying", "lie"),
    ("skies", "sky"),
    ("ties", "tie"),
    ("cries", "cri"),
    ("hoped", "hope"),
    ("hopped", "hop"),
    ("played", "play"),
    ("communication", "communic"),
    ("generous", "generous"),
    ("nationalization", "nation"),
    ("itemization", "item"),
    ("traditional", "tradit"),
    ("reference", "refer"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("callousness", "callous"),
    ("formality", "formal"),
    ("sensitivity", "sensit"),
    ("sensibility", "sensibl"),
    ("news", "news"),
    ("bias", "bias"),
    ("this", "this"),
    ("gas", "gas"),
    ("us", "us"),
]


@pytest.mark.parametrize("word,expected", KNOWN)
def test_known_stems(word, expected):
    assert stem(word) == expected


def test_modifier_words_are_fixed_points(lists):
    for word in lists.negative_modifiers:
        assert stem(word) == word


def test_short_words_untouched():
    for word in ("a", "b", "is", "to", "by", "ox"):
        assert stem(word) == word


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=15))
@settings(max_examples=500)
def test_idempotent(word):
    assert stem(stem(word)) == stem(word)


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=15))
@settings(max_examples=300)
def test_output_never_longer(word):
    assert len(stem(word)) <= len(word)


# --- stem keeps no state: its callers memoize per distinct input ------------------

WORD = re.compile(r"[a-z]+")


def _bundled_and_test_words() -> list[str]:
    """The [a-z]+ words of the bundled lists and of KNOWN: stem takes only such words."""
    words = {word for pair in KNOWN for word in pair}
    for name in ("lemmas.txt", "stopwords.txt", "lexicon.tsv"):
        for line in (default_data_dir() / name).read_text(encoding="utf-8").splitlines():
            words.update(word for word in line.lower().split() if WORD.fullmatch(word))
    return sorted(words)


def test_second_call_returns_the_same_value(lists):
    # preprocess remembers each distinct token's lemma on the word lists
    word = "unreproducibilities"
    first = preprocess(word, lists)
    assert lists._tokens[word] == stem(word) == first[0]
    assert preprocess(word, lists) == first


def test_stem_is_a_plain_function():
    # The benchmark's tracer (perfbench/tracer.py) wraps only plain functions;
    # a cache wrapper such as functools.lru_cache would hide the stemmer.stem span.
    assert inspect.isfunction(stemmer.stem)


# --- the table-driven pass against the endswith-loop reference ------------------
# The reference is the earlier single pass, kept verbatim: suffix loops over the
# rule lists, regions from a recursive vowel test on the lowercase word.

def _is_vowel(word: str, i: int) -> bool:
    c = word[i]
    if c in "aeiou":
        return True
    if c != "y":
        return False
    # y is a consonant at the start of the word or right after a vowel
    if i == 0:
        return False
    return not _is_vowel(word, i - 1)


def _regions(word: str) -> tuple[int, int]:
    """Return (R1, R2) start offsets per the algorithm definition."""
    n = len(word)
    r1 = n
    if word.startswith(("gener", "commun", "arsen")):
        r1 = 6 if word.startswith("commun") else 5
    else:
        for i in range(1, n):
            if not _is_vowel(word, i) and _is_vowel(word, i - 1):
                r1 = i + 1
                break
    r2 = n
    for i in range(r1 + 1, n):
        if not _is_vowel(word, i) and _is_vowel(word, i - 1):
            r2 = i + 1
            break
    return r1, r2


def _ends_short_syllable(word: str) -> bool:
    n = len(word)
    if n == 2:
        return _is_vowel(word, 0) and not _is_vowel(word, 1)
    if n >= 3:
        return (
            not _is_vowel(word, n - 3)
            and _is_vowel(word, n - 2)
            and not _is_vowel(word, n - 1)
            and word[n - 1] not in "wxY"
        )
    return False


def _is_short(word: str, r1: int) -> bool:
    return r1 >= len(word) and _ends_short_syllable(word)


def _contains_vowel(word: str, end: int) -> bool:
    return any(_is_vowel(word, i) for i in range(end))


def _reference_stem_once(word: str) -> str:
    if len(word) <= 2:
        return word
    if word in _EXCEPTIONS:
        return _EXCEPTIONS[word]

    word = word.lstrip("'")
    if len(word) <= 2:
        return word

    # Mark consonant y as Y to keep vowel tests local
    chars = list(word)
    if chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and chars[i - 1] in "aeiouy":
            chars[i] = "Y"
    word = "".join(chars)

    r1, r2 = _regions(word.lower())

    # Step 0
    for suf in ("'s'", "'s", "'"):
        if word.endswith(suf):
            word = word[: -len(suf)]
            break

    # Step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith(("ied", "ies")):
        word = word[:-2] if len(word) > 4 else word[:-1]
    elif word.endswith(("us", "ss")):
        pass
    elif word.endswith("s"):
        if any(_is_vowel(word, i) for i in range(len(word) - 2)):
            word = word[:-1]

    if word.lower() in _STOP_AFTER_1A:
        return word.lower().replace("Y", "y")

    # Step 1b
    if word.endswith(("eedly", "eed")):
        suf = "eedly" if word.endswith("eedly") else "eed"
        if len(word) - len(suf) >= r1:
            word = word[: -len(suf)] + "ee"
    else:
        for suf in ("ingly", "edly", "ing", "ed"):
            if word.endswith(suf):
                stemmed = word[: -len(suf)]
                if _contains_vowel(stemmed, len(stemmed)):
                    word = stemmed
                    if word.endswith(("at", "bl", "iz")):
                        word += "e"
                    elif word.endswith(DOUBLES):
                        word = word[:-1]
                    elif _is_short(word, r1):
                        word += "e"
                break

    # Step 1c
    if len(word) > 2 and word[-1] in "yY" and not _is_vowel(word, len(word) - 2):
        word = word[:-1] + "i"

    # Step 2
    for suf, repl in _STEP2_RULES:
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                word = word[: -len(suf)] + repl
            break
    else:
        if word.endswith("ogi"):
            if len(word) - 3 >= r1 and len(word) > 3 and word[-4] == "l":
                word = word[:-1]
        elif word.endswith("li"):
            if len(word) - 2 >= r1 and len(word) > 2 and word[-3] in LI_ENDINGS:
                word = word[:-2]

    # Step 3
    for suf, repl in _STEP3_RULES:
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                word = word[: -len(suf)] + repl
            break
    else:
        if word.endswith("ative") and len(word) - 5 >= r2:
            word = word[:-5]

    # Step 4
    for suf in _STEP4_SUFFIXES:
        if word.endswith(suf):
            if len(word) - len(suf) >= r2:
                if suf == "ion":
                    if len(word) > 3 and word[-4] in "st":
                        word = word[:-3]
                else:
                    word = word[: -len(suf)]
            break

    # Step 5
    if word.endswith("e"):
        if len(word) - 1 >= r2:
            word = word[:-1]
        elif len(word) - 1 >= r1 and not _ends_short_syllable(word[:-1]):
            word = word[:-1]
    elif word.endswith("l") and len(word) - 1 >= r2 and len(word) > 1 and word[-2] == "l":
        word = word[:-1]

    return word.replace("Y", "y")


def _reference_fixed_point(word: str) -> str:
    current = word
    for _ in range(4):
        nxt = _reference_stem_once(current)
        if nxt == current:
            return current
        current = nxt
    return current


def _assert_matches_reference(word: str) -> None:
    assert stemmer._stem_once(word) == _reference_stem_once(word), repr(word)
    assert stemmer.stem(word) == _reference_fixed_point(word), repr(word)


def test_pass_matches_reference_on_bundled_words():
    words = _bundled_and_test_words()
    assert len(words) > 500
    for word in words:
        _assert_matches_reference(word)


# y moves the regions (a vowel or, marked, a consonant), and vowels and the
# letters of the rule suffixes make the steps fire.
ODD_ALPHABET = "abcdegilnorstuy"
RULE_SUFFIXES = sorted(
    {suf for suf, _ in _STEP2_RULES}
    | {suf for suf, _ in _STEP3_RULES}
    | set(_STEP4_SUFFIXES)
    | {"sses", "ied", "ies", "us", "ss", "s", "eedly", "eed", "ingly", "edly", "ing", "ed"}
    | {"at", "bl", "iz", "bb", "tt", "y", "ogi", "li", "ative", "e", "ll"}
)


@given(st.text(alphabet=ODD_ALPHABET, min_size=1, max_size=15))
@example("ayyy")  # a y right after a marked Y is a vowel, not a consonant
@example("yyy")  # a y at the start is marked, and the next y follows a consonant
@example("tied")  # step 1a takes ied to ie here, where step 1b would take ed
@example("generate")  # R1 after a fixed prefix, R2 searched from there
@settings(max_examples=1000)
def test_pass_matches_reference_on_odd_text(word):
    _assert_matches_reference(word)


@given(
    st.sampled_from(["", "gener", "commun", "arsen", "y"]),
    st.text(alphabet=ODD_ALPHABET, max_size=8),
    st.lists(st.sampled_from(RULE_SUFFIXES), min_size=1, max_size=3),
)
@settings(max_examples=1000)
def test_pass_matches_reference_on_every_rule_suffix(prefix, stem_text, suffixes):
    _assert_matches_reference(prefix + stem_text + "".join(suffixes))


# The shape of the benchmark's wide-vocabulary words (perfbench/gen.py): two
# syllables, onset + vowel + coda, then an optional English suffix.
ONSETS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
          "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr", "sh", "sl", "st", "str", "th", "tr"]
SYLLABLE_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "io", "ou", "oo", "y"]
CODAS = ["", "n", "r", "s", "t", "l", "m", "nd", "ng", "rt", "st", "ck", "x"]
WIDE_SUFFIXES = ["", "s", "ed", "ing", "er", "ly", "ness", "ation", "ment", "ful", "ive", "able", "ize", "ity",
                 "ous", "al", "ies"]
SYLLABLE = st.tuples(*map(st.sampled_from, (ONSETS, SYLLABLE_VOWELS, CODAS))).map("".join)


@given(SYLLABLE, SYLLABLE, st.sampled_from(WIDE_SUFFIXES))
@settings(max_examples=2000)
def test_pass_matches_reference_on_wide_words(first, second, suffix):
    _assert_matches_reference(first + second + suffix)


# --- a pass is skipped only where it is a no-op -------------------------------------
# stem runs no pass on a word, first or confirming, that ends in no step
# ending; the reference runs every pass and confirms. The wide-word and
# odd-text tests above compare the fixed points too.

def _no_step_acts_on(word: str) -> bool:
    """The test stem makes before each pass: the word ends in no ending that a step tests for."""
    return not word.endswith(stemmer._STEP_ENDINGS_BY_LAST_LETTER.get(word[-1], ()))


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=15))
@example("proceeder")  # the first pass leaves proceed, a stop word the confirming pass keeps
@settings(max_examples=1000)
def test_fixed_point_matches_reference_on_lowercase_text(word):
    assert stemmer.stem(word) == _reference_fixed_point(word), repr(word)


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=15))
@settings(max_examples=1000)
def test_no_step_acts_on_a_word_the_test_passes(word):
    if _no_step_acts_on(word):
        assert stemmer._stem_once(word) == _reference_stem_once(word) == word


def _wide_words(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    parts = (ONSETS, SYLLABLE_VOWELS, CODAS, ONSETS, SYLLABLE_VOWELS, CODAS, WIDE_SUFFIXES)
    return ["".join(map(rng.choice, parts)) for _ in range(count)]


def test_every_skipped_pass_matches_reference():
    skipped_first = skipped_confirm = 0
    for word in _bundled_and_test_words() + _wide_words(20_000, seed=0):
        once = stemmer._stem_once(word)
        assert stemmer.stem(word) == _reference_fixed_point(word), word
        if _no_step_acts_on(word):
            skipped_first += 1
            assert stemmer.stem(word) == word == once, word
        elif once != word and _no_step_acts_on(once):
            skipped_confirm += 1
            assert stemmer.stem(word) == once, word
    assert skipped_first > 1_000 and skipped_confirm > 5_000


def test_exceptions_and_stop_words_end_in_a_step_ending():
    # the import-time assertion: a whole-word special case never passes the skip test
    for word in [*_EXCEPTIONS, *_STOP_AFTER_1A]:
        assert word.endswith(stemmer._STEP_ENDINGS_BY_LAST_LETTER[word[-1]]), word
        assert not _no_step_acts_on(word), word
    assert set(RULE_SUFFIXES) - {"at", "bl", "iz", "bb", "tt"} <= stemmer._STEP_ENDINGS


# --- the input contract: every caller passes a non-empty [a-z]+ word ----------------
# stem has no step 0 and no case handling, so any other argument is a caller's bug.
# The callers are wrapped at the names they resolve stem by, as the benchmark's
# tracer wraps them.

CALL_SITES = (textprep, labels, extraction)
CONTRACT_LISTS = load_wordlists()
# Upper case, both apostrophes, digits, and non-ASCII letters whose lowercase or
# case-insensitive match is ASCII: dotted capital I, long s and the Kelvin sign.
RAW_ALPHABET = string.ascii_letters + string.digits + " '’-_.:#\nİſ\u212aéß"
RAW_TEXT = st.text(alphabet=RAW_ALPHABET, max_size=60) | st.text(max_size=30)


@given(RAW_TEXT)
@example("The App CRASHES on start, doesn’t it? İſ \u212aelvin 42nd x86_64 café")
@example("Can't Reproduce")
@example("## Steps to reproduce'")
@settings(max_examples=300)
def test_every_caller_passes_stem_a_lowercase_ascii_word(text):
    words = []

    def checked(word):
        words.append(word)
        assert WORD.fullmatch(word), repr(word)
        return stem(word)

    with mock.patch.object(textprep, "stem", checked), mock.patch.object(labels, "stem", checked), \
            mock.patch.object(extraction, "stem", checked):
        CONTRACT_LISTS._tokens.clear()
        preprocess(text, CONTRACT_LISTS)
        preprocess(text, CONTRACT_LISTS, filter_noise=False)
        extraction.normalize_title(text, CONTRACT_LISTS)
        labels.normalize_label(text, CONTRACT_LISTS)
    if WORD.search(text.lower()):
        assert words


def test_call_sites_are_the_stem_imports():
    # the wrap above sees every call: no other module holds stem, under any name
    import issueforge

    holders = set()
    for info in pkgutil.iter_modules(issueforge.__path__):
        module = importlib.import_module(f"issueforge.{info.name}")
        if info.name != "stemmer" and any(value is stem for value in vars(module).values()):
            holders.add(module)
    assert holders == set(CALL_SITES)
