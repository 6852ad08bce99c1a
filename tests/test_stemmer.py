import inspect
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issueforge import stemmer
from issueforge.stemmer import stem
from issueforge.textprep import default_data_dir

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


# --- the per-token cache --------------------------------------------------------

def _bundled_and_test_words() -> list[str]:
    words = {word for pair in KNOWN for word in pair}
    for name in ("lemmas.txt", "stopwords.txt", "lexicon.tsv"):
        for line in (default_data_dir() / name).read_text(encoding="utf-8").splitlines():
            words.update(line.lower().split())
    return sorted(words)


def test_cached_stem_equals_uncached_on_bundled_words():
    words = _bundled_and_test_words()
    assert len(words) > 500
    for word in words:
        assert stem(word) == stemmer._stem_fixed_point(word), word


@given(st.text(alphabet=string.ascii_lowercase + "'", min_size=1, max_size=15))
@settings(max_examples=500)
def test_cached_stem_equals_uncached(word):
    assert stem(word) == stemmer._stem_fixed_point(word)


def test_second_call_returns_the_same_value():
    word = "unreproducibilities"
    first = stem(word)
    assert stemmer._STEMS[word] == first
    assert stem(word) == first


def test_stem_is_a_plain_function():
    # The benchmark's tracer (perfbench/tracer.py) wraps only plain functions;
    # a cache wrapper such as functools.lru_cache would hide the stemmer.stem span.
    assert inspect.isfunction(stemmer.stem)
