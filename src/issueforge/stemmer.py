"""English (Porter2) stemmer.

Implements the Snowball English stemming algorithm from scratch so that label
surfaces, section titles, and fallback lemmatization all share one token
normalizer. ``stem`` iterates the single-pass algorithm to a fixed point,
which makes every downstream normalization idempotent by construction, and
remembers the result for each distinct token.
"""

from __future__ import annotations

VOWELS = frozenset("aeiouy")
DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
LI_ENDINGS = frozenset("cdeghkmnrt")

# Whole-word special cases of the reference algorithm, plus a small set of
# unification entries so that derivational families used by the label lexicon
# land on a single surface (e.g. reproduction/reproduced/reproducible).
_EXCEPTIONS = {
    "skis": "ski",
    "skies": "sky",
    "dying": "die",
    "lying": "lie",
    "tying": "tie",
    "idly": "idl",
    "gently": "gentl",
    "ugly": "ugli",
    "early": "earli",
    "only": "onli",
    "singly": "singl",
    "sky": "sky",
    "news": "news",
    "howe": "howe",
    "atlas": "atlas",
    "cosmos": "cosmos",
    "bias": "bias",
    "andes": "andes",
    "reproduction": "reproduc",
    "reproductions": "reproduc",
    "propose": "propos",
    "proposed": "propos",
    "proposes": "propos",
    "proposing": "propos",
    "proposal": "propos",
    "proposals": "propos",
    "propos": "propos",
    "usecase": "usecas",
    "usecases": "usecas",
    "usecas": "usecas",
}

# Words left untouched after step 1a in the reference algorithm.
_STOP_AFTER_1A = frozenset(
    ["inning", "outing", "canning", "herring", "earring", "proceed", "exceed", "succeed"]
)

_STEP2_RULES = [
    ("ization", "ize"),
    ("ational", "ate"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("iveness", "ive"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("lessli", "less"),
    ("entli", "ent"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("ousli", "ous"),
    ("iviti", "ive"),
    ("fulli", "ful"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("abli", "able"),
    ("izer", "ize"),
    ("ator", "ate"),
    ("alli", "al"),
    ("bli", "ble"),
]

_STEP3_RULES = [
    ("ational", "ate"),
    ("tional", "tion"),
    ("alize", "al"),
    ("icate", "ic"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
]

_STEP4_SUFFIXES = [
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "ion",
    "al",
    "er",
    "ic",
]


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


def _stem_once(word: str) -> str:
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


def _stem_fixed_point(word: str) -> str:
    current = word
    for _ in range(4):
        nxt = _stem_once(current)
        if nxt == current:
            return current
        current = nxt
    return current


# One entry per distinct token ever stemmed: the stem of a word never changes,
# and token vocabularies repeat heavily across documents.
_STEMS: dict[str, str] = {}


def stem(word: str) -> str:
    """Stem a lowercase token, iterating to a fixed point (at most 4 passes)."""
    stemmed = _STEMS.get(word)
    if stemmed is None:
        stemmed = _STEMS[word] = _stem_fixed_point(word)
    return stemmed
