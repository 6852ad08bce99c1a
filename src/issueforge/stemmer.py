"""English (Porter2) stemmer.

Implements the Snowball English stemming algorithm from scratch so that label
surfaces, section titles, and fallback lemmatization all share one token
normalizer. ``stem`` takes a non-empty ``[a-z]+`` word, the only input its
callers produce (they drop digits, apostrophes, case and non-ASCII letters
first), so there is no step 0 and no case handling. One pass finds R1 and R2
with one regular expression and dispatches on the word's last letter: step 1a
runs only on a final s (or ied), step 1b only on a final d, g or y, and steps
2-4 look up only the suffix lengths that end in that letter, longest first.
``stem`` iterates that pass to a fixed point, which makes every downstream
normalization idempotent by construction, and runs no pass on a word that ends
in no suffix that any step tests for. Callers memoize per distinct input;
``stem`` keeps no state.
"""

from __future__ import annotations

import re

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


# Suffix tables keyed by suffix, tried longest length first. Within each rule
# list, suffixes of equal length cannot both match a word, so the longest match
# is the first match in list order.
_STEP2 = dict(_STEP2_RULES)
_STEP3 = dict(_STEP3_RULES)
_STEP4 = frozenset(_STEP4_SUFFIXES)


def _lengths_by_last_letter(suffixes) -> dict[str, tuple[int, ...]]:
    """Each final letter's suffix lengths, longest first: only these can match a word ending in it."""
    lasts = {suf[-1] for suf in suffixes}
    return {last: tuple(sorted({len(suf) for suf in suffixes if suf[-1] == last}, reverse=True)) for last in lasts}


_STEP2_LENGTHS = _lengths_by_last_letter(_STEP2)
_STEP3_LENGTHS = _lengths_by_last_letter(_STEP3)
_STEP4_LENGTHS = _lengths_by_last_letter(_STEP4)

# Step 1b's suffixes by last letter; the eed forms, with their own rule, go first.
_STEP1B = {"d": ("eed", "ed"), "g": ("ing",), "y": ("eedly", "ingly", "edly")}

# Every ending that some step tests for, by last letter: steps 1a-1c, the
# step 2-4 tables with ogi, li and ative, and step 5's e and ll.
_STEP_ENDINGS = {"sses", "ied", "ies", "us", "ss", "s", "eedly", "eed", "ingly", "edly", "ing", "ed",
                 "y", *_STEP2, "ogi", "li", *_STEP3, "ative", *_STEP4, "e", "ll"}
_STEP_ENDINGS_BY_LAST_LETTER = {
    last: tuple(sorted(suf for suf in _STEP_ENDINGS if suf[-1] == last)) for last in {suf[-1] for suf in _STEP_ENDINGS}
}

# stem runs no pass on a word that ends in none of these, so no special case may.
assert all(word.endswith(_STEP_ENDINGS_BY_LAST_LETTER.get(word[-1], ())) for word in [*_EXCEPTIONS, *_STOP_AFTER_1A])

# After consonant y is marked as Y, a lowercase y is always a vowel and Y never is.
_Y_AFTER_VOWEL = re.compile(r"([aeiouy])y")
# R1 ends right after the first non-vowel that follows a vowel, or after one of
# three fixed prefixes; R2 likewise, searching from R1.
_REGIONS = re.compile(r"(gener|commun|arsen|.*?[aeiouy][^aeiouy])(.*?[aeiouy][^aeiouy])?")
# A short syllable: vowel-consonant as the whole word, or
# consonant-vowel-consonant (the last not w, x or Y) at its end.
_SHORT_SYLLABLE_END = re.compile(r"\A[aeiouy][^aeiouy]\Z|[^aeiouy][aeiouy][^aeiouywxY]\Z")


def _stem_once(word: str) -> str:
    if len(word) <= 2:
        return word
    if word in _EXCEPTIONS:
        return _EXCEPTIONS[word]

    # Mark consonant y as Y: at the start of the word, or right after a vowel.
    has_y = "y" in word
    if has_y:
        if word[0] == "y":
            word = "Y" + word[1:]
        word = _Y_AFTER_VOWEL.sub(r"\1Y", word)
    n = len(word)
    match = _REGIONS.match(word)
    if match is None:
        r1 = r2 = n
    else:
        r1, r2 = match.end(1), match.end(2)  # end(2) is -1 when there is no R2
        if r2 < 0:
            r2 = n

    # Step 1a: every suffix ends in s, or is ied
    last = word[-1]
    if last == "s":
        if word.endswith("sses"):
            word = word[:-2]
        elif word.endswith("ies"):
            word = word[:-2] if n > 4 else word[:-1]
        elif word.endswith(("us", "ss")):
            pass
        elif not VOWELS.isdisjoint(word[:-2]):
            word = word[:-1]
        last = word[-1]
    elif last == "d" and word.endswith("ied"):
        word = word[:-2] if n > 4 else word[:-1]
        last = word[-1]

    if word in _STOP_AFTER_1A:
        return word

    # Step 1b
    for suf in _STEP1B.get(last, ()):
        if word.endswith(suf):
            stemmed = word[: -len(suf)]
            if suf == "eed" or suf == "eedly":
                if len(stemmed) >= r1:
                    word = stemmed + "ee"
            elif not VOWELS.isdisjoint(stemmed):
                word = stemmed
                if word.endswith(("at", "bl", "iz")):
                    word += "e"
                elif word.endswith(DOUBLES):
                    word = word[:-1]
                elif r1 >= len(word) and _SHORT_SYLLABLE_END.search(word):
                    word += "e"
            break

    # Step 1c
    if len(word) > 2 and word[-1] in "yY" and word[-2] not in VOWELS:
        word = word[:-1] + "i"

    # Steps 2-4 stop at the longest listed suffix, even when its region test fails.
    # Step 2
    n = len(word)
    last = word[-1]
    for k in _STEP2_LENGTHS.get(last, ()):
        if k <= n and word[-k:] in _STEP2:
            if n - k >= r1:
                word = word[:-k] + _STEP2[word[-k:]]
            break
    else:
        if last == "i":
            if word.endswith("ogi"):
                if n - 3 >= r1 and n > 3 and word[-4] == "l":
                    word = word[:-1]
            elif word.endswith("li"):
                if n - 2 >= r1 and n > 2 and word[-3] in LI_ENDINGS:
                    word = word[:-2]

    # Step 3
    n = len(word)
    last = word[-1]
    for k in _STEP3_LENGTHS.get(last, ()):
        if k <= n and word[-k:] in _STEP3:
            if n - k >= r1:
                word = word[:-k] + _STEP3[word[-k:]]
            break
    else:
        if last == "e" and word.endswith("ative") and n - 5 >= r2:
            word = word[:-5]

    # Step 4
    n = len(word)
    for k in _STEP4_LENGTHS.get(word[-1], ()):
        if k <= n and word[-k:] in _STEP4:
            if n - k >= r2:
                if word[-k:] == "ion":
                    if n > 3 and word[-4] in "st":
                        word = word[:-3]
                else:
                    word = word[:-k]
            break

    # Step 5
    n = len(word)
    last = word[-1]
    if last == "e":
        if n - 1 >= r2:
            word = word[:-1]
        elif n - 1 >= r1 and not _SHORT_SYLLABLE_END.search(word[:-1]):
            word = word[:-1]
    elif last == "l" and n - 1 >= r2 and n > 1 and word[-2] == "l":
        word = word[:-1]

    return word.replace("Y", "y") if has_y else word


def stem(word: str) -> str:
    """Stem a non-empty [a-z]+ word, iterating to a fixed point (at most 4 passes)."""
    for _ in range(4):
        if not word.endswith(_STEP_ENDINGS_BY_LAST_LETTER.get(word[-1], ())):
            return word
        nxt = _stem_once(word)
        if nxt == word:
            return word
        word = nxt
    return word
