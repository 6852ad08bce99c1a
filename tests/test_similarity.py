import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issueforge.ingestion import RepoRecord
from issueforge.similarity import (
    EmptyProfile,
    Profiles,
    build_profiles,
    profile_text,
    rank_similar,
    tfidf,
)
from issueforge.textprep import load_wordlists, preprocess


# --- independent oracle: tf-idf and cosine straight from the definitions ------------

def oracle_tfidf(docs: list[list[str]]) -> list[dict[str, float]]:
    n = len(docs)
    vocabulary = sorted({t for doc in docs for t in doc})
    df = {t: sum(1 for doc in docs if t in doc) for t in vocabulary}
    out = []
    for doc in docs:
        vec = {}
        for term in vocabulary:
            count = sum(1 for t in doc if t == term)
            if count:
                vec[term] = (count / len(doc)) * (math.log(n / df[term]) + 1.0)
        out.append(vec)
    return out


def oracle_cosine(u: dict[str, float], v: dict[str, float]) -> float:
    terms = sorted(set(u) | set(v))
    a = np.array([u.get(t, 0.0) for t in terms])
    b = np.array([v.get(t, 0.0) for t in terms])
    if not terms or not a.any() or not b.any():
        return 0.0
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def tfidf_vectors(docs: list[list[str]]) -> list[dict[str, float]]:
    """``tfidf``'s rows as {term: weight} dicts, the oracle's form: column j is the j-th distinct token, sorted."""
    matrix = tfidf(docs)
    terms = sorted({t for doc in docs for t in doc})
    assert matrix.shape[1] == len(terms)
    vectors: list[dict[str, float]] = [{} for _ in docs]
    for row, col, value in zip(matrix.row_ids.tolist(), matrix.col_ids.tolist(), matrix.values.tolist()):
        vectors[row][terms[col]] = value
    return vectors


def make_profiles(token_lists: dict[str, list[str]]) -> Profiles:
    ids = sorted(token_lists)
    return Profiles(tuple(ids), tfidf([token_lists[i] for i in ids]))


def cosines(token_lists: dict[str, list[str]]) -> dict[tuple[str, str], float]:
    """(query, other) -> ``rank_similar``'s score, for every ordered pair of distinct ids."""
    profiles = make_profiles(token_lists)
    return {(query, other): score for query in profiles.repo_ids for other, score in rank_similar(query, profiles)}


# --- profile construction -------------------------------------------------------------

README = """# PodPlayer

A podcast player for phones.

## Features

Subscribe to feeds, download episodes, playback queue.

## Install

Use the store build.

## License

GPL.
"""


def repo(repo_id: str, readme: str | None, about: str | None) -> RepoRecord:
    return RepoRecord(
        repo_id=repo_id, full_name=f"demo/{repo_id}", contributors=2, stars=10,
        readme_text=readme, about_text=about,
    )


def profile_terms(repos: dict[str, RepoRecord], lists) -> list[str]:
    """``build_profiles``'s columns: the sorted distinct tokens of every profile."""
    profiles = build_profiles(repos, lists)
    tokens = {token for repo_id in profiles.repo_ids
              for token in preprocess(profile_text(repos[repo_id], lists), lists, filter_noise=False)}
    assert profiles.matrix.shape[1] == len(tokens)
    return sorted(tokens)


def test_profile_takes_preamble_and_description_sections(lists):
    tokens = profile_terms({"a": repo("a", README, "Podcast app.")}, lists)
    assert "podcast" in tokens and "subscrib" in tokens
    # install and license sections are excluded
    assert "store" not in tokens and "gpl" not in tokens


def test_profile_features_only_readme(lists):
    readme = "## Features\n\nRoute planning and offline maps.\n"
    tokens = profile_terms({"a": repo("a", readme, None)}, lists)
    assert "rout" in tokens and "offlin" in tokens and "map" in tokens


def test_empty_profile_raises(lists):
    profiles = build_profiles({"a": repo("a", "", None), "b": repo("b", None, None), "c": repo("c", README, None)},
                              lists)
    for query in ("a", "b"):
        with pytest.raises(EmptyProfile):
            rank_similar(query, profiles)


# --- tfidf ------------------------------------------------------------------------------

def test_single_document_idf_is_one(lists):
    [vec] = tfidf_vectors([["app", "app", "crash"]])
    assert vec["app"] == pytest.approx(2 / 3)
    assert vec["crash"] == pytest.approx(1 / 3)


def test_identical_documents_identical_vectors():
    va, vb = tfidf_vectors([["a", "b"], ["a", "b"]])
    assert va == vb


def test_three_document_corpus_hand_computed():
    docs = [["app", "crash"], ["app", "sync"], ["map", "sync", "sync"]]
    vectors = tfidf_vectors(docs)
    expected = oracle_tfidf(docs)
    for vec, exp in zip(vectors, expected):
        assert set(vec) == set(exp)
        for term in vec:
            assert vec[term] == pytest.approx(exp[term], abs=1e-12)
    # frozen spot values: idf(app) = ln(3/2)+1, idf(crash) = ln(3)+1
    assert vectors[0]["app"] == pytest.approx(0.5 * (math.log(1.5) + 1.0), abs=1e-12)
    assert vectors[0]["crash"] == pytest.approx(0.5 * (math.log(3.0) + 1.0), abs=1e-12)
    assert vectors[2]["sync"] == pytest.approx((2 / 3) * (math.log(1.5) + 1.0), abs=1e-12)


def test_tfidf_requires_a_nonempty_document():
    with pytest.raises(ValueError):
        tfidf([[], []])


# --- cosine and ranking ---------------------------------------------------------------

def test_identical_profiles_score_one():
    profiles = make_profiles({"a": ["x", "y"], "b": ["x", "y"], "c": ["z", "w"]})
    ranking = rank_similar("a", profiles)
    assert ranking[0] == ("b", pytest.approx(1.0, abs=1e-12))


def test_disjoint_profiles_score_zero():
    profiles = make_profiles({"a": ["x", "y"], "b": ["z", "w"]})
    ranking = rank_similar("a", profiles)
    assert ranking[0][1] == 0.0


def test_query_excluded_and_all_others_present():
    profiles = make_profiles({k: [k, "shared"] for k in "abcd"})
    ranking = rank_similar("a", profiles)
    assert [r for r, _ in ranking] != []
    assert "a" not in {r for r, _ in ranking}
    assert {r for r, _ in ranking} == {"b", "c", "d"}


def test_four_repo_ranking_matches_oracle():
    token_lists = {
        "a": ["pod", "audio", "feed", "queue"],
        "b": ["pod", "audio", "book"],
        "c": ["note", "sync", "tag"],
        "d": ["map", "route", "offline", "audio"],
    }
    profiles = make_profiles(token_lists)
    ranking = rank_similar("a", profiles)
    exp_vectors = dict(zip(sorted(token_lists), oracle_tfidf([token_lists[k] for k in sorted(token_lists)])))
    expected = sorted(
        ((other, oracle_cosine(exp_vectors["a"], exp_vectors[other])) for other in "bcd"),
        key=lambda pair: (-pair[1], pair[0]),
    )
    assert [r for r, _ in ranking] == [r for r, _ in expected]
    for (_, got), (_, want) in zip(ranking, expected):
        assert got == pytest.approx(want, abs=1e-9)


def test_missing_query_raises():
    profiles = make_profiles({"a": ["x"], "b": ["y"]})
    with pytest.raises(EmptyProfile):
        rank_similar("zz", profiles)


def test_build_profiles_skips_empty(lists):
    profiles = build_profiles({"a": repo("a", README, "Podcast app."), "b": repo("b", None, None)}, lists)
    assert profiles.repo_ids == ("a",)


# --- properties -----------------------------------------------------------------------

TOKENS = st.lists(st.sampled_from(["app", "map", "pod", "sync", "note", "queue", "tag"]), min_size=1, max_size=12)


@given(TOKENS)
@settings(max_examples=100)
def test_self_cosine_is_one(tokens):
    assert cosines({"a": tokens, "b": tokens})["a", "b"] == pytest.approx(1.0, abs=1e-12)


@given(TOKENS, TOKENS)
@settings(max_examples=100)
def test_cosine_symmetric(ta, tb):
    scores = cosines({"a": ta, "b": tb})
    assert scores["a", "b"] == pytest.approx(scores["b", "a"], abs=1e-12)


@given(TOKENS, TOKENS, st.integers(min_value=2, max_value=5))
@settings(max_examples=100)
def test_token_replication_leaves_cosine_unchanged(ta, tb, k):
    assert cosines({"a": ta * k, "b": tb})["a", "b"] == pytest.approx(cosines({"a": ta, "b": tb})["a", "b"], abs=1e-9)


def test_random_corpora_match_oracle_within_1e9():
    rng = random.Random(5)
    vocab = [f"t{i}" for i in range(30)]
    for _ in range(25):
        n_docs = rng.randint(2, 10)
        docs = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            for _ in range(n_docs)
        ]
        got = tfidf_vectors(docs)
        want = oracle_tfidf(docs)
        for g, w in zip(got, want):
            assert set(g) == set(w)
            for term in g:
                assert abs(g[term] - w[term]) < 1e-9
        # every ordered pair of distinct documents; a document against itself is test_self_cosine_is_one
        for (i, j), score in cosines({f"{i:02d}": doc for i, doc in enumerate(docs)}).items():
            assert abs(score - oracle_cosine(want[int(i)], want[int(j)])) < 1e-9


CORPUS = st.lists(TOKENS, min_size=2, max_size=6)


@given(CORPUS, st.data())
@settings(max_examples=100)
def test_ranking_follows_oracle_order_and_ties_break_by_id(docs, data):
    # some documents again, under ids drawn in any order, so a copy may sort before its original
    docs = docs + [docs[i] for i in data.draw(st.lists(st.sampled_from(range(len(docs))), max_size=3))]
    token_lists = dict(zip(data.draw(st.permutations([f"r{i:02d}" for i in range(len(docs))])), docs))
    profiles = make_profiles(token_lists)
    oracle = dict(zip(profiles.repo_ids, oracle_tfidf([token_lists[r] for r in profiles.repo_ids])))
    for query in profiles.repo_ids:
        ranking = rank_similar(query, profiles)
        want = {other: oracle_cosine(oracle[query], oracle[other]) for other in profiles.repo_ids if other != query}
        assert sorted(r for r, _ in ranking) == sorted(want)
        for repo_id, score in ranking:
            assert abs(score - want[repo_id]) < 1e-9
        for (a, _), (b, _) in zip(ranking, ranking[1:]):
            if abs(want[a] - want[b]) > 1e-12:
                assert want[a] > want[b]
        score, position = dict(ranking), {r: i for i, (r, _) in enumerate(ranking)}
        for a in want:
            for b in want:
                if a < b and sorted(token_lists[a]) == sorted(token_lists[b]):
                    assert score[a] == score[b] and position[a] < position[b]
