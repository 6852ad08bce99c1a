"""Repository profiles and tf-idf cosine ranking for finding similar apps.

A profile is built from the About text, the ReadMe's pre-heading text, and the
content of ReadMe sections titled like a project description (introduction,
features, overview, ...). Profiles are rows of the classifier's sparse tf-idf
with tf = count/length (idf = ln(N/df) + 1), and a ranking is one product.
"""

from __future__ import annotations

import logging
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .classifier import TfidfMatrix, build_feature_space, count_terms, vectorize
from .errors import IssueforgeError
from .extraction import _titled_lines, normalize_title
from .ingestion import RepoRecord
from .textprep import WordLists, preprocess

logger = logging.getLogger(__name__)


class EmptyProfile(IssueforgeError):
    pass


PROFILE_SECTION_TITLES = (
    "introduction",
    "description",
    "features",
    "what it does",
    "about",
    "about the project",
    "overview",
    "summary",
    "todo",
)


def profile_text(repo: RepoRecord, lists: WordLists) -> str:
    """Concatenate About text, ReadMe preamble, and description-like sections."""
    parts: list[str] = []
    if repo.about_text:
        parts.append(repo.about_text)
    if repo.readme_text:
        # the titled-line scan of ``extraction.extract``: a section runs from its title line to the next one's
        lines, titles = _titled_lines(repo.readme_text)
        starts = [start for start, _ in titles]
        preamble = "\n".join(lines[: starts[0]]) if titles else repo.readme_text
        if preamble.strip():
            parts.append(preamble)
        wanted = {normalize_title(title, lists) for title in PROFILE_SECTION_TITLES}
        for (start, raw_title), end in zip(titles, starts[1:] + [len(lines)]):
            content = "\n".join(lines[start + 1 : end]).strip("\n")
            if normalize_title(raw_title, lists) in wanted and content.strip():
                parts.append(content)
    return "\n".join(parts)


def tfidf(token_lists: list[list[str]]) -> TfidfMatrix:
    """One tf-idf row per token list, tf = count/length, by the classifier's sparse path; column j is the
    j-th of the lists' distinct tokens, sorted."""
    if not all(token_lists):
        raise ValueError("tfidf takes non-empty token lists: tf = count/length")
    counted = count_terms([SimpleNamespace(tokens=tokens) for tokens in token_lists])  # it reads only .tokens
    space = build_feature_space(counted)
    X = vectorize(space, counted)
    lengths = np.array([len(tokens) for tokens in token_lists], dtype=np.float64)
    np.divide(X.values, lengths[X.row_ids], out=X.values)  # count × idf, in place, to tf × idf
    return X


class Profiles(NamedTuple):
    """Row i of ``matrix`` is ``repo_ids[i]``'s profile (repo ids sorted); ``tfidf`` gives the columns."""

    repo_ids: tuple[str, ...]
    matrix: TfidfMatrix


def build_profiles(repos: dict[str, RepoRecord], lists: WordLists) -> Profiles:
    """The profiles of every repo with usable text; empty ones are logged and skipped."""
    tokens_of: dict[str, list[str]] = {}
    for repo_id in sorted(repos):
        if tokens := preprocess(profile_text(repos[repo_id], lists), lists, filter_noise=False):
            tokens_of[repo_id] = tokens
        else:
            logger.info("similarity: repo %s has an empty profile, excluded", repo_id)
    return Profiles(tuple(tokens_of), tfidf(list(tokens_of.values())))


def rank_similar(query_repo: str, profiles: Profiles) -> tuple[tuple[str, float], ...]:
    """(repo, cosine) for every other profile, in descending cosine order, ties by repo id."""
    if query_repo not in profiles.repo_ids:
        raise EmptyProfile(f"query repo {query_repo!r} has no profile")
    X, row = profiles.matrix, profiles.repo_ids.index(query_repo)
    norms = np.sqrt(np.bincount(X.row_ids, weights=X.values * X.values, minlength=X.shape[0]))
    query = X.T @ (np.arange(X.shape[0]) == row)  # Xᵀe: the query's row as a dense vector
    scores = (X @ query / (norms * norms[row])).tolist()
    scored = [(repo_id, score) for repo_id, score in zip(profiles.repo_ids, scores) if repo_id != query_repo]
    return tuple(sorted(scored, key=lambda pair: (-pair[1], pair[0])))
