"""Repository profiles and tf-idf cosine ranking for finding similar apps.

A profile is built from the About text, the ReadMe's pre-heading text, and the
content of ReadMe sections titled like a project description (introduction,
features, overview, ...). Profiles are compared with cosine similarity over
tf-idf vectors (tf = count/length, idf = ln(N/df) + 1).
"""

from __future__ import annotations

import logging
import math

from .classifier import idf
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


def tfidf(token_lists: list[list[str]]) -> list[dict[str, float]]:
    """tf-idf vectors for a list of token documents (tf=count/len, idf=ln(N/df)+1)."""
    n_docs = len(token_lists)
    if not any(token_lists):
        raise ValueError("tfidf requires at least one non-empty document")
    df: dict[str, int] = {}
    for tokens in token_lists:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    weights = {term: idf(n_docs, n) for term, n in df.items()}
    vectors: list[dict[str, float]] = []
    for tokens in token_lists:
        vector: dict[str, float] = {}
        if tokens:
            length = len(tokens)
            counts: dict[str, int] = {}
            for term in tokens:
                counts[term] = counts.get(term, 0) + 1
            for term, count in counts.items():
                vector[term] = (count / length) * weights[term]
        vectors.append(vector)
    return vectors


def cosine(u: dict[str, float], v: dict[str, float]) -> float:
    if len(v) < len(u):
        u, v = v, u
    dot = sum(weight * v.get(term, 0.0) for term, weight in u.items())
    norm_u = math.sqrt(sum(w * w for w in u.values()))
    norm_v = math.sqrt(sum(w * w for w in v.values()))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return dot / (norm_u * norm_v)


def build_profiles(repos: dict[str, RepoRecord], lists: WordLists) -> dict[str, dict[str, float]]:
    """Each repo's profile tf-idf vector, for every repo with usable text; empty ones are logged and skipped."""
    token_lists: list[list[str]] = []
    ids: list[str] = []
    for repo_id in sorted(repos):
        tokens = preprocess(profile_text(repos[repo_id], lists), lists, filter_noise=False)
        if not tokens:
            logger.info("similarity: repo %s has an empty profile, excluded", repo_id)
            continue
        ids.append(repo_id)
        token_lists.append(tokens)
    return dict(zip(ids, tfidf(token_lists))) if ids else {}


def rank_similar(query_repo: str, profiles: dict[str, dict[str, float]]) -> tuple[tuple[str, float], ...]:
    """(repo, cosine) for all other non-empty profiles, in descending cosine order."""
    query = profiles.get(query_repo)
    if not query:
        raise EmptyProfile(f"query repo {query_repo!r} has no profile")
    scored = [(repo_id, cosine(query, vector))
              for repo_id, vector in profiles.items() if repo_id != query_repo and vector]
    return tuple(sorted(scored, key=lambda pair: (-pair[1], pair[0])))
