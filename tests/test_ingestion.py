import json
import re
import shutil
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issueforge import cli, github, ingestion
from issueforge.augmentation import Method, load_label_map
from issueforge.errors import ValidationError
from issueforge.extraction import load_patterns
from issueforge.ingestion import (
    Corpus,
    DanglingRepoRef,
    RawIssue,
    RepoRecord,
    SchemaViolation,
    filter_repos,
    load_corpus,
    load_repos,
    write_corpus,
    write_repos,
)
from issueforge.labels import IntentClass, load_lexicon
from issueforge.textprep import ProcessedDocument, Source, default_data_dir, load_wordlists


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def repo_row(repo_id: str, contributors: int = 2, **extra) -> dict:
    row = {
        "repo_id": repo_id,
        "full_name": f"demo/{repo_id}",
        "contributors": contributors,
        "stars": 5,
        "readme_text": None,
        "about_text": None,
    }
    row.update(extra)
    return row


def issue_row(issue_id: str, repo_id: str, labels: list[str] | None = None, **extra) -> dict:
    row = {
        "issue_id": issue_id,
        "repo_id": repo_id,
        "title": f"title {issue_id}",
        "body": f"body {issue_id}",
        "labels": labels if labels is not None else ["bug"],
        "created_at": "2023-01-02T03:04:05Z",
    }
    row.update(extra)
    return row


@pytest.fixture
def corpus_dir(tmp_path):
    write_jsonl(tmp_path / "repos.jsonl", [repo_row("r1"), repo_row("r2"), repo_row("r3")])
    write_jsonl(
        tmp_path / "issues.jsonl",
        [issue_row(f"i{i}", f"r{(i % 3) + 1}") for i in range(10)],
    )
    write_jsonl(
        tmp_path / "templates.jsonl",
        [{"repo_id": "r1", "path": ".github/ISSUE_TEMPLATE/bug.md", "raw_text": "x"}],
    )
    return tmp_path


def test_fixture_counts_and_links(corpus_dir):
    corpus = load_corpus(corpus_dir)
    assert len(corpus.repos) == 3
    assert len(corpus.issues) == 10
    assert all(issue.repo_id in corpus.repos for issue in corpus.issues)
    # 10 labeled issues round-robin over 3 repos: 4 for r1, 3 for r2, 3 for r3
    assert set(filter_repos(corpus, min_labeled_issues=3).repos) == {"r1"}
    assert set(filter_repos(corpus, min_labeled_issues=2).repos) == {"r1", "r2", "r3"}


def test_empty_issue_file(tmp_path):
    write_jsonl(tmp_path / "repos.jsonl", [repo_row("r1")])
    (tmp_path / "issues.jsonl").write_text("", encoding="utf-8")
    corpus = load_corpus(tmp_path)
    assert corpus.issues == []
    assert len(corpus.repos) == 1


def test_missing_title_reports_line_and_field(tmp_path):
    write_jsonl(tmp_path / "repos.jsonl", [repo_row("r1")])
    rows = [issue_row("i1", "r1"), issue_row("i2", "r1")]
    del rows[1]["title"]
    write_jsonl(tmp_path / "issues.jsonl", rows)
    with pytest.raises(SchemaViolation) as err:
        load_corpus(tmp_path)
    assert err.value.line_number == 2
    assert err.value.field == "title"


def test_a_bad_line_is_reported_before_any_later_line_is_read(tmp_path):
    # lines are parsed one at a time, so the duplicate on line 2 is found before line 3 is decoded
    write_jsonl(tmp_path / "repos.jsonl", [repo_row("r1")])
    rows = "".join(json.dumps(row) + "\n" for row in (issue_row("i1", "r1"), issue_row("i1", "r1")))
    (tmp_path / "issues.jsonl").write_text(rows + "{not json\n", encoding="utf-8")
    with pytest.raises(SchemaViolation) as err:
        load_corpus(tmp_path)
    assert (err.value.line_number, err.value.field) == (2, "issue_id")
    assert str(err.value) == "issues.jsonl:2: field 'issue_id': duplicate issue_id"


def test_a_jsonl_line_that_is_not_utf8_is_a_validation_error_naming_it(tmp_path):
    write_jsonl(tmp_path / "repos.jsonl", [repo_row("r1")])
    rows = "".join(json.dumps(row) + "\n" for row in (issue_row("i1", "r1"), issue_row("i2", "r1")))
    (tmp_path / "issues.jsonl").write_bytes(rows.encode("utf-8") + '{"title": "café"}\n'.encode("latin-1"))
    with pytest.raises(ValidationError, match=re.escape(f"{tmp_path / 'issues.jsonl'}:3: not UTF-8")):
        load_corpus(tmp_path)


def test_records_carry_no_instance_dict():
    # a slotted record holds its fields alone; a field added without slots would bring the dict back
    records = [
        RepoRecord("r1", "demo/r1", 2, 5),
        RawIssue("i1", "r1", "t", "b", ("bug",), "2023-01-02T03:04:05Z"),
        ProcessedDocument("i1:title", Source.ISSUE_TITLE, ("crash",)),
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_unlabeled_issues_not_counted(tmp_path):
    write_jsonl(tmp_path / "repos.jsonl", [repo_row("r1")])
    write_jsonl(
        tmp_path / "issues.jsonl",
        [issue_row("i1", "r1", labels=[]), issue_row("i2", "r1", labels=["bug"])],
    )
    corpus = load_corpus(tmp_path)
    assert set(filter_repos(corpus, min_labeled_issues=0).repos) == {"r1"}
    assert filter_repos(corpus, min_labeled_issues=1).repos == {}


def test_dangling_issue_ref(tmp_path):
    write_jsonl(tmp_path / "repos.jsonl", [repo_row("r1")])
    write_jsonl(tmp_path / "issues.jsonl", [issue_row("i1", "ghost")])
    with pytest.raises(DanglingRepoRef):
        load_corpus(tmp_path)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path)
    with pytest.raises(FileNotFoundError, match="repos.jsonl"):
        load_repos(tmp_path)


def test_load_repos_reads_repos_jsonl_alone(tmp_path):
    write_jsonl(tmp_path / "repos.jsonl", [repo_row("r2", about_text="Maps."), repo_row("r1")])
    (tmp_path / "issues.jsonl").write_text("{not json\n", encoding="utf-8")
    repos = load_repos(tmp_path)
    assert list(repos) == ["r2", "r1"] and repos["r2"].about_text == "Maps."
    (tmp_path / "copy").mkdir()
    written = write_repos(repos, tmp_path / "copy" / "repos.jsonl")
    assert load_repos(written.parent) == repos
    # sorted by repo_id, keys sorted, as write_corpus writes them
    assert [json.loads(line)["repo_id"] for line in written.read_text(encoding="utf-8").splitlines()] == ["r1", "r2"]


@pytest.mark.parametrize("rows,field,message", [
    ([repo_row("r1"), repo_row("r1")], "repo_id", "duplicate repo_id"),
    ([repo_row("r1", readme_text=5)], "readme_text", "expected str or null"),
    ([repo_row("r1", about_text=["a"])], "about_text", "expected str or null"),
])
def test_load_repos_checks_each_record(tmp_path, rows, field, message):
    write_jsonl(tmp_path / "repos.jsonl", rows)
    with pytest.raises(SchemaViolation, match=message) as err:
        load_repos(tmp_path)
    assert (err.value.line_number, err.value.field) == (len(rows), field)


# --- filtering --------------------------------------------------------------------------

def synthetic_corpus(spec: list[tuple[str, int, int]]) -> Corpus:
    """spec: (repo_id, number of labeled issues, contributors)."""
    repos = {}
    issues = []
    for repo_id, n_labeled, contributors in spec:
        repos[repo_id] = RepoRecord(
            repo_id=repo_id,
            full_name=f"demo/{repo_id}",
            contributors=contributors,
            stars=0,
        )
        for index in range(n_labeled):
            issues.append(
                RawIssue(
                    issue_id=f"{repo_id}-{index}",
                    repo_id=repo_id,
                    title="t",
                    body="",
                    label_names=("bug",),
                    created_at="2023-01-01T00:00:00Z",
                )
            )
    return Corpus(repos=repos, issues=issues)


def test_threshold_boundaries():
    corpus = synthetic_corpus([("a", 30, 2), ("b", 31, 1), ("c", 31, 2)])
    kept = filter_repos(corpus)
    assert set(kept.repos) == {"c"}  # 30 labeled issues is not enough; 1 contributor is not enough
    assert all(issue.repo_id == "c" for issue in kept.issues)


def test_filter_counts_the_labeled_issues_of_a_record_built_in_memory():
    # harvest builds its records this way, without loading a corpus directory
    record = RepoRecord(repo_id="a", full_name="demo/a", contributors=2, stars=0)
    issues = [RawIssue(f"a-{i}", "a", "t", "", ("bug",) if i < 31 else (), "2023-01-01T00:00:00Z") for i in range(40)]
    kept = filter_repos(Corpus(repos={"a": record}, issues=issues))
    assert set(kept.repos) == {"a"} and len(kept.issues) == 40


def test_filter_to_empty_is_legal():
    corpus = synthetic_corpus([("a", 1, 1)])
    kept = filter_repos(corpus)
    assert kept.repos == {} and kept.issues == []


def test_filter_idempotent():
    corpus = synthetic_corpus([("a", 40, 3), ("b", 10, 5), ("c", 35, 1)])
    once = filter_repos(corpus)
    twice = filter_repos(once)
    assert set(twice.repos) == set(once.repos)
    assert [i.issue_id for i in twice.issues] == [i.issue_id for i in once.issues]


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=5)),
        min_size=0,
        max_size=8,
    ),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=100)
def test_filter_monotone_in_thresholds(repo_specs, min_issues, min_contributors):
    corpus = synthetic_corpus([(f"r{i}", n, c) for i, (n, c) in enumerate(repo_specs)])
    base = set(filter_repos(corpus, min_issues, min_contributors).repos)
    tighter_issues = set(filter_repos(corpus, min_issues + 1, min_contributors).repos)
    tighter_contrib = set(filter_repos(corpus, min_issues, min_contributors + 1).repos)
    assert tighter_issues <= base
    assert tighter_contrib <= base


# --- round trip --------------------------------------------------------------------------

def test_write_load_round_trip(tmp_path, corpus_dir):
    corpus = load_corpus(corpus_dir)
    out = tmp_path / "copy"
    write_corpus(corpus, out)
    reloaded = load_corpus(out)
    assert set(reloaded.repos) == set(corpus.repos)
    for repo_id, record in corpus.repos.items():
        assert reloaded.repos[repo_id] == record
    assert sorted(reloaded.issues, key=lambda i: i.issue_id) == sorted(
        corpus.issues, key=lambda i: i.issue_id
    )
    # writing again is byte-identical
    again = tmp_path / "copy2"
    write_corpus(reloaded, again)
    for name in ("repos.jsonl", "issues.jsonl"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_stray_templates_file_is_ignored(corpus_dir):
    stray = corpus_dir / "templates.jsonl"
    write_jsonl(stray, [{"repo_id": "ghost", "path": ".github/ISSUE_TEMPLATE/bug.md", "raw_text": "x"}])
    corpus = load_corpus(corpus_dir)
    assert len(corpus.repos) == 3 and len(corpus.issues) == 10
    write_corpus(corpus, corpus_dir)
    assert json.loads(stray.read_text())["repo_id"] == "ghost"


def test_round_trip_preserves_odd_strings(tmp_path):
    strange = 'tab\there "quotes" \\ backslash éü emoji \U0001f41b newline\nend'
    write_jsonl(tmp_path / "repos.jsonl", [repo_row("r1", readme_text=strange, about_text=strange)])
    write_jsonl(tmp_path / "issues.jsonl", [issue_row("i1", "r1", title=strange, body=strange)])
    corpus = load_corpus(tmp_path)
    out = tmp_path / "written"
    write_corpus(corpus, out)
    reloaded = load_corpus(out)
    assert reloaded.issues[0].title == strange
    assert reloaded.issues[0].body == strange
    assert reloaded.repos["r1"].readme_text == strange


ODD_TEXT = 'éü \U0001f41b \u2028 "q" \\ \t\x00'
# What the row builders pass to write_jsonl: str-valued enum members (written as their values) and tuples
# (written as lists), besides plain JSON values; floats include nan and the infinities.
ENUM_MEMBERS = st.sampled_from([*Source, *IntentClass, *Method])
KEYS = st.text(max_size=6) | st.sampled_from([ODD_TEXT, "\x1f\x7f\u0085\ud7ff"]) | ENUM_MEMBERS
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | ENUM_MEMBERS,
    lambda children: (st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(KEYS, children, max_size=3)),
    max_leaves=10,
)


# True: the fallback without the C encoder, as on an interpreter that lacks it
@pytest.mark.parametrize("without_c_encoder", [True, False])
@given(rows=st.lists(st.dictionaries(KEYS, JSON_VALUES, max_size=5), max_size=5))
@settings(max_examples=150)
def test_write_jsonl_equals_per_row_dumps(tmp_path_factory, without_c_encoder, rows):
    rows = [*rows, {"z": ODD_TEXT, "a": [ODD_TEXT, 1.5, None], ODD_TEXT: {"b": True}}]
    with mock.patch.object(ingestion, "c_make_encoder", None if without_c_encoder else ingestion.c_make_encoder):
        path = ingestion.write_jsonl(rows, tmp_path_factory.getbasetemp() / "rows.jsonl")
    # every line, ended by "\n" alone (a written U+2028 or U+0085 is not a line break here), is its row's dumps
    lines = path.read_bytes().split(b"\n")
    assert lines == [json.dumps(row, sort_keys=True, ensure_ascii=False).encode("utf-8") for row in rows] + [b""]


# True: the rows carry non-ASCII text, which both encoders write unescaped
@pytest.mark.parametrize("non_ascii", [True, False])
def test_writer_without_the_c_encoder_writes_the_same_bytes(tmp_path, monkeypatch, non_ascii):
    text = ODD_TEXT if non_ascii else 'ascii "q" \\ \t\x00'
    rows = [{"source": Source.REVIEW, "tokens": ("a", text), "x": [float("nan"), float("-inf"), None]},
            {text: {"b": (IntentClass.BUG_REPORT, 1.5)}, "mode": Source.ISSUE_BODY}]
    fast = ingestion.write_jsonl(rows, tmp_path / "fast.jsonl").read_bytes()
    monkeypatch.setattr(ingestion, "c_make_encoder", None)
    slow = ingestion.write_jsonl(rows, tmp_path / "slow.jsonl").read_bytes()
    assert fast == slow == "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n"
                                   for row in rows).encode("utf-8")


def _circular() -> dict:
    row: dict = {"a": 1}
    row["self"] = [row]
    return row


@pytest.mark.parametrize("without_c_encoder", [True, False])
@pytest.mark.parametrize("bad", [lambda: {"ok": 1, "bad": [object()]}, lambda: {"bad": {1, 2}}, lambda: {"b": b"x"},
                                 lambda: {(1, 2): "tuple key"}, _circular], ids=["object", "set", "bytes", "key",
                                                                                "circular"])
def test_unwritable_row_raises_what_dumps_raises(tmp_path, monkeypatch, without_c_encoder, bad):
    with pytest.raises((TypeError, ValueError)) as expected:
        json.dumps(bad(), sort_keys=True, ensure_ascii=False)
    if without_c_encoder:
        monkeypatch.setattr(ingestion, "c_make_encoder", None)
    with pytest.raises(expected.type) as raised:
        ingestion.write_jsonl([{"first": "row"}, bad()], tmp_path / "rows.jsonl")
    assert str(raised.value) == str(expected.value)
    assert getattr(raised.value, "__notes__", None) == getattr(expected.value, "__notes__", None)


# --- the table reader -----------------------------------------------------------------------

DATA = default_data_dir()
WORD_LISTS = ("negative_modifiers.txt", "special_phrases.txt", "stopwords.txt", "lemmas.txt")


def test_table_lines_skips_blank_and_comment_lines_and_counts_physical_lines(tmp_path):
    table = tmp_path / "table.tsv"
    table.write_bytes(b"a\tb\r\n\n  # c\n\t\nd # e \n#\n")
    assert list(ingestion.table_lines(table)) == [(1, "a\tb"), (5, "d # e ")]


def test_decoded_lines_yields_every_line_with_its_ending(tmp_path):
    path = tmp_path / "input"
    path.write_bytes("a\r\n\nb\rc\n  # é\nd".encode("utf-8"))
    assert list(ingestion.decoded_lines(path)) == [(1, "a\r\n"), (2, "\n"), (3, "b\rc\n"), (4, "  # é\n"), (5, "d")]


def _word_lists(path: Path):
    """load_wordlists reading ``path`` as its word list, with the bundled copy of the other three."""
    for name in WORD_LISTS:
        if name != path.name:
            shutil.copy(DATA / name, path.parent / name)
    return load_wordlists(path.parent)


def _harvest_names(path: Path) -> list[str]:
    """The repo names that the harvest command reads from ``path`` and passes to fetch_remote."""
    args = cli.build_parser().parse_args(["harvest", "--repos", str(path), "--out", str(path.parent / "corpus")])
    fetched = []
    with mock.patch.object(github, "fetch_remote", lambda client, names, *_, **__: fetched.append(names)):
        args.func(args)
    return fetched[0]


# file name, text, loader, a bad line, the start of its message
TABLES = {
    "patterns": ("patterns.tsv", (DATA / "patterns.tsv").read_text(encoding="utf-8"),
                 lambda path: [(p.name, p.regex.pattern) for p in load_patterns(path)], b"X1\tcrash",
                 "expected name<TAB>regex<TAB>flags"),
    "lexicon": ("lexicon.tsv", (DATA / "lexicon.tsv").read_text(encoding="utf-8"),
                lambda path: load_lexicon(path, load_wordlists()), b"crash\tbugs",
                "unknown intent class 'bugs'"),
    "label-map": ("pd5.tsv", (DATA / "labelmaps" / "pd5.tsv").read_text(encoding="utf-8"), load_label_map,
                  b"crash\tbugs", "unknown target class 'bugs'"),
    **{name.split(".")[0].replace("_", "-"): (name, (DATA / name).read_text(encoding="utf-8"), _word_lists,
                                              b"caf\xe9", "not UTF-8") for name in WORD_LISTS[:3]},
    "lemmas": ("lemmas.txt", (DATA / "lemmas.txt").read_text(encoding="utf-8"), _word_lists, b"crashes",
               "expected form<TAB>lemma"),
    "harvest-list": ("repos.txt", "demo/x\ndemo/y\n", _harvest_names, b"demo/\xff", "not UTF-8"),
    "harvest-list-not-owner-name": ("repos.txt", "demo/x\ndemo/y\n", _harvest_names, b"demo/x/issues",
                                    "expected owner/name, got 'demo/x/issues'"),
}


@pytest.mark.parametrize("name,text,load,bad_line,message", TABLES.values(), ids=TABLES.keys())
def test_every_table_skips_comments_and_blank_lines_and_names_a_bad_line(tmp_path, name, text, load, bad_line,
                                                                         message):
    first, rest = text.split("\n", 1)
    plain, commented = tmp_path / "plain", tmp_path / "commented"
    plain.mkdir()
    commented.mkdir()
    (plain / name).write_text(text, encoding="utf-8")
    with_comments = f"# a header\n\n{first}\n    # an indented comment\n \t\n{rest}\n\n"
    (commented / name).write_text(with_comments, encoding="utf-8")
    assert load(commented / name) == load(plain / name)
    (commented / name).write_bytes(with_comments.encode("utf-8") + bad_line + b"\n")
    line_number = with_comments.count("\n") + 1
    with pytest.raises(ValidationError, match=re.escape(f"{commented / name}:{line_number}: {message}")):
        load(commented / name)
