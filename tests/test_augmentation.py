import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issueforge.augmentation import (
    AugmentationSpec,
    EmptyPool,
    Method,
    UnknownLabel,
    augment,
    is_primary,
    load_docs,
    load_label_map,
    load_primary,
    write_docs,
)
from issueforge.classifier import TfidfMatrix
from issueforge.errors import ValidationError
from issueforge.ingestion import SchemaViolation
from issueforge.labels import IntentClass
from issueforge.similarity import Profiles
from issueforge.textprep import ProcessedDocument, Source, default_data_dir


def doc(doc_id: str, app_id: str = "a1", intents=frozenset({IntentClass.BUG_REPORT})) -> ProcessedDocument:
    return ProcessedDocument(
        doc_id=doc_id,
        source=Source.ISSUE_BODY,
        tokens=("app", "crash", "rotate"),
        intents=intents,
        app_id=app_id,
    )


def hand_profiles(weights: dict[str, dict[str, float]]) -> Profiles:
    """Profiles whose rows hold exactly ``weights`` ({repo: {term: weight}})."""
    ids = sorted(weights)
    terms = sorted({term for row in weights.values() for term in row})
    entries = [(i, terms.index(term), weights[repo][term])
               for i, repo in enumerate(ids) for term in sorted(weights[repo])]
    row_ids, col_ids, values = (np.array(column) for column in zip(*entries))
    return Profiles(tuple(ids), TfidfMatrix(row_ids, col_ids, values, (len(ids), len(terms))))


def primary_of(n: int) -> tuple[ProcessedDocument, ...]:
    return tuple(
        ProcessedDocument(
            doc_id=f"pd:row{i:04d}",
            source=Source.REVIEW,
            tokens=("app", "crash", "now"),
            intents=frozenset({IntentClass.BUG_REPORT if i % 2 == 0 else IntentClass.OTHER}),
        )
        for i in range(n)
    )


# --- label maps and primary loading ------------------------------------------------------

def test_bundled_label_maps_parse():
    maps_dir = default_data_dir() / "labelmaps"
    pd3 = load_label_map(maps_dir / "pd3.tsv")
    assert pd3["FeatureRequest"] is IntentClass.FEATURE_REQUEST
    pd5 = load_label_map(maps_dir / "pd5.tsv")
    assert pd5["SECURITY"] is None and pd5["PERFORMANCE"] is None


@pytest.mark.parametrize("text", ["", "# source<TAB>target\n\n"], ids=["empty", "comment-only"])
def test_label_map_without_a_mapping_line_is_rejected(tmp_path, text):
    empty = tmp_path / "map.tsv"
    empty.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=r"map\.tsv: no mapping line"):
        load_label_map(empty)


@pytest.mark.parametrize("text,line", [
    ("crash\tbug\nui\tfeature\ncrash\tfeature\n", 3),
    ("crash\tdrop\ncrash\tbug\n", 2),
    ("crash\tbug\ncrash\tdrop\n", 2),
], ids=["bug-then-feature", "drop-then-bug", "bug-then-drop"])
def test_label_map_source_label_to_two_targets_is_rejected(tmp_path, text, line):
    # the last line once won silently: crash -> bug, then crash -> feature, loaded as feature
    path = tmp_path / "map.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=rf"map\.tsv:{line}: source label 'crash' mapped to more than one target"):
        load_label_map(path)


def test_label_map_identical_repeat_is_accepted(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("crash\tbug\nspam\tdrop\ncrash\tbug\nspam\tdrop\n", encoding="utf-8")
    assert load_label_map(path) == {"crash": IntentClass.BUG_REPORT, "spam": None}


def test_load_primary_maps_and_drops(tmp_path, lists):
    csv_file = tmp_path / "reviews.csv"
    csv_file.write_text(
        "text,label\n"
        "app crashes when rotating the phone,BugReport\n"
        "would love a dark theme option,FeatureRequest\n"
        "too slow on my old phone battery,Other\n",
        encoding="utf-8",
    )
    label_map = load_label_map(default_data_dir() / "labelmaps" / "pd3.tsv")
    rows = load_primary(csv_file, label_map, lists)
    assert len(rows) == 3
    assert rows[1].intents == frozenset({IntentClass.FEATURE_REQUEST})
    assert rows[0].source is Source.REVIEW


def test_load_primary_drop_class(tmp_path, lists):
    csv_file = tmp_path / "reviews.csv"
    csv_file.write_text(
        "text,label\n"
        "battery drain is out of control,PERFORMANCE\n"
        "crashes on startup every time now,BUG\n",
        encoding="utf-8",
    )
    label_map = load_label_map(default_data_dir() / "labelmaps" / "pd5.tsv")
    rows = load_primary(csv_file, label_map, lists)
    assert len(rows) == 1
    assert rows[0].intents == frozenset({IntentClass.BUG_REPORT})


def test_load_primary_unknown_label_fails_fast(tmp_path, lists):
    csv_file = tmp_path / "reviews.csv"
    csv_file.write_text("text,label\nsome words here now,Praise2\n", encoding="utf-8")
    label_map = load_label_map(default_data_dir() / "labelmaps" / "pd3.tsv")
    with pytest.raises(UnknownLabel):
        load_primary(csv_file, label_map, lists)


def test_load_primary_admission_filter(tmp_path, lists):
    csv_file = tmp_path / "reviews.csv"
    csv_file.write_text("text,label\ntoo short,BugReport\nthis review has enough words,BugReport\n", encoding="utf-8")
    label_map = load_label_map(default_data_dir() / "labelmaps" / "pd3.tsv")
    rows = load_primary(csv_file, label_map, lists)
    assert len(rows) == 1


def test_load_primary_app_id_column(tmp_path, lists):
    csv_file = tmp_path / "reviews.csv"
    csv_file.write_text("text,label,app_id\ncrashes when I rotate my phone,BugReport,app-7\n", encoding="utf-8")
    label_map = load_label_map(default_data_dir() / "labelmaps" / "pd3.tsv")
    rows = load_primary(csv_file, label_map, lists)
    assert rows[0].app_id == "app-7"


# --- auxiliary selection and merging ---------------------------------------------------------

def auxiliary_ids(dataset) -> list[str]:
    return [row.doc_id for row in dataset.rows if not is_primary(row)]


def test_zero_ratio_selects_nothing():
    pool = [doc(f"d{i}") for i in range(10)]
    dataset = augment(primary_of(100), pool, AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.0, seed=1))
    assert dataset.n_auxiliary == dataset.shortfall == 0 and dataset.n_primary == 100


def test_within_app_empty_pool_raises():
    pool = [doc("d1", app_id="other-app")]
    spec = AugmentationSpec(method=Method.WITHIN_APP, ratio=0.3, seed=1, target_app="a1")
    with pytest.raises(EmptyPool):
        augment(primary_of(100), pool, spec)


def test_between_app_sample_is_deterministic():
    pool = [doc(f"d{i}") for i in range(200)]
    spec = AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.3, seed=7)
    first = augment(primary_of(100), pool, spec)
    second = augment(primary_of(100), pool, spec)
    assert first.n_auxiliary == len(auxiliary_ids(first)) == 30
    assert first == second


def test_shortfall_takes_all():
    pool = [doc(f"d{i}") for i in range(5)]
    dataset = augment(primary_of(100), pool, AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.5, seed=3))
    assert dataset.n_auxiliary == 5 and dataset.shortfall == 45
    assert sorted(auxiliary_ids(dataset)) == [d.doc_id for d in pool]


def test_sample_has_no_duplicates():
    pool = [doc(f"d{i}") for i in range(50)]
    dataset = augment(primary_of(50), pool, AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.8, seed=11))
    ids = auxiliary_ids(dataset)
    assert len(ids) == len(set(ids)) == 40


def test_spec_validation():
    with pytest.raises(ValueError):
        AugmentationSpec(method=Method.BETWEEN_APP, ratio=1.5)
    with pytest.raises(ValueError):
        AugmentationSpec(method=Method.WITHIN_APP, ratio=0.3)  # no target_app
    with pytest.raises(ValueError):
        AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.3, target_app="a1")


def test_pool_nesting_invariant():
    # a ratio of 1 with as many primary rows as pool documents takes every candidate
    pool = [doc(f"d{i}", app_id=f"a{i % 4}") for i in range(40)]
    profiles = hand_profiles({"a0": {"x": 1.0}, "a1": {"x": 1.0}, "a2": {"x": 1.0, "y": 1.0}, "a3": {"y": 1.0}})
    specs = [
        AugmentationSpec(method=Method.WITHIN_APP, ratio=1.0, target_app="a0"),
        AugmentationSpec(method=Method.WITHIN_CONTEXT, ratio=1.0, target_app="a0", top_k_similar=2,
                         include_same_app=True),
        AugmentationSpec(method=Method.BETWEEN_APP, ratio=1.0),
    ]
    within, context, between = (set(auxiliary_ids(augment(primary_of(40), pool, spec, profiles))) for spec in specs)
    assert within < context < between
    assert {doc.app_id for doc in pool if doc.doc_id in context} == {"a0", "a1", "a2"}


def test_within_context_without_same_app():
    pool = [doc(f"d{i}", app_id=f"a{i % 3}") for i in range(9)]
    profiles = hand_profiles({"a0": {"x": 1.0}, "a1": {"x": 1.0}, "a2": {"y": 1.0}})
    spec = AugmentationSpec(method=Method.WITHIN_CONTEXT, ratio=1.0, target_app="a0", top_k_similar=1)
    dataset = augment(primary_of(10), pool, spec, profiles)
    assert {row.app_id for row in dataset.rows if not is_primary(row)} == {"a1"}
    assert dataset.n_auxiliary == 3 and dataset.shortfall == 7


def test_within_context_without_profiles_is_a_value_error():
    spec = AugmentationSpec(method=Method.WITHIN_CONTEXT, ratio=0.3, target_app="a1")
    with pytest.raises(ValueError, match="profiles"):
        augment(primary_of(10), [doc("d0")], spec)


def test_empty_auxiliary_keeps_primary_rows():
    primary = primary_of(10)
    dataset = augment(primary, [doc("d0")], AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.0, seed=0))
    assert {row.doc_id for row in dataset.rows} == {d.doc_id for d in primary}
    assert all(is_primary(row) for row in dataset.rows)


def test_counts_after_merge():
    primary = primary_of(100)
    pool = [doc(f"d{i}") for i in range(30)]
    dataset = augment(primary, pool, AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.3, seed=1))
    assert len(dataset.rows) == 130
    assert (dataset.n_primary, dataset.n_auxiliary, dataset.shortfall) == (100, 30, 0)
    assert sum(map(is_primary, dataset.rows)) == 100


def test_merge_shuffle_is_deterministic():
    primary = primary_of(20)
    pool = [doc(f"d{i}") for i in range(6)]
    spec = AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.3, seed=5)
    a = augment(primary, pool, spec)
    b = augment(primary, pool, spec)
    assert [r.doc_id for r in a.rows] == [r.doc_id for r in b.rows]
    assert [r.doc_id for r in a.rows] != sorted(r.doc_id for r in a.rows)


def test_sweep_sizes_follow_rounding():
    primary = primary_of(37)
    pool = [doc(f"d{i}") for i in range(100)]
    ratios = [i / 10 for i in range(11)]
    datasets = [augment(primary, pool, AugmentationSpec(Method.BETWEEN_APP, ratio, seed=2)) for ratio in ratios]
    assert [dataset.n_auxiliary for dataset in datasets] == [math.floor(r * 37 + 0.5) for r in ratios]
    assert [dataset.n_auxiliary for dataset in datasets] == [0, 4, 7, 11, 15, 19, 22, 26, 30, 33, 37]


@given(st.integers(min_value=1, max_value=80), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100)
def test_auxiliary_never_larger_than_primary(n_primary, ratio):
    pool = [doc(f"d{i}") for i in range(n_primary)]
    dataset = augment(primary_of(n_primary), pool, AugmentationSpec(Method.BETWEEN_APP, ratio))
    assert dataset.shortfall == 0
    assert dataset.n_auxiliary == math.floor(ratio * n_primary + 0.5) <= n_primary


# --- interchange ----------------------------------------------------------------------------

def test_docs_round_trip(tmp_path):
    docs = [doc(f"d{i}", intents=frozenset({IntentClass.BUG_REPORT, IntentClass.FEATURE_REQUEST})) for i in range(3)]
    path = write_docs(docs, tmp_path / "docs.jsonl")
    assert load_docs(path) == docs


def test_augmented_round_trip(tmp_path):
    primary = primary_of(4)
    dataset = augment(primary, [doc("aux1")], AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.3, seed=0))
    path = write_docs(dataset.rows, tmp_path / "augmented.jsonl")
    loaded = load_docs(path)
    assert loaded == list(dataset.rows)
    assert [row.doc_id for row in loaded if not is_primary(row)] == ["aux1"]
    for line in path.read_text().splitlines():
        assert set(json.loads(line)) == {"doc_id", "source", "app_id", "tokens", "intents"}


@pytest.mark.parametrize("rows,field,message", [
    # a repeated document was once trained on and scored in one cross-validation
    ([{"doc_id": "d0"}, {"doc_id": "d1"}, {"doc_id": "d0"}], "doc_id", "duplicate doc_id"),
    ([{"doc_id": "d0", "app_id": 5}], "app_id", "expected str or null"),
    ([{"doc_id": "d0"}, {"doc_id": "d1", "app_id": ["a1"]}], "app_id", "expected str or null"),
])
def test_load_docs_checks_each_record(tmp_path, rows, field, message):
    path = tmp_path / "docs.jsonl"
    line = {"source": "issue_body", "tokens": ["app"], "intents": ["bug"]}
    path.write_text("".join(json.dumps({**line, **row}) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(SchemaViolation, match=message) as err:
        load_docs(path)
    assert (err.value.filename, err.value.line_number, err.value.field) == ("docs.jsonl", len(rows), field)


def test_load_docs_app_id_may_be_absent(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"doc_id": "d0", "source": "issue_body", "tokens": ["app"], "intents": ["bug"]}\n',
                    encoding="utf-8")
    assert [row.app_id for row in load_docs(path)] == [None]


def test_review_in_the_pool_is_a_validation_error():
    pool = [doc("d0"), doc("d1"), primary_of(1)[0]]
    spec = AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.3, seed=0)
    with pytest.raises(ValidationError, match="pd:row0000"):
        augment(primary_of(10), pool, spec)
    # a review that is no candidate (it has no app) is never sampled, so it is not refused
    within = AugmentationSpec(method=Method.WITHIN_APP, ratio=0.3, target_app="a1")
    dataset = augment(primary_of(10), pool, within)
    assert sorted(auxiliary_ids(dataset)) == ["d0", "d1"] and dataset.shortfall == 1


BAD_SPEC_FIELDS = {
    "method-unknown": {"method": "cross-app"},
    "method-a-number": {"method": 5},
    "ratio-a-bool": {"ratio": True},
    "ratio-a-string": {"ratio": "0.3"},
    "ratio-nan": {"ratio": float("nan")},
    "seed-a-string": {"seed": "x"},
    "seed-a-bool": {"seed": False},
    "top-k-similar-0": {"top_k_similar": 0},
    "top-k-similar-a-float": {"top_k_similar": 2.0},
    "include-same-app-a-string": {"include_same_app": "no"},
    "target-app-for-between-app": {"target_app": "a1"},
    "include-same-app-for-between-app": {"include_same_app": True},
    "include-same-app-for-within-app": {"method": "within-app", "target_app": "a1", "include_same_app": True},
    "target-app-missing": {"method": "within-context"},
    "target-app-a-number": {"method": "within-app", "target_app": 5},
}


@pytest.mark.parametrize("changes", BAD_SPEC_FIELDS.values(), ids=BAD_SPEC_FIELDS.keys())
def test_spec_checks_each_field(changes):
    assert AugmentationSpec(method="within-app", target_app="a1").method is Method.WITHIN_APP
    with pytest.raises(ValidationError):
        AugmentationSpec(**{"method": "between-app", **changes})


@pytest.mark.parametrize("spec,name", [
    (AugmentationSpec("between-app", 0.3, seed=4), "between-app@r=0.3"),
    (AugmentationSpec("within-app", 0.5, target_app="a1", top_k_similar=7), "within-app@r=0.5:a1"),
    (AugmentationSpec("within-context", 1, target_app="a1", include_same_app=True), "within-context@r=1+same:a1"),
])
def test_model_name_states_the_method_ratio_and_target_app(spec, name):
    assert spec.model_name == name
