"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and enforcing the stated tolerance/time budget."""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from issueforge import augmentation, classifier, extraction, textprep
from issueforge.augmentation import AugmentationSpec, Method
from issueforge.cli import PipelineConfig, run_pipeline
from issueforge.labels import IntentClass, normalize_label
from issueforge.textprep import ProcessedDocument, Source, default_data_dir

from extraction_gold import load_gold, score
from test_similarity import cosines, oracle_cosine, oracle_tfidf, tfidf_vectors
from title_examples import DESIGNATED_TITLES, NEGATIVE_TITLES

BUG = IntentClass.BUG_REPORT
FEATURE = IntentClass.FEATURE_REQUEST


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"ACCEPTANCE C{number:02d} PASS ({elapsed:.2f}s): {description}")


def test_c01_pattern_conformance(lists, patterns):
    with criterion(1, "every example title matches its designated pattern; negatives match none", 1.0):
        by_name = {p.name: p for p in patterns}
        assert len(by_name) == 19
        for name, title in DESIGNATED_TITLES:
            normalized = extraction.normalize_title(title, lists)
            assert by_name[name].regex.search(normalized), (name, title, normalized)
        for title in NEGATIVE_TITLES:
            normalized = extraction.normalize_title(title, lists)
            hits = [p.name for p in patterns if p.regex.search(normalized)]
            assert hits == [], (title, hits)


def test_c02_extraction_accuracy_floor(lists, patterns):
    with criterion(2, "gold-section agreement >= 0.80 on the bundled 100-issue fixture", 5.0):
        gold = load_gold()
        assert len(gold) == 100
        report = score(gold, patterns, lists)
        assert report["accuracy"] >= 0.80, report


def test_c03_label_normalization_examples(lists):
    with criterion(3, "label normalization worked examples reproduce exactly", 1.0):
        assert normalize_label("P1", lists) == ""
        variants = [
            "not reproduced",
            "cannot-reproduce",
            "non-reproduce",
            "could not reproduce",
            "cant-reproduce",
            "can't reproduce",
        ]
        assert {normalize_label(v, lists) for v in variants} == {"not reproduc"}
        family = {normalize_label(w, lists) for w in ("reproduced", "reproduction", "reproducible")}
        assert len(family) == 1


def test_c04_preprocessing_invariants_fuzz(lists):
    with criterion(4, "1,000-document fuzz corpus satisfies every output invariant", 10.0):
        rng = random.Random(2024)
        plain = ["App", "crashes", "THE", "screen", "Love", "it", "2fa", "42", "update!",
                 "don't", "rotation", "was", "very", "Slow", "have", "to", "settings"]
        modifiers = sorted(lists.negative_modifiers)
        retained = textprep.RETAINED_MODALS | {"not", textprep.FUSED_HAVE_TO}
        for _ in range(1000):
            words = [rng.choice(plain) for _ in range(rng.randint(0, 12))]
            n_modifiers = rng.randint(0, 3)
            for _ in range(n_modifiers):
                words.insert(rng.randint(0, len(words)), rng.choice(modifiers))
            text = " ".join(words)
            tokens = textprep.preprocess(text, lists, filter_noise=False)
            for tok in tokens:
                assert tok == tok.lower(), tok
                assert not any(ch.isdigit() for ch in tok), tok
                if tok in lists.stopwords:
                    assert tok in retained, tok
            expected_not = 0
            fused = textprep._fuse_have_to(textprep.tokenize(text))
            for raw in fused:
                stripped = "".join(ch for ch in raw if not ch.isdigit())
                if stripped in lists.negative_modifiers:
                    expected_not += 1
            assert tokens.count("not") == expected_not, (text, tokens)
            assert textprep.admit(tokens, Source.ISSUE_BODY) == (len(tokens) >= 3)


def test_c05_tfidf_cosine_oracle_equivalence():
    with criterion(5, "tf-idf vectors and pairwise cosines match the by-definition oracle", 5.0):
        rng = random.Random(77)
        vocabulary = [f"term{i}" for i in range(30)]
        for _ in range(25):
            docs = [
                [rng.choice(vocabulary) for _ in range(rng.randint(1, 15))]
                for _ in range(rng.randint(2, 10))
            ]
            got = tfidf_vectors(docs)
            want = oracle_tfidf(docs)
            for g, w in zip(got, want):
                assert set(g) == set(w)
                for term in g:
                    assert abs(g[term] - w[term]) < 1e-9
            # every ordered pair of distinct documents, as ``similarity.rank_similar`` scores it
            for (i, j), score in cosines({f"{i:02d}": doc for i, doc in enumerate(docs)}).items():
                assert abs(score - oracle_cosine(want[int(i)], want[int(j)])) < 1e-9


def _rows_for_stratification(rng, n, positives, n_aux):
    rows = []
    for i in range(n):
        intents = frozenset({BUG}) if i < positives else frozenset({IntentClass.OTHER})
        doc = ProcessedDocument(doc_id=f"p{i:04d}", source=Source.REVIEW, tokens=("a", "b", "c"), intents=intents)
        rows.append(doc)
    for i in range(n_aux):
        doc = ProcessedDocument(doc_id=f"x{i:04d}", source=Source.ISSUE_BODY, tokens=("a", "b", "c"), intents=frozenset({BUG}))
        rows.append(doc)
    rng.shuffle(rows)
    return rows


def test_c06_stratification_properties():
    with criterion(6, "200 random configurations stratify exactly, auxiliary rows train-only", 30.0):
        rng = random.Random(31)
        k = 5
        for _ in range(200):
            n = rng.randint(2 * k, 60)
            positives = rng.randint(k, n - k)
            n_aux = rng.randint(0, 15)
            rows = _rows_for_stratification(rng, n, positives, n_aux)
            aux_idx = {i for i, row in enumerate(rows) if not augmentation.is_primary(row)}
            folds = classifier.stratified_folds(rows, BUG, k=k, seed=rng.randint(0, 999))
            all_test: list[int] = []
            pos_counts = []
            for train_idx, test_idx in folds:
                assert aux_idx & set(test_idx) == set()
                assert aux_idx <= set(train_idx)
                assert set(train_idx) & set(test_idx) == set()
                pos_counts.append(sum(1 for i in test_idx if BUG in rows[i].intents))
                all_test.extend(test_idx)
            primary_idx = [i for i in range(len(rows)) if i not in aux_idx]
            assert sorted(all_test) == primary_idx
            assert max(pos_counts) - min(pos_counts) <= 1


def test_c07_metric_unit_cases():
    with criterion(7, "precision/recall/F1 unit cases reproduce within 1e-12", 1.0):
        m = classifier.FoldMetrics(tp=1, fp=1, tn=0, fn=0)
        assert abs(m.precision - 0.5) < 1e-12
        assert abs(m.recall - 1.0) < 1e-12
        assert abs(m.f1 - 2 / 3) < 1e-12
        m = classifier.FoldMetrics(tp=10, fp=0, tn=10, fn=0)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        m = classifier.FoldMetrics(tp=3, fp=1, tn=0, fn=2)
        assert abs(m.precision - 0.75) < 1e-12
        assert abs(m.recall - 0.6) < 1e-12
        assert abs(m.f1 - (2 * 0.75 * 0.6 / 1.35)) < 1e-12


def test_c08_classifier_soundness():
    with criterion(8, "gradients match finite differences; loss monotone; separable F1=1", 30.0):
        from test_classifier import _assert_fit_matches_oracle, _finite_difference_check, make_rows

        rng = random.Random(4242)
        for _ in range(20):
            assert _finite_difference_check(rng) < 1e-5
        rows = make_rows(40, 50, n_aux=15, seed=8)
        *_, history = _assert_fit_matches_oracle(classifier.train(rows, BUG), rows)
        assert (np.diff(history) <= 1e-9).all()
        separable = make_rows(50, 50, seed=1)
        trained = classifier.train(separable, BUG)
        assert classifier.evaluate(trained, separable, BUG).f1 == pytest.approx(1.0)


def _load_synthetic(lists):
    base = default_data_dir() / "synthetic_recall"
    label_map = {"bug": BUG, "feature": FEATURE, "other": IntentClass.OTHER}
    primary = augmentation.load_primary(base / "primary.csv", label_map, lists)
    pool = augmentation.load_docs(base / "pool.jsonl")
    return primary, pool


def test_c09_augmentation_recall_gap(lists):
    with criterion(9, "augmentation lifts mean recall by >= 0.10 at r=0.3 across 5 seeds", 60.0):
        primary, pool = _load_synthetic(lists)
        for seed in range(5):
            spec = AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.3, seed=seed)
            dataset = augmentation.augment(primary, pool, spec)
            baseline = classifier.cross_validate(primary, BUG, seed=seed)
            augmented = classifier.cross_validate(dataset.rows, BUG, seed=seed)
            gap = augmented.means["recall"] - baseline.means["recall"]
            assert gap >= 0.10, f"seed {seed}: recall gap {gap:.3f}"


def test_c10_volume_ratio_sweep_mechanics(lists):
    with criterion(10, "sweep emits 11 datasets with exact sizes; r=0 equals baseline", 120.0):
        primary, _ = _load_synthetic(lists)
        assert len(primary) == 100
        pool = [
            ProcessedDocument(
                doc_id=f"pool{i:04d}",
                source=Source.ISSUE_BODY,
                tokens=("glitch", "screen", "app"),
                intents=frozenset({BUG}),
            )
            for i in range(120)
        ]
        ratios = [round(i / 10, 1) for i in range(11)]
        datasets = [augmentation.augment(primary, pool, AugmentationSpec(Method.BETWEEN_APP, r, seed=3))
                    for r in ratios]
        assert len(datasets) == 11
        expected_sizes = [math.floor(r * len(primary) + 0.5) for r in ratios]
        assert [dataset.n_auxiliary for dataset in datasets] == expected_sizes
        assert expected_sizes == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert all(dataset.shortfall == 0 for dataset in datasets)
        for target in (BUG, FEATURE):
            baseline = classifier.cross_validate(primary, target, seed=3)
            at_zero = classifier.cross_validate(datasets[0].rows, target, seed=3)
            assert at_zero.as_dict() == baseline.as_dict()


def test_c11_end_to_end_determinism(tmp_path):
    with criterion(11, "two pipeline runs on the demo corpus produce identical manifests", 120.0):
        config_path = default_data_dir() / "demo_corpus" / "demo_config.json"
        first = run_pipeline(PipelineConfig.from_file(config_path), tmp_path / "one")
        second = run_pipeline(PipelineConfig.from_file(config_path), tmp_path / "two")
        bytes_one = (first / "manifest.json").read_bytes()
        bytes_two = (second / "manifest.json").read_bytes()
        assert bytes_one == bytes_two
        manifest = json.loads(bytes_one)
        assert len(manifest["artifacts"]) == 7
