#!/usr/bin/env python3
"""Baseline vs the three auxiliary-selection methods on the demo corpus.

Builds the issue document pool from the demo corpus in memory, then compares
mean precision/recall/F1 of the augmented models against the review-only
baseline for both binary targets.

Usage: python scripts/augmentation_experiment.py [seed]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from issueforge import augmentation, classifier, extraction, ingestion, labels as labels_mod, similarity, textprep
from issueforge.augmentation import AugmentationSpec, Method
from issueforge.textprep import default_data_dir

TARGET_APP = "r-podkit"


def build_pool(corpus, lists, patterns):
    """Labels, extract and preprocess as the pipeline runs them, with every label counted."""
    lexicon = labels_mod.load_lexicon(default_data_dir() / "lexicon.tsv", lists)
    label_rows = labels_mod.label_rows(corpus.issues, labels_mod.assign_intents(corpus, lexicon, lists, 1))
    intents = {row["issue_id"]: row["intents"] for row in label_rows}
    extracted, _, _ = extraction.extract_rows(corpus.issues, patterns, lists, intents)
    return augmentation.docs_from_extracted(extracted, lists)


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    demo = default_data_dir() / "demo_corpus"
    lists = textprep.load_wordlists()
    patterns = extraction.load_patterns()
    corpus = ingestion.filter_repos(ingestion.load_corpus(demo), min_labeled_issues=5, min_contributors=2)
    pool = build_pool(corpus, lists, patterns)
    label_map = augmentation.load_label_map(demo / "labelmap_demo.tsv")
    primary = augmentation.load_primary(demo / "primary_demo.csv", label_map, lists)
    profiles = similarity.build_profiles(corpus, lists)

    specs = [
        AugmentationSpec(method=Method.WITHIN_APP, ratio=0.3, seed=seed, target_app=TARGET_APP),
        AugmentationSpec(method=Method.WITHIN_CONTEXT, ratio=0.3, seed=seed, target_app=TARGET_APP, top_k_similar=2),
        AugmentationSpec(
            method=Method.WITHIN_CONTEXT, ratio=0.3, seed=seed, target_app=TARGET_APP,
            top_k_similar=2, include_same_app=True,
        ),
        AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.3, seed=seed),
    ]
    report = classifier.run_experiment(primary, specs, pool, profiles=profiles, k=5, seed=seed)

    print(f"pool: {len(pool)} issue documents; primary: {len(primary.rows)} reviews; seed: {seed}")
    print(f"{'target':<8} {'model':<28} {'P':>7} {'R':>7} {'F1':>7} {'dR':>7} {'dF1':>7}")
    for row in report["rows"]:
        print(
            f"{row['target']:<8} {row['model']:<28} {row['precision']:>7.3f} {row['recall']:>7.3f} "
            f"{row['f1']:>7.3f} {row['delta_recall']:>+7.3f} {row['delta_f1']:>+7.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
