"""Binary intent classifiers with stratified cross-validation.

A deterministic logistic-regression model over tf-idf features stands in as
the measurement instrument: one classifier per target intent (bug report,
feature request), trained by full-batch gradient descent. Rows are processed
documents: auxiliary rows (issue documents) only ever augment training splits;
test folds hold primary rows (reviews, ``augmentation.is_primary``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .augmentation import AugmentationSpec, PrimaryDataset, _is_int, augment_from_pool, is_primary
from .errors import IssueforgeError, ValidationError
from .labels import IntentClass
from .similarity import RepoProfile
from .textprep import ProcessedDocument


class DegenerateLabels(IssueforgeError):
    pass


class TooFewRows(IssueforgeError):
    pass


# full-batch gradient descent settings
EPOCHS = 50
LEARNING_RATE = 0.1
L2 = 1e-4


@dataclass(frozen=True)
class FeatureSpace:
    vocabulary: tuple[str, ...]
    idf: np.ndarray

    @cached_property
    def index(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.vocabulary)}


def build_feature_space(rows: Sequence[ProcessedDocument]) -> FeatureSpace:
    """Vocabulary and idf weights derived from training rows only."""
    df: dict[str, int] = {}
    for row in rows:
        for term in set(row.tokens):
            df[term] = df.get(term, 0) + 1
    vocabulary = tuple(sorted(df))
    n_docs = max(len(rows), 1)
    idf = np.array([math.log(n_docs / df[t]) + 1.0 for t in vocabulary], dtype=np.float64)
    return FeatureSpace(vocabulary=vocabulary, idf=idf)


@dataclass(frozen=True)
class TfidfMatrix:
    """Sparse rows × vocabulary tf-idf features: entry k is the value at
    (row_ids[k], col_ids[k]), one entry per distinct (row, term) pair.

    Memory is linear in the nonzeros. ``X @ v`` multiplies by a dense vector;
    ``X.T`` swaps the roles of rows and columns, so ``X.T @ r`` is Xᵀr.
    """

    row_ids: np.ndarray
    col_ids: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def T(self) -> TfidfMatrix:
        return TfidfMatrix(self.col_ids, self.row_ids, self.values, (self.shape[1], self.shape[0]))

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        # bincount, unlike np.add.reduceat, gives 0 to rows that hold no entry;
        # with no entries at all it returns integers, hence the cast
        products = self.values * vector[self.col_ids]
        return np.bincount(self.row_ids, weights=products, minlength=self.shape[0]).astype(np.float64, copy=False)


def vectorize(space: FeatureSpace, rows: Sequence[ProcessedDocument]) -> TfidfMatrix:
    """Term-count times idf features; terms outside the vocabulary are ignored."""
    index = space.index
    n_terms = len(space.vocabulary)
    lengths = np.array([len(row.tokens) for row in rows], dtype=np.intp)
    columns = np.fromiter(
        (index.get(term, -1) for row in rows for term in row.tokens), dtype=np.intp, count=int(lengths.sum())
    )
    row_of = np.repeat(np.arange(len(rows), dtype=np.intp), lengths)
    known = columns >= 0
    keys, counts = np.unique(row_of[known] * n_terms + columns[known], return_counts=True)
    row_ids, col_ids = np.divmod(keys, n_terms)
    return TfidfMatrix(row_ids, col_ids, counts * space.idf[col_ids], (len(rows), n_terms))


@dataclass
class LinearModel:
    space: FeatureSpace
    weights: np.ndarray
    bias: float
    target: IntentClass
    loss_history: list[float] = field(default_factory=list)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_grad(
    weights: np.ndarray, bias: float, X: TfidfMatrix, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss with L2 on weights (bias unregularized), and its gradient."""
    z = X @ weights + bias
    # log(1 + e^z) - y*z, computed without under/overflow
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(weights, weights))
    p = _sigmoid(z)
    residual = (p - y) / len(y)
    grad_w = X.T @ residual + l2 * weights
    grad_b = float(np.sum(residual))
    return loss, grad_w, grad_b


def labels_for(rows: Sequence[ProcessedDocument], target: IntentClass) -> np.ndarray:
    return np.array([1.0 if target in row.intents else 0.0 for row in rows], dtype=np.float64)


def train(rows: Sequence[ProcessedDocument], target: IntentClass) -> LinearModel:
    """Full-batch gradient descent on logistic loss; deterministic."""
    y = labels_for(rows, target)
    if y.sum() == 0 or y.sum() == len(y):
        raise DegenerateLabels(f"training set has a single class for target {target.value}")
    space = build_feature_space(rows)
    X = vectorize(space, rows)
    weights = np.zeros(len(space.vocabulary), dtype=np.float64)
    bias = 0.0
    history: list[float] = []
    for _ in range(EPOCHS):
        loss, grad_w, grad_b = loss_and_grad(weights, bias, X, y, L2)
        history.append(loss)
        weights = weights - LEARNING_RATE * grad_w
        bias = bias - LEARNING_RATE * grad_b
    final_loss, _, _ = loss_and_grad(weights, bias, X, y, L2)
    history.append(final_loss)
    return LinearModel(space=space, weights=weights, bias=bias, target=target, loss_history=history)


def predict_proba(model: LinearModel, rows: Sequence[ProcessedDocument]) -> np.ndarray:
    X = vectorize(model.space, rows)
    return _sigmoid(X @ model.weights + model.bias)


@dataclass(frozen=True)
class FoldMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    precision_degenerate: bool = False
    recall_degenerate: bool = False

    def as_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def metrics_from_counts(tp: int, fp: int, tn: int, fn: int) -> FoldMetrics:
    """precision = TP/(TP+FP), recall = TP/(TP+FN), F1 their harmonic mean;
    zero denominators yield 0 with a degenerate flag."""
    precision_degenerate = (tp + fp) == 0
    recall_degenerate = (tp + fn) == 0
    precision = 0.0 if precision_degenerate else tp / (tp + fp)
    recall = 0.0 if recall_degenerate else tp / (tp + fn)
    f1 = 0.0 if (precision + recall) == 0 else 2 * precision * recall / (precision + recall)
    return FoldMetrics(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        precision_degenerate=precision_degenerate,
        recall_degenerate=recall_degenerate,
    )


def evaluate(model: LinearModel, rows: Sequence[ProcessedDocument], target: IntentClass) -> FoldMetrics:
    if not rows:
        raise ValueError("evaluate requires a non-empty test set")
    probabilities = predict_proba(model, rows)
    y = labels_for(rows, target)
    predictions = probabilities >= 0.5
    tp = int(np.sum(predictions & (y == 1)))
    fp = int(np.sum(predictions & (y == 0)))
    tn = int(np.sum(~predictions & (y == 0)))
    fn = int(np.sum(~predictions & (y == 1)))
    return metrics_from_counts(tp, fp, tn, fn)


def check_folds(k: int) -> None:
    if not _is_int(k) or k < 2:
        raise ValidationError(f"k must be an integer >= 2, got {k!r}")


def stratified_folds(
    rows: Sequence[ProcessedDocument], target: IntentClass, k: int = 5, seed: int = 0
) -> list[tuple[list[int], list[int]]]:
    """k (train, test) index splits. Primary rows are distributed so per-fold
    positive counts differ by at most one; auxiliary rows join every training
    split and never a test fold. Assignment depends on doc_ids, not row order.
    """
    check_folds(k)
    primary = sorted((row.doc_id, i) for i, row in enumerate(rows) if is_primary(row))
    auxiliary = [i for i, row in enumerate(rows) if not is_primary(row)]
    positives = [i for _, i in primary if target in rows[i].intents]
    negatives = [i for _, i in primary if target not in rows[i].intents]
    if len(positives) < k or len(negatives) < k:
        raise TooFewRows(
            f"need at least {k} positive and {k} negative primary rows, "
            f"have {len(positives)}/{len(negatives)}"
        )
    rng = random.Random(seed)
    rng.shuffle(positives)
    rng.shuffle(negatives)
    folds: list[tuple[list[int], list[int]]] = []
    for fold_index in range(k):
        test = sorted(positives[fold_index::k] + negatives[fold_index::k])
        test_set = set(test)
        train_idx = [i for _, i in primary if i not in test_set] + auxiliary
        folds.append((sorted(train_idx), test))
    return folds


@dataclass
class EvalReport:
    target: IntentClass
    folds: list[FoldMetrics]

    @property
    def mean_precision(self) -> float:
        return sum(f.precision for f in self.folds) / len(self.folds)

    @property
    def mean_recall(self) -> float:
        return sum(f.recall for f in self.folds) / len(self.folds)

    @property
    def mean_f1(self) -> float:
        return sum(f.f1 for f in self.folds) / len(self.folds)

    def as_dict(self) -> dict:
        return {
            "target": self.target.value,
            "folds": [f.as_dict() for f in self.folds],
            "mean": {
                "precision": self.mean_precision,
                "recall": self.mean_recall,
                "f1": self.mean_f1,
            },
        }


def cross_validate(rows: Sequence[ProcessedDocument], target: IntentClass, k: int = 5, seed: int = 0) -> EvalReport:
    """Stratified k-fold evaluation; reported metrics are per-fold averages."""
    fold_metrics = []
    for train_idx, test_idx in stratified_folds(rows, target, k=k, seed=seed):
        model = train([rows[i] for i in train_idx], target)
        fold_metrics.append(evaluate(model, [rows[i] for i in test_idx], target))
    return EvalReport(target=target, folds=fold_metrics)


def run_experiment(
    primary: PrimaryDataset,
    specs: Sequence[AugmentationSpec],
    pool: Sequence[ProcessedDocument],
    profiles: dict[str, RepoProfile] | None = None,
    k: int = 5,
    seed: int = 0,
) -> dict:
    """Baseline vs augmented comparison for both targets.

    Returns a deterministic report: per (target, model) mean metrics and the
    deltas against the baseline trained on the primary rows alone. Each
    within-context spec ranks its own target app against ``profiles``.
    """
    comparison: list[dict] = []
    # sampling depends on spec.seed alone, so every target sees the same rows
    datasets = [augment_from_pool(primary, list(pool), spec, profiles) for spec in specs]
    for target in (IntentClass.BUG_REPORT, IntentClass.FEATURE_REQUEST):
        baseline = cross_validate(primary.rows, target, k=k, seed=seed)
        comparison.append(
            {
                "target": target.value,
                "model": "baseline",
                "precision": baseline.mean_precision,
                "recall": baseline.mean_recall,
                "f1": baseline.mean_f1,
                "delta_precision": 0.0,
                "delta_recall": 0.0,
                "delta_f1": 0.0,
            }
        )
        for spec, dataset in zip(specs, datasets):
            report = cross_validate(dataset.rows, target, k=k, seed=seed)
            model_name = f"{spec.method.value}@r={spec.ratio:g}"
            if spec.include_same_app:
                model_name += "+same"
            comparison.append(
                {
                    "target": target.value,
                    "model": model_name,
                    "precision": report.mean_precision,
                    "recall": report.mean_recall,
                    "f1": report.mean_f1,
                    "delta_precision": report.mean_precision - baseline.mean_precision,
                    "delta_recall": report.mean_recall - baseline.mean_recall,
                    "delta_f1": report.mean_f1 - baseline.mean_f1,
                }
            )
    return {"primary": primary.name, "k": k, "seed": seed, "rows": comparison}
