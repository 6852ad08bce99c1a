"""Binary intent classifiers with stratified cross-validation.

A deterministic logistic-regression model over tf-idf features stands in as
the measurement instrument: one classifier per target intent (bug report,
feature request), trained by full-batch gradient descent. Rows are processed
documents: auxiliary rows (issue documents) only ever augment training splits;
test folds hold primary rows (reviews, ``textprep.is_primary``).

A cross-validation counts its rows' terms and labels once (``count_terms``,
``labels_for``). Each fold selects its train and test rows from that count by
index, takes df, its vocabulary and idf from the selected training entries,
and remaps term ids onto its columns; no fold counts a token or a label again.
A fit orders its training matrix once for all of its gradient steps: ``X @ w``
adds the entries interleaved across rows (every row's first entry, then every
row's second, ...), so consecutive adds land in different rows, while each row
still adds its own entries in stored order; ``X.T`` keeps the stored row-major
order, so each column adds in ascending row order. A step evaluates only the
gradient it steps on (``gradient``), never the loss, and computes exactly the
floats that the by-definition objective's gradient does.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import IssueforgeError, check_int
from .labels import IntentClass
from .textprep import ProcessedDocument, is_primary


class DegenerateLabels(IssueforgeError):
    pass


class TooFewRows(IssueforgeError):
    pass


# full-batch gradient descent settings
EPOCHS = 50
LEARNING_RATE = 0.1
L2 = 1e-4

# the paper's two binary classifiers, and the metrics each cross-validation reports per fold and on average
TARGETS = (IntentClass.BUG_REPORT, IntentClass.FEATURE_REQUEST)
METRICS = ("precision", "recall", "f1")


@dataclass(frozen=True, eq=False)
class CountedRows(Sequence[ProcessedDocument]):
    """Rows together with their term counts, taken in one pass over the tokens.

    ``vocabulary`` is sorted; entry k says row ``row_ids[k]`` holds term
    ``term_ids[k]`` ``counts[k]`` times, one entry per distinct (row, term)
    pair, in row-major order. It is a sequence of its rows, and ``take``
    selects rows by index without counting again: it indexes the row starts,
    found once per counted rows, and every label vector ``labels_for`` has
    computed for them.
    """

    rows: tuple[ProcessedDocument, ...]
    vocabulary: tuple[str, ...]
    row_ids: np.ndarray
    term_ids: np.ndarray
    counts: np.ndarray
    labels: dict[IntentClass, np.ndarray] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    @cached_property
    def starts(self) -> np.ndarray:
        """Row i's entries are starts[i]:starts[i + 1]."""
        return np.searchsorted(self.row_ids, np.arange(len(self.rows) + 1))

    def take(self, indices: Sequence[int]) -> CountedRows:
        """The rows at ``indices``, in that order, renumbered from 0."""
        picked = np.asarray(indices, dtype=np.intp)
        first = self.starts[picked]
        lengths = self.starts[picked + 1] - first
        # entry positions: each picked row's run of entries, runs laid end to end
        entries = np.arange(int(lengths.sum())) + np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
        return CountedRows(
            rows=tuple(map(self.rows.__getitem__, indices)),
            vocabulary=self.vocabulary,
            row_ids=np.repeat(np.arange(len(picked), dtype=np.intp), lengths),
            term_ids=self.term_ids[entries],
            counts=self.counts[entries],
            labels={target: y[picked] for target, y in self.labels.items()},
        )


def count_terms(rows: Sequence[ProcessedDocument], vocabulary: tuple[str, ...] | None = None) -> CountedRows:
    """Each row's term counts over ``vocabulary`` (sorted; by default every
    term of ``rows``), terms outside it dropped. Rows already counted, over
    ``vocabulary`` when one is given, are returned as they are."""
    if isinstance(rows, CountedRows) and (
        vocabulary is None or rows.vocabulary is vocabulary or rows.vocabulary == vocabulary
    ):
        return rows
    rows = tuple(rows)
    if vocabulary is None:
        vocabulary = tuple(sorted({term for row in rows for term in row.tokens}))
    index = {term: i for i, term in enumerate(vocabulary)}
    n_terms = len(vocabulary)
    lengths = np.array([len(row.tokens) for row in rows], dtype=np.intp)
    ids = np.fromiter(
        (index.get(term, -1) for row in rows for term in row.tokens), dtype=np.intp, count=int(lengths.sum())
    )
    row_of = np.repeat(np.arange(len(rows), dtype=np.intp), lengths)
    known = ids >= 0
    keys, counts = np.unique(row_of[known] * n_terms + ids[known], return_counts=True)
    row_ids, term_ids = np.divmod(keys, n_terms)
    return CountedRows(rows=rows, vocabulary=vocabulary, row_ids=row_ids, term_ids=term_ids, counts=counts)


@dataclass(frozen=True)
class FeatureSpace:
    """A training split's idf weights, one per column. ``columns`` maps the
    counted vocabulary ``terms`` onto them: the column of ``terms[j]``, or -1
    when no training row holds that term."""

    idf: np.ndarray
    terms: tuple[str, ...]
    columns: np.ndarray

    @cached_property
    def vocabulary(self) -> tuple[str, ...]:
        """The terms some training row holds, one per column, in column order."""
        return tuple(compress(self.terms, (self.columns >= 0).tolist()))


def idf(n_docs: int, df: int) -> float:
    """ln(N/df) + 1, in both tf-idfs; math.log, not np.log, so every weight rounds as it always has."""
    return math.log(n_docs / df) + 1.0


def build_feature_space(rows: Sequence[ProcessedDocument]) -> FeatureSpace:
    """Vocabulary and idf weights derived from training rows only."""
    counted = count_terms(rows)
    # one entry per distinct (row, term), so a term's entry count is its document frequency
    df = np.bincount(counted.term_ids, minlength=len(counted.vocabulary))
    present = df > 0
    held = df[present]
    n_docs = max(len(counted), 1)
    # terms share few distinct df values, so each value's idf is taken once, into a table indexed by df
    tally = np.bincount(held)
    distinct = np.flatnonzero(tally)
    table = np.zeros(len(tally))
    table[distinct] = [idf(n_docs, d) for d in distinct.tolist()]
    columns = np.where(present, np.cumsum(present) - 1, -1)
    return FeatureSpace(idf=table[held], terms=counted.vocabulary, columns=columns)


@dataclass(frozen=True)
class TfidfMatrix:
    """Sparse rows × vocabulary tf-idf features: entry k is the value at
    (row_ids[k], col_ids[k]), one entry per distinct (row, term) pair;
    ``vectorize`` stores them in row-major order, which ``interleaved`` reads.

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

    @cached_property
    def T(self) -> TfidfMatrix:
        """Built once per matrix; it shares this matrix's arrays."""
        return TfidfMatrix(self.col_ids, self.row_ids, self.values, (self.shape[1], self.shape[0]))

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        # bincount adds each row's products in entry order (np.add.reduceat sums
        # pairwise, so its last bits differ) and gives 0 to rows with no entry;
        # with no entries at all it returns integers, so that case is zeros here
        if not self.nnz:
            return np.zeros(self.shape[0])
        return np.bincount(self.row_ids, weights=self.values * vector[self.col_ids], minlength=self.shape[0])

    def interleaved(self) -> TfidfMatrix:
        """This matrix with its entries in rank-within-row order (every row's
        first entry, then every row's second, ...), for a matrix that takes
        many products ``X @ v``: consecutive adds land in different rows, so
        none waits on the one before, and each row still adds its own entries
        in stored order, so every product is bit-identical. ``.T`` is this
        matrix's transpose, whose columns must still add in ascending row order."""
        if not self.nnz:
            return self
        starts = np.searchsorted(self.row_ids, np.arange(self.shape[0] + 1))
        lengths = np.diff(starts)
        rank = np.arange(self.nnz) - np.repeat(starts[:-1], lengths)
        # a stable sort on at most 16 bits is numpy's radix sort; a row past 65,536 terms needs a wider rank
        order = np.argsort(rank.astype(np.min_scalar_type(int(lengths.max()) - 1)), kind="stable")
        X = TfidfMatrix(self.row_ids[order], self.col_ids[order], self.values[order], self.shape)
        vars(X)["T"] = self.T  # where cached_property keeps X.T
        return X


def vectorize(space: FeatureSpace, rows: Sequence[ProcessedDocument]) -> TfidfMatrix:
    """Term-count times idf features; terms outside the vocabulary are ignored."""
    counted = count_terms(rows, space.terms)
    columns = space.columns[counted.term_ids]
    known = columns >= 0
    col_ids = columns[known]
    values = counted.counts[known] * space.idf[col_ids]
    return TfidfMatrix(counted.row_ids[known], col_ids, values, (len(counted), len(space.idf)))


@dataclass
class LinearModel:
    space: FeatureSpace
    weights: np.ndarray
    bias: float


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e = e^-|z| never overflows: 1/(1+e) where z >= 0 (and z = -0.0), e/(1+e) below
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def gradient(
    weights: np.ndarray, bias: float, X: TfidfMatrix, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Gradient of the mean logistic loss with L2 on weights (bias unregularized); the loss is not evaluated."""
    # in place, on arrays this step made: the same floats as (p - y) / len(y) and Xᵀr + l2·w
    residual = _sigmoid(X @ weights + bias)
    residual -= y
    residual /= len(y)
    grad_w = X.T @ residual
    grad_w += l2 * weights
    # add.reduce is the pairwise sum np.sum takes, without its dispatch
    return grad_w, float(np.add.reduce(residual))


def labels_for(rows: Sequence[ProcessedDocument], target: IntentClass) -> np.ndarray:
    """1.0 for each row that holds ``target``, else 0.0; counted rows keep theirs."""
    if not isinstance(rows, CountedRows):
        return np.array([1.0 if target in row.intents else 0.0 for row in rows], dtype=np.float64)
    if target not in rows.labels:
        rows.labels[target] = labels_for(rows.rows, target)
    return rows.labels[target]


def train(rows: Sequence[ProcessedDocument], target: IntentClass) -> LinearModel:
    """Full-batch gradient descent on logistic loss; deterministic."""
    counted = count_terms(rows)
    y = labels_for(counted, target)
    if y.sum() == 0 or y.sum() == len(y):
        raise DegenerateLabels(f"training set has a single class for target {target.value}")
    space = build_feature_space(counted)
    X = vectorize(space, counted).interleaved()
    weights = np.zeros(len(space.idf), dtype=np.float64)
    bias = 0.0
    for _ in range(EPOCHS):
        grad_w, grad_b = gradient(weights, bias, X, y, L2)
        weights = weights - LEARNING_RATE * grad_w
        bias = bias - LEARNING_RATE * grad_b
    return LinearModel(space=space, weights=weights, bias=bias)


def predict_proba(model: LinearModel, rows: Sequence[ProcessedDocument]) -> np.ndarray:
    X = vectorize(model.space, rows)
    return _sigmoid(X @ model.weights + model.bias)


@dataclass(frozen=True)
class FoldMetrics:
    """A test fold's confusion counts; each of ``METRICS`` is a property of them. precision = TP/(TP+FP),
    recall = TP/(TP+FN), F1 their harmonic mean; a zero denominator gives 0.0, with a degenerate flag."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def precision_degenerate(self) -> bool:
        return self.tp + self.fp == 0

    @property
    def recall_degenerate(self) -> bool:
        return self.tp + self.fn == 0

    @property
    def precision(self) -> float:
        return 0.0 if self.precision_degenerate else self.tp / (self.tp + self.fp)

    @property
    def recall(self) -> float:
        return 0.0 if self.recall_degenerate else self.tp / (self.tp + self.fn)

    @property
    def f1(self) -> float:
        precision, recall = self.precision, self.recall
        return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)

    def as_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
                **{name: getattr(self, name) for name in METRICS}}


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
    return FoldMetrics(tp, fp, tn, fn)


def check_folds(k: int) -> None:
    check_int("k", k, 2)


def stratified_folds(
    rows: Sequence[ProcessedDocument], target: IntentClass, k: int = 5, seed: int = 0
) -> list[tuple[list[int], list[int]]]:
    """k (train, test) index splits. Primary rows are distributed so per-fold
    positive counts differ by at most one; auxiliary rows join every training
    split and never a test fold. Assignment depends on doc_ids, not row order.
    """
    check_folds(k)
    primary = sorted((row.doc_id, i) for i, row in enumerate(rows) if is_primary(row))
    holds = labels_for(rows, target).tolist()
    positives = [i for _, i in primary if holds[i]]
    negatives = [i for _, i in primary if not holds[i]]
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
        # every other row trains: the other primary rows and all auxiliary ones
        trains = np.ones(len(rows), dtype=bool)
        trains[test] = False
        folds.append((np.flatnonzero(trains).tolist(), test))
    return folds


@dataclass
class EvalReport:
    target: IntentClass
    folds: list[FoldMetrics]

    @property
    def means(self) -> dict[str, float]:
        """Each of ``METRICS`` averaged over the folds."""
        return {name: sum(getattr(f, name) for f in self.folds) / len(self.folds) for name in METRICS}

    def as_dict(self) -> dict:
        return {"target": self.target.value, "folds": [f.as_dict() for f in self.folds], "mean": self.means}


def cross_validate(rows: Sequence[ProcessedDocument], target: IntentClass, k: int = 5, seed: int = 0) -> EvalReport:
    """Stratified k-fold evaluation; reported metrics are per-fold averages.

    The rows' terms are counted once, and their labels taken once (by
    ``stratified_folds``); each fold selects its rows and labels from those.
    """
    counted = count_terms(rows)
    fold_metrics = []
    for train_idx, test_idx in stratified_folds(counted, target, k=k, seed=seed):
        model = train(counted.take(train_idx), target)
        fold_metrics.append(evaluate(model, counted.take(test_idx), target))
    return EvalReport(target=target, folds=fold_metrics)
