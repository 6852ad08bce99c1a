import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from issueforge import classifier
from issueforge.augmentation import (
    AugmentationSpec,
    Method,
    augment,
    cross_validate_datasets,
    is_primary,
    run_experiment,
)
from issueforge.classifier import (
    EPOCHS,
    L2,
    LEARNING_RATE,
    CountedRows,
    DegenerateLabels,
    FoldMetrics,
    TfidfMatrix,
    TooFewRows,
    _sigmoid,
    build_feature_space,
    count_terms,
    cross_validate,
    evaluate,
    gradient,
    labels_for,
    predict_proba,
    stratified_folds,
    train,
    vectorize,
)
from issueforge.labels import IntentClass
from issueforge.textprep import ProcessedDocument, Source

BUG = IntentClass.BUG_REPORT


def doc(doc_id: str, tokens: tuple[str, ...], positive: bool, source=Source.REVIEW) -> ProcessedDocument:
    intents = frozenset({BUG}) if positive else frozenset({IntentClass.OTHER})
    return ProcessedDocument(doc_id=doc_id, source=source, tokens=tokens, intents=intents)


def make_rows(n_pos: int, n_neg: int, n_aux: int = 0, seed: int = 0) -> list[ProcessedDocument]:
    rng = random.Random(seed)
    pos_vocab = ["crash", "freeze", "error", "broken"]
    neg_vocab = ["love", "great", "nice", "perfect"]
    rows = []
    for i in range(n_pos):
        tokens = tuple(rng.sample(pos_vocab, 2) + ["app"])
        rows.append(doc(f"p{i:03d}", tokens, True))
    for i in range(n_neg):
        tokens = tuple(rng.sample(neg_vocab, 2) + ["app"])
        rows.append(doc(f"n{i:03d}", tokens, False))
    for i in range(n_aux):
        tokens = tuple(rng.sample(pos_vocab, 2) + ["issue"])
        rows.append(doc(f"x{i:03d}", tokens, True, source=Source.ISSUE_BODY))
    return rows


# --- stratified folds --------------------------------------------------------------------

def test_exact_divisibility():
    rows = make_rows(5, 5)
    folds = stratified_folds(rows, BUG, k=5, seed=1)
    for _, test_idx in folds:
        y = [1 if BUG in rows[i].intents else 0 for i in test_idx]
        assert sum(y) == 1 and len(y) == 2


def test_seven_positives_pigeonhole():
    rows = make_rows(7, 10)
    folds = stratified_folds(rows, BUG, k=5, seed=3)
    counts = sorted(
        sum(1 for i in test_idx if BUG in rows[i].intents) for _, test_idx in folds
    )
    assert counts == [1, 1, 1, 2, 2]


def test_folds_partition_primary_rows():
    rows = make_rows(12, 15)
    folds = stratified_folds(rows, BUG, k=5, seed=2)
    all_test = [i for _, test_idx in folds for i in test_idx]
    assert sorted(all_test) == list(range(len(rows)))
    assert len(set(all_test)) == len(all_test)


def test_auxiliary_rows_train_only():
    rows = make_rows(8, 8, n_aux=6)
    aux_idx = {i for i, row in enumerate(rows) if not is_primary(row)}
    folds = stratified_folds(rows, BUG, k=5, seed=4)
    for train_idx, test_idx in folds:
        assert aux_idx & set(test_idx) == set()
        assert aux_idx <= set(train_idx)


def test_too_few_rows():
    with pytest.raises(TooFewRows):
        stratified_folds(make_rows(3, 10), BUG, k=5, seed=0)
    with pytest.raises(TooFewRows):
        stratified_folds(make_rows(10, 3), BUG, k=5, seed=0)


def test_fold_assignment_is_row_order_invariant():
    rows = make_rows(10, 12, n_aux=4)
    shuffled = list(rows)
    random.Random(9).shuffle(shuffled)
    folds_a = stratified_folds(rows, BUG, k=5, seed=7)
    folds_b = stratified_folds(shuffled, BUG, k=5, seed=7)
    ids_a = [sorted(rows[i].doc_id for i in test_idx) for _, test_idx in folds_a]
    ids_b = [sorted(shuffled[i].doc_id for i in test_idx) for _, test_idx in folds_b]
    assert ids_a == ids_b


# --- training ---------------------------------------------------------------------------

def test_separable_fixture_perfect_f1():
    rows = make_rows(50, 50)
    model = train(rows, BUG)
    metrics = evaluate(model, rows, BUG)
    assert metrics.f1 == pytest.approx(1.0)


def test_degenerate_labels():
    rows = make_rows(10, 0)
    with pytest.raises(DegenerateLabels):
        train(rows, BUG)


def test_loss_monotone_nonincreasing():
    rows = make_rows(30, 40, n_aux=10, seed=5)
    *_, history = _assert_fit_matches_oracle(train(rows, BUG), rows)
    assert (np.diff(history) <= 1e-9).all()


def _finite_difference_check(rng: random.Random, n_rows: int = 12, n_terms: int = 6) -> float:
    vocab = [f"w{j}" for j in range(n_terms)]
    rows = []
    for i in range(n_rows):
        tokens = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
        rows.append(doc(f"r{i}", tokens, rng.random() < 0.5))
    y = labels_for(rows, BUG)
    if y.sum() in (0, len(y)):
        y[0] = 1.0 - y[0]
    space = build_feature_space(rows)
    X = vectorize(space, rows)
    weights = np.array([rng.uniform(-1, 1) for _ in space.vocabulary])
    bias = rng.uniform(-1, 1)
    l2 = 1e-4
    grad_w, grad_b = gradient(weights, bias, X, y, l2)

    def loss(w, b):
        return _reference_loss_and_grad(w, b, _as_reference(X), y, l2)[0]

    eps = 1e-6
    worst = 0.0
    for j in range(len(weights)):
        up = weights.copy()
        down = weights.copy()
        up[j] += eps
        down[j] -= eps
        numeric = (loss(up, bias) - loss(down, bias)) / (2 * eps)
        denom = max(abs(numeric), abs(grad_w[j]), 1e-8)
        worst = max(worst, abs(numeric - grad_w[j]) / denom)
    numeric_b = (loss(weights, bias + eps) - loss(weights, bias - eps)) / (2 * eps)
    worst = max(worst, abs(numeric_b - grad_b) / max(abs(numeric_b), abs(grad_b), 1e-8))
    return worst


def test_gradient_matches_finite_differences():
    rng = random.Random(123)
    for _ in range(10):
        assert _finite_difference_check(rng) < 1e-5


def test_train_evaluates_one_gradient_per_step(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return gradient(*args)

    monkeypatch.setattr(classifier, "gradient", counting)
    train(make_rows(10, 10), BUG)
    assert len(calls) == EPOCHS


def test_training_is_deterministic():
    rows = make_rows(20, 20)
    a = train(rows, BUG)
    b = train(rows, BUG)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


# --- sparse features --------------------------------------------------------------------

def _dense_oracle(space, rows) -> np.ndarray:
    """Term-count matrix times idf, built cell by cell."""
    matrix = np.zeros((len(rows), len(space.vocabulary)))
    for i, row in enumerate(rows):
        for term in row.tokens:
            if term in space.vocabulary:
                matrix[i, space.vocabulary.index(term)] += 1.0
    return matrix * space.idf


def _densify(X) -> np.ndarray:
    dense = np.zeros(X.shape)
    np.add.at(dense, (X.row_ids, X.col_ids), X.values)
    return dense


def _random_rows(rng: random.Random, n_rows: int, vocab: list[str], max_len: int) -> list[ProcessedDocument]:
    rows = []
    for i in range(n_rows):
        # lengths from 0 give rows with no term; a small vocabulary gives repeats
        tokens = tuple(rng.choice(vocab) for _ in range(rng.randint(0, max_len)))
        rows.append(doc(f"r{i}", tokens, rng.random() < 0.5))
    return rows


def test_vectorize_matches_dense_oracle():
    rng = random.Random(11)
    vocab = [f"w{j}" for j in range(15)]
    for _ in range(20):
        train_rows = _random_rows(rng, rng.randint(1, 12), vocab, 8)
        space = build_feature_space(train_rows)
        test_rows = _random_rows(rng, rng.randint(0, 12), vocab + ["unseen1", "unseen2"], 8)
        test_rows.append(doc("oov", ("unseen1", "unseen2", "unseen1"), True))
        for rows in (train_rows, test_rows, []):
            X = vectorize(space, rows)
            oracle = _dense_oracle(space, rows)
            assert X.shape == oracle.shape
            assert X.nnz == np.count_nonzero(oracle)
            assert np.array_equal(_densify(X), oracle)


def test_sparse_products_match_dense():
    rng = random.Random(12)
    np_rng = np.random.default_rng(12)
    vocab = [f"w{j}" for j in range(40)]
    for _ in range(20):
        rows = _random_rows(rng, rng.randint(1, 30), vocab, 12)
        space = build_feature_space(rows[: len(rows) // 2 + 1])
        X = vectorize(space, rows)
        dense = _dense_oracle(space, rows)
        w = np_rng.uniform(-1, 1, X.shape[1])
        r = np_rng.uniform(-1, 1, X.shape[0])
        assert (X @ w).dtype == np.float64 and (X.T @ r).dtype == np.float64
        np.testing.assert_allclose(X @ w, dense @ w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(X.T @ r, dense.T @ r, rtol=1e-12, atol=1e-12)
        y = labels_for(rows, BUG)
        sparse_grad_w, sparse_grad_b = gradient(w, 0.3, X, y, 1e-4)
        dense_grad_w, dense_grad_b = gradient(w, 0.3, dense, y, 1e-4)
        np.testing.assert_allclose(sparse_grad_w, dense_grad_w, rtol=1e-12, atol=1e-12)
        assert sparse_grad_b == pytest.approx(dense_grad_b, rel=1e-12, abs=1e-12)
    # a matrix with no stored entry still yields float zeros
    empty = vectorize(space, [doc("oov", ("unseen",), True)])
    assert empty.nnz == 0
    for product in (empty @ w, empty.T @ np.ones(1)):
        assert product.dtype == np.float64 and not product.any()


def test_feature_memory_is_linear_in_nonzeros():
    rng = random.Random(13)
    vocab = [f"t{j}" for j in range(15_000)]
    rows = [
        doc(f"r{i}", tuple(rng.choice(vocab) for _ in range(30)), i % 2 == 0)
        for i in range(1_000)
    ]
    space = build_feature_space(rows)
    assert len(space.vocabulary) >= 10_000
    X = vectorize(space, rows)
    assert X.shape == (1_000, len(space.vocabulary))
    assert X.row_ids.nbytes + X.col_ids.nbytes + X.values.nbytes < 64 * X.nnz


# --- reference objective -------------------------------------------------------------------
# The sparse product, sigmoid and objective in their first, plainest form, kept verbatim as
# the reference: the classifier computes them with fewer numpy calls, and every fit must
# reproduce their floats bit for bit. The loss lives only here, where the finite-difference
# check and the GD oracle's history read it; the classifier evaluates the gradient alone.

@dataclass(frozen=True)
class _ReferenceMatrix:
    row_ids: np.ndarray
    col_ids: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @property
    def T(self) -> "_ReferenceMatrix":
        return _ReferenceMatrix(self.col_ids, self.row_ids, self.values, (self.shape[1], self.shape[0]))

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        # bincount, unlike np.add.reduceat, gives 0 to rows that hold no entry;
        # with no entries at all it returns integers, hence the cast
        products = self.values * vector[self.col_ids]
        return np.bincount(self.row_ids, weights=products, minlength=self.shape[0]).astype(np.float64, copy=False)


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_loss_and_grad(
    weights: np.ndarray, bias: float, X: _ReferenceMatrix, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss with L2 on weights (bias unregularized), and its gradient."""
    z = X @ weights + bias
    # log(1 + e^z) - y*z, computed without under/overflow
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(weights, weights))
    p = _reference_sigmoid(z)
    residual = (p - y) / len(y)
    grad_w = X.T @ residual + l2 * weights
    grad_b = float(np.sum(residual))
    return loss, grad_w, grad_b


def _as_reference(X: TfidfMatrix) -> _ReferenceMatrix:
    return _ReferenceMatrix(X.row_ids, X.col_ids, X.values, X.shape)


def _assert_objective_matches_reference(weights, bias, X, y, l2=L2):
    grad_w, grad_b = gradient(weights, bias, X, y, l2)
    _, reference_grad_w, reference_grad_b = _reference_loss_and_grad(weights, bias, _as_reference(X), y, l2)
    assert grad_w.dtype == np.float64 and np.array_equal(grad_w, reference_grad_w)
    assert grad_b == reference_grad_b
    z = X @ weights + bias
    assert np.array_equal(z, _as_reference(X) @ weights + bias)
    assert np.array_equal(_sigmoid(z), _reference_sigmoid(z))


@st.composite
def _matrices(draw) -> tuple[TfidfMatrix, np.ndarray, np.ndarray, float]:
    """A matrix (entries row-major, one per cell), weights, 0/1 labels and a bias; any of them may be extreme."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(0, 10))
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, n_rows - 1), st.integers(0, max(n_cols - 1, 0))),
                                max_size=n_rows * n_cols)))
    values = draw(st.lists(st.floats(1e-3, 60.0), min_size=len(cells), max_size=len(cells)))
    scale = draw(st.sampled_from([1.0, 30.0, 1e3]))  # 30 and 1e3 put |z| past 745, where e^-|z| underflows
    weights = draw(st.lists(st.floats(-scale, scale), min_size=n_cols, max_size=n_cols))
    labels = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n_rows, max_size=n_rows))
    bias = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-scale, scale)))
    X = TfidfMatrix(
        np.array([r for r, _ in cells], dtype=np.intp),
        np.array([c for _, c in cells], dtype=np.intp),
        np.array(values, dtype=np.float64),
        (n_rows, n_cols),
    )
    return X, np.array(weights, dtype=np.float64), np.array(labels), bias


@given(_matrices())
@settings(max_examples=300, deadline=None)
def test_objective_equals_reference_bit_for_bit(drawn):
    X, weights, y, bias = drawn
    _assert_objective_matches_reference(weights, bias, X, y)
    _assert_objective_matches_reference(weights, bias, X, y, l2=0.37)


def test_objective_on_a_matrix_with_no_entries_equals_reference():
    no_entries = np.array([], dtype=np.intp)
    for shape in ((3, 4), (3, 0)):
        X = TfidfMatrix(no_entries, no_entries, np.array([], dtype=np.float64), shape)
        assert (X @ np.ones(shape[1])).dtype == np.float64 and (X.T @ np.ones(3)).dtype == np.float64
        for bias in (0.0, -0.0, 0.25):  # z is all +0.0 for both zero biases
            _assert_objective_matches_reference(np.ones(shape[1]), bias, X, np.array([1.0, 0.0, 1.0]))


def test_sigmoid_equals_reference_at_signed_zero_and_past_the_exp_range():
    z = np.array([0.0, -0.0, 745.0, -745.0, 745.2, -745.2, 746.0, -746.0, 1e4, -1e4, 1e308, -1e308, 5e-324, -5e-324])
    p = _sigmoid(z)
    assert np.array_equal(p, _reference_sigmoid(z))
    assert p[0] == p[1] == 0.5 and p[8] == 1.0 and p[9] == 0.0
    rng = np.random.default_rng(5)
    for spread in (1.0, 40.0, 800.0):
        drawn = rng.normal(0.0, spread, 1000)
        assert np.array_equal(_sigmoid(drawn), _reference_sigmoid(drawn))


def test_objective_on_test_rows_with_an_unseen_term_equals_reference():
    rows = make_rows(8, 8, n_aux=3, seed=2)
    train_rows = rows[:5] + rows[8:13] + rows[16:]
    test_rows = rows[5:8] + rows[13:16] + [doc("oov", ("unseen", "crash", "unseen"), True)]
    space = build_feature_space(count_terms(train_rows))
    assert "unseen" not in space.vocabulary
    rng = np.random.default_rng(3)
    for X, fold_rows in ((vectorize(space, train_rows), train_rows), (vectorize(space, test_rows), test_rows)):
        weights = rng.uniform(-2.0, 2.0, len(space.vocabulary))
        _assert_objective_matches_reference(weights, 0.3, X, labels_for(fold_rows, BUG))
    model = train(train_rows, BUG)
    X_test = vectorize(model.space, test_rows)
    assert np.array_equal(
        predict_proba(model, test_rows), _reference_sigmoid(_as_reference(X_test) @ model.weights + model.bias)
    )


def test_matrix_builds_its_transpose_once():
    X = vectorize(build_feature_space(make_rows(4, 4)), make_rows(4, 4))
    assert X.T is X.T
    assert X.T.values is X.values and X.T.row_ids is X.col_ids and X.T.col_ids is X.row_ids
    assert X.T.shape == (X.shape[1], X.shape[0])


def _assert_interleaving(X: TfidfMatrix, weights: np.ndarray) -> TfidfMatrix:
    """X.interleaved() holds X's entries, each row's in stored order, and its products are X's, bit for bit."""
    interleaved = X.interleaved()
    # a stable sort by row gives back the stored arrays only if every row kept its own order
    by_row = np.argsort(interleaved.row_ids, kind="stable")
    for name in ("row_ids", "col_ids", "values"):
        assert np.array_equal(getattr(interleaved, name)[by_row], getattr(X, name)), name
    product = (interleaved @ weights).tobytes()
    assert product == (X @ weights).tobytes() == (_as_reference(X) @ weights).tobytes()
    # the transpose keeps the stored order, so a column still adds in ascending row order
    assert interleaved.T.row_ids is X.col_ids and interleaved.T.col_ids is X.row_ids
    assert interleaved.T.values is X.values and interleaved.T.shape == X.T.shape
    return interleaved


@given(_matrices())
@settings(max_examples=300, deadline=None)
def test_interleaved_matrix_equals_stored_order_and_reference_bit_for_bit(drawn):
    X, weights, y, bias = drawn
    interleaved = _assert_interleaving(X, weights)
    grad_w, grad_b = gradient(weights, bias, interleaved, y, L2)
    _, reference_grad_w, reference_grad_b = _reference_loss_and_grad(weights, bias, _as_reference(X), y, L2)
    assert grad_w.tobytes() == reference_grad_w.tobytes() and grad_b == reference_grad_b


def test_interleaved_matrix_with_a_row_past_65536_terms():
    # row 0's ranks reach 69,999, past uint16; rows 1 and 2 hold a few of the same columns
    n_terms = 70_000
    rng = np.random.default_rng(8)
    X = TfidfMatrix(
        np.array([0] * n_terms + [1, 1, 2], dtype=np.intp),
        np.array([*range(n_terms), 3, 65_540, 69_999], dtype=np.intp),
        rng.uniform(0.1, 10.0, n_terms + 3),
        (3, n_terms),
    )
    _assert_interleaving(X, rng.uniform(-1.0, 1.0, n_terms))


# --- counting once per cross-validation ------------------------------------------------

def _oracle_feature_space(rows) -> tuple[tuple[str, ...], np.ndarray]:
    """Vocabulary and idf counted from the training rows' own tokens."""
    df: dict[str, int] = {}
    for row in rows:
        for term in set(row.tokens):
            df[term] = df.get(term, 0) + 1
    vocabulary = tuple(sorted(df))
    n_docs = max(len(rows), 1)
    return vocabulary, np.array([math.log(n_docs / df[t]) + 1.0 for t in vocabulary], dtype=np.float64)


def _oracle_vectorize(vocabulary, idf, rows) -> TfidfMatrix:
    """Tf-idf entries counted from the rows' own tokens over a fold's vocabulary."""
    index = {term: i for i, term in enumerate(vocabulary)}
    n_terms = len(vocabulary)
    lengths = np.array([len(row.tokens) for row in rows], dtype=np.intp)
    columns = np.fromiter(
        (index.get(term, -1) for row in rows for term in row.tokens), dtype=np.intp, count=int(lengths.sum())
    )
    row_of = np.repeat(np.arange(len(rows), dtype=np.intp), lengths)
    known = columns >= 0
    keys, counts = np.unique(row_of[known] * n_terms + columns[known], return_counts=True)
    row_ids, col_ids = np.divmod(keys, n_terms)
    return TfidfMatrix(row_ids, col_ids, counts * idf[col_ids], (len(rows), n_terms))


def _oracle_fit(X, y) -> tuple[np.ndarray, float, list[float]]:
    weights = np.zeros(X.shape[1], dtype=np.float64)
    bias = 0.0
    history = []
    X = _as_reference(X)
    for _ in range(EPOCHS):
        loss, grad_w, grad_b = _reference_loss_and_grad(weights, bias, X, y, L2)
        history.append(loss)
        weights = weights - LEARNING_RATE * grad_w
        bias = bias - LEARNING_RATE * grad_b
    history.append(_reference_loss_and_grad(weights, bias, X, y, L2)[0])
    return weights, bias, history


def _assert_same_matrix(X, oracle):
    assert X.shape == oracle.shape
    for name in ("row_ids", "col_ids", "values"):
        assert np.array_equal(getattr(X, name), getattr(oracle, name)), name


def _assert_fit_matches_oracle(
    model, train_rows
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, float, list[float]]:
    vocabulary, idf = _oracle_feature_space(train_rows)
    assert np.array_equal(np.array(model.space.vocabulary, dtype=object), np.array(vocabulary, dtype=object))
    assert np.array_equal(model.space.idf, idf)
    weights, bias, history = _oracle_fit(_oracle_vectorize(vocabulary, idf, train_rows), labels_for(train_rows, BUG))
    assert np.array_equal(model.weights, weights)
    assert model.bias == bias
    return vocabulary, idf, weights, bias, history


WORDS = ("crash", "freeze", "love", "great", "app", "add")


@st.composite
def _datasets(draw) -> list[ProcessedDocument]:
    """At least three positive and three negative primary rows, some auxiliary ones."""
    labels = [True, False] * 3 + draw(st.lists(st.booleans(), max_size=8))
    n_aux = draw(st.integers(0, 3))
    rows = []
    for i, positive in enumerate(labels + [True] * n_aux):
        tokens = draw(st.lists(st.sampled_from(WORDS), max_size=6))
        if i == 0:
            tokens = []  # a row with no term
        elif i == 1:
            tokens = tokens + ["crash", "crash", "only1"]  # a repeated term, and one no other row holds
        elif draw(st.booleans()):
            tokens.append(f"only{i}")
        source = Source.REVIEW if i < len(labels) else Source.ISSUE_BODY
        rows.append(doc(f"r{i:02d}", tuple(tokens), positive, source=source))
    return rows


def _recording(fn, calls: list):
    def record(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    return record


@given(_datasets(), st.integers(2, 3), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_counting_once_per_cross_validation_is_exact(rows, k, seed):
    fits, matrices = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifier, "train", _recording(classifier.train, fits))
        patch.setattr(classifier, "vectorize", _recording(classifier.vectorize, matrices))
        report = cross_validate(rows, BUG, k=k, seed=seed)
    folds = stratified_folds(rows, BUG, k=k, seed=seed)
    # per fold: the training rows' matrix inside train, then the test rows' in predict_proba
    assert len(fits) == len(folds) == len(report.folds) and len(matrices) == 2 * len(folds)
    for f, (train_idx, test_idx) in enumerate(folds):
        train_rows, test_rows = [rows[i] for i in train_idx], [rows[i] for i in test_idx]
        vocabulary, idf, weights, bias, _ = _assert_fit_matches_oracle(fits[f][1], train_rows)
        _assert_same_matrix(matrices[2 * f][1], _oracle_vectorize(vocabulary, idf, train_rows))
        X_test = _oracle_vectorize(vocabulary, idf, test_rows)
        _assert_same_matrix(matrices[2 * f + 1][1], X_test)
        predicted = _reference_sigmoid(_as_reference(X_test) @ weights + bias) >= 0.5
        y = labels_for(test_rows, BUG) == 1
        counts = [int(np.sum(p & t)) for p, t in ((predicted, y), (predicted, ~y), (~predicted, ~y), (~predicted, y))]
        assert report.folds[f] == FoldMetrics(*counts)
    # row r01 alone holds "only1": the fold that tests it lacks a term of its test rows and of the dataset
    assert any("only1" not in model.space.vocabulary for _, model in fits)
    # train on a plain row list counts its own rows through the same path
    _assert_fit_matches_oracle(train(rows, BUG), rows)


@given(_datasets(), st.lists(st.integers(0, 100), max_size=12))
@settings(max_examples=40, deadline=None)
def test_take_equals_counting_the_picked_rows(rows, picks):
    counted = count_terms(rows)
    indices = [i % len(rows) for i in picks]  # any order, repeats allowed
    taken = counted.take(indices)
    direct = count_terms([rows[i] for i in indices], counted.vocabulary)
    assert list(taken) == [rows[i] for i in indices]
    assert taken.vocabulary == counted.vocabulary
    for name in ("row_ids", "term_ids", "counts"):
        assert np.array_equal(getattr(taken, name), getattr(direct, name)), name


def test_rows_counted_over_another_vocabulary_are_counted_again():
    rows = make_rows(6, 6)
    space = build_feature_space(count_terms(rows[:8]))
    test_rows = rows[8:] + [doc("oov", ("unseen", "crash", "app"), True)]
    oracle = _oracle_vectorize(space.vocabulary, space.idf, test_rows)
    _assert_same_matrix(vectorize(space, count_terms(test_rows)), oracle)
    _assert_same_matrix(vectorize(space, test_rows), oracle)


# --- metrics ----------------------------------------------------------------------------

def test_metric_unit_case_one():
    m = FoldMetrics(tp=1, fp=1, tn=0, fn=0)
    assert m.precision == pytest.approx(0.5, abs=1e-12)
    assert m.recall == pytest.approx(1.0, abs=1e-12)
    assert m.f1 == pytest.approx(2 / 3, abs=1e-12)


def test_metric_unit_case_perfect():
    m = FoldMetrics(tp=5, fp=0, tn=5, fn=0)
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_metric_unit_case_hand_arithmetic():
    m = FoldMetrics(tp=3, fp=1, tn=0, fn=2)
    assert m.precision == pytest.approx(0.75, abs=1e-12)
    assert m.recall == pytest.approx(0.6, abs=1e-12)
    assert m.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-12)


def test_degenerate_metrics_flagged():
    m = FoldMetrics(tp=0, fp=0, tn=5, fn=0)
    assert m.precision == 0.0 and m.precision_degenerate
    assert m.recall == 0.0 and m.recall_degenerate
    assert m.f1 == 0.0


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
@example(0, 0, 0, 0)
@example(0, 0, 5, 0)
@example(0, 3, 2, 4)
@example(4, 0, 0, 0)
@settings(max_examples=300)
def test_fold_metrics_follow_from_the_counts_bit_for_bit(tp, fp, tn, fn):
    # by definition: a zero denominator gives 0.0 and raises that metric's flag
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    expected = {"tp": tp, "fp": fp, "tn": tn, "fn": fn, "precision": precision, "recall": recall, "f1": f1}
    m = FoldMetrics(tp, fp, tn, fn)
    # json.dumps writes each float's shortest round-tripping repr, and report.json is written by it
    assert json.dumps(m.as_dict()) == json.dumps(expected)
    assert (m.precision_degenerate, m.recall_degenerate) == (tp + fp == 0, tp + fn == 0)


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
@settings(max_examples=200)
def test_f1_is_harmonic_mean(tp, fp, tn, fn):
    m = FoldMetrics(tp, fp, tn, fn)
    assert 0.0 <= m.precision <= 1.0
    assert 0.0 <= m.recall <= 1.0
    if m.precision + m.recall > 0:
        assert m.f1 == pytest.approx(
            2 * m.precision * m.recall / (m.precision + m.recall), abs=1e-12
        )
        assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12
    else:
        assert m.f1 == 0.0


# --- evaluation and leakage ------------------------------------------------------------------

def test_no_test_fold_leakage():
    rows = make_rows(10, 10)
    folds = stratified_folds(rows, BUG, k=5, seed=1)
    train_idx, test_idx = folds[0]
    model_before = train([rows[i] for i in train_idx], BUG)
    mutated = list(rows)
    victim = test_idx[0]
    mutated[victim] = doc("mutant", ("totally", "different", "words"), True)
    model_after = train([mutated[i] for i in train_idx], BUG)
    assert np.array_equal(model_before.weights, model_after.weights)
    assert model_before.bias == model_after.bias
    assert model_before.space.vocabulary == model_after.space.vocabulary


def test_vocabulary_from_training_rows_only():
    rows = make_rows(6, 6)
    space = build_feature_space(rows[:8])
    test_terms = {t for row in rows[8:] for t in row.tokens}
    assert not any(t in space.vocabulary for t in test_terms - {t for r in rows[:8] for t in r.tokens})


def test_cross_validate_reports_mean_of_folds():
    rows = make_rows(25, 25)
    report = cross_validate(rows, BUG, k=5, seed=0)
    assert len(report.folds) == 5
    assert report.means["f1"] == pytest.approx(sum(f.f1 for f in report.folds) / 5)
    payload = report.as_dict()
    assert set(payload) == {"target", "folds", "mean"}
    assert set(payload["folds"][0]) == {"tp", "fp", "tn", "fn", "precision", "recall", "f1"}


def test_evaluate_requires_rows():
    rows = make_rows(5, 5)
    model = train(rows, BUG)
    with pytest.raises(ValueError):
        evaluate(model, [], BUG)


# --- experiment -------------------------------------------------------------------------------

def primary_dataset(n_pos: int = 15, n_neg: int = 15) -> tuple[ProcessedDocument, ...]:
    rows = make_rows(n_pos, n_neg)
    for i in range(max(n_pos // 2, 5)):
        rows.append(
            ProcessedDocument(
                doc_id=f"f{i:03d}",
                source=Source.REVIEW,
                tokens=("add", "option", "theme"),
                intents=frozenset({IntentClass.FEATURE_REQUEST}),
            )
        )
    return tuple(rows)


def test_experiment_empty_spec_list_is_baseline_only():
    rows = run_experiment(primary_dataset(), [], [], k=5, seed=0)
    assert [row["model"] for row in rows] == ["baseline", "baseline"]
    assert {row["target"] for row in rows} == {"bug", "feature"}


def test_experiment_names_a_negative_zero_ratio_as_zero():
    pool = [doc(f"x{i}", ("crash", "error", "issue"), True, source=Source.ISSUE_BODY) for i in range(20)]
    spec = AugmentationSpec(method=Method.BETWEEN_APP, ratio=-0.0)
    assert math.copysign(1.0, spec.ratio) == 1.0
    rows = run_experiment(primary_dataset(), [spec], pool, k=5, seed=0)
    assert [row["model"] for row in rows] == ["baseline", "between-app@r=0"] * 2


def test_experiment_deterministic():
    primary = primary_dataset()
    pool = [doc(f"x{i}", ("crash", "error", "issue"), True, source=Source.ISSUE_BODY) for i in range(20)]
    specs = [AugmentationSpec(method=Method.BETWEEN_APP, ratio=0.3, seed=4)]
    a = run_experiment(primary, specs, pool, k=5, seed=4)
    b = run_experiment(primary, specs, pool, k=5, seed=4)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_experiment_counts_each_dataset_once_for_both_targets(monkeypatch):
    primary = primary_dataset()
    pool = [doc(f"x{i}", ("crash", "error", f"issue{i % 3}"), True, source=Source.ISSUE_BODY) for i in range(20)]
    specs = [AugmentationSpec(method=Method.BETWEEN_APP, ratio=ratio, seed=4) for ratio in (0.2, 0.4, 0.6)]
    count_terms, cross_validate = classifier.count_terms, classifier.cross_validate
    countings, reports = [], []

    def counting(rows, *args):
        if not isinstance(rows, CountedRows):
            countings.append(len(rows))
        return count_terms(rows, *args)

    def recording(rows, target, **kwargs):
        report = cross_validate(rows, target, **kwargs)
        reports.append((rows, target, kwargs, report))
        return report

    monkeypatch.setattr(classifier, "count_terms", counting)
    monkeypatch.setattr(classifier, "cross_validate", recording)
    run_experiment(primary, specs, pool, k=5, seed=4)
    # baseline + 3 datasets cross-validated for both targets; their distinct rows (every primary row, and
    # all 20 pool rows, which r = 0.6 takes) are counted once, and each dataset taken from that count
    assert len(reports) == 8 and countings == [len(primary) + len(pool)]
    for rows, target, kwargs, report in reports:
        assert isinstance(rows, CountedRows)
        assert report.folds == cross_validate(list(rows), target, **kwargs).folds


def test_experiment_specs_that_select_the_same_rows_share_one_cross_validation(monkeypatch):
    # 5 pool documents for 37 primary rows: r = 0.5 and r = 1 both take the whole pool, shuffled by one seed,
    # and r = 0.1 samples 4 of them
    primary = primary_dataset()
    pool = [doc(f"x{i}", ("crash", "error", f"issue{i}"), True, source=Source.ISSUE_BODY) for i in range(5)]
    specs = [AugmentationSpec(method=Method.BETWEEN_APP, ratio=ratio, seed=4) for ratio in (0.1, 0.5, 1.0)]
    original, targets = classifier.cross_validate, []

    def recording(rows, target, **kwargs):
        targets.append(target)
        return original(rows, target, **kwargs)

    monkeypatch.setattr(classifier, "cross_validate", recording)
    rows = run_experiment(primary, specs, pool, k=5, seed=4)
    assert targets == [BUG, IntentClass.FEATURE_REQUEST] * 3  # baseline, r = 0.1 and one for r = 0.5 and 1; not 8
    by_model = {(row["target"], row["model"]): row for row in rows}
    for target in ("bug", "feature"):
        half, whole = by_model[(target, "between-app@r=0.5")], by_model[(target, "between-app@r=1")]
        assert {**half, "model": None} == {**whole, "model": None}
        assert half != by_model[(target, "baseline")]


def test_cross_validate_datasets_equals_each_dataset_alone():
    primary = primary_dataset()
    pool = [doc(f"x{i}", ("crash", "error", f"issue{i % 3}"), True, source=Source.ISSUE_BODY) for i in range(20)]
    augmented = [augment(primary, pool, AugmentationSpec(Method.BETWEEN_APP, ratio, seed=4)).rows
                 for ratio in (0.2, 0.6)]
    # one dataset, as the pipeline passes it, and several that share rows, as experiment and sweep pass them
    for datasets in ([augmented[1]], [primary, *augmented]):
        reports = cross_validate_datasets(datasets, k=5, seed=4)
        assert len(reports) == len(datasets)
        for rows, by_target in zip(datasets, reports):
            assert list(by_target) == list(classifier.TARGETS)
            for target, report in by_target.items():
                assert report.folds == cross_validate(list(rows), target, k=5, seed=4).folds


def test_experiment_needs_feature_rows_too():
    # the feature-request baseline needs feature positives; build a mixed dataset
    rows = []
    for i in range(10):
        rows.append(doc(f"b{i}", ("crash", "error", "app"), True))
    for i in range(10):
        rows.append(
            ProcessedDocument(
                doc_id=f"f{i}",
                source=Source.REVIEW,
                tokens=("add", "option", "theme"),
                intents=frozenset({IntentClass.FEATURE_REQUEST}),
            )
        )
    for i in range(10):
        rows.append(doc(f"o{i}", ("love", "great", "app"), False))
    assert len(run_experiment(tuple(rows), [], [], k=5, seed=1)) == 2


def test_classifier_imports_no_selection_module():
    # the classifier measures rows; which rows an augmentation selects is not its business
    src = str(Path(classifier.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, issueforge.classifier; print(sorted(m for m in sys.modules if m.startswith('issueforge.')))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert "issueforge.classifier" in loaded
    assert "issueforge.augmentation" not in loaded and "issueforge.similarity" not in loaded
