"""Primary-dataset loading, auxiliary selection, and dataset augmentation.

Reviews come in as CSV with a per-dataset label map. One function, ``augment``,
draws the auxiliary rows from processed issue documents by one of three methods
(same app, similar apps, or anywhere) at a configured volume ratio and merges
them with the primary rows; the pipeline, the ``augment`` and ``sweep``
commands and ``run_experiment`` all call it. One function,
``cross_validate_datasets``, cross-validates the datasets that the pipeline,
``sweep --train`` and ``run_experiment`` compare.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import classifier
from .errors import IssueforgeError, ValidationError, check_int
from .ingestion import SchemaViolation, decoded_lines, parse_jsonl, table_lines, write_jsonl
from .labels import INTENT_OF, INTENT_VALUES, IntentClass
from .similarity import rank_similar
from .textprep import ProcessedDocument, Source, WordLists, admit, is_primary, preprocess

logger = logging.getLogger(__name__)


class UnknownLabel(ValidationError):
    pass


class EmptyPool(IssueforgeError):
    pass


class Method(str, Enum):
    WITHIN_APP = "within-app"
    WITHIN_CONTEXT = "within-context"
    BETWEEN_APP = "between-app"


DROP = "drop"
DEFAULT_RATIO = 0.3


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class AugmentationSpec:
    """One auxiliary-selection setting; every field is checked, a method string becomes a ``Method``."""

    method: Method
    ratio: float = DEFAULT_RATIO
    seed: int = 0
    target_app: str | None = None
    top_k_similar: int = 3
    include_same_app: bool = False

    def __post_init__(self):
        try:
            object.__setattr__(self, "method", Method(self.method))
        except ValueError:
            raise ValidationError(f"unknown method {self.method!r}") from None
        if not _is_real(self.ratio) or not 0.0 <= self.ratio <= 1.0:
            raise ValidationError(f"ratio must be a number in [0, 1], got {self.ratio!r}")
        object.__setattr__(self, "ratio", abs(self.ratio))  # -0.0 is 0.0, in names and trend rows alike
        check_int("seed", self.seed)
        check_int("top_k_similar", self.top_k_similar, 1)
        if not isinstance(self.include_same_app, bool):
            raise ValidationError(f"include_same_app must be true or false, got {self.include_same_app!r}")
        if self.include_same_app and self.method is not Method.WITHIN_CONTEXT:
            raise ValidationError(f"include_same_app is only meaningful for within-context, not {self.method.value}")
        if self.method is Method.BETWEEN_APP:
            if self.target_app is not None:
                raise ValidationError("target_app is only meaningful for within-app/within-context")
        elif not (isinstance(self.target_app, str) and self.target_app):
            raise ValidationError(f"{self.method.value} requires a target_app string, got {self.target_app!r}")


@dataclass(frozen=True)
class AugmentedDataset:
    """Primary and auxiliary rows, shuffled; ``shortfall`` is how many auxiliary rows the pool lacked."""

    rows: tuple[ProcessedDocument, ...]
    spec: AugmentationSpec
    n_auxiliary: int
    shortfall: int

    @property
    def n_primary(self) -> int:
        return len(self.rows) - self.n_auxiliary


def load_label_map(path: Path | str) -> dict[str, IntentClass | None]:
    """Read "source_label<TAB>bug|feature|other|drop" mapping lines; a file without one is invalid."""
    mapping: dict[str, IntentClass | None] = {}
    for lineno, line in table_lines(path):
        source_label, _, target = line.partition("\t")
        target = target.strip()
        if target == DROP:
            mapping[source_label] = None
        else:
            try:
                mapping[source_label] = IntentClass(target)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: unknown target class {target!r}")
    if not mapping:
        raise ValidationError(f"{path}: no mapping line")
    return mapping


def load_primary(
    path: Path | str,
    label_map: dict[str, IntentClass | None],
    lists: WordLists,
) -> tuple[ProcessedDocument, ...]:
    """The review rows of a CSV (header: text,label[,app_id]): labels adapted, text preprocessed.

    Unmapped labels fail fast; rows whose label maps to drop, or that come out
    shorter than the admission minimum, are removed. No row left is a ``ValidationError``.
    """
    path = Path(path)
    rows: list[ProcessedDocument] = []
    # newline="" leaves every CR and LF to the csv module, as it requires of a file
    reader = csv.DictReader(io.StringIO("".join(line for _, line in decoded_lines(path)), newline=""))
    try:
        if reader.fieldnames is None or "text" not in reader.fieldnames or "label" not in reader.fieldnames:
            raise ValidationError(f"{path}: expected a CSV header with 'text' and 'label' columns")
        for index, record in enumerate(reader):
            label = record["label"]
            if record["text"] is None:
                raise ValidationError(f"{path}: row {index + 1}: no text column")
            if label not in label_map:
                raise UnknownLabel(f"{path}: row {index + 1}: label {label!r} not in label map")
            intent = label_map[label]
            if intent is None:
                continue
            tokens = preprocess(record["text"], lists, filter_noise=False)
            if not admit(tokens, Source.REVIEW):
                continue
            rows.append(
                ProcessedDocument(
                    doc_id=f"{path.stem}:row{index + 1:05d}",
                    source=Source.REVIEW,
                    tokens=tuple(tokens),
                    intents=frozenset({intent}),
                    app_id=(record.get("app_id") or None),
                )
            )
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise ValidationError(f"{path}:{reader.reader.line_num}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: no review row admitted")
    return tuple(rows)


def augment(
    primary: Sequence[ProcessedDocument],
    pool: Sequence[ProcessedDocument],
    spec: AugmentationSpec,
    profiles: dict[str, dict[str, float]] | None = None,
) -> AugmentedDataset:
    """Select ``spec``'s auxiliary rows from ``pool`` and merge them with the ``primary`` review rows.

    The candidates are the whole pool (between-app), the target app's documents
    (within-app), or those of the ``top_k_similar`` apps that rank nearest the
    target against ``profiles`` (within-context; ``similarity.build_profiles``),
    plus the target's own with ``include_same_app``. Of them, round-half-up(ratio
    × primary rows) are sampled without replacement, deterministically in (pool
    order, seed); a pool with too few gives all it has and records the shortfall.
    """
    if spec.method is Method.BETWEEN_APP:
        candidates = pool
    elif spec.method is Method.WITHIN_APP:
        candidates = [doc for doc in pool if doc.app_id == spec.target_app]
    else:
        if profiles is None:
            raise ValueError("within-context selection requires similarity profiles")
        similar = {repo_id for repo_id, _ in rank_similar(spec.target_app, profiles)[: spec.top_k_similar]}
        if spec.include_same_app:
            similar.add(spec.target_app)
        candidates = [doc for doc in pool if doc.app_id in similar]
    review = next((doc for doc in candidates if is_primary(doc)), None)
    if review is not None:
        raise ValidationError(f"pool document {review.doc_id!r} is a review; auxiliary rows must be issue documents")
    if not candidates:
        raise EmptyPool(f"no candidate documents for {spec.method.value}")
    n = math.floor(spec.ratio * len(primary) + 0.5)
    shortfall = max(n - len(candidates), 0)
    if n >= len(candidates):
        auxiliary = candidates
        if shortfall:
            logger.warning("auxiliary shortfall: wanted %d rows, pool has %d; taking all", n, len(candidates))
    else:
        auxiliary = random.Random(spec.seed).sample(candidates, n)
    rows = [*primary, *auxiliary]
    random.Random(spec.seed).shuffle(rows)
    logger.info("augment: %d primary + %d auxiliary rows", len(primary), len(auxiliary))
    return AugmentedDataset(tuple(rows), spec, len(auxiliary), shortfall)


def cross_validate_datasets(
    datasets: Sequence[Sequence[ProcessedDocument]], k: int = 5, seed: int = 0
) -> list[dict[IntentClass, classifier.EvalReport]]:
    """Each dataset's ``classifier.cross_validate`` for each of ``classifier.TARGETS``, in dataset order.

    The distinct rows of all datasets are counted once and each dataset is taken
    from that count; a fold's feature space keeps only its training rows' terms,
    so every fit is as if its dataset were counted alone. A dataset of the same
    row objects in the same order as an earlier one shares its reports.
    """
    distinct = {id(row): row for rows in datasets for row in rows}
    position = {key: i for i, key in enumerate(distinct)}
    counted = classifier.count_terms(list(distinct.values()))
    picks = [tuple(position[id(row)] for row in rows) for rows in datasets]
    reports_of = {}
    for picked in dict.fromkeys(picks):  # each distinct pick once, in dataset order
        taken = counted.take(picked)
        reports_of[picked] = {target: classifier.cross_validate(taken, target, k=k, seed=seed)
                              for target in classifier.TARGETS}
    return [reports_of[picked] for picked in picks]


def run_experiment(
    primary: Sequence[ProcessedDocument],
    specs: Sequence[AugmentationSpec],
    pool: Sequence[ProcessedDocument],
    profiles: dict[str, dict[str, float]] | None = None,
    k: int = 5,
    seed: int = 0,
) -> list[dict]:
    """Baseline vs augmented comparison for both targets.

    Returns deterministic rows: per (target, model) mean metrics and the
    deltas against the baseline trained on the primary rows alone. Each
    within-context spec ranks its own target app against ``profiles``.
    """
    # sampling depends on spec.seed alone, so every target sees the same rows
    datasets = [primary] + [augment(primary, pool, spec, profiles).rows for spec in specs]
    reports = cross_validate_datasets(datasets, k=k, seed=seed)
    models = ["baseline"] + [f"{spec.method.value}@r={spec.ratio:g}" + ("+same" if spec.include_same_app else "")
                             for spec in specs]
    comparison = []
    for target in classifier.TARGETS:
        # the baseline row's deltas are its means less themselves, exactly 0.0
        baseline = reports[0][target].means
        for model, by_target in zip(models, reports):
            means = by_target[target].means
            deltas = {f"delta_{name}": means[name] - baseline[name] for name in classifier.METRICS}
            comparison.append({"target": target.value, "model": model, **means, **deltas})
    return comparison


# --- issue documents and JSONL interchange ---------------------------------------

_DOC_FIELDS = {"doc_id": str, "source": str, "tokens": list, "intents": list}
_SOURCE_OF = {s.value: s for s in Source}
_SOURCES = frozenset(_SOURCE_OF)


def docs_from_extracted(extracted_rows: Iterable[dict], lists: WordLists) -> list[ProcessedDocument]:
    """Title and body documents for every extracted issue, admission-filtered, sorted by doc_id."""
    docs = []
    for row in extracted_rows:
        intents = frozenset(map(INTENT_OF.__getitem__, row["intents"]))
        parts = (("title", Source.ISSUE_TITLE, row["title"]), ("body", Source.ISSUE_BODY, row["text"]))
        for part, source, text in parts:
            tokens = preprocess(text, lists)
            if admit(tokens, source, row["title"]):
                docs.append(ProcessedDocument(f"{row['issue_id']}:{part}", source, tuple(tokens), intents,
                                              row["repo_id"]))
    docs.sort(key=lambda d: d.doc_id)
    return docs


def write_docs(docs: list[ProcessedDocument], path: Path | str) -> Path:
    """One line per document; ``write_jsonl`` writes the source and intents as their values."""
    return write_jsonl(
        ({"doc_id": d.doc_id, "source": d.source, "app_id": d.app_id, "tokens": d.tokens, "intents": sorted(d.intents)}
         for d in docs),
        path,
    )


def load_docs(path: Path | str) -> list[ProcessedDocument]:
    """Documents of a pool or augmented-dataset JSONL file; a malformed line is a SchemaViolation naming it."""
    path = Path(path)
    docs = []
    for lineno, row in parse_jsonl(path, _DOC_FIELDS, {"source": _SOURCES, "intents": INTENT_VALUES}):
        app_id = row.get("app_id")
        if app_id is not None and not isinstance(app_id, str):
            raise SchemaViolation(path.name, lineno, "app_id", "expected str or null")
        docs.append(ProcessedDocument(row["doc_id"], _SOURCE_OF[row["source"]], tuple(row["tokens"]),
                                      frozenset(map(INTENT_OF.__getitem__, row["intents"])), app_id))
    return docs

