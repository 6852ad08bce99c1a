"""Command-line interface and end-to-end pipeline orchestration.

Subcommands mirror the stages (harvest, filter, labels, extract, preprocess,
similar, augment, sweep, train-eval, experiment) plus ``pipeline``, which runs
filter -> labels -> extract -> preprocess -> augment -> train-eval on one
config and writes a content-hash manifest, and ``report``, which prints the
data funnel and the comparison table. Exit codes follow the error's type:
0 ok, 2 ``ValidationError``, 3 any other ``IssueforgeError`` or a file that
cannot be read.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import re
import shutil
import sys
import tempfile
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from . import augmentation, classifier, extraction, ingestion, labels as labels_mod, similarity, textprep
from .augmentation import AugmentationSpec, Method
from .errors import IssueforgeError, ValidationError, check_int
from .labels import INTENT_VALUES

logger = logging.getLogger("issueforge")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STAGE_FAILURE = 3

MAX_SWEEP_RATIOS = 1001
# a harvest line: owner/name, each side of letters, digits, "_", "." and "-", and neither "." nor ".."
_REPO_NAME = re.compile(r"(?!\.\.?/)[A-Za-z0-9_.-]+/(?!\.\.?\Z)[A-Za-z0-9_.-]+")


class _JsonLineFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        payload = {"level": record.levelname.lower(), "logger": record.name, "message": record.getMessage()}
        return json.dumps(payload, ensure_ascii=False)


def configure_logging(verbose: bool = False) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLineFormatter())
    root = logging.getLogger()
    root.handlers = [handler]
    root.setLevel(logging.DEBUG if verbose else logging.INFO)


# --- JSON configs -----------------------------------------------------------------

class _JsonConfig:
    """``from_file`` for a dataclass config held in one JSON object.

    The dataclass's constructor checks the keys: an unknown or a missing one is
    a ValidationError naming the file. ``PATHS`` name the path fields: each is
    resolved against the config file's directory and kept as an absolute path,
    so the manifest of a run does not depend on the working directory; one whose
    default is None may be null, and a missing file is the OSError of opening
    it. ``INTS`` maps each integer field to its lower bound, or None.
    """

    PATHS: tuple[str, ...] = ()
    INTS: dict[str, int | None] = {}

    @classmethod
    def from_file(cls, path: Path | str):
        path = Path(path)
        raw = _read_json(path)
        if not isinstance(raw, dict):
            raise ValidationError(f"config {path} must be a JSON object")
        try:
            config = cls(**raw)
        except TypeError as exc:  # an unknown or a missing key, named by the constructor
            raise ValidationError(f"config {path}: {exc}") from exc
        for name, low in cls.INTS.items():
            check_int(name, getattr(config, name), low)
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        for name in cls.PATHS:
            value = getattr(config, name)
            if value is None and defaults[name] is None:
                continue
            if not isinstance(value, str):
                raise ValidationError(f"{name} must be a path string, got {value!r}")
            setattr(config, name, os.path.abspath(path.parent / value))
        config.validate()
        return config

    def validate(self) -> None:
        """Checks beyond key names, integers and paths."""


@dataclass
class PipelineConfig(_JsonConfig):
    seed: int
    corpus_dir: str
    primary_csv: str
    label_map: str
    lexicon: str | None = None
    patterns: str | None = None
    word_lists_dir: str | None = None
    min_labeled_issues: int = 30
    min_contributors: int = 2
    min_label_frequency: int = 11
    method: str = Method.BETWEEN_APP.value
    ratio: float = augmentation.DEFAULT_RATIO
    target_app: str | None = None
    top_k_similar: int = 3
    include_same_app: bool = False
    folds: int = 5

    PATHS = ("corpus_dir", "primary_csv", "label_map", "lexicon", "patterns", "word_lists_dir")
    INTS = {"folds": 2, "min_labeled_issues": 0, "min_contributors": 0, "min_label_frequency": 0}

    def validate(self) -> None:
        self.spec()

    def spec(self) -> AugmentationSpec:
        """The augmentation setting, which checks its own fields."""
        return AugmentationSpec(self.method, self.ratio, self.seed, self.target_app, self.top_k_similar,
                                self.include_same_app)


@dataclass
class ExperimentConfig(_JsonConfig):
    label_map: str
    primary_csv: str
    pool: str
    corpus_dir: str | None = None
    word_lists_dir: str | None = None
    seed: int = 0
    k: int = 5
    specs: list = dataclasses.field(default_factory=list)

    PATHS = ("label_map", "primary_csv", "pool", "corpus_dir", "word_lists_dir")
    INTS = {"seed": None, "k": 2}

    def validate(self) -> None:
        self.augmentation_specs()

    def augmentation_specs(self) -> list[AugmentationSpec]:
        """One spec per ``specs`` entry, with the config's seed unless the entry sets one."""
        if not isinstance(self.specs, list) or not all(isinstance(entry, dict) for entry in self.specs):
            raise ValidationError("experiment specs must be a list of objects")
        specs = []
        for i, entry in enumerate(self.specs):
            try:
                specs.append(AugmentationSpec(**{"seed": self.seed, **entry}))
            except (TypeError, ValidationError) as exc:  # TypeError: a missing or unknown spec key
                raise ValidationError(f"spec {i}: {exc}") from exc
        return specs


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_json(path: Path):
    text = "".join(line for _, line in ingestion.decoded_lines(path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _dump_json(obj, path: Path) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")
    return path


def _read_stage_rows(path: str, required: dict[str, type]) -> Iterator[dict]:
    """Rows of a stage's JSONL input, read as they are drawn; a bad line or intent value is a SchemaViolation."""
    return (row for _, row in ingestion.parse_jsonl(Path(path), required, {"intents": INTENT_VALUES}))


# --- pipeline -----------------------------------------------------------------------

def _remove_dead_staging(out: Path) -> None:
    """Remove the staging directories of killed runs: each ``.staging-<pid>-*`` whose pid is not alive."""
    for entry in out.glob(".staging-*"):
        match = re.match(r"\.staging-([0-9]{1,9})-", entry.name)
        if match is None:
            continue
        try:
            os.kill(int(match[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(entry, ignore_errors=True)
        except PermissionError:  # alive, under another user
            pass


def run_pipeline(config: PipelineConfig, out_dir: Path | str) -> Path:
    """Run all stages in a staging directory under ``out_dir``, then commit the run.

    Every input but the corpus is loaded and checked before the first stage, so a
    bad one fails the run with its own error and nothing written. A stage's error
    reaches the caller unwrapped, and the staging directory is removed with it.
    The commit unlinks the old manifest first and moves the new one in last, so a
    run cut short leaves no manifest beside artifacts it does not describe. Every
    artifact is a file, the filtered ``repos.jsonl`` among them; an older version's
    ``corpus/`` in ``out_dir`` is neither listed nor removed. The staging directory's
    name holds the run's pid, so a later run removes it once that pid is gone.
    A stage's input is dropped once the next stage has what it needs: the issues,
    label rows and extracted rows do not live on through preprocess and
    cross-validation, only the repository records and the funnel counts do."""
    out = Path(out_dir)
    if out.resolve() == Path(config.corpus_dir).resolve():
        # the filtered repos.jsonl would replace the corpus's own, and the repos filtered out be lost
        raise ValidationError(f"--out {out} is the corpus directory {config.corpus_dir}; write the run elsewhere")
    lists = textprep.load_wordlists(config.word_lists_dir)
    patterns = extraction.load_patterns(config.patterns)
    lexicon = labels_mod.load_lexicon(config.lexicon, lists)
    label_map = augmentation.load_label_map(config.label_map)
    primary = augmentation.load_primary(config.primary_csv, label_map, lists)
    out.mkdir(parents=True, exist_ok=True)
    _remove_dead_staging(out)

    with tempfile.TemporaryDirectory(dir=out, prefix=f".staging-{os.getpid()}-") as staging_dir:
        staging = Path(staging_dir)

        # stage 1: repository filtering (filter_repos logs what it kept)
        corpus = ingestion.load_corpus(config.corpus_dir)
        issues_total = len(corpus.issues)
        corpus = ingestion.filter_repos(
            corpus,
            min_labeled_issues=config.min_labeled_issues,
            min_contributors=config.min_contributors,
        )
        repos, issues_filtered = corpus.repos, len(corpus.issues)
        ingestion.write_repos(repos, staging / "repos.jsonl")

        # stages 2-4: the functions of the labels, extract and preprocess subcommands
        intents = _labels_stage(corpus, lexicon, lists, config.min_label_frequency, staging / "labels.jsonl")
        extracted_rows, counts = _extract_stage(corpus.issues, patterns, lists, intents, staging / "extracted.jsonl")
        del corpus, intents
        _dump_json(counts, staging / "extraction_report.json")
        docs, _ = _preprocess_stage(extracted_rows, lists, staging / "docs.jsonl")
        del extracted_rows
        funnel = {"issues_total": issues_total, "issues_filtered_corpus": issues_filtered,
                  "issues_intent_labeled": counts["considered"], "issues_extracted": counts["extracted"],
                  "issues_admitted": len({doc.doc_id.rsplit(":", 1)[0] for doc in docs})}

        # stage 5: augmentation, as the augment subcommand selects and writes it
        spec = config.spec()
        profiles = similarity.build_profiles(repos, lists) if spec.method is Method.WITHIN_CONTEXT else None
        dataset = augmentation.augment(primary, docs, spec, profiles)
        augmentation.write_docs(dataset.rows, staging / "augmented.jsonl")

        # stage 6: the function of the train-eval subcommand
        _train_eval_stage(dataset.rows, config.folds, config.seed, staging / "report.json")

        # commit: every artifact is a file, and os.replace moves it over the old one of the same name
        artifacts = {path.name: _sha256_file(path) for path in sorted(staging.iterdir())}
        _dump_json({"artifacts": artifacts, "config": dataclasses.asdict(config), "funnel": funnel,
                    "seed": config.seed}, staging / "manifest.json")
        (out / "manifest.json").unlink(missing_ok=True)
        for name in artifacts:
            os.replace(staging / name, out / name)
        os.replace(staging / "manifest.json", out / "manifest.json")
    logger.info("pipeline: wrote %d artifacts to %s", len(artifacts), out)
    return out


def print_report(artifact_dir: Path | str, stream=None) -> dict:
    """Human-readable funnel and metric summary for a finished pipeline run.

    It reads ``manifest.json``, which a run whose commit was cut short lacks, and
    then ``report.json``; a missing one is the OSError of opening it. A malformed
    file, a manifest without the funnel counts, a ``report.json`` whose sha256 is
    not the one the manifest lists for it, or a report without a mean for both
    targets is a ValidationError.
    """
    stream = stream or sys.stdout
    out = Path(artifact_dir)
    manifest, report_path = _read_json(out / "manifest.json"), out / "report.json"
    digest = _sha256_file(report_path)
    try:
        counts = manifest["funnel"]
        funnel = [("raw issues", counts["issues_total"]), ("filtered", counts["issues_filtered_corpus"]),
                  ("intent-labeled", counts["issues_intent_labeled"]), ("extracted", counts["issues_extracted"]),
                  ("admitted", counts["issues_admitted"])]
        listed = manifest["artifacts"].get(report_path.name)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValidationError(
            f"{out}: manifest.json needs the funnel counts and the artifact digests ({type(exc).__name__}: {exc})"
        ) from exc
    if digest != listed:
        # a report.json from another run would print that run's metrics under this run's funnel
        raise ValidationError(f"{report_path}: sha256 {digest}, but manifest.json lists {listed or 'no digest'}")
    metrics = _read_json(report_path)
    try:
        means = {t.value: [float(metrics[t.value]["mean"][m]) for m in classifier.METRICS] for t in classifier.TARGETS}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"{out}: report.json needs a mean for bug and feature ({type(exc).__name__}: {exc})"
        ) from exc
    print("Data funnel:", file=stream)
    for name, count in funnel:
        print(f"  {name:<16} {count}", file=stream)
    print("Mean metrics per target:", file=stream)
    print(f"  {'target':<10} {'precision':>9} {'recall':>9} {'f1':>9}", file=stream)
    for target, (precision, recall, f1) in means.items():
        print(f"  {target:<10} {precision:>9.3f} {recall:>9.3f} {f1:>9.3f}", file=stream)
    return {"funnel": funnel, "metrics": metrics}


# --- subcommand handlers ---------------------------------------------------------------

def _cmd_harvest(args) -> int:
    from . import github  # only harvest needs the HTTP stack (requests, urllib3, ssl)

    check_int("--parallel", args.parallel, 1)
    check_int("--rate-limit", args.rate_limit, 1)
    names = []
    for lineno, line in ingestion.table_lines(args.repos):
        if not _REPO_NAME.fullmatch(name := line.strip()):
            raise ValidationError(f"{args.repos}:{lineno}: expected owner/name, got {name!r}")
        names.append(name)
    token = os.environ.get(args.token_env) if args.token_env else None
    client = github.Client(base_url=args.base_url, token=token, rate_limit=args.rate_limit)
    github.fetch_remote(client, names, args.out, parallel=args.parallel)
    return EXIT_OK


def _cmd_filter(args) -> int:
    check_int("--min-issues", args.min_issues, 0)
    check_int("--min-contributors", args.min_contributors, 0)
    corpus = ingestion.load_corpus(getattr(args, "in"))
    filtered = ingestion.filter_repos(corpus, args.min_issues, args.min_contributors)
    ingestion.write_corpus(filtered, args.out)
    print(f"kept {len(filtered.repos)}/{len(corpus.repos)} repos, {len(filtered.issues)} issues")
    return EXIT_OK


def _intents_of(label_rows: Iterable[dict]) -> dict[str, list]:
    """issue_id -> intents: what ``extract`` reads from the label rows."""
    return {row["issue_id"]: row["intents"] for row in label_rows}


def _labels_stage(corpus: ingestion.Corpus, lexicon, lists, min_freq: int, out) -> dict[str, list]:
    """Write a row per intent-labeled issue, in issue order, to ``out``; return their intents map."""
    intents = labels_mod.assign_intents(corpus, lexicon, lists, min_freq)
    rows = [{"issue_id": issue.issue_id, "repo_id": issue.repo_id, "intents": sorted(intents[issue.issue_id])}
            for issue in corpus.issues if issue.issue_id in intents]  # members sort, and are written, as their values
    ingestion.write_jsonl(rows, out)
    logger.info("labels: assigned intents to %d/%d issues", len(rows), len(corpus.issues))
    return _intents_of(rows)


def _extract_stage(issues: list, patterns, lists, intents: dict, out) -> tuple[list[dict], dict]:
    """Write the extracted rows to ``out``; return them and their counts (``extraction.extract_rows``)."""
    rows, counts = extraction.extract_rows(issues, patterns, lists, intents)
    ingestion.write_jsonl(rows, out)
    logger.info("extract: extracted %d/%d issues", counts["extracted"], counts["considered"])
    return rows, counts


def _preprocess_stage(extracted_rows: Iterable[dict], lists, out) -> tuple[list[textprep.ProcessedDocument], int]:
    """Write the admitted title and body documents to ``out``; return them and the number of extracted rows.

    The rows are read once, as they come; nothing is written before the last one.
    """
    read = itertools.count()
    # zip draws a row before a count, so ``read`` has advanced once per row
    docs = augmentation.docs_from_extracted((row for row, _ in zip(extracted_rows, read)), lists)
    n_rows = next(read)
    augmentation.write_docs(docs, out)
    logger.info("preprocess: admitted %d documents from %d extracted issues", len(docs), n_rows)
    return docs, n_rows


def _train_eval_stage(rows, k: int, seed: int, out) -> dict:
    """Cross-validate both targets on ``rows``, write ``report.json``'s schema to ``out``; return target -> report."""
    [reports] = augmentation.cross_validate_datasets([rows], k=k, seed=seed)
    _dump_json({"k": k, "seed": seed, "n_rows": len(rows),
                **{target.value: report.as_dict() for target, report in reports.items()}}, Path(out))
    return reports


def _cmd_labels(args) -> int:
    check_int("--min-freq", args.min_freq, 0)
    lists = textprep.load_wordlists(args.lists)
    lexicon = labels_mod.load_lexicon(args.lexicon, lists)
    corpus = ingestion.load_corpus(getattr(args, "in"))
    intents = _labels_stage(corpus, lexicon, lists, args.min_freq, args.out)
    print(f"assigned intents to {len(intents)}/{len(corpus.issues)} issues")
    return EXIT_OK


def _cmd_extract(args) -> int:
    lists = textprep.load_wordlists(args.lists)
    patterns = extraction.load_patterns(args.patterns)
    intents = _intents_of(_read_stage_rows(args.labels, {"issue_id": str, "intents": list}))
    corpus = ingestion.load_corpus(getattr(args, "in"))
    _, counts = _extract_stage(corpus.issues, patterns, lists, intents, args.out)
    if args.report:
        _dump_json(counts, Path(args.report))
    print(f"extracted {counts['extracted']}/{counts['considered']} issues")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    lists = textprep.load_wordlists(args.lists)
    extracted_rows = _read_stage_rows(
        getattr(args, "in"), {"issue_id": str, "repo_id": str, "title": str, "text": str, "intents": list}
    )
    docs, n_rows = _preprocess_stage(extracted_rows, lists, args.out)
    print(f"admitted {len(docs)} documents from {n_rows} extracted issues")
    return EXIT_OK


def _cmd_similar(args) -> int:
    check_int("--top", args.top, 1)
    lists = textprep.load_wordlists(args.lists)
    profiles = similarity.build_profiles(ingestion.load_repos(getattr(args, "in")), lists)
    ranking = similarity.rank_similar(args.query, profiles)
    payload = {
        "query_repo": args.query,
        "ranked": [[repo_id, score] for repo_id, score in ranking],
        "top": [repo_id for repo_id, _ in ranking[: args.top]],
    }
    _dump_json(payload, Path(args.out))
    print(f"top {args.top} similar to {args.query}: {payload['top']}")
    return EXIT_OK


def _load_selection(specs: list[AugmentationSpec], lists_dir: str | None, label_map: str, primary_csv: str,
                    pool: str, corpus_dir: str | None):
    """augment, sweep and experiment: (review rows, pool, profiles) for ``specs``.

    The profiles of ``corpus_dir``'s repos are built only when a spec is
    within-context, and then ``corpus_dir`` is required: its absence is a
    ``ValidationError`` raised before any input is read.
    """
    within_context = any(spec.method is Method.WITHIN_CONTEXT for spec in specs)
    if within_context and not corpus_dir:
        raise ValidationError("within-context selection needs a corpus directory for profiles "
                              "(augment/sweep --corpus, experiment corpus_dir)")
    lists = textprep.load_wordlists(lists_dir)
    primary = augmentation.load_primary(primary_csv, augmentation.load_label_map(label_map), lists)
    docs = augmentation.load_docs(pool)
    profiles = similarity.build_profiles(ingestion.load_repos(corpus_dir), lists) if within_context else None
    return primary, docs, profiles


def _augment_from_args(args, ratios: list[float]) -> list[augmentation.AugmentedDataset]:
    """augment/sweep: check the spec arguments before any input is read, then augment once per ratio."""
    spec = AugmentationSpec(args.method, ratios[0], args.seed, args.app, args.top, args.include_same_app)
    primary, pool, profiles = _load_selection([spec], args.lists, args.labelmap, args.primary, args.pool, args.corpus)
    return [augmentation.augment(primary, pool, dataclasses.replace(spec, ratio=ratio), profiles) for ratio in ratios]


def _cmd_augment(args) -> int:
    [dataset] = _augment_from_args(args, [args.ratio])
    augmentation.write_docs(dataset.rows, args.out)
    print(f"wrote {dataset.n_primary} primary + {dataset.n_auxiliary} auxiliary rows")
    return EXIT_OK


def _parse_ratios(text: str) -> list[float]:
    """Either "start:stop:step" or a comma-separated list, every ratio in [0, 1] and no two
    written to the same ``augmented_r*.jsonl`` file."""
    step_form = ":" in text
    try:
        if step_form:
            start, stop, step = (float(part) for part in text.split(":"))
        else:
            ratios = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"--ratios must be start:stop:step or a comma-separated list, got {text!r}") from exc
    if step_form:
        if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0 and step > 0.0):
            raise ValidationError(f"--ratios {text!r} needs start and stop in [0, 1] and a step > 0")
        ratios = []
        value = start
        while value <= stop + 1e-9:
            if len(ratios) == MAX_SWEEP_RATIOS:
                raise ValidationError(f"--ratios {text!r} gives more than {MAX_SWEEP_RATIOS} ratios")
            ratios.append(round(value, 10))
            value += step
    if not ratios or not all(0.0 <= ratio <= 1.0 for ratio in ratios):
        raise ValidationError(f"--ratios {text!r} must give at least one ratio, each in [0, 1]")
    ratios = [abs(ratio) for ratio in ratios]  # -0.0 is 0.0, so it shares 0's file name
    shared = sorted(name for name, n in Counter(_sweep_file(ratio) for ratio in ratios).items() if n > 1)
    if shared:
        raise ValidationError(f"--ratios {text!r} gives ratios that share a file name: {', '.join(shared)}")
    return ratios


def _sweep_file(ratio: float) -> str:
    return f"augmented_r{ratio:g}.jsonl"


def _cmd_sweep(args) -> int:
    if args.train:
        classifier.check_folds(args.k)
    datasets = _augment_from_args(args, _parse_ratios(args.ratios))
    trend_rows = [{"ratio": dataset.spec.ratio, "n_primary": dataset.n_primary, "n_auxiliary": dataset.n_auxiliary,
                   "shortfall": dataset.shortfall, "file": _sweep_file(dataset.spec.ratio)} for dataset in datasets]
    if args.train:  # every ratio is cross-validated before anything is written
        reports = augmentation.cross_validate_datasets([d.rows for d in datasets], k=args.k, seed=args.seed)
        for row, by_target in zip(trend_rows, reports):
            row.update({f"{target.value}_{name}": mean
                        for target, report in by_target.items() for name, mean in report.means.items()})
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for dataset, row in zip(datasets, trend_rows):
        augmentation.write_docs(dataset.rows, out_dir / row["file"])
    _write_tsv(trend_rows, list(trend_rows[0]), out_dir / "trend.tsv")
    print(f"wrote {len(datasets)} datasets and trend.tsv to {out_dir}")
    return EXIT_OK


def _write_tsv(rows: list[dict], columns: list[str], path: Path | str) -> None:
    """A header line, then one line per row; floats with six decimals."""
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write("\t".join(columns) + "\n")
        for row in rows:
            cells = (f"{row[c]:.6f}" if isinstance(row[c], float) else str(row[c]) for c in columns)
            handle.write("\t".join(cells) + "\n")


def _cmd_train_eval(args) -> int:
    reports = _train_eval_stage(augmentation.load_docs(args.data), args.k, args.seed, args.out)
    for target, report in reports.items():
        print(f"{target.value}: " + " ".join(f"{name}={mean:.3f}" for name, mean in report.means.items()))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    specs = config.augmentation_specs()
    primary, pool, profiles = _load_selection(specs, config.word_lists_dir, config.label_map, config.primary_csv,
                                              config.pool, config.corpus_dir)
    rows = augmentation.run_experiment(primary, specs, pool, profiles=profiles, k=config.k, seed=config.seed)
    _write_tsv(rows, list(rows[0]), args.out)
    print(f"wrote comparison for {len(rows)} models to {args.out}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = PipelineConfig.from_file(args.config)
    run_pipeline(config, args.out)
    print(f"pipeline complete: {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    print_report(args.artifact_dir)
    return EXIT_OK


# --- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="issueforge")
    parser.add_argument("--verbose", action="store_true", help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("harvest", help="fetch repos and issues into a corpus directory")
    p.add_argument("--repos", required=True, help="file with one full_name per line")
    p.add_argument("--out", required=True)
    p.add_argument("--token-env", default=None, help="env var holding the API token")
    p.add_argument("--parallel", type=int, default=4)
    p.add_argument("--rate-limit", type=int, default=5000, help="requests per hour")
    p.add_argument("--base-url", default="https://api.github.com")
    p.set_defaults(func=_cmd_harvest)

    p = sub.add_parser("filter", help="apply repository activity filters")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-issues", type=int, default=30)
    p.add_argument("--min-contributors", type=int, default=2)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("labels", help="normalize labels and assign intent classes")
    p.add_argument("--in", required=True)
    p.add_argument("--lexicon", default=None, help="surface<TAB>class file (default: the bundled lexicon)")
    p.add_argument("--min-freq", type=int, default=11)
    p.add_argument("--out", required=True)
    p.add_argument("--lists", default=None)
    p.set_defaults(func=_cmd_labels)

    p = sub.add_parser("extract", help="extract target sections from issue bodies")
    p.add_argument("--in", required=True)
    p.add_argument("--patterns", default=None)
    p.add_argument("--labels", required=True, help="labels.jsonl: the issues to extract, with their intents")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--lists", default=None)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("preprocess", help="turn extracted issues into processed documents")
    p.add_argument("--in", required=True)
    p.add_argument("--lists", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("similar", help="rank repositories by profile similarity")
    p.add_argument("--in", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--lists", default=None)
    p.set_defaults(func=_cmd_similar)

    # the arguments augment and sweep share; --method differs only in its default
    selection = argparse.ArgumentParser(add_help=False)
    selection.add_argument("--primary", required=True)
    selection.add_argument("--labelmap", required=True)
    selection.add_argument("--pool", required=True)
    selection.add_argument("--app", default=None)
    selection.add_argument("--top", type=int, default=3)
    selection.add_argument("--seed", type=int, default=0)
    selection.add_argument("--include-same-app", action="store_true")
    selection.add_argument("--corpus", default=None, help="dir holding repos.jsonl (profiles for within-context)")
    selection.add_argument("--lists", default=None)

    p = sub.add_parser("augment", parents=[selection], help="merge a primary dataset with auxiliary issue documents")
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    p.add_argument("--ratio", type=float, default=augmentation.DEFAULT_RATIO)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("sweep", parents=[selection], help="augment at a range of volume ratios")
    p.add_argument("--method", default=Method.BETWEEN_APP.value, choices=[m.value for m in Method])
    p.add_argument("--ratios", default="0:1:0.1", help='"start:stop:step" or comma list')
    p.add_argument("--train", action="store_true", help="cross-validate each ratio for the trend table")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("train-eval", help="stratified cross-validation of both binary targets")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_eval)

    p = sub.add_parser("experiment", help="baseline vs augmented comparison from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("pipeline", help="run the whole pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("report", help="print funnel and metrics for a pipeline output dir")
    p.add_argument("artifact_dir")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose)
    try:
        return args.func(args)
    except ValidationError as exc:
        logger.error("validation error: %s", exc)
        return EXIT_VALIDATION
    except (IssueforgeError, OSError) as exc:  # OSError: a missing or unreadable file
        logger.error("%s: %s", type(exc).__name__, exc)
        return EXIT_STAGE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
