import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issueforge import augmentation, classifier, cli
from issueforge.classifier import stratified_folds
from issueforge.cli import (
    EXIT_OK,
    EXIT_STAGE_FAILURE,
    EXIT_VALIDATION,
    PipelineConfig,
    ValidationError,
    build_parser,
    main,
    print_report,
    run_pipeline,
)
from issueforge.labels import IntentClass
from issueforge.textprep import default_data_dir

DEMO = default_data_dir() / "demo_corpus"
# a label row, as `extract --labels` reads it, for every demo issue
DEMO_LABELS = "".join(json.dumps({"issue_id": json.loads(line)["issue_id"], "intents": ["bug"]}) + "\n"
                      for line in (DEMO / "issues.jsonl").read_text(encoding="utf-8").splitlines())


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    code = main(["pipeline", "--config", str(DEMO / "demo_config.json"), "--out", str(out / "run")])
    assert code == EXIT_OK
    return out / "run"


def test_pipeline_writes_seven_artifacts(pipeline_dir):
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == 7
    assert set(manifest["artifacts"]) == {
        "repos.jsonl",
        "labels.jsonl",
        "extracted.jsonl",
        "extraction_report.json",
        "docs.jsonl",
        "augmented.jsonl",
        "report.json",
    }
    assert {path.name for path in pipeline_dir.iterdir()} == set(manifest["artifacts"]) | {"manifest.json"}


# sha256 of every demo artifact; an optimization must leave all of them unchanged
DEMO_ARTIFACT_HASHES = {
    "augmented.jsonl": "46febf7142cd4db48db949e80eb9b2e7fac2deb5946cc296a91f07eb5b573fb4",
    "docs.jsonl": "7c85af09fc813ef25007de0c803bbba0a34c88883f0f9eda979a1e8ae543a09c",
    "extracted.jsonl": "ee8e9f864098029a664cb188792dead40aae4f8c9558002521da375b4e89e47d",
    "extraction_report.json": "b3856312193a11b507049cd68a89c0d910a928595420bce77fb08a13d72994ba",
    "labels.jsonl": "b8b88884fbbdca4315a60f08b4729732bf081e8dd9a4612ab01599f5926f3486",
    "report.json": "d207c714452d6e156268050d7d5564438c44990bcd61f8be102c9f131f9ca7e4",
    "repos.jsonl": "79fe2727e3162b7ecac91bea81352310fd6a744359afd2a128085436b2379599",
}


def test_demo_artifact_hashes_are_pinned(pipeline_dir):
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    assert manifest["artifacts"] == DEMO_ARTIFACT_HASHES


# sha256 of json.dumps(run_experiment(...), sort_keys=True), the comparison rows of the README/CI demo
# experiment at full precision; comparison.tsv rounds every metric to six decimals
DEMO_EXPERIMENT_SHA256 = "c8375968d6a6e7854f5f88f39b33789678adcae7d3299e0c87f5e4066a8064d5"


def test_demo_experiment_is_pinned_at_full_precision(pipeline_dir, tmp_path, monkeypatch):
    config = _write(tmp_path / "exp.json", json.dumps({
        "label_map": str(DEMO / "labelmap_demo.tsv"), "primary_csv": str(DEMO / "primary_demo.csv"),
        "pool": str(pipeline_dir / "docs.jsonl"), "corpus_dir": str(pipeline_dir), "seed": 7,
        "specs": [{"method": "within-app", "target_app": "r-podkit"},
                  {"method": "within-context", "target_app": "r-podkit", "top_k_similar": 2},
                  {"method": "within-context", "target_app": "r-podkit", "top_k_similar": 2, "include_same_app": True},
                  {"method": "between-app"}]}))
    run_experiment, reports = augmentation.run_experiment, []
    monkeypatch.setattr(augmentation, "run_experiment", lambda *args, **kwargs: reports.append(
        run_experiment(*args, **kwargs)) or reports[-1])
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "comparison.tsv")]) == EXIT_OK
    [rows] = reports
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == DEMO_EXPERIMENT_SHA256


@pytest.mark.parametrize("target", ["bug", "feature"])
def test_train_eval_writes_the_pipeline_report_of_its_target(pipeline_dir, tmp_path, capsys, target):
    # the demo config cross-validates with 5 folds and seed 7; train-eval writes report.json and prints each mean
    out = tmp_path / "train_eval.json"
    argv = ["train-eval", "--data", str(pipeline_dir / "augmented.jsonl"), "--k", "5", "--seed", "7", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == (pipeline_dir / "report.json").read_bytes()
    mean = json.loads(out.read_text())[target]["mean"]
    line = f"{target}: precision={mean['precision']:.3f} recall={mean['recall']:.3f} f1={mean['f1']:.3f}"
    assert line in capsys.readouterr().out.splitlines()


def test_demo_augmented_rows_keep_their_order_and_origin(pipeline_dir):
    # the augmented dataset was once written as {doc_id, origin, tokens, intents}, origin "primary" for a review;
    # mapped back to that form, the demo file hashes as it did then
    lines = []
    for line in (pipeline_dir / "augmented.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        origin = "primary" if row["source"] == "review" else "auxiliary"
        old_row = {"doc_id": row["doc_id"], "origin": origin, "tokens": row["tokens"], "intents": row["intents"]}
        lines.append(json.dumps(old_row, sort_keys=True, ensure_ascii=False) + "\n")
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    assert digest == "58a3d9b19b4877f5cdf55c97d14933de46e30d77d21388242fe4abf2a1511c82"


def test_pipeline_is_deterministic(pipeline_dir, tmp_path, capsys):
    second = tmp_path / "again"
    code = main(["pipeline", "--config", str(DEMO / "demo_config.json"), "--out", str(second)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"pipeline complete: {second}\n"  # its stages log, and only it prints
    assert (pipeline_dir / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()


def test_missing_lexicon_fails_validation_before_work(tmp_path):
    config = json.loads((DEMO / "demo_config.json").read_text())
    config["corpus_dir"] = str(DEMO)
    config["primary_csv"] = str(DEMO / "primary_demo.csv")
    config["label_map"] = str(DEMO / "labelmap_demo.tsv")
    config["lexicon"] = str(tmp_path / "missing_lexicon.tsv")
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(config_file), "--out", str(out)])
    assert code == EXIT_STAGE_FAILURE  # a missing file is an OSError, under a config key as under a flag
    assert not out.exists()


def _pipeline_config(tmp_path, corpus_dir=DEMO, **changes) -> str:
    """The demo config with absolute paths and ``changes`` applied, written under ``tmp_path``."""
    config = json.loads((DEMO / "demo_config.json").read_text())
    config.update(corpus_dir=str(corpus_dir), primary_csv=str(DEMO / "primary_demo.csv"),
                  label_map=str(DEMO / "labelmap_demo.tsv"), **changes)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    return str(config_file)


def _tree(root: Path) -> dict:
    """Every entry under ``root``, hidden ones included: relative path -> bytes, or None for a directory."""
    return {str(path.relative_to(root)): None if path.is_dir() else path.read_bytes() for path in root.rglob("*")}


def test_failed_run_leaves_the_previous_run_intact(tmp_path):
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(DEMO / "demo_config.json"), "--out", str(out)]) == EXIT_OK
    before = _tree(out)
    # a filter that keeps no repository leaves the augment stage no candidate document, mid-pipeline
    config = _pipeline_config(tmp_path, min_labeled_issues=1000)
    assert main(["pipeline", "--config", config, "--out", str(out)]) == EXIT_STAGE_FAILURE
    assert _tree(out) == before
    assert not list(out.glob("*.partial")) and not list(out.glob(".staging-*"))


def test_interrupted_commit_leaves_no_manifest_and_a_rerun_completes_it(tmp_path, monkeypatch):
    out = tmp_path / "out"
    config = str(DEMO / "demo_config.json")
    assert main(["pipeline", "--config", config, "--out", str(out)]) == EXIT_OK
    moves = []
    replace = os.replace

    def third_move_fails(src, dst):
        moves.append(dst)
        if len(moves) == 3:
            raise OSError(f"no space left while moving {src}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", third_move_fails)
    assert main(["pipeline", "--config", config, "--out", str(out)]) == EXIT_STAGE_FAILURE
    monkeypatch.undo()
    assert len(moves) == 3
    assert not (out / "manifest.json").exists()
    assert not list(out.glob(".staging-*"))
    assert main(["report", str(out)]) == EXIT_STAGE_FAILURE
    assert main(["pipeline", "--config", config, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == DEMO_ARTIFACT_HASHES
    assert main(["report", str(out)]) == EXIT_OK


def test_old_corpus_directory_in_out_is_left_alone(tmp_path):
    # a run keeps repos.jsonl, not corpus/; an older version's corpus/ is neither listed nor removed
    out = tmp_path / "out"
    (out / "corpus").mkdir(parents=True)
    for name in ("repos.jsonl", "issues.jsonl"):
        shutil.copy(DEMO / name, out / "corpus" / name)
    assert main(["pipeline", "--config", str(DEMO / "demo_config.json"), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == DEMO_ARTIFACT_HASHES
    assert sorted(path.name for path in (out / "corpus").iterdir()) == ["issues.jsonl", "repos.jsonl"]


def test_pipeline_into_the_working_directory(tmp_path, monkeypatch):
    # the benchmark runs `pipeline --out .` from inside the run directory
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    assert main(["pipeline", "--config", str(DEMO / "demo_config.json"), "--out", "."]) == EXIT_OK
    artifacts = json.loads((run / "manifest.json").read_text())["artifacts"]
    assert artifacts == DEMO_ARTIFACT_HASHES
    assert {path.name for path in run.iterdir()} == set(artifacts) | {"manifest.json"}


def test_manifest_does_not_depend_on_the_working_directory(tmp_path, monkeypatch):
    # one config file, named relative to two working directories
    manifests = []
    for cwd, config in ((DEMO.parent, "demo_corpus/demo_config.json"), (DEMO, "demo_config.json")):
        monkeypatch.chdir(cwd)
        out = tmp_path / cwd.name
        assert main(["pipeline", "--config", config, "--out", str(out)]) == EXIT_OK
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["artifacts"] == DEMO_ARTIFACT_HASHES


def test_malformed_corpus_line_fails_the_pipeline_as_a_validation_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(DEMO / "repos.jsonl", corpus / "repos.jsonl")
    issues = (DEMO / "issues.jsonl").read_text(encoding="utf-8")
    bad_line = issues.count("\n") + 1
    (corpus / "issues.jsonl").write_text(issues + '{"issue_id": "x"\n', encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pipeline", "--config", _pipeline_config(tmp_path, corpus), "--out", str(out)]) == EXIT_VALIDATION
    assert f"issues.jsonl:{bad_line}:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "csv_text", ["text,label\n", "text,label\nsome words in a review,mystery\n"], ids=["header-only", "unmapped-label"]
)
def test_bad_primary_fails_the_pipeline_before_any_stage(tmp_path, capsys, csv_text):
    primary = tmp_path / "primary.csv"
    primary.write_text(csv_text, encoding="utf-8")
    config = json.loads((DEMO / "demo_config.json").read_text())
    config.update(corpus_dir=str(DEMO), primary_csv=str(primary), label_map=str(DEMO / "labelmap_demo.tsv"))
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(config_file), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "primary.csv" in err and "StageFailure" not in err and "filter_repos: kept" not in err
    assert not out.exists()


def test_pipeline_report_equals_cross_validating_its_augmented_rows_alone(pipeline_dir):
    config = json.loads((DEMO / "demo_config.json").read_text())
    report = json.loads((pipeline_dir / "report.json").read_text())
    rows = augmentation.load_docs(pipeline_dir / "augmented.jsonl")
    for target in classifier.TARGETS:
        alone = classifier.cross_validate(rows, target, k=config["folds"], seed=config["seed"])
        assert report[target.value]["folds"] == [fold.as_dict() for fold in alone.folds]


def test_report_funnel_monotone(pipeline_dir, capsys):
    summary = print_report(pipeline_dir)
    counts = [count for _, count in summary["funnel"]]
    assert counts == sorted(counts, reverse=True)
    captured = capsys.readouterr()
    assert "Data funnel" in captured.out


def test_report_missing_artifact(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest.json"):
        print_report(tmp_path)
    assert main(["report", str(tmp_path)]) == EXIT_STAGE_FAILURE


# report reads manifest.json and report.json alone
# file, damaged text, and what the one error line says
DAMAGED_RUN_FILES = {
    "manifest-not-json": ("manifest.json", "{bad", "manifest.json is not valid JSON"),
    # as a run wrote it before the funnel moved into the manifest
    "manifest-without-funnel": (
        "manifest.json", '{"artifacts": {}, "config": {}, "seed": 7}', "manifest.json needs the funnel counts"),
    "report-not-json": ("report.json", "{bad", "report.json is not valid JSON"),
    "report-without-feature-mean": (
        "report.json", '{"bug": {"mean": {"precision": 1.0, "recall": 1.0, "f1": 1.0}}, "feature": {"folds": []}}',
        "report.json needs a mean for bug and feature"),
}


@pytest.mark.parametrize("name,text,message", DAMAGED_RUN_FILES.values(), ids=DAMAGED_RUN_FILES.keys())
def test_report_on_a_damaged_run_is_a_validation_error(pipeline_dir, tmp_path, capsys, name, text, message):
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir, run)
    (run / name).write_text(text, encoding="utf-8")
    if name == "report.json":  # listed in the manifest, so report reads it instead of stopping at its digest
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["artifacts"][name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["report", str(run)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    errors = [record for record in map(json.loads, captured.err.splitlines()) if record["level"] == "error"]
    assert len(errors) == 1 and message in errors[0]["message"]
    assert "Traceback" not in captured.err
    assert "Mean metrics" not in captured.out


def test_report_on_a_run_holding_another_runs_report_is_a_validation_error(pipeline_dir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir, run)
    listed = json.loads((run / "manifest.json").read_text())["artifacts"]["report.json"]
    argv = ["train-eval", "--data", str(run / "augmented.jsonl"), "--k", "3", "--seed", "1",
            "--out", str(run / "report.json")]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main(["report", str(run)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    errors = [record for record in map(json.loads, captured.err.splitlines()) if record["level"] == "error"]
    assert len(errors) == 1
    for named in ("report.json", listed, hashlib.sha256((run / "report.json").read_bytes()).hexdigest()):
        assert named in errors[0]["message"]
    assert "Traceback" not in captured.err
    assert "Mean metrics" not in captured.out


def test_config_unknown_key_rejected(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"seed": 1, "corpus_dir": ".", "primary_csv": "x", "label_map": "y", "bogus": 1}))
    with pytest.raises(ValidationError) as raised:
        PipelineConfig.from_file(config_file)
    assert "'bogus'" in str(raised.value) and str(config_file) in str(raised.value)


def test_config_requires_seed(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"corpus_dir": ".", "primary_csv": "x", "label_map": "y"}))
    with pytest.raises(ValidationError) as raised:
        PipelineConfig.from_file(config_file)
    assert "'seed'" in str(raised.value) and str(config_file) in str(raised.value)


@pytest.mark.parametrize("out", ["corpus", "corpus/../corpus/."], ids=["same-path", "same-directory-resolved"])
def test_pipeline_out_at_its_corpus_directory_is_refused(tmp_path, capsys, out):
    # the demo config's corpus_dir is ".": --out at its own directory once replaced the corpus's repos.jsonl
    # with the filtered repos, and the next run exited 2 on an issue of a repo filtered out
    corpus = tmp_path / "corpus"
    shutil.copytree(DEMO, corpus)
    before = {path.name: path.read_bytes() for path in corpus.iterdir()}
    argv = ["pipeline", "--config", str(corpus / "demo_config.json"), "--out", str(tmp_path / out)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(tmp_path / out) in err and str(corpus) in err
    assert "Traceback" not in err
    assert {path.name: path.read_bytes() for path in corpus.iterdir()} == before  # no manifest.json, no staging


def test_harvest_passes_a_client_built_from_its_flags(tmp_path, monkeypatch):
    from issueforge import github

    monkeypatch.setenv("HARVEST_TOKEN", "s3cret")
    calls = []
    monkeypatch.setattr(github, "fetch_remote", lambda *args, **kwargs: calls.append((args, kwargs)))
    argv = _harvest(tmp_path, "--token-env", "HARVEST_TOKEN", "--rate-limit", "720", "--parallel", "3")
    assert main(argv) == EXIT_OK
    [((client, names, out), kwargs)] = calls
    assert isinstance(client, github.Client)
    assert client.base_url == "http://127.0.0.1:9"
    assert client.headers["Authorization"] == "Bearer s3cret"
    assert client.gate._interval == 3600.0 / 720
    assert (names, out, kwargs) == (["demo/x"], str(tmp_path / "h"), {"parallel": 3})


@pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
def test_harvest_token_env_without_a_token_exits_2_before_any_request(tmp_path, monkeypatch, capsys, value):
    from issueforge import github

    if value is None:
        monkeypatch.delenv("HARVEST_TOKEN", raising=False)
    else:
        monkeypatch.setenv("HARVEST_TOKEN", value)
    calls = []
    monkeypatch.setattr(github, "fetch_remote", lambda *args, **kwargs: calls.append((args, kwargs)))
    assert main(_harvest(tmp_path, "--token-env", "HARVEST_TOKEN")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "--token-env" in err and "HARVEST_TOKEN" in err and "Traceback" not in err
    assert calls == [] and not (tmp_path / "h").exists()


# --- stage subcommands chained by hand -----------------------------------------------------

@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    work = tmp_path_factory.mktemp("staged")
    filtered = work / "filtered"
    assert (
        main(
            ["filter", "--in", str(DEMO), "--out", str(filtered), "--min-issues", "5", "--min-contributors", "2"]
        )
        == EXIT_OK
    )
    labels_file = work / "labels.jsonl"
    assert (
        main(
            [
                "labels",
                "--in", str(filtered),
                "--lexicon", str(default_data_dir() / "lexicon.tsv"),
                "--min-freq", "1",
                "--out", str(labels_file),
            ]
        )
        == EXIT_OK
    )
    extracted = work / "extracted.jsonl"
    assert (
        main(
            [
                "extract",
                "--in", str(filtered),
                "--labels", str(labels_file),
                "--out", str(extracted),
                "--report", str(work / "extraction_report.json"),
            ]
        )
        == EXIT_OK
    )
    docs = work / "docs.jsonl"
    assert main(["preprocess", "--in", str(extracted), "--out", str(docs)]) == EXIT_OK
    return work, filtered, labels_file, extracted, docs


def test_staged_filter_drops_low_activity(staged):
    _, filtered, *_ = staged
    repo_ids = {json.loads(line)["repo_id"] for line in (filtered / "repos.jsonl").read_text().splitlines()}
    assert "r-lowact" not in repo_ids
    assert len(repo_ids) == 4


def test_staged_labels_and_extraction(staged):
    work, _, labels_file, extracted, docs = staged
    labeled = [json.loads(line) for line in labels_file.read_text().splitlines()]
    assert labeled and all(set(row) == {"issue_id", "repo_id", "intents"} for row in labeled)
    extracted_rows = [json.loads(line) for line in extracted.read_text().splitlines()]
    assert extracted_rows
    assert {row["mode"] for row in extracted_rows} <= {"section_match", "single_paragraph"}
    report = json.loads((work / "extraction_report.json").read_text())
    assert report["extracted"] <= report["considered"]


def test_staged_similar_command(staged, tmp_path):
    _, filtered, *_ = staged
    ranking_file = tmp_path / "ranking.json"
    code = main(
        ["similar", "--in", str(filtered), "--query", "r-podkit", "--top", "2", "--out", str(ranking_file)]
    )
    assert code == EXIT_OK
    ranking = json.loads(ranking_file.read_text())
    assert ranking["query_repo"] == "r-podkit"
    assert len(ranking["top"]) == 2
    # the other podcast app should outrank the maps app
    scores = dict((r, s) for r, s in ranking["ranked"])
    assert scores["r-audiocast"] > scores["r-mapgo"]


def test_staged_augment_and_train(staged, tmp_path):
    _, filtered, _, _, docs = staged
    augmented = tmp_path / "augmented.jsonl"
    code = main(
        [
            "augment",
            "--primary", str(DEMO / "primary_demo.csv"),
            "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(docs),
            "--method", "within-context",
            "--app", "r-podkit",
            "--include-same-app",
            "--corpus", str(filtered),
            "--ratio", "0.3",
            "--seed", "11",
            "--out", str(augmented),
        ]
    )
    assert code == EXIT_OK
    rows = [json.loads(line) for line in augmented.read_text().splitlines()]
    assert sum(1 for r in rows if r["source"] != "review") >= 1
    report_file = tmp_path / "report.json"
    code = main(
        ["train-eval", "--data", str(augmented), "--k", "5", "--seed", "3", "--out", str(report_file)]
    )
    assert code == EXIT_OK
    report = json.loads(report_file.read_text())
    assert set(report) == {"k", "seed", "n_rows", "bug", "feature"}
    assert report["n_rows"] == len(rows)
    assert all(len(report[target]["folds"]) == 5 for target in ("bug", "feature"))


def test_staged_sweep_command(staged, tmp_path):
    *_, docs = staged
    out_dir = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--primary", str(DEMO / "primary_demo.csv"),
            "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(docs),
            "--ratios", "0,0.2,0.4",
            "--seed", "5",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == EXIT_OK
    trend = (out_dir / "trend.tsv").read_text().splitlines()
    assert len(trend) == 4  # header + three ratios
    assert len(list(out_dir.glob("augmented_r*.jsonl"))) == 3


# trend.tsv of the sweep below, from before each cross-validation counted its rows' terms once
SYNTHETIC_SWEEP_TREND_SHA256 = "d5c0fa201a68f39910c1424c905aaa2d1d3ea838e7e230b42c849ea6b51021fa"


def test_sweep_train_trend_is_pinned(tmp_path):
    data = default_data_dir() / "synthetic_recall"
    out_dir = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--primary", str(data / "primary.csv"),
            "--labelmap", str(data / "labelmap.tsv"),
            "--pool", str(data / "pool.jsonl"),
            "--ratios", "0,0.3,0.7",
            "--train",
            "--seed", "0",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == EXIT_OK
    assert hashlib.sha256((out_dir / "trend.tsv").read_bytes()).hexdigest() == SYNTHETIC_SWEEP_TREND_SHA256


def test_failed_sweep_train_writes_nothing(tmp_path):
    # 100 primary rows cannot fill 1000 folds: cross-validation fails, and it runs before any file is written
    data = default_data_dir() / "synthetic_recall"
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--primary", str(data / "primary.csv"), "--labelmap", str(data / "labelmap.tsv"),
            "--pool", str(data / "pool.jsonl"), "--ratios", "0:1:0.5", "--k", "1000", "--train",
            "--out-dir", str(out_dir)]
    assert main(argv) == EXIT_STAGE_FAILURE
    assert not out_dir.exists()


def test_sweep_train_cross_validates_each_distinct_dataset_once(tmp_path, monkeypatch):
    # 60 pool documents for 100 reviews: ratios 0.6 to 1.0 all take the whole pool, so their rows are equal
    calls = []
    original = classifier.cross_validate

    def counting(rows, target, *args, **kwargs):
        calls.append((tuple(rows), target))
        return original(rows, target, *args, **kwargs)

    monkeypatch.setattr(classifier, "cross_validate", counting)
    data = default_data_dir() / "synthetic_recall"
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--primary", str(data / "primary.csv"), "--labelmap", str(data / "labelmap.tsv"),
            "--pool", str(data / "pool.jsonl"), "--ratios", "0:1:0.1", "--train", "--seed", "0",
            "--out-dir", str(out_dir)]
    assert main(argv) == EXIT_OK
    with (out_dir / "trend.tsv").open(encoding="utf-8", newline="") as handle:
        trend = list(csv.DictReader(handle, delimiter="\t"))
    datasets = [(out_dir / row["file"]).read_bytes() for row in trend]
    assert len(datasets) == 11 and len(set(datasets)) == 7
    assert len(calls) == 14 and len(set(calls)) == 14  # each distinct dataset once per target
    metrics = [name for name in trend[0] if name.startswith(("bug_", "feature_"))]
    for dataset, row in zip(datasets, trend):
        first = trend[datasets.index(dataset)]
        assert [row[name] for name in metrics] == [first[name] for name in metrics]


# sha256 of `augment` output on the demo run's docs.jsonl, ratio 0.3 and seed 0
DEMO_AUGMENT_SHA256 = {
    "within-context": "c9e3ff4c061ac87b9cd0d1cd0a979a943f70fd88ce5c642644582ff0bae9bc6e",
    "within-app": "27f6a067f074fd52718644095c7997594636471190852dd0e7f55b984403e187",
}


@pytest.mark.parametrize("method", DEMO_AUGMENT_SHA256)
def test_demo_augment_output_is_pinned(pipeline_dir, tmp_path, method):
    out = tmp_path / "augmented.jsonl"
    argv = ["augment", "--primary", str(DEMO / "primary_demo.csv"), "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(pipeline_dir / "docs.jsonl"), "--method", method, "--app", "r-podkit", "--out", str(out)]
    if method == "within-context":
        argv += ["--top", "2", "--corpus", str(pipeline_dir)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEMO_AUGMENT_SHA256[method]


@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_review_csv_records_end_at_a_lone_cr_or_crlf_as_at_lf(pipeline_dir, tmp_path, newline):
    primary = tmp_path / "primary_demo.csv"
    primary.write_bytes((DEMO / "primary_demo.csv").read_bytes().replace(b"\n", newline.encode()))
    out = tmp_path / "augmented.jsonl"
    argv = ["augment", "--primary", str(primary), "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(pipeline_dir / "docs.jsonl"), "--method", "within-app", "--app", "r-podkit",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEMO_AUGMENT_SHA256["within-app"]


def test_experiment_command(staged, tmp_path):
    *_, docs = staged
    exp_config = tmp_path / "exp.json"
    exp_config.write_text(
        json.dumps(
            {
                "primary_csv": str(DEMO / "primary_demo.csv"),
                "label_map": str(DEMO / "labelmap_demo.tsv"),
                "pool": str(docs),
                "seed": 2,
                "k": 5,
                "specs": [{"method": "between-app", "ratio": 0.3}],
            }
        )
    )
    out = tmp_path / "comparison.tsv"
    assert main(["experiment", "--config", str(exp_config), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("target\tmodel")
    assert len(lines) == 5  # header + (baseline + 1 spec) x 2 targets


def _experiment_config(**changes):
    config = {
        "primary_csv": str(DEMO / "primary_demo.csv"),
        "label_map": str(DEMO / "labelmap_demo.tsv"),
        "pool": str(default_data_dir() / "synthetic_recall" / "pool.jsonl"),
        "specs": [{"method": "between-app", "ratio": 0.3}],
    }
    config.update(changes)
    return json.dumps({key: value for key, value in config.items() if value is not None})


@pytest.mark.parametrize(
    "text",
    [
        "{bad",
        "[1, 2]",
        _experiment_config(label_map=None),
        _experiment_config(primary_csv=None),
        _experiment_config(pool=None),
        _experiment_config(specs=[{"method": "within-context", "target_app": "r-podkit"}]),
        _experiment_config(specs=[{"ratio": 0.3}]),
        _experiment_config(specs=[{"method": "cross-app", "ratio": 0.3}]),
        _experiment_config(specs=[{"method": "between-app", "ratio": 1.5}]),
        _experiment_config(specs=[{"method": "between-app", "ratio": -0.1}]),
        _experiment_config(specs=[{"method": "between-app", "ratio": "0.3"}]),
        _experiment_config(label_map=5),
        _experiment_config(seed="x"),
        _experiment_config(k="x"),
        _experiment_config(k=1),
    ],
    ids=[
        "not-json", "not-an-object", "no-label-map", "no-primary-csv", "no-pool",
        "within-context-without-corpus-dir", "no-method", "unknown-method", "ratio-above-1", "ratio-below-0",
        "ratio-not-a-number", "label-map-not-a-string", "seed-not-an-integer", "k-not-an-integer", "k-below-2",
    ],
)
def test_bad_experiment_config_is_a_validation_error(tmp_path, text):
    config = tmp_path / "exp.json"
    config.write_text(text)
    out = tmp_path / "comparison.tsv"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


BAD_PIPELINE_FIELDS = {
    "ratio-a-string": {"ratio": "0.3"},
    "ratio-a-bool": {"ratio": True},
    "ratio-above-1": {"ratio": 1.5},
    "ratio-nan": {"ratio": float("nan")},
    "folds-1": {"folds": 1},
    "folds-a-string": {"folds": "5"},
    "folds-a-float": {"folds": 5.0},
    "top-k-similar-0": {"top_k_similar": 0},
    "min-labeled-issues-negative": {"min_labeled_issues": -1},
    "min-contributors-a-string": {"min_contributors": "2"},
    "min-label-frequency-a-string": {"min_label_frequency": "x"},
    "min-label-frequency-a-bool": {"min_label_frequency": True},
    "include-same-app-a-string": {"include_same_app": "yes"},
    "include-same-app-an-int": {"include_same_app": 1},
    "corpus-dir-a-number": {"corpus_dir": 5},
    "lexicon-a-number": {"lexicon": 5},
    "method-a-number": {"method": 5},
    "target-app-a-number": {"target_app": 5},
    # training settings are no longer config keys, whatever their value
    "epochs-negative": {"epochs": -1},
    "epochs-0": {"epochs": 0},
    "epochs-default": {"epochs": 50},
    "learning-rate-0": {"learning_rate": 0},
    "learning-rate-infinite": {"learning_rate": float("inf")},
    "learning-rate-a-string": {"learning_rate": "0.1"},
    "learning-rate-default": {"learning_rate": 0.1},
    "l2-negative": {"l2": -1e-4},
    "l2-nan": {"l2": float("nan")},
    "l2-default": {"l2": 1e-4},
}


@pytest.mark.parametrize("changes", BAD_PIPELINE_FIELDS.values(), ids=BAD_PIPELINE_FIELDS.keys())
def test_bad_pipeline_config_is_a_validation_error(tmp_path, changes):
    config = json.loads((DEMO / "demo_config.json").read_text())
    config.update(corpus_dir=str(DEMO), primary_csv=str(DEMO / "primary_demo.csv"))
    config.update(label_map=str(DEMO / "labelmap_demo.tsv"), **changes)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(config_file), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


# --- configs drawn from the real keys ----------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=4,
)
# values a key may validly hold, so that some drawn configs run to the end
VALID_CHOICES = {
    "method": [method.value for method in augmentation.Method], "target_app": ["r-podkit", "app-0"],
    "ratio": [0.0, 0.5, 1.0], "folds": [2, 3], "k": [2, 3], "seed": [0, 7], "top_k_similar": [1, 2],
    "include_same_app": [True, False], "corpus_dir": [str(DEMO)], "min_label_frequency": [0, 1],
}
CONFIG_KEYS = {
    "pipeline": [field.name for field in dataclasses.fields(PipelineConfig)],
    "experiment": [field.name for field in dataclasses.fields(cli.ExperimentConfig)],
}
SPEC_KEYS = [field.name for field in dataclasses.fields(augmentation.AugmentationSpec)]
DROP_KEY = object()


def _value(key: str):
    valid = SPEC_LISTS if key == "specs" else st.sampled_from(VALID_CHOICES.get(key, [None]))
    return JSON_VALUES | valid


SPEC_LISTS = st.lists(st.fixed_dictionaries({}, optional={key: _value(key) for key in SPEC_KEYS}), max_size=2)


@pytest.mark.parametrize("command", ["pipeline", "experiment"])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_config_drawn_from_the_real_keys_gets_a_documented_exit_code(command, data):
    if command == "pipeline":
        config = json.loads((DEMO / "demo_config.json").read_text())
        config.update(corpus_dir=str(DEMO), primary_csv=str(DEMO / "primary_demo.csv"),
                      label_map=str(DEMO / "labelmap_demo.tsv"))
    else:
        config = json.loads(_experiment_config())
    for key in data.draw(st.sets(st.sampled_from(CONFIG_KEYS[command]), max_size=3), label="changed keys"):
        value = data.draw(st.just(DROP_KEY) | _value(key), label=key)
        if value is DROP_KEY:
            config.pop(key, None)
        else:
            config[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        config_file = Path(tmp) / "config.json"
        config_file.write_text(json.dumps(config))
        out = Path(tmp) / ("run" if command == "pipeline" else "comparison.tsv")
        code = main([command, "--config", str(config_file), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_STAGE_FAILURE)


RECALL = default_data_dir() / "synthetic_recall"
WORD_LISTS = ("negative_modifiers.txt", "special_phrases.txt", "stopwords.txt", "lemmas.txt")
# two extracted issues, as `preprocess --in` reads them
EXTRACTED_TEXT = "".join(json.dumps({"issue_id": f"i{n}", "repo_id": "r1", "title": title, "text": text,
                                     "intents": [intent]}) + "\n"
                         for n, (title, text, intent) in enumerate([
                             ("App crashes on start", "It crashes every time I open the settings page.", "bug"),
                             ("Add a dark mode", "Please add a dark theme for use at night.", "feature")]))
# each input file drawn, and the text that drawn lines are added to: the tables, a review CSV and two JSONL files
DRAWN_TEXTS = {
    name: path.read_text(encoding="utf-8") for name, path in {
        "patterns.tsv": default_data_dir() / "patterns.tsv", "lexicon.tsv": default_data_dir() / "lexicon.tsv",
        "labelmap.tsv": RECALL / "labelmap.tsv", **{name: default_data_dir() / name for name in WORD_LISTS},
        "primary.csv": RECALL / "primary.csv", "augmented.jsonl": RECALL / "pool.jsonl"}.items()
}
DRAWN_TEXTS["extracted.jsonl"] = EXTRACTED_TEXT
# no repetition operator, so a drawn regex cannot backtrack for long
TABLE_LINES = st.lists(st.sampled_from([*"ab #\t\\()[]|?.'é", "bug", "drop", "crash", "X1", "B"]),
                       max_size=8).map("".join)


def _demo_labels(directory: Path) -> str:
    return str(_write(directory / "labels.jsonl", DEMO_LABELS))


def _drawn_argv(path: Path) -> list[str]:
    """The command that reads ``path`` through its flag; a word list's directory gets the other three."""
    out = ["--out", str(path.parent / "out.jsonl")]
    if path.name == "patterns.tsv":
        return ["extract", "--in", str(DEMO), "--labels", _demo_labels(path.parent), "--patterns", str(path), *out]
    if path.name == "lexicon.tsv":
        return ["labels", "--in", str(DEMO), "--lexicon", str(path), *out]
    if path.name in ("labelmap.tsv", "primary.csv"):
        inputs = {"primary.csv": RECALL / "primary.csv", "labelmap.tsv": RECALL / "labelmap.tsv", path.name: path}
        return ["augment", "--primary", str(inputs["primary.csv"]), "--labelmap", str(inputs["labelmap.tsv"]),
                "--pool", str(RECALL / "pool.jsonl"), "--method", "between-app", *out]
    if path.name == "augmented.jsonl":
        return ["train-eval", "--data", str(path), "--out", str(path.parent / "r.json")]
    if path.name == "extracted.jsonl":
        return ["preprocess", "--in", str(path), *out]
    for name in WORD_LISTS:
        if name != path.name:
            shutil.copy(default_data_dir() / name, path.parent / name)
    return ["extract", "--in", str(DEMO), "--labels", _demo_labels(path.parent), "--lists", str(path.parent), *out]


def _first_line_not_utf8(content: bytes) -> int | None:
    for lineno, line in enumerate(content.split(b"\n"), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return None


@pytest.mark.parametrize("table", DRAWN_TEXTS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_table_drawn_as_text_or_bytes_gets_a_documented_exit_code(table, data):
    if data.draw(st.booleans(), label="bytes"):
        content = data.draw(st.binary(max_size=64), label="content")
    else:
        head = data.draw(st.lists(TABLE_LINES, max_size=3), label="head")
        tail = data.draw(st.lists(TABLE_LINES, max_size=3), label="tail")
        bundled = DRAWN_TEXTS[table] if data.draw(st.booleans(), label="bundled") else ""
        # Latin-1 writes a drawn "é" as one byte that is not UTF-8
        encoding = data.draw(st.sampled_from(["utf-8", "latin-1"]), label="encoding")
        content = b"\n".join([*(line.encode(encoding) for line in head), bundled.encode("utf-8"),
                               *(line.encode(encoding) for line in tail)])
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        path = Path(tmp) / table
        path.write_bytes(content)
        code = main(_drawn_argv(path))
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_STAGE_FAILURE)
    assert "Traceback" not in stderr.getvalue()
    errors = [r["message"] for r in map(json.loads, stderr.getvalue().splitlines()) if r["level"] == "error"]
    assert len(errors) == (code != EXIT_OK)
    bad_line = _first_line_not_utf8(content)
    if bad_line is not None:  # exit 2 names the first line that is not UTF-8, or a line before it that failed first
        assert code == EXIT_VALIDATION
        named = re.search(rf"{re.escape(table)}:([0-9]+): (not UTF-8)?", errors[0])
        assert named and (int(named[1]) == bad_line if named[2] else int(named[1]) < bad_line), errors[0]


# --- argv drawn for every subcommand --------------------------------------------------------

def _inputs(t: Path):
    """Other values of an input flag: demo and synthetic_recall files of every kind, a directory, a missing path."""
    return st.sampled_from([DEMO, DEMO / "issues.jsonl", DEMO / "demo_config.json", DEMO / "primary_demo.csv",
                            RECALL / "pool.jsonl", RECALL / "labelmap.tsv", default_data_dir() / "patterns.tsv",
                            default_data_dir(), t, t / "missing"]).map(str)


def _outputs(t: Path):
    return st.sampled_from([t, t / "no" / "dir" / "out"]).map(str)


INTS = st.integers(-2, 12).map(str) | st.sampled_from(["x", "1.5", "", "99999999999999999999"])
FLOATS = st.floats().map(repr) | st.just("x")
TEXTS = st.sampled_from(["r-podkit", "app-0", "", "no-such-app"])
METHODS = st.sampled_from([*(m.value for m in augmentation.Method), "sideways"])
# at most 3 ratios each: a drawn sweep stays small
RATIOS = st.sampled_from(["0.3", "0,0.5,1", "0:1:0.5", "0,-0", "1:0:0.5", "0:1:0", "2", "x", ""])
SWITCH = st.just(True)


def _argv_flags(command: str, t: Path, run: Path) -> list[tuple[str, object, st.SearchStrategy]]:
    """(flag, the value of a run that works, other values) for each flag of ``command``; a value of None
    leaves the flag out, True gives a switch, and the flag "" is the positional argument. Every output is
    under ``t``; ``run`` is a finished pipeline run, only read."""
    lists = ("--lists", None, _inputs(t))
    selection = [("--primary", str(RECALL / "primary.csv"), _inputs(t)),
                 ("--labelmap", str(RECALL / "labelmap.tsv"), _inputs(t)),
                 ("--pool", str(RECALL / "pool.jsonl"), _inputs(t)), ("--app", None, TEXTS), ("--top", None, INTS),
                 ("--seed", None, INTS), ("--include-same-app", None, SWITCH), ("--corpus", None, _inputs(t)), lists]
    return {
        "harvest": [("--repos", str(_write(t / "repos.txt", "demo/x\n")), _inputs(t)),
                    ("--out", str(t / "h"), _outputs(t)), ("--token-env", None, TEXTS),
                    ("--parallel", None, INTS), ("--rate-limit", None, INTS)],
        "filter": [("--in", str(DEMO), _inputs(t)), ("--out", str(t / "filtered"), _outputs(t)),
                   ("--min-issues", "5", INTS), ("--min-contributors", "2", INTS)],
        "labels": [("--in", str(DEMO), _inputs(t)), ("--lexicon", None, _inputs(t)), ("--min-freq", "1", INTS),
                   ("--out", str(t / "labels_out.jsonl"), _outputs(t)), lists],
        "extract": [("--in", str(DEMO), _inputs(t)), ("--patterns", None, _inputs(t)),
                    ("--labels", _demo_labels(t), _inputs(t)), ("--out", str(t / "extracted_out.jsonl"), _outputs(t)),
                    ("--report", str(t / "report.json"), _outputs(t)), lists],
        "preprocess": [("--in", str(_write(t / "extracted.jsonl", EXTRACTED_TEXT)), _inputs(t)), lists,
                       ("--out", str(t / "docs.jsonl"), _outputs(t))],
        "similar": [("--in", str(DEMO), _inputs(t)), ("--query", "r-podkit", TEXTS), ("--top", "2", INTS),
                    ("--out", str(t / "similar.json"), _outputs(t)), lists],
        "augment": [*selection, ("--method", "between-app", METHODS), ("--ratio", "0.3", FLOATS),
                    ("--out", str(t / "augmented.jsonl"), _outputs(t))],
        "sweep": [*selection, ("--method", None, METHODS), ("--ratios", "0,0.5,1", RATIOS), ("--train", True, SWITCH),
                  ("--k", "3", INTS), ("--out-dir", str(t / "sweep"), _outputs(t))],
        "train-eval": [("--data", str(run / "augmented.jsonl"), _inputs(t)), ("--k", "3", INTS), ("--seed", None, INTS),
                       ("--out", str(t / "report.json"), _outputs(t))],
        "experiment": [("--config", str(_write(t / "exp.json", _experiment_config())), _inputs(t)),
                       ("--out", str(t / "comparison.tsv"), _outputs(t))],
        "pipeline": [("--config", str(DEMO / "demo_config.json"), _inputs(t)), ("--out", str(t / "run"), _outputs(t))],
        "report": [("", str(run), _inputs(t))],
    }[command]


SUBCOMMANDS = list(next(action for action in build_parser()._actions if action.dest == "command").choices)


@pytest.mark.parametrize("command", SUBCOMMANDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_argv_drawn_for_every_subcommand_gets_a_documented_exit_code(pipeline_dir, command, data):
    import requests

    urls = []

    def refuse(self, url, **kwargs):  # harvest sends no request out of this process
        urls.append(url)
        raise requests.ConnectionError(f"connection refused: {url}")

    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()), mock.patch.object(requests.Session, "get", refuse):
        flags = _argv_flags(command, Path(tmp), pipeline_dir)
        mutated = data.draw(st.sets(st.sampled_from([flag for flag, _, _ in flags]), max_size=2), label="mutated")
        groups = []
        for flag, valid, others in flags:
            value = valid
            if flag in mutated:  # left out one time in four
                value = None if data.draw(st.integers(0, 3), label="left out") == 0 else data.draw(others, label=flag)
            if value is not None:
                groups.append([flag] if value is True else [value] if not flag else [flag, value])
        groups = data.draw(st.permutations(groups), label="order")
        # one repo line, every request refused at once: no --rate-limit sleep and one thread whatever --parallel
        base_url = ["--base-url", "http://127.0.0.1:9"] if command == "harvest" else []
        extra = data.draw(st.sampled_from([[]] * 8 + [["--bogus"], ["stray"]]), label="extra")
        verbose = data.draw(st.sampled_from([[], ["--verbose"]]), label="verbose")
        argv = [*verbose, command, *(arg for group in groups for arg in group), *base_url, *extra]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage and its "error:" line, exit 2
            assert exc.code == EXIT_VALIDATION
            assert re.search(rf"^issueforge( {command})?: error: ", stderr.getvalue(), re.MULTILINE)
            code = None
    err = stderr.getvalue()
    assert "Traceback" not in err
    assert all(url.startswith("http://127.0.0.1:9/") for url in urls)
    if code is not None:
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_STAGE_FAILURE)
        errors = [r for r in map(json.loads, err.splitlines()) if r["level"] == "error"]
        assert len(errors) == (code != EXIT_OK), argv


def test_within_context_pipeline(tmp_path):
    config = json.loads((DEMO / "demo_config.json").read_text())
    config["corpus_dir"] = str(DEMO)
    config["primary_csv"] = str(DEMO / "primary_demo.csv")
    config["label_map"] = str(DEMO / "labelmap_demo.tsv")
    config["method"] = "within-context"
    config["target_app"] = "r-podkit"
    config["top_k_similar"] = 2
    config["include_same_app"] = True
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(config_file), "--out", str(out)]) == EXIT_OK
    rows = [json.loads(line) for line in (out / "augmented.jsonl").read_text().splitlines()]
    assert any(row["source"] != "review" for row in rows)


def test_demo_funnel_counts_by_hand(pipeline_dir):
    # demo corpus enumeration: 40 issues total, 2 in the low-activity repo
    # (filtered), 4 with unrelated labels, 3 multi-paragraph writeups that do
    # not extract, 1 extracted issue whose documents are all under 3 tokens
    summary = print_report(pipeline_dir)
    assert summary["funnel"] == [
        ("raw issues", 40),
        ("filtered", 38),
        ("intent-labeled", 34),
        ("extracted", 31),
        ("admitted", 30),
    ]


def test_parse_ratios_step_form():
    from issueforge.cli import _parse_ratios

    assert _parse_ratios("0:1:0.1") == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert _parse_ratios("0,0.25,0.5") == [0.0, 0.25, 0.5]


@pytest.mark.parametrize(
    "text",
    ["0:1:0", "0:1:-0.1", "0:1:1e-300", "0:1", "0:1:0.1:2", "0::0.1", "a:1:0.1", "0:1.5:0.1", "1:0:0.1",
     "0,1.5", "-0.1,0.5", "0,x", "", ",", "nan", "0:nan:0.1", "0:1:nan",
     # ratios written to one augmented_r*.jsonl file
     "0.3,0.30000000001,0.3", "0.3,0.3", "0.1:0.1000001:0.00000001"],
)
def test_parse_ratios_rejects_bad_input(text):
    from issueforge.cli import _parse_ratios

    with pytest.raises(ValidationError):
        _parse_ratios(text)


def test_sweep_with_zero_step_is_a_validation_error(tmp_path):
    code = main(
        [
            "sweep",
            "--primary", str(DEMO / "primary_demo.csv"),
            "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(tmp_path / "unread.jsonl"),
            "--ratios", "0:1:0",
            "--out-dir", str(tmp_path / "sweep"),
        ]
    )
    assert code == EXIT_VALIDATION
    assert not (tmp_path / "sweep").exists()


def test_sweep_ratios_sharing_a_file_name_are_a_validation_error(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--primary", str(tmp_path / "unread.csv"),
            "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(tmp_path / "unread.jsonl"),
            "--ratios", "0.3,0.30000000001,0.3",
            "--out-dir", str(tmp_path / "sweep"),
        ]
    )
    assert code == EXIT_VALIDATION
    assert "augmented_r0.3.jsonl" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_negative_zero_shares_zeros_file_name(tmp_path, capsys):
    from issueforge.cli import _parse_ratios

    assert [math.copysign(1.0, ratio) for ratio in _parse_ratios("-0,0.5") + _parse_ratios("-0:0.5:0.25")] == [1.0] * 5
    code = main(
        [
            "sweep",
            "--primary", str(tmp_path / "unread.csv"),
            "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(tmp_path / "unread.jsonl"),
            "--ratios", "0,-0.0",
            "--train",
            "--out-dir", str(tmp_path / "sweep"),
        ]
    )
    assert code == EXIT_VALIDATION
    assert "augmented_r0.jsonl" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


# Runs the demo pipeline and stops for good in its last stage, with every other
# artifact staged, so that a test can SIGKILL it mid-run.
HANGING_PIPELINE = """
import sys, time
from issueforge import augmentation, cli
def hang(*args, **kwargs):
    print("staged", flush=True)
    time.sleep(600)
augmentation.cross_validate_datasets = hang
cli.run_pipeline(cli.PipelineConfig.from_file(sys.argv[1]), sys.argv[2])
"""


def test_rerun_removes_the_staging_directory_of_a_killed_run(tmp_path):
    out = tmp_path / "out"
    config = str(DEMO / "demo_config.json")
    package_root = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen([sys.executable, "-c", HANGING_PIPELINE, config, str(out)],
                             stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert child.stdout.readline() == "staged\n"
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    left = [path.name for path in out.glob(".staging-*")]
    assert left and all(name.startswith(f".staging-{child.pid}-") for name in left)
    assert main(["pipeline", "--config", config, "--out", str(out)]) == EXIT_OK
    assert not list(out.glob(".staging-*"))
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == DEMO_ARTIFACT_HASHES


def test_only_staging_directories_of_dead_pids_are_removed(tmp_path):
    finished = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"], capture_output=True, text=True)
    dead, alive = int(finished.stdout), os.getpid()
    names = [f".staging-{dead}-x", f".staging-{alive}-x", ".staging-abc-x", ".staging-1234567890-x", ".staging-x"]
    for name in names:
        (tmp_path / name).mkdir()
    cli._remove_dead_staging(tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names[1:])


def test_rerun_into_same_directory_replaces_artifacts(tmp_path):
    out = tmp_path / "run"
    config = str(DEMO / "demo_config.json")
    assert main(["pipeline", "--config", config, "--out", str(out)]) == EXIT_OK
    first = (out / "manifest.json").read_bytes()
    assert main(["pipeline", "--config", config, "--out", str(out)]) == EXIT_OK
    assert (out / "manifest.json").read_bytes() == first
    assert not list(out.glob(".staging-*"))


@pytest.mark.parametrize("text", ["5", json.dumps(["seed", "corpus_dir", "primary_csv", "label_map"])],
                         ids=["a-number", "a-list-of-key-names"])
def test_pipeline_config_that_is_not_an_object_is_a_validation_error(tmp_path, text):
    config_file = tmp_path / "config.json"
    config_file.write_text(text)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(config_file), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_pipeline_validates_the_lexicon_once(tmp_path, monkeypatch):
    # load_lexicon checks each key as it reads it
    from issueforge import labels

    calls = []
    original = labels.load_lexicon

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(labels, "load_lexicon", counting)
    assert main(["pipeline", "--config", str(DEMO / "demo_config.json"), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command,text",
    [
        ("extract", "{bad\n"),
        ("extract", '{"id": 1}\n'),
        ("extract", '{"issue_id": "i1", "intents": ["mystery"]}\n'),
        ("preprocess", '{"issue_id": "i1", "repo_id": "r1", "title": "a crash", "text": "it crashes on start"}\n'),
        ("preprocess", "[1, 2]\n"),
        # preprocess reads its rows as they come: a bad line after a good row still writes nothing
        ("preprocess", '{"issue_id": "1", "repo_id": "r", "title": "App crashes", "text": "It crashes on start", '
                       '"intents": ["bug"]}\n[1, 2]\n'),
        # an issue without an intent once passed, and trained as a negative for both targets
        ("extract", '{"issue_id": "i0001", "intents": []}\n'),
        ("preprocess", '{"issue_id": "1", "repo_id": "r", "title": "App crashes", "text": "It crashes on start", '
                       '"intents": []}\n'),
    ],
    ids=["labels-not-json", "labels-without-issue-id", "labels-unknown-intent", "extracted-without-intents",
         "extracted-not-an-object", "extracted-bad-line-after-a-good-row", "labels-empty-intents",
         "extracted-empty-intents"],
)
def test_malformed_stage_input_is_a_validation_error(tmp_path, command, text):
    bad = tmp_path / "input.jsonl"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out.jsonl"
    if command == "extract":
        argv = ["extract", "--in", str(DEMO), "--labels", str(bad), "--out", str(out)]
    else:
        argv = ["preprocess", "--in", str(bad), "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize(
    "command,extra",
    [
        ("augment", ["--method", "within-app"]),
        ("augment", ["--method", "between-app", "--ratio", "1.5"]),
        ("sweep", ["--method", "within-app"]),
        ("sweep", ["--method", "within-context"]),
    ],
    ids=["augment-within-app-without-app", "augment-ratio-above-1", "sweep-within-app-without-app",
         "sweep-within-context-without-app"],
)
def test_bad_augmentation_arguments_are_validation_errors(tmp_path, command, extra):
    out = ["--out", str(tmp_path / "out.jsonl")] if command == "augment" else ["--out-dir", str(tmp_path / "sweep")]
    argv = [command, "--primary", str(DEMO / "primary_demo.csv"), "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(tmp_path / "unread.jsonl"), *extra, *out]
    assert main(argv) == EXIT_VALIDATION


def test_review_in_the_pool_is_a_validation_error(staged, tmp_path):
    *_, docs = staged
    review = '{"app_id": null, "doc_id": "r:1", "intents": ["bug"], "source": "review", "tokens": ["app", "crash"]}\n'
    pool = _write(tmp_path / "pool.jsonl", docs.read_text(encoding="utf-8") + review)
    assert main(_augment(tmp_path, pool=pool)) == EXIT_VALIDATION
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("command", ["augment", "sweep", "experiment"])
@pytest.mark.parametrize("csv_text", ["text,label\n", "text,label\ncrash,bug\n"], ids=["header-only", "too-short"])
def test_primary_with_no_admitted_row_is_a_validation_error(tmp_path, capsys, command, csv_text):
    primary = _write(tmp_path / "primary.csv", csv_text)
    if command == "experiment":
        argv, written = _experiment(tmp_path, primary_csv=str(primary)), tmp_path / "comparison.tsv"
    elif command == "augment":
        argv, written = _augment(tmp_path, primary=primary), tmp_path / "out.jsonl"
    else:
        written = tmp_path / "sweep"
        argv = ["sweep", "--primary", str(primary), "--labelmap", str(DEMO / "labelmap_demo.tsv"),
                "--pool", str(tmp_path / "unread.jsonl"), "--ratios", "0.3", "--train", "--out-dir", str(written)]
    assert main(argv) == EXIT_VALIDATION
    assert "no review row admitted" in capsys.readouterr().err
    assert not written.exists()


def test_augment_and_sweep_help_list_their_flags(capsys):
    flags = {}
    for command in ("augment", "sweep"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags[command] = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    shared = {"--help", "--primary", "--labelmap", "--pool", "--method", "--app", "--top", "--seed",
              "--include-same-app", "--corpus", "--lists"}
    assert flags["augment"] == shared | {"--ratio", "--out"}
    assert flags["sweep"] == shared | {"--ratios", "--train", "--k", "--out-dir"}


def test_stage_subcommands_match_the_pipeline(pipeline_dir, tmp_path, capsys):
    # the six stage subcommands, run in turn with the demo config's settings, write the run's seven artifacts
    config = json.loads((DEMO / "demo_config.json").read_text())
    filtered = tmp_path / "filtered"
    commands = [
        ["filter", "--in", str(DEMO), "--out", str(filtered),
         "--min-issues", str(config["min_labeled_issues"]), "--min-contributors", str(config["min_contributors"])],
        # no --lexicon: labels reads the bundled lexicon, as a config without a lexicon key does
        ["labels", "--in", str(filtered), "--min-freq", str(config["min_label_frequency"]),
         "--out", str(tmp_path / "labels.jsonl")],
        ["extract", "--in", str(filtered), "--labels", str(tmp_path / "labels.jsonl"),
         "--out", str(tmp_path / "extracted.jsonl"), "--report", str(tmp_path / "extraction_report.json")],
        ["preprocess", "--in", str(tmp_path / "extracted.jsonl"), "--out", str(tmp_path / "docs.jsonl")],
        ["augment", "--primary", str(DEMO / config["primary_csv"]), "--labelmap", str(DEMO / config["label_map"]),
         "--pool", str(tmp_path / "docs.jsonl"), "--method", config["method"], "--ratio", str(config["ratio"]),
         "--seed", str(config["seed"]), "--out", str(tmp_path / "augmented.jsonl")],
        ["train-eval", "--data", str(tmp_path / "augmented.jsonl"), "--k", str(config["folds"]),
         "--seed", str(config["seed"]), "--out", str(tmp_path / "report.json")],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert printed[:5] == [
        "kept 4/5 repos, 38 issues",
        "assigned intents to 34/38 issues",
        "extracted 31/34 issues",
        "admitted 54 documents from 31 extracted issues",
        "wrote 60 primary + 18 auxiliary rows",
    ]
    assert [line.split(":")[0] for line in printed[5:]] == ["bug", "feature"]
    shutil.copy(filtered / "repos.jsonl", tmp_path / "repos.jsonl")
    artifacts = json.loads((pipeline_dir / "manifest.json").read_text())["artifacts"]
    assert {name: (tmp_path / name).read_bytes() for name in artifacts} == {
        name: (pipeline_dir / name).read_bytes() for name in artifacts}


def test_filter_keeps_the_corpus_order(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(DEMO / "repos.jsonl", corpus / "repos.jsonl")
    # reversed, the demo issues are sorted neither by (repo_id, issue_id) nor as bundled
    lines = (DEMO / "issues.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)[::-1]
    _write(corpus / "issues.jsonl", "".join(lines))
    out = tmp_path / "filtered"
    assert main(["filter", "--in", str(corpus), "--out", str(out), "--min-issues", "5"]) == EXIT_OK
    kept = [line for line in lines if json.loads(line)["repo_id"] != "r-lowact"]
    assert len(kept) == 38
    assert (out / "issues.jsonl").read_text(encoding="utf-8") == "".join(kept)


def test_within_context_specs_each_rank_their_own_app(staged, tmp_path, monkeypatch):
    from issueforge import ingestion, similarity, textprep

    *_, docs = staged
    apps = ("r-podkit", "r-mapgo")
    profiles = similarity.build_profiles(ingestion.load_repos(DEMO), textprep.load_wordlists())
    nearest = {app: similarity.rank_similar(app, profiles)[0][0] for app in apps}
    assert nearest["r-podkit"] != nearest["r-mapgo"]

    sampled = {}
    original = augmentation.augment

    def recording(primary, pool, spec, *args, **kwargs):
        dataset = original(primary, pool, spec, *args, **kwargs)
        sampled[spec.target_app] = {row.app_id for row in dataset.rows if not augmentation.is_primary(row)}
        return dataset

    monkeypatch.setattr(augmentation, "augment", recording)
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "primary_csv": str(DEMO / "primary_demo.csv"), "label_map": str(DEMO / "labelmap_demo.tsv"),
        "pool": str(docs), "corpus_dir": str(DEMO), "seed": 2,
        "specs": [{"method": "within-context", "ratio": 0.3, "target_app": app, "top_k_similar": 1} for app in apps],
    }))
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "comparison.tsv")]) == EXIT_OK
    assert sampled == {app: {nearest[app]} for app in apps}


# --- one id per JSONL file: a repeated line once read as two rows (or as the last one), and exited 0 -----

@pytest.mark.parametrize("command,field", [
    ("augment", "doc_id"), ("train-eval", "doc_id"), ("extract", "issue_id"), ("preprocess", "issue_id"),
], ids=["pool", "augmented", "labels", "extracted"])
def test_repeated_id_in_a_jsonl_input_exits_2_naming_its_line(staged, pipeline_dir, tmp_path, capsys, command, field):
    _, filtered, labels_file, extracted, docs = staged
    source = {"augment": docs, "train-eval": pipeline_dir / "augmented.jsonl", "extract": labels_file,
              "preprocess": extracted}[command]
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    data, out = _write(tmp_path / "input.jsonl", "".join(lines) + lines[0]), tmp_path / "out.jsonl"
    argv = {"augment": _augment(tmp_path, pool=data),
            "train-eval": ["train-eval", "--data", str(data), "--out", str(out)],
            "extract": ["extract", "--in", str(filtered), "--labels", str(data), "--out", str(out)],
            "preprocess": ["preprocess", "--in", str(data), "--out", str(out)]}[command]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"input.jsonl:{len(lines) + 1}: field '{field}': duplicate {field}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_experiment_models_name_their_target_app(staged, tmp_path, capsys):
    # two within-app specs that differ only in their app once wrote two "within-app@r=0.3" rows per target
    *_, docs = staged
    specs = [{"method": "within-app", "target_app": app} for app in ("r-podkit", "r-mapgo")]
    assert main(_experiment(tmp_path, pool=str(docs), specs=specs)) == EXIT_OK
    assert "wrote comparison for 3 models" in capsys.readouterr().out
    with (tmp_path / "comparison.tsv").open(encoding="utf-8", newline="") as handle:
        models = [row["model"] for row in csv.DictReader(handle, delimiter="\t")]
    assert models == ["baseline", "within-app@r=0.3:r-podkit", "within-app@r=0.3:r-mapgo"] * 2


def test_experiment_specs_sharing_a_model_name_exit_2_before_any_augmentation(staged, tmp_path, capsys,
                                                                              monkeypatch):
    *_, docs = staged
    monkeypatch.setattr(augmentation, "augment", mock.Mock(side_effect=AssertionError("augmented")))
    specs = [{"method": "between-app", "seed": 1}, {"method": "between-app", "ratio": 0.5},
             {"method": "between-app", "seed": 2}]
    assert main(_experiment(tmp_path, pool=str(docs), specs=specs)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "specs 0 and 2 share the model name 'between-app@r=0.3'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "comparison.tsv").exists()


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _short_modifier_lists(tmp_path: Path, modifiers: str = "not\nnever\nno\n") -> Path:
    lists = tmp_path / "lists"
    lists.mkdir()
    for name in ("stopwords.txt", "special_phrases.txt", "lemmas.txt"):
        shutil.copy(default_data_dir() / name, lists / name)
    _write(lists / "negative_modifiers.txt", modifiers)
    return lists


def _augment(tmp_path, labelmap=DEMO / "labelmap_demo.tsv", primary=DEMO / "primary_demo.csv", pool=None):
    return ["augment", "--primary", str(primary), "--labelmap", str(labelmap),
            "--pool", str(pool or tmp_path / "unread.jsonl"), "--method", "between-app",
            "--out", str(tmp_path / "out.jsonl")]


def _train_eval(tmp_path, augmented_text):
    return ["train-eval", "--data", str(_write(tmp_path / "aug.jsonl", augmented_text)),
            "--out", str(tmp_path / "out.json")]


def _corpus_with_bad_repos_line(tmp_path):
    _write(tmp_path / "issues.jsonl", "")
    return _write(tmp_path / "repos.jsonl", "{bad\n").parent


def _corpus_with_repo_field(tmp_path, **field):
    _write(tmp_path / "issues.jsonl", "")
    repo = {"repo_id": "r1", "full_name": "o/r1", "contributors": 2, "stars": 0, **field}
    return _write(tmp_path / "repos.jsonl", json.dumps(repo) + "\n").parent


BAD_INPUT_FILES = {
    "patterns-four-columns": lambda t: [
        "extract", "--in", str(DEMO), "--labels", _demo_labels(t),
        "--patterns", str(_write(t / "p.tsv", "P1\tcrash\tB\textra\n")), "--out", str(t / "out.jsonl")],
    "labelmap-unknown-class": lambda t: _augment(t, labelmap=_write(t / "map.tsv", "bug\tbugz\n")),
    "lexicon-unknown-class": lambda t: [
        "labels", "--in", str(DEMO), "--lexicon", str(_write(t / "lex.tsv", "crash\tcrashy\n")),
        "--out", str(t / "out.jsonl")],
    "lexicon-key-not-normalized": lambda t: [
        "labels", "--in", str(DEMO), "--lexicon", str(_write(t / "lex.tsv", "Crash\tbug\n")),
        "--out", str(t / "out.jsonl")],
    "lists-three-modifiers": lambda t: [
        "preprocess", "--in", str(t / "unread.jsonl"), "--lists", str(_short_modifier_lists(t)),
        "--out", str(t / "out.jsonl")],
    "primary-without-text-label-header": lambda t: _augment(t, primary=_write(t / "p.csv", "body,kind\nx,bug\n")),
    "pool-line-without-fields": lambda t: _augment(t, pool=_write(t / "pool.jsonl", '{"doc_id": 1}\n')),
    "augmented-line-without-fields": lambda t: _train_eval(t, '{"doc_id": 1}\n'),
    "patterns-invalid-regex": lambda t: [
        "extract", "--in", str(DEMO), "--labels", _demo_labels(t),
        "--patterns", str(_write(t / "p.tsv", "P1\tcrash(\tB\n")), "--out", str(t / "out.jsonl")],
    # an empty name once matched and was counted under modes but not under per_pattern
    "patterns-empty-name": lambda t: [
        "extract", "--in", str(DEMO), "--labels", _demo_labels(t),
        "--patterns", str(_write(t / "p.tsv", "\t(?i)bug|describ|reproduc|step\tB\n")), "--out", str(t / "out.jsonl")],
    "patterns-repeated-name": lambda t: [
        "extract", "--in", str(DEMO), "--labels", _demo_labels(t),
        "--patterns", str(_write(t / "p.tsv", "P1\tcrash\tB\nP1\tsummari\tB\n")), "--out", str(t / "out.jsonl")],
    "primary-row-without-text": lambda t: _augment(t, primary=_write(t / "p.csv", "label,text\nbug\n")),
    "pool-unknown-source": lambda t: _augment(t, pool=_write(
        t / "pool.jsonl", '{"doc_id": "d", "source": "forum", "tokens": ["a"], "intents": ["bug"]}\n')),
    "pool-token-not-a-string": lambda t: _augment(t, pool=_write(
        t / "pool.jsonl", '{"doc_id": "d", "source": "review", "tokens": ["a", 1], "intents": ["bug"]}\n')),
    "augmented-unknown-source": lambda t: _train_eval(
        t, '{"doc_id": "d", "source": "x", "tokens": ["a"], "intents": ["bug"]}\n'),
    # a document without an intent once loaded, a negative for both targets
    "pool-empty-intents": lambda t: _augment(t, pool=_write(
        t / "pool.jsonl", '{"doc_id": "d", "source": "issue_body", "tokens": ["a"], "intents": []}\n')),
    "augmented-empty-intents": lambda t: _train_eval(
        t, '{"doc_id": "d", "source": "review", "tokens": ["a"], "intents": []}\n'),
    "repos-line-not-json": lambda t: ["filter", "--in", str(_corpus_with_bad_repos_line(t)), "--out", str(t / "out")],
    "readme-text-a-number": lambda t: [
        "similar", "--in", str(_corpus_with_repo_field(t, readme_text=5)), "--query", "r1", "--out", str(t / "r.json")],
    "about-text-a-list": lambda t: [
        "similar", "--in", str(_corpus_with_repo_field(t, about_text=["a"])), "--query", "r1",
        "--out", str(t / "r.json")],
}


@pytest.mark.parametrize("argv", BAD_INPUT_FILES.values(), ids=BAD_INPUT_FILES.keys())
def test_bad_input_file_is_a_validation_error(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    records = [json.loads(line) for line in err.splitlines()]
    assert [r["level"] for r in records].count("error") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["augment", "pipeline"])
def test_label_map_without_a_mapping_line_is_a_validation_error(tmp_path, capsys, command):
    # an empty map was once reported as the first review's label missing from it
    label_map = _write(tmp_path / "map.tsv", "# no mapping\n\n")
    out = tmp_path / "out"
    if command == "augment":
        argv, written = _augment(tmp_path, labelmap=label_map), tmp_path / "out.jsonl"
    else:
        config = json.loads((DEMO / "demo_config.json").read_text())
        config.update(corpus_dir=str(DEMO), primary_csv=str(DEMO / "primary_demo.csv"), label_map=str(label_map))
        argv, written = ["pipeline", "--config", str(_write(tmp_path / "config.json", json.dumps(config))),
                         "--out", str(out)], out
    assert main(argv) == EXIT_VALIDATION
    assert f"{label_map}: no mapping line" in capsys.readouterr().err
    assert not written.exists()


def test_missing_labelmap_file_is_a_stage_failure(tmp_path):
    assert main(_augment(tmp_path, labelmap=tmp_path / "missing.tsv")) == EXIT_STAGE_FAILURE


def test_every_package_exception_derives_from_issueforge_error():
    import importlib
    import pkgutil

    import issueforge
    from issueforge.errors import IssueforgeError

    found = []
    for info in pkgutil.iter_modules(issueforge.__path__):
        module = importlib.import_module(f"issueforge.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__]
    assert len(found) >= 13
    assert [cls.__name__ for cls in found if not issubclass(cls, IssueforgeError)] == []


# --- inputs that exited 0, 1 or 3 before each config had one reader and each spec checked itself -----

WITHIN_CONTEXT_SPEC = {"method": "within-context", "target_app": "r-podkit"}


def _experiment(t, **changes):
    config = _write(t / "exp.json", _experiment_config(**changes))
    return ["experiment", "--config", str(config), "--out", str(t / "comparison.tsv")]


def _within_context(command, t, inputs, *extra):
    out = ["--out", str(t / "out.jsonl")] if command == "augment" else ["--out-dir", str(t / "sweep")]
    return [command, "--primary", str(DEMO / "primary_demo.csv"), "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(inputs["docs"]), "--method", "within-context", "--app", "r-podkit",
            "--corpus", str(inputs["corpus"]), *extra, *out]


def _sweep_train(t, inputs, k):
    return ["sweep", "--primary", str(DEMO / "primary_demo.csv"), "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(inputs["docs"]), "--ratios", "0.3", "--train", "--k", k, "--out-dir", str(t / "sweep")]


def _train_eval_k(t, inputs, k):
    return ["train-eval", "--data", str(inputs["augmented"]), "--k", k, "--out", str(t / "out.json")]


def _harvest(t, *extra, repos="demo/x\n"):
    repos_file = _write(t / "repos.txt", repos)
    return ["harvest", "--repos", str(repos_file), "--out", str(t / "h"), "--base-url", "http://127.0.0.1:9", *extra]


def _write_bytes(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def _word_lists_without_stopwords(t):
    directory = t / "word_lists"
    directory.mkdir()
    for name in ("negative_modifiers.txt", "special_phrases.txt", "lemmas.txt"):
        shutil.copy(default_data_dir() / name, directory / name)
    _write(directory / "stopwords.txt", "")
    return str(directory)


def _word_lists_with_lemma_line(t, line):
    directory = t / "word_lists"
    directory.mkdir()
    for name in ("negative_modifiers.txt", "special_phrases.txt", "stopwords.txt", "lemmas.txt"):
        shutil.copy(default_data_dir() / name, directory / name)
    with (directory / "lemmas.txt").open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return str(directory)


# the bundled modifiers with the first, "no", replaced by a second "not": 44 lines, 43 distinct
_, _, MODIFIERS_BUT_NO = (default_data_dir() / "negative_modifiers.txt").read_text(encoding="utf-8").partition("\n")
REPEATED_MODIFIER = "not\n" + MODIFIERS_BUT_NO

CHANGED_EXIT_CODES = {
    "experiment-unknown-key": (EXIT_VALIDATION, lambda t, i: _experiment(
        t, specs=None, spec=[{"method": "between-app", "ratio": 0.3}])),
    "experiment-missing-pool": (EXIT_STAGE_FAILURE, lambda t, i: _experiment(t, pool="missing.jsonl")),
    "experiment-top-k-similar-a-string": (EXIT_VALIDATION, lambda t, i: _experiment(
        t, corpus_dir=str(DEMO), specs=[{**WITHIN_CONTEXT_SPEC, "top_k_similar": "x"}])),
    "experiment-corpus-dir-a-number": (EXIT_VALIDATION, lambda t, i: _experiment(
        t, corpus_dir=5, specs=[WITHIN_CONTEXT_SPEC])),
    "experiment-word-lists-dir-a-number": (EXIT_VALIDATION, lambda t, i: _experiment(t, word_lists_dir=5)),
    # a lemma line without a tab once mapped its form to "", and preprocess emitted empty tokens
    "experiment-lemma-line-without-a-tab": (EXIT_VALIDATION, lambda t, i: _experiment(
        t, word_lists_dir=_word_lists_with_lemma_line(t, "crashes"))),
    # a lemma with a space and upper case was once emitted as one token, and the run exited 0
    "experiment-lemma-outside-the-token-alphabet": (EXIT_VALIDATION, lambda t, i: _experiment(
        t, word_lists_dir=_word_lists_with_lemma_line(t, "freezes\tHang Up"))),
    # an empty lexicon once wrote an empty labels.jsonl and exited 0
    "labels-empty-lexicon": (EXIT_VALIDATION, lambda t, i: [
        "labels", "--in", str(DEMO), "--lexicon", str(_write(t / "lex.tsv", "# no entry\n")),
        "--out", str(t / "out.jsonl")]),
    # an empty stopword list once kept every word of a section title, and extract exited 0 with fewer matches
    "extract-empty-stopwords": (EXIT_VALIDATION, lambda t, i: [
        "extract", "--in", str(DEMO), "--labels", _demo_labels(t), "--lists", _word_lists_without_stopwords(t),
        "--out", str(t / "out.jsonl")]),
    # the corpus was once read before the table: its missing issues.jsonl exited 3
    "extract-empty-patterns-before-corpus": (EXIT_VALIDATION, lambda t, i: [
        "extract", "--in", str(t), "--labels", _demo_labels(t),
        "--patterns", str(_write(t / "p.tsv", "# no pattern\n")), "--out", str(t / "out.jsonl")]),
    "extract-malformed-labels-before-corpus": (EXIT_VALIDATION, lambda t, i: [
        "extract", "--in", str(t), "--labels", str(_write(t / "labels.jsonl", "{bad\n")),
        "--out", str(t / "out.jsonl")]),
    "labels-empty-lexicon-before-corpus": (EXIT_VALIDATION, lambda t, i: [
        "labels", "--in", str(t), "--lexicon", str(_write(t / "lex.tsv", "# no entry\n")),
        "--out", str(t / "out.jsonl")]),
    # an empty pattern file once matched no section title, and the pipeline exited 0
    "pipeline-empty-patterns": (EXIT_VALIDATION, lambda t, i: [
        "pipeline", "--config", _pipeline_config(t, patterns=str(_write(t / "p.tsv", ""))), "--out", str(t / "run")]),
    "experiment-include-same-app-a-string": (EXIT_VALIDATION, lambda t, i: _experiment(
        t, specs=[{"method": "between-app", "include_same_app": "no"}])),
    "experiment-ratio-a-bool": (EXIT_VALIDATION, lambda t, i: _experiment(
        t, specs=[{"method": "between-app", "ratio": True}])),
    "experiment-spec-seed-a-string": (EXIT_VALIDATION, lambda t, i: _experiment(
        t, specs=[{"method": "between-app", "seed": "x"}])),
    "experiment-spec-unknown-key": (EXIT_VALIDATION, lambda t, i: _experiment(
        t, specs=[{"method": "between-app", "ratio": 0.3, "ratios": [0.5]}])),
    "augment-top-negative": (EXIT_VALIDATION, lambda t, i: _within_context("augment", t, i, "--top", "-1")),
    "augment-top-0": (EXIT_VALIDATION, lambda t, i: _within_context("augment", t, i, "--top", "0")),
    "sweep-top-negative": (EXIT_VALIDATION, lambda t, i: _within_context("sweep", t, i, "--top", "-1")),
    "sweep-top-0": (EXIT_VALIDATION, lambda t, i: _within_context("sweep", t, i, "--top", "0")),
    "train-eval-k-0": (EXIT_VALIDATION, lambda t, i: _train_eval_k(t, i, "0")),
    "train-eval-k-1": (EXIT_VALIDATION, lambda t, i: _train_eval_k(t, i, "1")),
    "sweep-train-k-0": (EXIT_VALIDATION, lambda t, i: _sweep_train(t, i, "0")),
    "labelmap-latin-1": (EXIT_VALIDATION, lambda t, i: _augment(
        t, labelmap=_write_bytes(t / "map.tsv", "café\tbug\n".encode("latin-1")))),
    "labelmap-a-directory": (EXIT_STAGE_FAILURE, lambda t, i: _augment(t, labelmap=t)),
    # a field over csv.field_size_limit() (131,072 characters) once ended in a _csv.Error traceback, exit 1
    "augment-oversized-csv-field": (EXIT_VALIDATION, lambda t, i: _augment(
        t, primary=_write(t / "big.csv", "text,label\n" + "x" * 131_073 + ",bug\n"))),
    # 44 lines with one repeated once loaded as 43 modifiers, and the run exited 0
    "extract-repeated-negative-modifier": (EXIT_VALIDATION, lambda t, i: [
        "extract", "--in", str(DEMO), "--labels", _demo_labels(t),
        "--lists", str(_short_modifier_lists(t, REPEATED_MODIFIER)),
        "--out", str(t / "out.jsonl")]),
    "filter-min-issues-negative": (EXIT_VALIDATION, lambda t, i: [
        "filter", "--in", str(DEMO), "--out", str(t / "out"), "--min-issues", "-5"]),
    "filter-min-contributors-negative": (EXIT_VALIDATION, lambda t, i: [
        "filter", "--in", str(DEMO), "--out", str(t / "out"), "--min-contributors", "-1"]),
    "labels-min-freq-negative": (EXIT_VALIDATION, lambda t, i: [
        "labels", "--in", str(DEMO), "--lexicon", str(default_data_dir() / "lexicon.tsv"), "--min-freq", "-1",
        "--out", str(t / "out.jsonl")]),
    # a request to the closed port would fail with exit 3, so exit 2 means none was sent
    "harvest-parallel-0": (EXIT_VALIDATION, lambda t, i: _harvest(t, "--parallel", "0")),
    "harvest-rate-limit-0": (EXIT_VALIDATION, lambda t, i: _harvest(t, "--rate-limit", "0")),
    # a line that is not owner/name was once fetched as a repo, and its first 404 ended the harvest with exit 3
    "harvest-line-with-a-path": (EXIT_VALIDATION, lambda t, i: _harvest(t, repos="demo/x\ndemo/x/issues\n")),
    "harvest-line-without-a-slash": (EXIT_VALIDATION, lambda t, i: _harvest(t, repos="demo\n")),
    "harvest-line-with-a-dot-dot": (EXIT_VALIDATION, lambda t, i: _harvest(t, repos="demo/../x\n")),
    # a between-app setting with a target app once ran with the target dropped, and exited 0
    "pipeline-between-app-with-target-app": (EXIT_VALIDATION, lambda t, i: [
        "pipeline", "--config", _pipeline_config(t, target_app="r-podkit"), "--out", str(t / "run")]),
    "augment-between-app-with-app": (EXIT_VALIDATION, lambda t, i: [
        *_augment(t, pool=i["docs"]), "--app", "r-podkit"]),
    # include_same_app selects nothing outside within-context, yet named its model "+same" and exited 0
    "augment-between-app-include-same-app": (EXIT_VALIDATION, lambda t, i: [
        *_augment(t, pool=i["docs"]), "--include-same-app"]),
    "experiment-within-app-include-same-app": (EXIT_VALIDATION, lambda t, i: _experiment(
        t, specs=[{"method": "within-app", "target_app": "r-podkit", "include_same_app": True}])),
    # sweep's method defaults to between-app
    "sweep-app-without-method": (EXIT_VALIDATION, lambda t, i: [
        "sweep", "--primary", str(DEMO / "primary_demo.csv"), "--labelmap", str(DEMO / "labelmap_demo.tsv"),
        "--pool", str(i["docs"]), "--app", "r-podkit", "--out-dir", str(t / "sweep")]),
    # a missing config file once exited 2, unlike every other missing input
    "pipeline-missing-config": (EXIT_STAGE_FAILURE, lambda t, i: [
        "pipeline", "--config", str(t / "missing.json"), "--out", str(t / "run")]),
    "experiment-missing-config": (EXIT_STAGE_FAILURE, lambda t, i: [
        "experiment", "--config", str(t / "missing.json"), "--out", str(t / "comparison.tsv")]),
    # the last line once won: crash -> bug, then crash -> feature, loaded as feature
    "labelmap-label-to-two-classes": (EXIT_VALIDATION, lambda t, i: _augment(
        t, labelmap=_write(t / "map.tsv", (DEMO / "labelmap_demo.tsv").read_text(encoding="utf-8") + "bug\tother\n"),
        pool=i["docs"])),
}


@pytest.mark.parametrize("code,argv", CHANGED_EXIT_CODES.values(), ids=CHANGED_EXIT_CODES.keys())
def test_changed_input_exit_code(staged, pipeline_dir, tmp_path, capsys, code, argv):
    _, filtered, _, _, docs = staged
    inputs = {"docs": docs, "corpus": filtered, "augmented": pipeline_dir / "augmented.jsonl"}
    assert main(argv(tmp_path, inputs)) == code
    err = capsys.readouterr().err
    records = [json.loads(line) for line in err.splitlines()]
    assert [r["level"] for r in records].count("error") == 1
    assert "Traceback" not in err


def test_lexicon_key_not_normalized_names_its_line(tmp_path, capsys):
    lexicon = _write(tmp_path / "lex.tsv", "# surface<TAB>class\ncrash\tbug\nEnhancement\tfeature\n")
    argv = ["labels", "--in", str(DEMO), "--lexicon", str(lexicon), "--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == EXIT_VALIDATION
    [error] = [r["message"] for r in map(json.loads, capsys.readouterr().err.splitlines()) if r["level"] == "error"]
    assert f"{lexicon}:3: lexicon key 'Enhancement' is not in normalized surface form" in error
    assert not (tmp_path / "out.jsonl").exists()


def _latin_1(path: Path, text: str) -> str:
    """Write ``text`` as Latin-1, where an "é" is a byte that is not UTF-8."""
    path.write_bytes(text.encode("latin-1"))
    return str(path)


POOL_HEAD = "".join((RECALL / "pool.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)[:2])

# an input with a line that is not UTF-8 (once a bare codec message naming no file), its name and that line
NOT_UTF8_INPUTS = {
    "review-csv-row": (lambda t: _augment(t, primary=Path(_latin_1(
        t / "p.csv", "text,label\nit crashes,bug\nadd a map,feature\ncafé hangs,bug\n"))), "p.csv", 4),
    "augmented-jsonl-line": (lambda t: [
        "train-eval", "--data", _latin_1(t / "aug.jsonl", POOL_HEAD + '{"doc_id": "café"}\n'),
        "--out", str(t / "out.json")], "aug.jsonl", 3),
    "extracted-jsonl-line": (lambda t: [
        "preprocess", "--in", _latin_1(t / "extracted.jsonl", EXTRACTED_TEXT + '{"title": "café"}\n'),
        "--out", str(t / "docs.jsonl")], "extracted.jsonl", 3),
    "pipeline-config": (lambda t: [
        "pipeline", "--config", _latin_1(t / "config.json", '{"seed": 0, "corpus_dir": "café"}'),
        "--out", str(t / "run")], "config.json", 1),
    "experiment-config": (lambda t: [
        "experiment", "--config", _latin_1(t / "exp.json", '{"pool": "café"}'),
        "--out", str(t / "comparison.tsv")], "exp.json", 1),
}


@pytest.mark.parametrize("argv,name,line", NOT_UTF8_INPUTS.values(), ids=NOT_UTF8_INPUTS.keys())
def test_input_line_that_is_not_utf8_is_a_validation_error_naming_it(tmp_path, capsys, argv, name, line):
    assert main(argv(tmp_path)) == EXIT_VALIDATION
    [error] = [r["message"] for r in map(json.loads, capsys.readouterr().err.splitlines()) if r["level"] == "error"]
    assert f"{tmp_path / name}:{line}: not UTF-8" in error


@pytest.mark.parametrize("top", ["-1", "0"])
def test_similar_top_below_1_is_a_validation_error(tmp_path, top):
    out = tmp_path / "ranking.json"
    argv = ["similar", "--in", str(DEMO), "--query", "r-podkit", "--top", top, "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert not out.exists()



DEMO_SIMILAR_SHA256 = "af82ba488a0248423800709830de481b2b0d5585bb72fa1d59c40aedef627052"


def test_similar_output_is_pinned(tmp_path):
    out = tmp_path / "similar.json"
    assert main(["similar", "--in", str(DEMO), "--query", "r-podkit", "--top", "2", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEMO_SIMILAR_SHA256


def _repos_only(root: Path) -> Path:
    root.mkdir()
    shutil.copy(DEMO / "repos.jsonl", root / "repos.jsonl")
    return root


def _repos_and_malformed_issues(root: Path) -> Path:
    _repos_only(root)
    _write(root / "issues.jsonl", (DEMO / "issues.jsonl").read_text(encoding="utf-8") + '{"issue_id": "x"\n')
    return root


PROFILE_DIRECTORIES = {"repos-only": _repos_only, "malformed-issues": _repos_and_malformed_issues}


def _profile_reader_outputs(profile_dir: Path, docs: Path, out: Path) -> dict[str, bytes]:
    """similar, within-context augment and experiment, each reading its profiles from ``profile_dir``."""
    out.mkdir()
    spec = {"method": "within-context", "target_app": "r-podkit", "top_k_similar": 2}
    config = _write(out / "exp.json", _experiment_config(pool=str(docs), corpus_dir=str(profile_dir), specs=[spec]))
    commands = {
        "similar.json": ["similar", "--in", str(profile_dir), "--query", "r-podkit", "--top", "2"],
        "augmented.jsonl": ["augment", "--primary", str(DEMO / "primary_demo.csv"),
                            "--labelmap", str(DEMO / "labelmap_demo.tsv"), "--pool", str(docs),
                            "--corpus", str(profile_dir), "--method", "within-context", "--app", "r-podkit",
                            "--top", "2"],
        "comparison.tsv": ["experiment", "--config", str(config)],
    }
    for name, argv in commands.items():
        assert main([*argv, "--out", str(out / name)]) == EXIT_OK
    return {name: (out / name).read_bytes() for name in commands}


@pytest.mark.parametrize("make_dir", PROFILE_DIRECTORIES.values(), ids=PROFILE_DIRECTORIES.keys())
def test_profile_readers_read_repos_jsonl_alone(pipeline_dir, tmp_path, make_dir):
    docs = pipeline_dir / "docs.jsonl"
    outputs = _profile_reader_outputs(make_dir(tmp_path / "profiles"), docs, tmp_path / "out")
    assert hashlib.sha256(outputs["similar.json"]).hexdigest() == DEMO_SIMILAR_SHA256
    assert outputs == _profile_reader_outputs(DEMO, docs, tmp_path / "out_demo")


def _pipeline_config_with_boolean_folds(tmp_path: Path):
    config = json.loads((DEMO / "demo_config.json").read_text())
    config.update({name: str(DEMO / config[name]) for name in ("corpus_dir", "primary_csv", "label_map")}, folds=True)
    return PipelineConfig.from_file(_write(tmp_path / "config.json", json.dumps(config)))


# one rule, "an integer, not a bool, at least n", phrased the same wherever an integer is checked
INTEGER_RULE_MESSAGES = {
    "spec-seed-bool": (lambda t: augmentation.AugmentationSpec("between-app", seed=True),
                       "seed must be an integer, got True"),
    "spec-top-k-similar-0": (lambda t: augmentation.AugmentationSpec("between-app", top_k_similar=0),
                             "top_k_similar must be an integer >= 1, got 0"),
    "stratified-folds-k-1": (lambda t: stratified_folds([], IntentClass.BUG_REPORT, k=1),
                             "k must be an integer >= 2, got 1"),
    "pipeline-config-folds-true": (_pipeline_config_with_boolean_folds, "folds must be an integer >= 2, got True"),
    "filter-min-issues-negative": (
        lambda t: _run_handler(["filter", "--in", str(DEMO), "--out", str(t / "out"), "--min-issues", "-1"]),
        "--min-issues must be an integer >= 0, got -1"),
}


def _run_handler(argv: list[str]):
    args = build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("call,message", INTEGER_RULE_MESSAGES.values(), ids=INTEGER_RULE_MESSAGES.keys())
def test_integer_rule_message(tmp_path, call, message):
    with pytest.raises(ValidationError) as raised:
        call(tmp_path)
    assert str(raised.value) == message

def test_sweep_train_checks_k_before_writing(staged, tmp_path):
    *_, docs = staged
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--primary", str(DEMO / "primary_demo.csv"), "--labelmap", str(DEMO / "labelmap_demo.tsv"),
            "--pool", str(docs), "--ratios", "0.1,0.3", "--train", "--k", "0", "--out-dir", str(out_dir)]
    assert main(argv) == EXIT_VALIDATION
    assert not list(out_dir.glob("augmented_r*.jsonl"))


def test_harvest_connection_error_is_a_stage_failure(tmp_path, capsys, monkeypatch):
    import requests

    def refuse(self, url, **kwargs):
        raise requests.ConnectionError(f"connection refused: {url}")

    monkeypatch.setattr(requests.Session, "get", refuse)
    repos = _write(tmp_path / "repos.txt", "demo/x\n")
    argv = ["harvest", "--repos", str(repos), "--out", str(tmp_path / "h"), "--base-url", "http://127.0.0.1:9"]
    assert main(argv) == EXIT_STAGE_FAILURE
    err = capsys.readouterr().err
    assert [json.loads(line)["level"] for line in err.splitlines()].count("error") == 1
    assert "Traceback" not in err


def test_cli_import_loads_no_http_stack():
    # only harvest talks HTTP; the classifier is loaded with the CLI, where the benchmark child looks for it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, issueforge.cli; print(sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert "'issueforge.classifier'" in loaded
    assert [name for name in ("requests", "urllib3", "ssl") if f"'{name}'" in loaded] == []


def test_experiment_paths_resolve_against_the_config_file(staged, tmp_path, monkeypatch):
    *_, docs = staged
    inputs = tmp_path / "configs" / "inputs"
    inputs.mkdir(parents=True)
    for source in (DEMO / "primary_demo.csv", DEMO / "labelmap_demo.tsv", docs):
        shutil.copy(source, inputs / source.name)
    specs = [{"method": "between-app", "ratio": 0.3}, {"method": "within-app", "ratio": 0.3, "target_app": "r-podkit"}]
    absolute = _write(tmp_path / "absolute.json", json.dumps(
        {"primary_csv": str(DEMO / "primary_demo.csv"), "label_map": str(DEMO / "labelmap_demo.tsv"),
         "pool": str(docs), "seed": 3, "specs": specs}))
    relative = _write(tmp_path / "configs" / "exp.json", json.dumps(
        {"primary_csv": "inputs/primary_demo.csv", "label_map": "inputs/labelmap_demo.tsv",
         "pool": f"inputs/{docs.name}", "seed": 3, "specs": specs}))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["experiment", "--config", str(absolute), "--out", "absolute.tsv"]) == EXIT_OK
    assert main(["experiment", "--config", "../configs/exp.json", "--out", "relative.tsv"]) == EXIT_OK
    assert (elsewhere / "relative.tsv").read_bytes() == (elsewhere / "absolute.tsv").read_bytes()
