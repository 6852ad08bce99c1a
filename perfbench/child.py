"""One benchmark iteration in a fresh process: run ``issueforge.cli.main`` in-process.

    python3 perfbench/child.py SPEC.json

SPEC names the checkout's ``src`` directory, the CLI argument lists to run in
order, the workload kind whose outputs to check, whether to trace, and where
to write the result JSON (and, when tracing, the spans). The timed region is
exactly the ``cli.main`` calls. The result holds the wall time, this
process's peak RSS, the host-speed factor measured during the timed region
(``speed.SpeedSampler``), the output check and the semantic digest.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import SpeedSampler  # noqa: E402


def _import_program(src: Path):
    sys.path.insert(0, str(src))
    import issueforge.cli as cli  # noqa: PLC0415

    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"issueforge imported from {cli.__file__}, not from {src}")
    return cli


def _capture_folds(classifier, records: list) -> None:
    """Record every cross-validation's per-fold confusion counts, wherever it is called from."""
    original = classifier.cross_validate

    @functools.wraps(original)
    def cross_validate(rows, target, *args, **kwargs):
        report = original(rows, target, *args, **kwargs)
        records.append([report.target.value, [[f.tp, f.fp, f.tn, f.fn] for f in report.folds]])
        return report

    classifier.cross_validate = cross_validate


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _in_unit(values) -> bool:
    return all(0.0 <= float(v) <= 1.0 for v in values)


def check_outputs(kind: str, out: Path) -> list[str]:
    """Problems with one iteration's artifacts; empty when they are complete and in range."""
    problems = []
    if kind == "pipeline":
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        artifacts = manifest.get("artifacts", {})
        if len(artifacts) != 7 or not all((out / name).exists() for name in artifacts):
            problems.append(f"manifest lists {sorted(artifacts)}, expected 7 existing artifacts")
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for target in ("bug", "feature"):
            rows = report[target]["folds"] + [report[target]["mean"]]
            if not _in_unit(row[m] for row in rows for m in ("precision", "recall", "f1")):
                problems.append(f"{target} metrics outside [0, 1]")
    elif kind == "experiment":
        with (out / "comparison.tsv").open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle, delimiter="\t"))
        if len(rows) != 8:
            problems.append(f"comparison has {len(rows)} rows, expected 8")
        if not _in_unit(row[m] for row in rows for m in ("precision", "recall", "f1")):
            problems.append("comparison metrics outside [0, 1]")
    docs = out / "docs.jsonl"
    if kind != "experiment" and (not docs.exists() or docs.stat().st_size == 0):
        problems.append("docs.jsonl missing or empty")
    return problems


def semantic_digest(pool: Path, folds: list) -> str:
    """sha256 over the sorted admitted pool (doc_id, tokens, intents) and every model's per-fold counts."""
    docs = sorted((d["doc_id"], d["tokens"], sorted(d["intents"])) for d in _read_jsonl(pool))
    payload = json.dumps({"pool": docs, "models": sorted(folds)}, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    cli = _import_program(Path(spec["src"]))
    folds: list = []
    _capture_folds(sys.modules["issueforge.classifier"], folds)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # noqa: PLC0415

        tracer = Tracer()
        tracer.install()

    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    codes = []
    started = time.perf_counter()
    with SpeedSampler() as sampler:
        for argv in spec["commands"]:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
    wall_s = time.perf_counter() - started

    result = {"wall_s": wall_s, "factor": sampler.factor(), "probe_parts_s": sampler.mean_parts(),
              "exit_codes": codes, "problems": [],
              "folds": sum(len(counts) for _, counts in folds),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if any(codes):
        result["problems"].append(f"exit codes {codes}")
    else:
        try:
            result["problems"] += check_outputs(spec["kind"], out)
            result["digest"] = semantic_digest(Path(spec["pool"]), folds)
        except (OSError, ValueError, KeyError) as exc:
            result["problems"].append(f"output check failed: {type(exc).__name__}: {exc}")
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s)
        tracer.save(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
