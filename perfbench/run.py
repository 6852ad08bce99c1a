"""issueforge benchmark: seeded inputs, the real CLI in one child process per run, checked outputs.

    python3 perfbench/run.py --workload pipeline|mine-wide|experiment|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; everything is read and written under
the checkout (scratch files in ``.perfbench_work/``). Per workload, for
``--seconds`` (default: ``run_seconds`` in ``BENCHMARK.json``) and at least
``MIN_RUNS`` times:

1. set up: generate the corpus, reviews and label map from the seed (and, for
   ``experiment``, mine the pool with the CLI in a child). Every set-up must
   be byte-identical to the first. ``setup_s`` is the median scaled set-up time.
2. run: a fresh child (``child.py``) calls ``issueforge.cli.main`` in-process
   on those inputs. ``wall_s`` is the median scaled wall time inside the
   child, ``peak_rss_mb`` the median of the children's ``ru_maxrss``.

Set-ups and runs alternate, so both medians cover the same stretch of time.
The shared host's speed swings by up to 2x within seconds, so every set-up
and run is timed under ``speed.SpeedSampler`` and scaled to the reference
speed: ``wall_s`` and ``setup_s`` are seconds at that speed, and the raw
times are kept in the summary file. Then the checks: exit code 0, complete
artifacts, metrics in [0, 1], the same semantic digest on every run, the
digest recorded in ``digests.json`` for this seed when there is one, and the
recorded digest of a small canary input that every invocation replays. The
canary counts as one more attempted run.

With ``--trace 1`` the runs alternate untraced and traced children and the
result carries the per-layer metrics instead; ``trace.overhead_s`` is the
traced median wall time minus the untraced one. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)  # before numpy is first imported (by speed), here and in every child

import gen  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import LAYERS  # noqa: E402

MIN_RUNS = 3  # untraced runs; a traced run alternates untraced and traced children, at least MIN_PAIRS each
MIN_PAIRS = 2
CHILD_TIMEOUT_S = 150
CANARY_SEED = 0

# Input sizes per workload; the canary replays the same workload at its own size with CANARY_SEED.
WORKLOADS = {
    "pipeline": {"issues": 6000, "repos": 50, "reviews": 1000, "vocab": "zipf"},
    "mine-wide": {"issues": 5000, "repos": 50, "reviews": 0, "vocab": "wide"},
    "experiment": {"issues": 2400, "repos": 5, "reviews": 800, "vocab": "zipf"},
}
CANARY = {
    "pipeline": {"issues": 800, "repos": 12, "reviews": 200, "vocab": "zipf"},
    "mine-wide": {"issues": 800, "repos": 12, "reviews": 0, "vocab": "wide"},
    "experiment": {"issues": 800, "repos": 5, "reviews": 200, "vocab": "zipf"},
}
GENERATED = ("corpus/repos.jsonl", "corpus/issues.jsonl", "reviews.csv", "labelmap.tsv")


def mining_commands(corpus: Path) -> list[list[str]]:
    """filter -> labels -> extract -> preprocess, each a separate CLI subcommand."""
    lexicon = str(SRC / "issueforge" / "data" / "lexicon.tsv")
    return [
        ["filter", "--in", str(corpus), "--out", "filtered"],
        ["labels", "--in", "filtered", "--lexicon", lexicon, "--out", "labels.jsonl"],
        ["extract", "--in", "filtered", "--labels", "labels.jsonl", "--out", "extracted.jsonl",
         "--report", "extraction_report.json"],
        ["preprocess", "--in", "extracted.jsonl", "--out", "docs.jsonl"],
    ]


def scaled(result: dict) -> dict:
    """A run's times at the reference speed (``factor`` from its child); the raw wall time is kept."""
    factor = result["factor"]
    out = dict(result, raw_wall_s=result["wall_s"], wall_s=result["wall_s"] * factor)
    if "layers" in out:
        out["layers"] = {k: v * factor if k.endswith(("_s", ".s")) else v for k, v in out["layers"].items()}
    return out


def run_child(spec: dict, work: Path, tag: str) -> dict:
    """Run one child to completion; its stdout/stderr (the CLI's JSON-line logs) go to a file."""
    spec_path = work / f"{tag}.spec.json"
    spec = {"src": str(SRC), "result": str(work / f"{tag}.result.json"), "spans": str(work / "spans.npz"),
            "trace": False, **spec}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    with (work / f"{tag}.log").open("w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                  stdout=log, stderr=log, env=env, timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return {"problems": [f"{tag}: timed out after {CHILD_TIMEOUT_S} s"]}
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        return {"problems": [f"{tag}: child exited {proc.returncode}, see its log under {WORK / 'results'}"]}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not spec.get("keep"):
        shutil.rmtree(spec["out"], ignore_errors=True)
    return result


def set_up(workload: str, seed: int, sizes: dict, where: Path) -> tuple[dict, list[str]]:
    """Generate the inputs under ``where`` and write the workload's config; return (inputs, problems)."""
    started = time.perf_counter()
    with SpeedSampler() as sampler:
        stats = gen.generate(where, seed, sizes["issues"], sizes["repos"], sizes["reviews"], sizes["vocab"])
    # scaled set-up time: the generator's at its own speed, plus the mining child's at its speed
    inputs = {"dir": str(where), "stats": stats, "pool": None, "pool_digest": None,
              "setup_s": (time.perf_counter() - started) * sampler.factor()}
    problems: list[str] = []
    if workload == "pipeline":
        config = {"seed": seed, "corpus_dir": str(where / "corpus"), "primary_csv": str(where / "reviews.csv"),
                  "label_map": str(where / "labelmap.tsv"), "method": "within-context", "ratio": 0.3,
                  "target_app": stats["active_repo"], "folds": 5}
        (where / "pipeline.json").write_text(json.dumps(config), encoding="utf-8")
    elif workload == "experiment":
        mine_started = time.perf_counter()
        mined = run_child({"kind": "mine", "commands": mining_commands(where / "corpus"),
                           "out": str(where / "mined"), "pool": str(where / "mined" / "docs.jsonl"), "keep": True},
                          where, "mine")
        problems += mined["problems"]
        inputs["setup_s"] += (time.perf_counter() - mine_started) * mined.get("factor", 1.0)
        inputs["pool"] = str(where / "mined" / "docs.jsonl")
        inputs["pool_digest"] = mined.get("digest")
        app = stats["active_repo"]
        config = {"seed": seed, "label_map": str(where / "labelmap.tsv"), "primary_csv": str(where / "reviews.csv"),
                  "pool": inputs["pool"], "corpus_dir": str(where / "mined" / "filtered"), "k": 5,
                  "specs": [{"method": "within-app", "ratio": 0.5, "target_app": app},
                            {"method": "within-context", "ratio": 0.5, "target_app": app},
                            {"method": "between-app", "ratio": 0.5}]}
        (where / "experiment.json").write_text(json.dumps(config), encoding="utf-8")
    return inputs, problems


def iteration_spec(workload: str, inputs: dict, out: Path, trace: bool) -> dict:
    base = Path(inputs["dir"])
    if workload == "pipeline":
        commands = [["pipeline", "--config", str(base / "pipeline.json"), "--out", "."]]
        kind, pool = "pipeline", out / "docs.jsonl"
    elif workload == "mine-wide":
        commands = mining_commands(base / "corpus")
        kind, pool = "mine", out / "docs.jsonl"
    else:
        commands = [["experiment", "--config", str(base / "experiment.json"), "--out", "comparison.tsv"]]
        kind, pool = "experiment", Path(inputs["pool"])
    return {"kind": kind, "commands": commands, "out": str(out), "pool": str(pool), "trace": trace}


def file_digest(where: Path) -> str:
    digest = hashlib.sha256()
    for name in GENERATED:
        digest.update(name.encode())
        digest.update(hashlib.sha256((where / name).read_bytes()).digest())
    return digest.hexdigest()


def items_of(workload: str, inputs: dict, result: dict) -> int:
    """Raw issues for the mining workloads, fold models fitted and evaluated for ``experiment``."""
    return result["folds"] if workload == "experiment" else inputs["stats"]["issues"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []
    try:
        # set-up and timed run alternate; every set-up must match the first byte for byte
        setup_times, raw_setup_times, fingerprints, runs = [], [], set(), []
        started = time.perf_counter()
        last = 0.0  # duration of the last set-up and run: no pair starts that would end past `seconds`
        while len(runs) < (2 * MIN_PAIRS if trace else MIN_RUNS) or time.perf_counter() - started + last <= seconds:
            pair_started = time.perf_counter()
            where = work / f"setup{len(runs)}"
            inputs, setup_problems = set_up(workload, seed, WORKLOADS[workload], where)
            raw_setup_times.append(time.perf_counter() - pair_started)
            setup_times.append(inputs["setup_s"])
            problems += setup_problems
            fingerprints.add((file_digest(where), inputs["pool_digest"]))
            traced = trace and len(runs) % 2 == 1
            result = run_child(iteration_spec(workload, inputs, work / "out", traced), work, f"run{len(runs)}")
            if "wall_s" in result:
                result = scaled(result)
            result["traced"] = traced
            runs.append(result)
            shutil.rmtree(where)
            last = time.perf_counter() - pair_started
        if len(fingerprints) != 1:
            problems.append("set-ups differ: generated inputs or mined pool are not deterministic")

        # checks: every run agrees, and each run (the canary too) matches its recorded digest
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        digests = {r.get("digest") for r in runs}
        if len(digests) != 1:
            problems.append(f"runs disagree: {len(digests)} distinct semantic digests")
        canary_dir = work / "canary"
        canary_inputs, canary_problems = set_up(workload, CANARY_SEED, CANARY[workload], canary_dir)
        problems += canary_problems
        canary = run_child(iteration_spec(workload, canary_inputs, canary_dir / "out", False), work, "canary")
        checks = [(r, recorded["seeds"].get(workload, {}).get(str(seed))) for r in runs]
        checks.append((canary, recorded["canary"].get(workload)))
        for run, expected in checks:
            if expected is not None and run.get("digest") != expected and not run["problems"]:
                run["problems"].append(f"semantic digest {run.get('digest')} != recorded {expected}")
        if workload not in recorded["canary"]:
            problems.append("no canary digest recorded")
    finally:
        summary_dir = WORK / "results"
        logs = summary_dir / f"logs-{workload}-seed{seed}"
        shutil.rmtree(logs, ignore_errors=True)
        logs.mkdir(parents=True)
        for log in work.rglob("*.log"):
            shutil.move(str(log), logs / f"{log.parent.name}-{log.name}")
        if (work / "spans.npz").exists():
            shutil.move(str(work / "spans.npz"), summary_dir / f"spans-{workload}-seed{seed}.npz")
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(ok) + bool(canary["problems"])  # the canary is one more attempted run
    for r in runs + [canary]:
        problems += r["problems"]

    def median_of(selected: list[dict], key: str) -> float:
        return statistics.median(r[key] for r in selected) if selected else 0.0  # 0.0 only when every run failed

    untraced = [r for r in ok if not r["traced"]]
    traced_runs = [r for r in ok if r["traced"]]
    wall = median_of(untraced, "wall_s")
    metrics = {
        "wall_s": wall,
        "items_per_s": items_of(workload, inputs, untraced[0]) / wall if untraced else 0.0,
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "setup_s": statistics.median(setup_times),
    }
    if traced_runs:
        for name in traced_runs[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced_runs)
        metrics["trace.wall_s"] = median_of(traced_runs, "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "correct": not problems,
        "attempted": len(runs) + 1, "failed": failed, "error_rate": failed / (len(runs) + 1), "problems": problems,
        "metrics": metrics, "sizes": WORKLOADS[workload], "inputs": inputs["stats"], "setup_s_all": setup_times,
        "wall_s_all": [r["wall_s"] for r in untraced], "raw_setup_s_all": raw_setup_times,
        "raw_wall_s_all": [r["raw_wall_s"] for r in untraced], "factor_all": [r["factor"] for r in untraced],
        "probe_parts_s_all": [r["probe_parts_s"] for r in untraced],
        "raw_wall_s": median_of(untraced, "raw_wall_s"), "factor": median_of(untraced, "factor"),
        "digest": next(iter(digests)) if len(digests) == 1 else None,
        "canary_digest": canary.get("digest"), "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
    }
    (summary_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="issueforge benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "issueforge" / "cli.py").is_file():
        print(f"perfbench: no issueforge sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    summaries = [run_workload(w, args.seed, args.seconds or bench["run_seconds"], bool(args.trace)) for w in workloads]
    for s in summaries:
        shown = ", ".join(f"{m['name']}={s['metrics'][m['name']]:.6g} {m['unit']}" for m in bench["end_to_end"])
        print(f"{s['workload']} seed={s['seed']}: {shown}, error_rate={s['error_rate']:.6g} ratio "
              f"({s['failed']}/{s['attempted']} runs failed); runs={len(s['wall_s_all'])} "
              f"raw wall_s={s['raw_wall_s']:.4g} s speed factor={s['factor']:.4g} nproc={s['nproc']} "
              f"blas_threads={s['blas_threads']} digest={s['digest']} canary={s['canary_digest']}")
        if args.trace and "trace.overhead_s" in s["metrics"]:
            shares = ", ".join(f"{layer}={s['metrics'][layer + '.share']:.3f}" for layer in LAYERS)
            print(f"  traced: overhead={s['metrics']['trace.overhead_s']:.3f} s; "
                  f"layer self-time shares of traced wall: {shares}")
        for problem in s["problems"]:
            print(f"  problem: {problem}")
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": s["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
