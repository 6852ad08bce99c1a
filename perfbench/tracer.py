"""In-memory span tracer for the issueforge layers, installed from outside the package.

``install()`` wraps every public function of each layer module and rebinds the
wrapper at every name a caller resolves it by: ``stem`` lives in ``stemmer``
but is imported by name into ``textprep``, ``labels`` and ``extraction``, so
each of those module attributes is replaced. A span is (name, start, end,
parent); spans stay in flat arrays until ``save()`` writes them out. Counts
are taken by observers after a span ends; their time is recorded separately
and taken out of every enclosing span, so span times hold only the
program's work.
``layer_metrics()`` derives inclusive (``.s``) and self (``.self_s``) times,
call counts and the ratios listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("ingestion", "labels", "extraction", "textprep", "stemmer", "similarity", "augmentation", "classifier", "cli")

# Spans whose inclusive time, self time and call count are reported.
TIMED = (
    "stemmer.stem", "textprep.preprocess", "textprep.strip_noise", "extraction.extract",
    "labels.assign_intents", "labels.load_lexicon", "ingestion.load_corpus", "ingestion.filter_repos",
    "ingestion.write_corpus", "classifier.cross_validate", "classifier.build_feature_space",
    "classifier.vectorize", "classifier.loss_and_grad", "similarity.build_profiles", "similarity.rank_similar",
    "augmentation.load_primary", "augmentation.load_docs", "augmentation.select_auxiliary",
    "augmentation.augment", "augmentation.write_docs", "augmentation.write_augmented",
)
# Spans whose call count is reported.
COUNTED = (
    "stemmer.stem", "textprep.preprocess", "extraction.extract", "extraction.normalize_title",
    "labels.normalize_label", "ingestion.load_corpus", "classifier.train", "classifier.loss_and_grad",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.observed_span = array("i")
        self.observe_s = array("d")
        self.distinct: dict[str, set] = {"stemmer.stem": set(), "labels.normalize_label": set()}
        self.counts = {"textprep.admit.admitted": 0, "extraction.extract.found": 0,
                       "classifier.vectorize.cells": 0, "classifier.vectorize.nnz": 0}
        self.feature_space_sizes: list[int] = []

    def _observer(self, name: str):
        """Counts taken at the span boundary, from the call's arguments and result."""
        if name in self.distinct:
            seen = self.distinct[name]
            return lambda args, result: seen.add(args[0])
        counts = self.counts
        if name == "textprep.admit":
            def observe(args, result):
                counts["textprep.admit.admitted"] += bool(result)
        elif name == "extraction.extract":
            def observe(args, result):
                counts["extraction.extract.found"] += result is not None
        elif name == "classifier.vectorize":
            def observe(args, result):
                rows, terms = result.shape
                counts["classifier.vectorize.cells"] += rows * terms
                nnz = getattr(result, "nnz", None)  # a sparse matrix knows its own
                counts["classifier.vectorize.nnz"] += int(np.count_nonzero(result) if nnz is None else nnz)
        elif name == "classifier.build_feature_space":
            sizes = self.feature_space_sizes
            def observe(args, result):
                sizes.append(len(result.vocabulary))
        else:
            return None
        return observe

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, stack = self.name_of, self.start, self.end, self.parent, self.stack
        observed_span, observe_s = self.observed_span, self.observe_s
        observe = self._observer(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if observe is not None:
                observed_at = clock()
                observe(args, result)
                observed_span.append(index)
                observe_s.append(clock() - observed_at)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "issueforge" or key.startswith("issueforge.")]
        for layer in LAYERS:
            module = sys.modules[f"issueforge.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, other_attr, wrapper)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        name = np.frombuffer(self.name_of, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        stop = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        # An observer runs inside every span that encloses the observed one. Spans are numbered in
        # start order, so a span's descendants are the spans after it that start before it ends.
        observed = np.zeros(len(start))
        observed[np.frombuffer(self.observed_span, dtype=np.int32)] = np.frombuffer(self.observe_s, dtype=np.float64)
        observed_before = np.concatenate(([0.0], np.cumsum(observed)))
        after_descendants = np.searchsorted(start, stop, side="left")
        duration = stop - start - (observed_before[after_descendants] - observed_before[np.arange(len(start)) + 1])
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - covered
        # a span nested in a span of the same name (recursion) adds no inclusive time
        outermost = np.ones(len(duration), dtype=bool)
        for name_id in range(len(self.names)):
            idx = np.flatnonzero(name == name_id)  # in start order
            if len(idx) > 1:
                outermost[idx[1:]] = start[idx[1:]] >= np.maximum.accumulate(stop[idx])[:-1]
        ids = {n: i for i, n in enumerate(self.names)}

        def total(values, span: str, mask=None) -> float:
            if span not in ids:
                return 0.0
            sel = name == ids[span]
            if mask is not None:
                sel &= mask
            return float(values[sel].sum())

        def calls(span: str) -> int:
            return int(np.count_nonzero(name == ids[span])) if span in ids else 0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        metrics: dict[str, float] = {}
        for span in TIMED:
            metrics[f"{span}.s"] = total(duration, span, outermost)
            metrics[f"{span}.self_s"] = total(self_time, span)
        for span in COUNTED:
            metrics[f"{span}.calls"] = calls(span)
        for span, seen in self.distinct.items():
            metrics[f"{span}.distinct_ratio"] = ratio(len(seen), calls(span))
        metrics["textprep.admit.yield"] = ratio(self.counts["textprep.admit.admitted"], calls("textprep.admit"))
        metrics["extraction.extract.yield"] = ratio(self.counts["extraction.extract.found"], calls("extraction.extract"))
        metrics["classifier.vectorize.cells"] = self.counts["classifier.vectorize.cells"]
        metrics["classifier.vectorize.nnz"] = self.counts["classifier.vectorize.nnz"]
        metrics["classifier.vectorize.density"] = ratio(metrics["classifier.vectorize.nnz"], metrics["classifier.vectorize.cells"])
        sizes = sorted(self.feature_space_sizes)
        metrics["classifier.feature_space.terms"] = float(np.median(sizes)) if sizes else 0.0
        layer_of = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        span_layer = layer_of[name] if len(name) else np.array([], dtype=layer_of.dtype)
        work_s = wall_s - float(observed.sum())
        for layer in LAYERS:
            layer_self = float(self_time[span_layer == layer].sum())
            metrics[f"{layer}.self_s"] = layer_self
            metrics[f"{layer}.share"] = ratio(layer_self, work_s)
        metrics["trace.spans"] = len(duration)
        metrics["trace.observe_s"] = float(observed.sum())
        return metrics
