"""Outside-in layer tracing for the benchmark.

The tracer wraps the public entry points of each layer of the explanation
pipeline (see :data:`ENTRY_POINTS`) and records one span per call — or, for
the round generators of the KL-LUCB estimator and the anchor search, one
span per resume.  Nothing under ``src/`` knows it is being traced.

A span is ``(span_id, parent_id, layer, root_id, start, end, rows, aux)``:

* ``parent_id`` is the innermost enclosing span on the same thread;
* ``root_id`` is the enclosing ``root`` span — one explanation
  (``ExplanationSession.explain``) or one fused request group
  (``run_fused_group``) — so every span belongs to an explanation or request;
* ``rows`` is the work the call carried (perturbed rows drawn, blocks
  predicted, samples a precision round asked for);
* ``aux`` is a per-layer tally: cache hits for ``model.cache``, 1 for a
  precision resume that yielded a round, 1 for a result-cache hit.

Spans are kept in memory and written out when the run ends.  A layer's
self time is its spans' duration minus the time their direct child spans
cover.  An entry point that no longer exists is skipped, not an error, so
the trace keeps working when a layer's internals are reorganised.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span tuple field positions.
SPAN_ID, PARENT, LAYER, ROOT, START, END, ROWS, AUX = range(8)

Span = Tuple[int, Optional[int], str, Optional[int], float, float, int, int]

#: Layers that are containers for the others; their self time is the part
#: of an explanation no layer accounts for.
ROOT_LAYER = "root"


def _rows_returned(args, kwargs, result) -> Tuple[int, int]:
    return len(result), 0


def _rows_one(args, kwargs, result) -> Tuple[int, int]:
    return 1, 0


def _rows_segmented(args, kwargs, result) -> Tuple[int, int]:
    return sum(len(values) for values in result[0]), 0


def _rows_result_cache_get(args, kwargs, result) -> Tuple[int, int]:
    return 1, int(result is not None)


def _round_samples(request) -> Tuple[int, int]:
    """A precision resume yields one round: ``[(arm, count), ...]``."""
    return sum(int(count) for _arm, count in request), 1


#: (module, attribute path, layer, kind, measure).  ``kind`` is ``call`` for
#: plain functions, ``cache`` for the query cache (hits are read off the
#: wrapper's counters), ``rounds`` for round generators (one span per
#: resume) and ``root`` for the spans that own an explanation or request.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.runtime.session", "ExplanationSession.explain", ROOT_LAYER, "root", None),
    ("repro.service.core", "run_fused_group", ROOT_LAYER, "root", None),
    ("repro.perturb.sampler", "PerturbationSampler.sample", "perturb", "call", _rows_returned),
    ("repro.perturb.sampler", "PerturbationSampler.sample_encoded", "perturb", "call", _rows_returned),
    # Draws inside background_population go through sample(), which the
    # re-entrancy rule folds into this span, so its rows are not counted.
    ("repro.perturb.sampler", "PerturbationSampler.background_population", "perturb", "call", None),
    ("repro.models.base", "CachedCostModel.predict", "model.cache", "cache", _rows_one),
    ("repro.models.base", "CachedCostModel.predict_batch", "model.cache", "cache", _rows_returned),
    ("repro.models.base", "CachedCostModel.predict_batch_segmented", "model.cache", "cache", _rows_segmented),
    ("repro.models.base", "CostModel.predict", "model.kernel", "call", _rows_one),
    ("repro.models.base", "CostModel.predict_batch", "model.kernel", "call", _rows_returned),
    ("repro.explain.precision", "PrecisionEstimator.select_top_rounds", "precision", "rounds", _round_samples),
    ("repro.explain.precision", "PrecisionEstimator.certify_threshold_rounds", "precision", "rounds", _round_samples),
    ("repro.explain.coverage", "CoverageEstimator.coverage", "coverage", "call", None),
    ("repro.explain.coverage", "CoverageEstimator.coverage_many", "coverage", "call", None),
    ("repro.explain.anchors", "AnchorSearch.__init__", "anchors", "call", None),
    ("repro.explain.anchors", "AnchorSearch.search_rounds", "anchors", "rounds", None),
    ("repro.cache.store", "ResultCache.get", "result_cache.get", "call", _rows_result_cache_get),
    ("repro.cache.store", "ResultCache.put", "result_cache.put", "call", None),
    # The codec is patched where the transport looks it up, so only the
    # socket path is timed (the stdio path and tests are unaffected).
    ("repro.service.transport", "request_from_line", "transport.codec", "call", None),
    ("repro.service.transport", "result_to_dict", "transport.codec", "call", None),
    ("repro.service.transport", "stats_to_dict", "transport.codec", "call", None),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.installed: List[str] = []
        self.skipped: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, stack: list, layer: str, root: bool = False) -> list:
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        if root or parent is None:
            root_id = span_id if root else None
        else:
            root_id = parent[3]
        frame = [span_id, layer, None if parent is None else parent[0], root_id, time.perf_counter()]
        stack.append(frame)
        return frame

    def close(self, stack: list, frame: list, rows: int = 0, aux: int = 0) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append((frame[0], frame[2], frame[1], frame[3], frame[4], end, rows, aux))

    # ------------------------------------------------------------- patching

    def _wrap_call(self, fn, layer: str, kind: str, measure):
        tracer = self
        is_root = kind == "root"
        is_cache = kind == "cache"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == layer and not is_root:
                # Re-entrant call inside the same layer (e.g. sample_unconstrained
                # -> sample): the outer span already covers it.
                return fn(*args, **kwargs)
            hits_before = args[0].hits if is_cache else 0
            frame = tracer.open(stack, layer, root=is_root)
            rows = aux = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    rows, aux = measure(args, kwargs, result)
                if is_cache:
                    aux = args[0].hits - hits_before
                return result
            finally:
                tracer.close(stack, frame, rows, aux)

        return traced

    def _wrap_rounds(self, fn, layer: str, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedRounds(tracer, layer, fn(*args, **kwargs), measure)

        return traced

    def install(self, entry_points: Iterable = ENTRY_POINTS) -> "Tracer":
        """Patch every entry point that exists; idempotent after uninstall."""
        self.uninstall()
        self.installed, self.skipped = [], []
        for module_name, path, layer, kind, measure in entry_points:
            owner_path, _, name = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.skipped.append(f"{module_name}.{path}")
                continue
            if kind == "rounds":
                wrapped = self._wrap_rounds(original, layer, measure)
            else:
                wrapped = self._wrap_call(original, layer, kind, measure)
            setattr(owner, name, wrapped)
            self._originals.append((owner, name, original))
            self.installed.append(f"{module_name}.{path}")
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # --------------------------------------------------------------- output

    def write(self, path) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


class _TracedRounds:
    """A round generator whose every resume is one span."""

    def __init__(self, tracer: Tracer, layer: str, generator, measure) -> None:
        self._tracer = tracer
        self._layer = layer
        self._generator = generator
        self._measure = measure

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._resume(self._generator.send, value)

    def throw(self, *exc_info):
        return self._resume(self._generator.throw, *exc_info)

    def close(self) -> None:
        self._generator.close()

    def _resume(self, step, *args):
        stack = self._tracer._stack()
        frame = self._tracer.open(stack, self._layer)
        rows = aux = 0
        try:
            out = step(*args)
            if self._measure is not None:
                rows, aux = self._measure(out)
            return out
        finally:
            self._tracer.close(stack, frame, rows, aux)


# ----------------------------------------------------------------- analysis


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children run on their parent's thread, nested inside it, so their
    intervals do not overlap each other; clipping to the parent interval
    keeps the arithmetic safe against clock jitter at the boundaries.
    """
    by_id = {span[SPAN_ID]: span for span in spans}
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span[PARENT]) if span[PARENT] is not None else None
        if parent is None:
            continue
        start = max(span[START], parent[START])
        end = min(span[END], parent[END])
        if end > start:
            covered[parent[SPAN_ID]] += end - start
    return {
        span[SPAN_ID]: max(span[END] - span[START] - covered[span[SPAN_ID]], 0.0)
        for span in spans
    }


def summarize(spans: Sequence[Span]) -> Dict[str, object]:
    """Per-layer totals: self seconds, span count, rows, aux; plus roots.

    ``top_level_s`` sums the spans with no parent (the traced wall time
    across threads); ``roots`` counts the explanation/request roots.
    """
    own = self_times(spans)
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "spans": 0, "rows": 0, "aux": 0}
    )
    top_level = 0.0
    roots = 0
    for span in spans:
        entry = layers[span[LAYER]]
        entry["self_s"] += own[span[SPAN_ID]]
        entry["spans"] += 1
        entry["rows"] += span[ROWS]
        entry["aux"] += span[AUX]
        if span[PARENT] is None:
            top_level += span[END] - span[START]
        if span[LAYER] == ROOT_LAYER:
            roots += 1
    attributed = sum(
        entry["self_s"] for name, entry in layers.items() if name != ROOT_LAYER
    )
    return {
        "layers": {name: dict(entry) for name, entry in layers.items()},
        "top_level_s": top_level,
        "attributed_s": attributed,
        "roots": roots,
        "spans": len(spans),
    }
