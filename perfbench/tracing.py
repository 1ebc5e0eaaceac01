"""Layer tracing for the traced benchmark run, installed from outside ``src/``.

A :class:`Tracer` replaces the public entry points of each layer of the
``repro`` package with thin wrappers that time every call.  Nothing under
``src/`` is edited: wrappers are installed on the loaded modules and classes
at run time, and the wrapped callables behave exactly as before (same
arguments, same return values, same exceptions).

Time is accounted as **self time**: a wrapped call's duration minus the time
covered by wrapped calls nested inside it.  ``Adam.step`` calling
``Optimizer.step`` through ``super()`` therefore splits into two spans whose
self times add up to the outer duration, never double-counting it.

Spans (name, function, start, end, parent) stay in memory and are written
out once, when the benchmark ends (:meth:`Tracer.write_spans`).  The tracer
never turns on ``tracemalloc`` or the package's ``--profile`` mode: those
inflate the very times being measured.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Scorer families with their own ``eval.score_s.<family>`` metric; any
#: other scorer lands in ``eval.score_s.other``.
SCORER_FAMILIES = {
    "TransE": "TransE",
    "DistMult": "DistMult",
    "ComplEx": "ComplEx",
    "RuleBasedPredictor": "AMIE",
}
SCORE_METRICS = tuple(
    f"eval.score_s.{family}" for family in ("TransE", "DistMult", "ComplEx", "AMIE", "other")
)


def _scorer_metric(args: Sequence[Any], kwargs: Dict[str, Any]) -> str:
    scorer = args[0] if args else kwargs.get("scorer")
    family = SCORER_FAMILIES.get(type(scorer).__name__, "other")
    return f"eval.score_s.{family}"


def _first_len(result: Any) -> int:
    return len(result[0])


#: ``(module, attribute path, self-time metric, count metric, counter)``.
#: An attribute path ``Class.method`` wraps the method on that class *and* on
#: every loaded subclass that defines its own override.  The self-time
#: metric may be a callable of the call's ``(args, kwargs)``.
TARGETS: Tuple[Tuple[str, str, Any, Optional[str], Optional[Callable[[Any], int]]], ...] = (
    ("repro.kg.freebase", "fb15k_like", "kg.generate_s", None, None),
    ("repro.kg.wordnet", "wn18_like", "kg.generate_s", None, None),
    ("repro.core.deredundancy", "make_fb15k237_like", "core.audit_s", None, None),
    ("repro.core.deredundancy", "make_wn18rr_like", "core.audit_s", None, None),
    ("repro.core.redundancy", "analyse_redundancy", "core.audit_s", None, None),
    ("repro.core.leakage", "analyse_leakage", "core.audit_s", None, None),
    ("repro.core.categories", "dataset_relation_categories", "core.audit_s", None, None),
    ("repro.kg.sampling", "NegativeSampler.sample", "kg.sampling.sample_s",
     "kg.sampling.negatives", _first_len),
    ("repro.models.base", "KGEModel.score_triples", "models.forward_s", None, None),
    ("repro.models.losses", "LossFunction.__call__", "models.forward_s", None, None),
    ("repro.autodiff.tensor", "Tensor.backward", "autodiff.backward_s", None, None),
    ("repro.models.optim", "Optimizer.step", "models.optim.step_s", None, None),
    ("repro.models.base", "KGEModel.apply_constraints", "models.constraints_s", None, None),
    ("repro.rules.amie", "AmieMiner.mine", "rules.amie.mine_s", "rules.amie.rules", len),
    ("repro.eval.ranking", "LinkPredictionEvaluator.__init__", "eval.filter_index_s", None, None),
    ("repro.eval.sharding", "score_query_chunk", _scorer_metric, None, None),
    ("repro.eval.sharding", "rank_shard", "eval.rank_s", "eval.queries", _first_len),
    ("repro.api.artifacts", "DiskArtifactStore._load", "api.artifacts.read_s", None, None),
    ("repro.api.artifacts", "DiskArtifactStore._persist", "api.artifacts.write_s", None, None),
    ("repro.serve.engine", "QueryEngine._score_keys", "serve.score_s", None, None),
    ("repro.serve.engine", "QueryEngine._answer", "serve.answer_s", None, None),
    ("repro.serve.engine", "topk_row", "serve.topk_s", None, None),
    ("repro.api.serving", "QueryBatch.from_wire", "serve.wire_s", None, None),
    ("repro.api.serving", "BatchResult.to_wire", "serve.wire_s", None, None),
    ("repro.kg.streaming", "ingest_dataset", "kg.streaming.ingest_s", None, None),
    ("repro.kg.deltas", "LiveDatasetMaintainer.from_dataset", "kg.deltas.bootstrap_s", None, None),
    ("repro.kg.deltas", "LiveDatasetMaintainer.apply", "kg.deltas.apply_s", None, None),
    ("repro.kg.deltas", "LiveDatasetMaintainer.redundancy_report", "kg.deltas.redundancy_s",
     None, None),
    ("repro.kg.deltas", "LiveDatasetMaintainer.leakage_report", "kg.deltas.leakage_s",
     None, None),
)

#: Every self-time metric the targets can produce (zero when unused).
TIME_METRICS = tuple(
    dict.fromkeys(
        [metric for _, _, metric, _, _ in TARGETS if isinstance(metric, str)]
        + list(SCORE_METRICS)
    )
)
COUNT_METRICS = tuple(
    dict.fromkeys(name for _, _, _, name, _ in TARGETS if name is not None)
)


class Tracer:
    """Wraps callables, keeps spans in memory and sums self time per metric."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: ``(span id, parent id, metric, function, start, end)`` tuples.
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []
        #: Wrappers record only while installed.
        self.active = False

    # -- accounting --------------------------------------------------------
    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        function: Callable[..., Any],
        metric: Any,
        count: Optional[str] = None,
        counter: Optional[Callable[[Any], int]] = None,
    ) -> Callable[..., Any]:
        """``function`` timed under ``metric`` (a name or ``(args, kwargs) -> name``)."""
        label = getattr(function, "__qualname__", repr(function))

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                # A reference taken while installed outlives uninstall().
                return function(*args, **kwargs)
            name = metric if isinstance(metric, str) else metric(args, kwargs)
            stack = self._stack()
            frame = [next(self._ids), name, self.clock(), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                end = self.clock()
                duration = end - frame[2]
                self.self_seconds[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                self.spans.append((frame[0], parent, name, label, frame[2], end))
            if count is not None:
                self.counts[count] += int(counter(result))
            return result

        return traced

    # -- installation ------------------------------------------------------
    def _replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _wrap_method(self, cls: type, attribute: str, metric: Any, count, counter) -> None:
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(raw.__func__, metric, count, counter))
        else:
            wrapped = self.wrap(raw, metric, count, counter)
        self._replace(cls, attribute, wrapped)

    def _wrap_function(self, module: Any, attribute: str, metric: Any, count, counter) -> None:
        original = getattr(module, attribute)
        wrapped = self.wrap(original, metric, count, counter)
        # ``from x import f`` copies the reference: rebind it wherever the
        # package holds the original, so every caller reaches the wrapper.
        package = module.__name__.split(".")[0]
        for name, loaded in list(sys.modules.items()):
            if loaded is None or name.split(".")[0] != package:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._replace(loaded, key, wrapped)

    def install(
        self,
        targets: Sequence[Tuple[Any, ...]] = TARGETS,
        preload: Sequence[str] = ("repro.models.registry",),
    ) -> "Tracer":
        """Import every target module and wrap its entry points.

        ``preload`` names modules to import first because they define
        subclasses whose overrides must be wrapped too (the model zoo).
        """
        for module_name in list(preload) + [target[0] for target in targets]:
            importlib.import_module(module_name)
        for module_name, path, metric, count, counter in targets:
            module = sys.modules[module_name]
            if "." not in path:
                self._wrap_function(module, path, metric, count, counter)
                continue
            class_name, attribute = path.split(".")
            for cls in _class_and_subclasses(getattr(module, class_name)):
                if attribute in cls.__dict__:
                    self._wrap_method(cls, attribute, metric, count, counter)
        self.active = True
        return self

    def uninstall(self) -> None:
        """Put every wrapped attribute back (last wrapped, first restored)."""
        self.active = False
        while self._restore:
            owner, attribute, value = self._restore.pop()
            setattr(owner, attribute, value)

    # -- results -----------------------------------------------------------
    def window(self, metrics: Sequence[str]) -> float:
        """Seconds from the first to the last span of ``metrics``."""
        chosen = [span for span in self.spans if span[2] in set(metrics)]
        if not chosen:
            return 0.0
        return max(span[5] for span in chosen) - min(span[4] for span in chosen)

    def table(self) -> Dict[str, float]:
        """Every known metric: self seconds and counts (zero when unused)."""
        table: Dict[str, float] = {name: 0.0 for name in TIME_METRICS}
        table.update({name: 0 for name in COUNT_METRICS})
        table.update(self.self_seconds)
        table.update(self.counts)
        return table

    def write_spans(self, path: Path, stamp: Dict[str, Any]) -> Path:
        """Write the in-memory spans as JSON lines, after a stamp line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"stamp": stamp}) + "\n")
            for span_id, parent, metric, function, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "metric": metric,
                         "function": function, "start": start, "end": end}
                    )
                    + "\n"
                )
        return path


def _class_and_subclasses(cls: type) -> List[type]:
    seen: Dict[type, None] = {}
    pending = [cls]
    while pending:
        current = pending.pop()
        if current not in seen:
            seen[current] = None
            pending.extend(current.__subclasses__())
    return list(seen)
