"""Outside-in per-layer tracing for the traced run.

:func:`install` wraps the public functions of each layer of ``repro`` —
from the benchmark's side, nothing in the package changes — so that
every call

* opens a :class:`repro.obs.tracer.Tracer` span tagged with the id of the
  benchmark operation that caused it (exported as a Chrome trace), and
* adds its *self time* (its duration minus the time of the wrapped calls
  nested in it) to its layer in a :class:`LayerClock`.

A stream returned by ``physical.execute`` is timed while it is consumed:
its span covers first ``next()`` to exhaustion, and each ``next()`` is a
clock frame of its own, so the consumer's work between rows stays with
the consumer.  :func:`install` returns an undo function that restores
every original.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

_END = object()


class LayerClock:
    """Self time and call counts per layer, attributed to a route."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        #: (route, layer) -> self seconds; (route, layer) -> calls.
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Extra per-layer counts (fixpoint iterations, derived facts, ...).
        self.counts: Counter = Counter()
        self.route = "setup"
        self.qid = "setup"
        self.answer_predicate = None
        #: While False, wrapped calls run untimed and untraced.
        self.enabled = True
        self._frames: List[float] = []  # child time of each open frame
        self._layers: List[str] = []

    @property
    def current_layer(self):
        return self._layers[-1] if self._layers else None

    def _enter(self, layer: str) -> float:
        self._frames.append(0.0)
        self._layers.append(layer)
        return perf_counter()

    def _exit(self, layer: str, start: float, count: bool = True) -> None:
        elapsed = perf_counter() - start
        child = self._frames.pop()
        self._layers.pop()
        key = (self.route, layer)
        self.self_s[key] += elapsed - child
        if count:
            self.calls[key] += 1
        if self._frames:
            self._frames[-1] += elapsed

    def call(self, layer: str, function: Callable, args, kwargs):
        if not self.enabled:
            return function(*args, **kwargs)
        with self.tracer.span(layer, category=layer.split(".")[0], qid=self.qid):
            start = self._enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                self._exit(layer, start)

    def stream(self, layer: str, iterator):
        """Re-yield ``iterator``, timing each ``next()`` as ``layer``."""
        if not self.enabled:
            yield from iterator
            return
        with self.tracer.span(layer, category=layer.split(".")[0], qid=self.qid):
            self.calls[(self.route, layer)] += 1
            try:
                while True:
                    start = self._enter(layer)
                    try:
                        item = next(iterator, _END)
                    finally:
                        self._exit(layer, start, count=False)
                    if item is _END:
                        return
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

    # -- summaries --------------------------------------------------------
    def layer_seconds(self, layer: str, route=None) -> float:
        return sum(
            seconds
            for (key_route, key_layer), seconds in self.self_s.items()
            if key_layer == layer and (route is None or key_route == route)
        )

    def layer_calls(self, layer: str) -> int:
        return sum(n for (_, key_layer), n in self.calls.items() if key_layer == layer)

    def per_call(self, layer: str, scale: float) -> float:
        calls = self.layer_calls(layer)
        return self.layer_seconds(layer) * scale / calls if calls else 0.0


def _wrap(clock: LayerClock, layer: str, function, after=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if after is None:
            return clock.call(layer, function, args, kwargs)
        result = clock.call(layer, function, args, kwargs)
        if clock.enabled:
            after(args, result)
        return result

    return wrapper


def install(clock: LayerClock) -> Callable[[], None]:
    """Wrap every traced layer function; return the function that undoes it."""
    import repro.store as store
    from repro.core.data_translation import DataTranslator
    from repro.core.engine import SparqLogEngine
    from repro.core.query_translation import QueryTranslator
    from repro.core.solution_translation import SolutionTranslator
    from repro.datalog.engine import DatalogEngine
    from repro.ivm.delta import DeltaPipeline
    from repro.ivm.views import MaterializedView
    from repro.sparql import evaluator as evaluator_module
    from repro.sparql import parser, physical
    from repro.sparql.evaluator import SparqlEvaluator
    from repro.sparql.idpaths import IdPathEngine

    undo: List[Tuple[object, str, object]] = []

    def patch(owner, name: str, replacement) -> None:
        undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def patch_everywhere(module, name: str, replacement) -> None:
        """Rebind ``name`` in every loaded repro module that imported it."""
        original = getattr(module, name)
        for loaded in list(sys.modules.values()):
            if (
                loaded is not None
                and getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, name, None) is original
            ):
                patch(loaded, name, replacement)

    # store: bulk load through the backend factory; writes on the default
    # backend's graph class (not counted again while a load is running).
    patch_everywhere(store, "create_graph", _wrap(clock, "store.load", store.create_graph))
    graph_class = store.GRAPH_BACKENDS[store.default_backend()]
    for name in ("add", "remove"):
        original = vars(graph_class)[name]

        def write(self, triple, _original=original):
            if clock.current_layer == "store.load" or not clock.enabled:
                return _original(self, triple)
            return clock.call("store.write", _original, (self, triple), {})

        patch(graph_class, name, write)

    patch_everywhere(parser, "parse_query", _wrap(clock, "parser", parser.parse_query))

    def remember_answer(args, result) -> None:
        clock.answer_predicate = result[1].answer_predicate

    patch(SparqLogEngine, "translate",
          _wrap(clock, "core.translate", SparqLogEngine.translate, remember_answer))
    patch(DataTranslator, "translate", _wrap(clock, "core.t_d", DataTranslator.translate))
    patch(QueryTranslator, "translate", _wrap(clock, "core.t_q", QueryTranslator.translate))
    patch(SolutionTranslator, "translate",
          _wrap(clock, "core.t_s", SolutionTranslator.translate))

    def count_fixpoint(args, relations) -> None:
        engine, program = args[0], args[1]
        facts = sum(len(rows) for rows in relations.values()) - len(program.facts)
        clock.counts["datalog.iterations"] += engine.fixpoint_iterations
        clock.counts["datalog.facts"] += facts
        clock.counts["datalog.answers"] += len(relations.get(clock.answer_predicate, ()))

    patch(DatalogEngine, "evaluate",
          _wrap(clock, "datalog.fixpoint", DatalogEngine.evaluate, count_fixpoint))

    patch(SparqlEvaluator, "evaluate", _wrap(clock, "evaluator", SparqlEvaluator.evaluate))
    patch(evaluator_module, "plan_bgp", _wrap(clock, "plan", evaluator_module.plan_bgp))
    patch(physical, "lower_plan", _wrap(clock, "physical.lower", physical.lower_plan))
    execute = physical.execute
    patch(
        physical,
        "execute",
        functools.wraps(execute)(
            lambda *args, **kwargs: clock.stream("physical.execute", execute(*args, **kwargs))
        ),
    )

    def count_rows(args, rows) -> None:
        clock.counts["idpaths.rows"] += len(rows)

    patch(IdPathEngine, "evaluate", _wrap(clock, "idpaths", IdPathEngine.evaluate, count_rows))
    patch(DeltaPipeline, "apply", _wrap(clock, "ivm.apply", DeltaPipeline.apply))
    patch(MaterializedView, "refresh", _wrap(clock, "ivm.refresh", MaterializedView.refresh))

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
        undo.clear()

    return restore
