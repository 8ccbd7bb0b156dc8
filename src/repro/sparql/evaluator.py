"""Reference SPARQL 1.1 evaluator with bag semantics.

The evaluator implements the W3C SPARQL algebra directly over a
:class:`repro.rdf.Dataset`.  It serves two roles in the reproduction:

* it is the standard-compliant "Jena Fuseki"-style baseline used in the
  compliance and performance experiments, and
* it provides the ground truth against which the SparqLog translation is
  differentially tested.

Property-path evaluation follows the spec's ALP procedure: closure
operators (``?``, ``*``, ``+``) are evaluated per start node with set
semantics, all other path operators preserve duplicates.  Like Jena's ARQ
engine, a recursive path with two unbound endpoints is evaluated by
running the per-node expansion from every node of the active graph — this
is what makes the native engine slow on the gMark workloads, matching the
performance shape reported in the paper.

Basic graph patterns are evaluated through the cost-based planner in
:mod:`repro.sparql.plan` and the physical operator layer in
:mod:`repro.sparql.physical`: triple and path patterns are greedily
reordered by estimated cardinality, lowered to a physical operator DAG
(term- or id-space per backend capability, with a leapfrog-triejoin
operator for cyclic BGPs) and executed as a streaming pipeline, so ASK
and plain LIMIT queries short-circuit instead of materialising the full
join.  Execution is configured by one
:class:`repro.sparql.profile.ExecutionProfile` value (``profile=`` —
presets ``FULL`` / ``ID_NATIVE`` / ``BASELINE``, or a
:meth:`~repro.sparql.profile.ExecutionProfile.with_options` variant);
a profile with ``use_planner`` off recovers the naive textual-order
evaluation used as the differential-testing baseline and by the planner
benchmarks.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict, defaultdict, deque
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, Literal, Term, Triple, Variable, term_sort_key
from repro.sparql.algebra import (
    AskQuery,
    BGP,
    Bind,
    DatasetClause,
    EmptyPattern,
    Filter,
    GraphGraphPattern,
    GraphPatternNode,
    Join,
    LeftJoin,
    Minus,
    OrderCondition,
    PathPattern,
    ProjectionItem,
    Query,
    SelectQuery,
    TriplePatternNode,
    Union as UnionNode,
    ValuesPattern,
)
from repro.sparql.expressions import (
    Aggregate,
    Expression,
    conjuncts,
    evaluate as evaluate_expression,
    satisfies,
)
from repro.sparql.functions import ExpressionError
from repro.sparql import physical
from repro.sparql.idpaths import IdPathEngine, supports_id_paths
from repro.sparql.plan import match_triple, plan_bgp
from repro.sparql.paths import (
    AlternativePath,
    InversePath,
    LinkPath,
    NegatedPropertySet,
    OneOrMorePath,
    PropertyPath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
    matches_zero_length,
    normalize_path,
)
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import Binding, EMPTY_BINDING, SolutionSequence
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class EvaluationError(RuntimeError):
    """Raised when a query cannot be evaluated (unsupported construct)."""


@dataclass
class ExplainAnalyzeReport:
    """Result of :meth:`SparqlEvaluator.explain_analyze`.

    ``text`` is the rendered operator tree (what ``str(report)`` gives);
    ``plan`` keeps the executed :class:`~repro.sparql.physical.PhysicalPlan`
    so callers can inspect :meth:`~repro.sparql.physical.PhysicalPlan.analysis`
    programmatically.
    """

    text: str
    plan: "physical.PhysicalPlan" = field(repr=False)
    total_seconds: float = 0.0
    rows: int = 0

    def __str__(self) -> str:
        return self.text


class SparqlEvaluator:
    """Direct algebra evaluator over an RDF dataset."""

    #: Upper bound on cached physical plans per graph (oldest evicted first).
    PLAN_CACHE_SIZE = 256

    def __init__(
        self,
        dataset: Dataset,
        tracer: Optional[Tracer] = None,
        profile: Optional[ExecutionProfile] = None,
    ) -> None:
        self.dataset = dataset
        #: The execution profile (``FULL`` unless given); fixed for the
        #: evaluator's lifetime, so cached plans need not key on it.
        self.profile = profile if profile is not None else ExecutionProfile.FULL
        # The most recent physical plan produced by lowering — inspection
        # hook for tests, benchmarks and explain()-style tooling.
        self.last_physical_plan: Optional[physical.PhysicalPlan] = None
        # Small LRU of IdPathEngine per graph so repeated path steps —
        # including ones alternating across GRAPH clauses — share each
        # graph's node-set cache instead of rebuilding it per pattern.
        # Strong references on purpose: the engine itself holds the
        # graph, so an entry pins exactly the graphs recently queried
        # (usually ones the dataset owns anyway), bounded by the LRU
        # size; id() keys stay valid precisely because the values keep
        # their graphs alive.
        self._path_engine_cache: "OrderedDict[int, IdPathEngine]" = OrderedDict()
        # Lowered BGP plans per graph: graph -> (version, {(patterns,
        # conditions): PhysicalPlan}).  A write bumps the graph's version
        # and the next lookup replaces that graph's dict; a collected
        # graph drops out with its weak key.
        self._plans: "weakref.WeakKeyDictionary[Graph, Tuple[int, Dict]]" = (
            weakref.WeakKeyDictionary()
        )
        # Optional span tracer: when attached (and enabled) the evaluator
        # opens plan / lower / execute phase spans and samples per-operator
        # summaries at stream exhaustion.  ``None`` keeps the hot paths on
        # a single identity check.
        self.tracer = tracer
        # Metrics registry: cache traffic counts as plain slotted-counter
        # increments, live sizes as collection-time callbacks.  Exposed
        # for store binding (bind_store_metrics) and Prometheus rendering;
        # :meth:`metrics` snapshots it.
        self.metrics_registry = MetricsRegistry()
        registry = self.metrics_registry
        self._cache_hits = registry.counter(
            "sparql_physical_cache_hits_total", "Plan cache lookups that hit"
        )
        self._cache_misses = registry.counter(
            "sparql_physical_cache_misses_total", "Plan cache lookups that missed"
        )
        self._plans_built = registry.counter(
            "sparql_plan_cache_misses_total",
            "BGP plans planned and lowered fresh (one per cache miss)",
        )
        self._cache_evictions = registry.counter(
            "sparql_plan_cache_evictions_total",
            "Plan cache entries evicted (per-graph bound or a graph write)",
        )
        self._wcoj_fallbacks = registry.counter(
            "sparql_wcoj_fallback_total",
            "GYO-cyclic BGPs where WCOJ selection was structurally rejected",
        )
        registry.gauge(
            "sparql_physical_cache_size",
            "Live plan cache entries across graphs",
            callback=lambda: sum(len(plans) for _, plans in self._plans.values()),
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """Snapshot every registered metric (cache traffic, sizes, ...).

        Plain dict keyed by metric name; store-level counters appear here
        too once bound via
        :func:`repro.obs.metrics.bind_store_metrics`.
        """
        return self.metrics_registry.snapshot()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(self, query: Query) -> Union[SolutionSequence, bool]:
        """Evaluate a parsed query.

        SELECT queries return a :class:`SolutionSequence`; ASK queries
        return a boolean.  With a :attr:`tracer` attached, the whole
        evaluation runs inside a ``query``-category span; the plan /
        lower / execute phase spans nest under it.
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("evaluate", category="query", form=type(query).__name__):
                return self._dispatch(query)
        return self._dispatch(query)

    def _dispatch(self, query: Query) -> Union[SolutionSequence, bool]:
        if isinstance(query, SelectQuery):
            return self._evaluate_select(query)
        if isinstance(query, AskQuery):
            return self._evaluate_ask(query)
        raise EvaluationError(f"unsupported query form {type(query).__name__}")

    # ------------------------------------------------------------------
    # dataset handling
    # ------------------------------------------------------------------
    def _active_dataset(self, clauses: Sequence[DatasetClause]) -> Dataset:
        """Build the dataset the query runs against from FROM clauses."""
        if not clauses:
            return self.dataset
        default = Graph()
        named: Dict[IRI, Graph] = {}
        for clause in clauses:
            graph = self.dataset.named_graphs.get(clause.graph)
            if graph is None and clause.graph not in self.dataset.named_graphs:
                # FROM over the conventional "default" IRI maps to the default graph.
                graph = self.dataset.default_graph
            if graph is None:
                graph = Graph()
            if clause.named:
                named[clause.graph] = graph
            else:
                default.update(graph)
        return Dataset(default, named)

    # ------------------------------------------------------------------
    # query forms
    # ------------------------------------------------------------------
    def _evaluate_select(self, query: SelectQuery) -> SolutionSequence:
        dataset = self._active_dataset(query.dataset_clauses)
        bindings = self._eval_select_pattern(query, dataset)
        if query.has_aggregates():
            bindings = self._apply_grouping(query, bindings)
        else:
            bindings = self._apply_projection_expressions(query, bindings)
        if query.having is not None and not query.group_by and not query.has_aggregates():
            bindings = [b for b in bindings if satisfies(query.having, b)]
        if query.order_by:
            bindings = self._apply_order_by(query.order_by, bindings)
        variables = query.projected_variables()
        projected = [binding.project(variables) for binding in bindings]
        if query.distinct or query.reduced:
            seen = set()
            unique: List[Binding] = []
            for binding in projected:
                if binding not in seen:
                    seen.add(binding)
                    unique.append(binding)
            projected = unique
        if query.offset:
            projected = projected[query.offset:]
        if query.limit is not None:
            projected = projected[: query.limit]
        return SolutionSequence(variables, projected)

    def _eval_select_pattern(
        self, query: SelectQuery, dataset: Dataset
    ) -> List[Binding]:
        """Evaluate a SELECT query's pattern, short-circuiting when safe.

        A query whose only solution modifiers are LIMIT/OFFSET consumes
        exactly ``offset + limit`` solutions from the streaming pipeline;
        anything involving ordering, grouping or DISTINCT needs the full
        multiset.
        """
        stream = self._eval_pattern_stream(
            query.pattern, dataset.default_graph, dataset
        )
        can_short_circuit = (
            query.limit is not None
            and not query.order_by
            and not query.distinct
            and not query.reduced
            and not query.has_aggregates()
            and query.having is None
        )
        if can_short_circuit:
            results = list(islice(stream, (query.offset or 0) + query.limit))
            # Close the abandoned tail deterministically: the pipeline's
            # finally blocks flush their batched counters (and any open
            # trace span finishes) now, not at garbage collection.
            close = getattr(stream, "close", None)
            if close is not None:
                close()
            return results
        return list(stream)

    def _evaluate_ask(self, query: AskQuery) -> bool:
        dataset = self._active_dataset(query.dataset_clauses)
        stream = self._eval_pattern_stream(
            query.pattern, dataset.default_graph, dataset
        )
        try:
            return next(iter(stream), None) is not None
        finally:
            # As in the LIMIT short-circuit: flush the pipeline's batched
            # counters by closing the stream instead of waiting for GC.
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------
    # graph pattern evaluation
    # ------------------------------------------------------------------
    def _eval_pattern(
        self,
        node: GraphPatternNode,
        active_graph: Graph,
        dataset: Dataset,
    ) -> List[Binding]:
        if isinstance(node, EmptyPattern):
            return [EMPTY_BINDING]
        if isinstance(node, TriplePatternNode):
            return self._eval_triple_pattern(node.triple, active_graph)
        if isinstance(node, PathPattern):
            return self._eval_path_pattern(node, active_graph)
        if isinstance(node, BGP):
            if self._plannable_bgp(node):
                return list(self._eval_bgp_stream(node, active_graph))
            results = [EMPTY_BINDING]
            for pattern in node.patterns:
                partial = self._eval_pattern(pattern, active_graph, dataset)
                results = self._join(results, partial)
                if not results:
                    return []
            return results
        if isinstance(node, Join):
            left = self._eval_pattern(node.left, active_graph, dataset)
            if not left:
                return []
            right = self._eval_pattern(node.right, active_graph, dataset)
            return self._join(left, right)
        if isinstance(node, LeftJoin):
            return self._eval_left_join(node, active_graph, dataset)
        if isinstance(node, UnionNode):
            left = self._eval_pattern(node.left, active_graph, dataset)
            right = self._eval_pattern(node.right, active_graph, dataset)
            return left + right
        if isinstance(node, Minus):
            return self._eval_minus(node, active_graph, dataset)
        if isinstance(node, Filter):
            pushed = self._try_filter_pushdown(node, active_graph, dataset)
            if pushed is not None:
                return list(pushed)
            inner = self._eval_pattern(node.pattern, active_graph, dataset)
            return [binding for binding in inner if satisfies(node.condition, binding)]
        if isinstance(node, GraphGraphPattern):
            return self._eval_graph(node, dataset)
        if isinstance(node, Bind):
            return self._eval_bind(node, active_graph, dataset)
        if isinstance(node, ValuesPattern):
            return self._eval_values(node)
        raise EvaluationError(f"unsupported pattern node {type(node).__name__}")

    def _plannable_bgp(self, node: BGP) -> bool:
        """A BGP is planned when enabled and built only of triple/path patterns."""
        return self.profile.use_planner and all(
            isinstance(pattern, (TriplePatternNode, PathPattern))
            for pattern in node.patterns
        )

    @staticmethod
    def _as_bgp(node: GraphPatternNode) -> GraphPatternNode:
        """Promote a lone triple/path pattern to a singleton BGP.

        The parser emits bare pattern nodes for one-pattern groups; the
        pushdown helpers work on BGPs, so wrapping lets single-pattern
        OPTIONAL and MINUS sides join the streaming pipeline too.
        """
        if isinstance(node, (TriplePatternNode, PathPattern)):
            return BGP((node,))
        return node

    def _try_filter_pushdown(
        self, node: Filter, active_graph: Graph, dataset: Dataset
    ) -> Optional[Iterator[Binding]]:
        """Stream a FILTER stack with conditions pushed into the pipeline.

        Peels nested FILTER wrappers down to the pattern they scope over.
        When that is a plannable BGP, the conjuncts are attached to the
        earliest physical operator binding their variables and the whole
        stack evaluates in one streaming pass.  When it is a MINUS whose
        *left* side is (a FILTER stack over) a plannable BGP, the
        conjuncts push into that left pipeline — sound because MINUS is a
        per-row selection on the left multiset that leaves bindings
        untouched, so ``FILTER(MINUS(L, R), c)`` ≡ ``MINUS(FILTER(L, c),
        R)``.  Returns ``None`` when pushdown does not apply (disabled,
        or no eligible shape).
        """
        if not self.profile.use_filter_pushdown:
            return None
        conditions: List[Expression] = []
        current: GraphPatternNode = node
        while isinstance(current, Filter):
            conditions.extend(conjuncts(current.condition))
            current = current.pattern
        if isinstance(current, BGP) and self._plannable_bgp(current):
            return self._eval_bgp_stream(current, active_graph, tuple(conditions))
        if isinstance(current, Minus):
            left: GraphPatternNode = current.left
            while isinstance(left, Filter):
                conditions.extend(conjuncts(left.condition))
                left = left.pattern
            left = self._as_bgp(left)
            if isinstance(left, BGP) and self._plannable_bgp(left):
                return self._minus_stream(
                    left, tuple(conditions), current.right, active_graph, dataset
                )
        return None

    def _minus_stream(
        self,
        left_bgp: BGP,
        conditions: Tuple[Expression, ...],
        right_node: GraphPatternNode,
        active_graph: Graph,
        dataset: Dataset,
    ) -> Iterator[Binding]:
        """Stream MINUS over a filtered left BGP pipeline.

        The right side is evaluated lazily, on the first surviving left
        row, so an empty (or fully filtered) left side never pays for the
        right pattern — mirroring the materialising evaluator's
        short-circuit.
        """
        right: Optional[List[Binding]] = None
        for left_binding in self._eval_bgp_stream(left_bgp, active_graph, conditions):
            if right is None:
                right = self._eval_pattern(right_node, active_graph, dataset)
            excluded = False
            for right_binding in right:
                shared = left_binding.variables() & right_binding.variables()
                if shared and left_binding.is_compatible(right_binding):
                    excluded = True
                    break
            if not excluded:
                yield left_binding

    def _lower_bgp(
        self,
        node: BGP,
        active_graph: Graph,
        conditions: Tuple[Expression, ...] = (),
    ) -> physical.PhysicalPlan:
        """Plan + lower a BGP to a physical operator DAG, cached per graph.

        Planning and lowering (operator construction, WCOJ eligibility
        analysis) are pure in the pattern tuple, the FILTER conjuncts,
        the evaluator's profile and the graph statistics, so a lowered
        plan is reused while the graph's ``version`` stamp is unchanged.
        Graphs without a version stamp (or that cannot be weakly
        referenced) and unhashable patterns are planned afresh every
        time.  Cached plans share their ``OperatorStats`` objects, but
        the executor resets them at the start of every execution, so
        each run reports its own counters.
        """
        key = (node.patterns, conditions)
        plans: Optional[Dict[Tuple, physical.PhysicalPlan]] = None
        version = getattr(active_graph, "version", None)
        if version is not None:
            try:
                entry = self._plans.get(active_graph)
                if entry is None or entry[0] != version:
                    if entry is not None:
                        self._cache_evictions.inc(len(entry[1]))
                    entry = (version, {})
                    self._plans[active_graph] = entry
                plans = entry[1]
                cached = plans.get(key)
            except TypeError:  # not weak-referenceable, or unhashable key
                plans = None
                cached = None
            if cached is not None:
                self._cache_hits.inc()
                self.last_physical_plan = cached
                return cached
        self._cache_misses.inc()
        self._plans_built.inc()
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("plan"):
                plan = plan_bgp(active_graph, node.patterns)
            with tracer.span("lower") as span:
                physical_plan = physical.lower_plan(
                    plan, active_graph, conditions=conditions, profile=self.profile
                )
                span.annotate(space=physical_plan.space)
                if physical_plan.wcoj_fallback is not None:
                    span.annotate(wcoj_fallback=physical_plan.wcoj_fallback)
        else:
            plan = plan_bgp(active_graph, node.patterns)
            physical_plan = physical.lower_plan(
                plan, active_graph, conditions=conditions, profile=self.profile
            )
        if physical_plan.wcoj_fallback is not None:
            # Counted per fresh lowering, not per execution: the plan
            # cache replays the same decision without re-analysing it.
            self._wcoj_fallbacks.inc()
        if plans is not None:
            plans[key] = physical_plan
            if len(plans) > self.PLAN_CACHE_SIZE:
                del plans[next(iter(plans))]
                self._cache_evictions.inc()
        self.last_physical_plan = physical_plan
        return physical_plan

    def _eval_bgp_stream(
        self,
        node: BGP,
        active_graph: Graph,
        conditions: Tuple[Expression, ...] = (),
    ) -> Iterator[Binding]:
        """Plan, lower and stream a BGP through the physical executor.

        ``conditions`` are FILTER conjuncts scoped over the BGP; the
        lowering pass attaches each to the earliest operator binding its
        variables so non-qualifying rows die before later joins multiply
        them.  The choice of term-space vs id-space operators — and of
        the leapfrog-triejoin operator for cyclic BGPs — is made by the
        lowering pass per backend capability, shaped by the evaluator's
        profile.
        """
        physical_plan = self._lower_bgp(node, active_graph, conditions)
        engine = (
            self._id_path_engine(active_graph)
            if physical_plan.space == "id" and self.profile.use_id_paths
            else None
        )
        stream = physical.execute(
            physical_plan,
            active_graph,
            path_evaluator=self._eval_path_pattern,
            path_engine=engine,
        )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return self._traced_execution(physical_plan, stream, tracer)
        return stream

    def _traced_execution(
        self,
        physical_plan: physical.PhysicalPlan,
        stream: Iterator[Binding],
        tracer: Tracer,
    ) -> Iterator[Binding]:
        """Wrap a BGP execution stream in an ``execute`` span.

        The span covers first ``next()`` to exhaustion (or close: LIMIT /
        ASK short-circuits still finish it, via ``GeneratorExit``), and
        per-operator summaries are sampled once at stream exit as
        zero-duration events from the counters the batched flush points
        just populated — a handful of span records per query, never one
        per row.
        """
        with tracer.span("execute", space=physical_plan.space) as span:
            rows = 0
            try:
                for binding in stream:
                    rows += 1
                    yield binding
            finally:
                span.annotate(rows=rows)
                if physical_plan.wcoj_fallback is not None:
                    span.annotate(wcoj_fallback=physical_plan.wcoj_fallback)
                # Sample raw stats directly — describe() renders pattern
                # strings, far too costly for a per-execution hook.
                for operator in physical_plan.operators():
                    stats = operator.stats
                    tracer.event(
                        type(operator).__name__,
                        category="operator",
                        duration=stats.seconds,
                        rows=stats.rows,
                        probes=stats.probes,
                    )

    def explain(self, query: Query) -> str:
        """Render the physical operator plan for a query's pattern.

        Supports queries whose pattern is a planned BGP, optionally
        wrapped in FILTER nodes (the conjuncts show up as ``Filter``
        operators or leapfrog level filters).  The lowered plan is also
        left in :attr:`last_physical_plan` so callers can execute-then-
        inspect per-operator counters.
        """
        conditions: List[Expression] = []
        pattern: GraphPatternNode = query.pattern
        while isinstance(pattern, Filter):
            conditions.extend(conjuncts(pattern.condition))
            pattern = pattern.pattern
        if not isinstance(pattern, BGP) or not self._plannable_bgp(pattern):
            raise EvaluationError(
                "explain() supports planned BGPs (optionally FILTER-wrapped); "
                f"got {type(pattern).__name__}"
            )
        dataset = self._active_dataset(query.dataset_clauses)
        physical_plan = self._lower_bgp(
            pattern, dataset.default_graph, tuple(conditions)
        )
        return physical_plan.explain()

    def explain_analyze(self, query: Union[str, Query]) -> ExplainAnalyzeReport:
        """Execute a query's planned BGP and render the measured plan.

        Accepts a query string (parsed here, under a ``parse`` span when
        a tracer is attached) or a parsed query; supports the same shapes
        as :meth:`explain` — a planned BGP, optionally FILTER-wrapped.
        The plan executes with per-operator timing enabled
        (``execute(..., timed=True)``) and the stream is drained fully,
        so the report shows wall time, actual rows/probes, and the
        estimated-vs-actual cardinality error per operator — errors
        beyond 10x in either direction are flagged ``!``.  ``str()`` of
        the report is the rendered tree; the executed plan rides along
        for programmatic inspection.
        """
        if isinstance(query, str):
            from repro.sparql.parser import parse_query

            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                with tracer.span("parse"):
                    query = parse_query(query)
            else:
                query = parse_query(query)
        conditions: List[Expression] = []
        pattern: GraphPatternNode = query.pattern
        while isinstance(pattern, Filter):
            conditions.extend(conjuncts(pattern.condition))
            pattern = pattern.pattern
        pattern = self._as_bgp(pattern)
        if not isinstance(pattern, BGP) or not self._plannable_bgp(pattern):
            raise EvaluationError(
                "explain_analyze() supports planned BGPs (optionally "
                f"FILTER-wrapped); got {type(pattern).__name__}"
            )
        dataset = self._active_dataset(query.dataset_clauses)
        active_graph = dataset.default_graph
        physical_plan = self._lower_bgp(pattern, active_graph, tuple(conditions))
        engine = (
            self._id_path_engine(active_graph)
            if physical_plan.space == "id" and self.profile.use_id_paths
            else None
        )
        stream = physical.execute(
            physical_plan,
            active_graph,
            path_evaluator=self._eval_path_pattern,
            path_engine=engine,
            timed=True,
        )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            stream = self._traced_execution(physical_plan, stream, tracer)
        started = perf_counter()
        rows = sum(1 for _ in stream)
        total_seconds = perf_counter() - started
        return ExplainAnalyzeReport(
            text=physical_plan.explain_analyze(total_seconds=total_seconds),
            plan=physical_plan,
            total_seconds=total_seconds,
            rows=rows,
        )

    def _eval_pattern_stream(
        self,
        node: GraphPatternNode,
        active_graph: Graph,
        dataset: Dataset,
    ) -> Iterator[Binding]:
        """Lazily evaluate a pattern where streaming helps.

        Planned BGPs and FILTERs over them stream; every other node falls
        back to the materialising :meth:`_eval_pattern`.  Used by ASK and by
        LIMIT-only SELECTs so they stop as soon as enough solutions exist.
        """
        if isinstance(node, BGP) and self._plannable_bgp(node):
            return self._eval_bgp_stream(node, active_graph)
        if isinstance(node, Filter):
            pushed = self._try_filter_pushdown(node, active_graph, dataset)
            if pushed is not None:
                return pushed
            inner = self._eval_pattern_stream(node.pattern, active_graph, dataset)
            return (
                binding for binding in inner if satisfies(node.condition, binding)
            )
        return iter(self._eval_pattern(node, active_graph, dataset))

    def _eval_triple_pattern(self, pattern: Triple, graph: Graph) -> List[Binding]:
        return list(match_triple(graph, pattern, EMPTY_BINDING))

    def _join(self, left: List[Binding], right: List[Binding]) -> List[Binding]:
        """Bag join of two solution multisets on compatible mappings.

        A hash join on the shared variables that are bound on both sides is
        used when possible; mappings where a shared variable is unbound
        fall back to the nested-loop compatibility check.
        """
        if not left or not right:
            return []
        left_vars = set()
        for binding in left:
            left_vars |= binding.variables()
        right_vars = set()
        for binding in right:
            right_vars |= binding.variables()
        shared = tuple(sorted(left_vars & right_vars, key=lambda v: v.name))
        results: List[Binding] = []
        if shared:
            index: Dict[Tuple, List[Binding]] = defaultdict(list)
            loose_right: List[Binding] = []
            for binding in right:
                key = tuple(binding.get(var) for var in shared)
                if any(value is None for value in key):
                    loose_right.append(binding)
                else:
                    index[key].append(binding)
            for left_binding in left:
                key = tuple(left_binding.get(var) for var in shared)
                if any(value is None for value in key):
                    # Some shared variable is unbound on the left: fall back
                    # to the compatibility check against the full right side.
                    for right_binding in right:
                        if left_binding.is_compatible(right_binding):
                            results.append(left_binding.merge(right_binding))
                    continue
                # Both sides bind every shared variable with equal values,
                # and any variable common to the two bindings is shared —
                # the mappings are compatible by construction.
                for right_binding in index.get(key, ()):
                    results.append(left_binding.merge(right_binding))
                for right_binding in loose_right:
                    if left_binding.is_compatible(right_binding):
                        results.append(left_binding.merge(right_binding))
        else:
            for left_binding in left:
                for right_binding in right:
                    if left_binding.is_compatible(right_binding):
                        results.append(left_binding.merge(right_binding))
        return results

    def _eval_left_join(
        self, node: LeftJoin, active_graph: Graph, dataset: Dataset
    ) -> List[Binding]:
        left = self._eval_pattern(node.left, active_graph, dataset)
        if not left:
            return []
        right, residual = self._eval_optional_right(node, active_graph, dataset)
        results: List[Binding] = []
        for left_binding in left:
            extended: List[Binding] = []
            for right_binding in right:
                if left_binding.is_compatible(right_binding):
                    merged = left_binding.merge(right_binding)
                    if all(satisfies(c, merged) for c in residual):
                        extended.append(merged)
            if extended:
                results.extend(extended)
            else:
                results.append(left_binding)
        return results

    def _eval_optional_right(
        self, node: LeftJoin, active_graph: Graph, dataset: Dataset
    ) -> Tuple[List[Binding], Tuple[Expression, ...]]:
        """Evaluate an OPTIONAL's right side, pushing eligible conjuncts.

        A conjunct of the OPTIONAL condition whose variables are all
        bound by the right-side BGP has the same verdict on the bare
        right row as on any merged row: the BGP binds every one of its
        variables, and merge compatibility forces shared values equal.
        Such conjuncts are pushed into the right pipeline (composing
        with FILTER wrappers already inside the OPTIONAL); the rest stay
        as residual conditions applied per merged pair.  Per-conjunct
        application is faithful to the conjunction: an errored conjunct
        reads as unsatisfied either way.
        """
        condition_conjuncts: Tuple[Expression, ...] = (
            tuple(conjuncts(node.condition)) if node.condition is not None else ()
        )
        if condition_conjuncts and self.profile.use_filter_pushdown:
            inner_conditions: List[Expression] = []
            core: GraphPatternNode = node.right
            while isinstance(core, Filter):
                inner_conditions.extend(conjuncts(core.condition))
                core = core.pattern
            core = self._as_bgp(core)
            if isinstance(core, BGP) and self._plannable_bgp(core):
                core_variables = core.variables()
                pushed: List[Expression] = []
                kept: List[Expression] = []
                for conjunct in condition_conjuncts:
                    variables = conjunct.variables()
                    if variables and variables <= core_variables:
                        pushed.append(conjunct)
                    else:
                        kept.append(conjunct)
                if pushed:
                    rows = list(
                        self._eval_bgp_stream(
                            core,
                            active_graph,
                            tuple(inner_conditions) + tuple(pushed),
                        )
                    )
                    return rows, tuple(kept)
        right = self._eval_pattern(node.right, active_graph, dataset)
        return right, condition_conjuncts

    def _eval_minus(
        self, node: Minus, active_graph: Graph, dataset: Dataset
    ) -> List[Binding]:
        left = self._eval_pattern(node.left, active_graph, dataset)
        if not left:
            return []
        right = self._eval_pattern(node.right, active_graph, dataset)
        results: List[Binding] = []
        for left_binding in left:
            excluded = False
            for right_binding in right:
                shared = left_binding.variables() & right_binding.variables()
                if shared and left_binding.is_compatible(right_binding):
                    excluded = True
                    break
            if not excluded:
                results.append(left_binding)
        return results

    def _eval_graph(self, node: GraphGraphPattern, dataset: Dataset) -> List[Binding]:
        if isinstance(node.graph, Variable):
            results: List[Binding] = []
            for name, graph in dataset.named_graphs.items():
                inner = self._eval_pattern(node.pattern, graph, dataset)
                name_binding = Binding({node.graph: name})
                for binding in inner:
                    if binding.is_compatible(name_binding):
                        results.append(binding.merge(name_binding))
            return results
        graph = dataset.named_graphs.get(node.graph)
        if graph is None:
            return []
        return self._eval_pattern(node.pattern, graph, dataset)

    def _eval_bind(
        self, node: Bind, active_graph: Graph, dataset: Dataset
    ) -> List[Binding]:
        inner = self._eval_pattern(node.pattern, active_graph, dataset)
        results: List[Binding] = []
        for binding in inner:
            try:
                value = evaluate_expression(node.expression, binding)
            except ExpressionError:
                results.append(binding)
                continue
            if node.variable in binding and binding[node.variable] != value:
                continue
            results.append(binding.extend(node.variable, value))
        return results

    def _eval_values(self, node: ValuesPattern) -> List[Binding]:
        results: List[Binding] = []
        for row in node.rows:
            mapping = {
                variable: value
                for variable, value in zip(node.variables_list, row)
                if value is not None
            }
            results.append(Binding(mapping))
        return results

    # ------------------------------------------------------------------
    # property paths
    # ------------------------------------------------------------------
    def _eval_path_pattern(self, node: PathPattern, graph: Graph) -> List[Binding]:
        """Evaluate a path pattern, preferring the id-native engine.

        On an id-capable graph (the encoded store) paths run through
        :class:`repro.sparql.idpaths.IdPathEngine` — integer frontier
        sets, statistics-driven expansion direction, decode only at the
        result boundary.  A profile with ``use_id_paths`` off (or a
        term-only backend) recovers the spec's term-level ALP procedure.
        """
        if self.profile.use_id_paths:
            engine = self._id_path_engine(graph)
            if engine is not None:
                return engine.evaluate(node)
        return self._eval_path_pattern_terms(node, graph)

    #: Upper bound on cached per-graph path engines.
    PATH_ENGINE_CACHE_SIZE = 8

    def _id_path_engine(self, graph: Graph) -> Optional[IdPathEngine]:
        """Return the (cached) id path engine for ``graph``, or ``None``."""
        cache = self._path_engine_cache
        engine = cache.get(id(graph))
        if engine is not None and engine.graph is graph:
            cache.move_to_end(id(graph))
            return engine
        if not supports_id_paths(graph):
            return None
        engine = IdPathEngine(graph)
        cache[id(graph)] = engine
        if len(cache) > self.PATH_ENGINE_CACHE_SIZE:
            cache.popitem(last=False)
        return engine

    def _eval_path_pattern_terms(
        self, node: PathPattern, graph: Graph
    ) -> List[Binding]:
        path = normalize_path(node.path)
        subject, obj = node.subject, node.object
        pairs = self._path_pairs(path, graph, subject, obj)
        results: List[Binding] = []
        for start, end in pairs:
            mapping: Dict[Variable, Term] = {}
            if isinstance(subject, Variable):
                mapping[subject] = start
            elif subject != start:
                continue
            if isinstance(obj, Variable):
                if obj in mapping and mapping[obj] != end:
                    continue
                mapping[obj] = end
            elif obj != end:
                continue
            results.append(Binding(mapping))
        return results

    def _path_pairs(
        self,
        path: PropertyPath,
        graph: Graph,
        subject: Union[Term, Variable],
        obj: Union[Term, Variable],
    ) -> List[Tuple[Term, Term]]:
        """Return the (start, end) pairs matched by a path expression.

        Non-closure operators preserve duplicates; the closure operators
        return distinct pairs, following the SPARQL property-path
        semantics.
        """
        if isinstance(path, LinkPath):
            return [
                (triple.subject, triple.object)
                for triple in graph.triples(None, path.iri, None)
            ]
        if isinstance(path, InversePath):
            return [
                (end, start)
                for start, end in self._path_pairs(path.path, graph, obj, subject)
            ]
        if isinstance(path, AlternativePath):
            return self._path_pairs(path.left, graph, subject, obj) + self._path_pairs(
                path.right, graph, subject, obj
            )
        if isinstance(path, SequencePath):
            left_pairs = self._path_pairs(path.left, graph, subject, None)
            right_pairs = self._path_pairs(path.right, graph, None, obj)
            by_start: Dict[Term, List[Term]] = defaultdict(list)
            for start, end in right_pairs:
                by_start[start].append(end)
            if matches_zero_length(path.left):
                # A bound endpoint outside the graph self-pairs through a
                # zero-length left half, but the left extension only
                # self-pairs graph nodes; graft the missing pair so the
                # join can reach it (mirrors the id engine's per-middle
                # evaluation, which gets this for free).  When the middle
                # *is* the bound subject, the left extension already
                # contains the self-pair (the bound-endpoint zero rule) —
                # grafting again would double the solution.
                for middle in list(by_start):
                    if self._is_ground(subject) and subject == middle:
                        continue
                    if not self._is_graph_node(graph, middle):
                        left_pairs.append((middle, middle))
            right_zero = matches_zero_length(path.right)
            results: List[Tuple[Term, Term]] = []
            for start, middle in left_pairs:
                ends = by_start.get(middle)
                if ends is None:
                    # Symmetric graft: a non-node middle (a zero-length
                    # self-pair of a bound subject) matches a zero-length
                    # right half even though the right extension never
                    # mentions it.
                    if right_zero and not self._is_graph_node(graph, middle):
                        ends = (middle,)
                    else:
                        continue
                for end in ends:  # bag semantics
                    results.append((start, end))
            return results
        if isinstance(path, NegatedPropertySet):
            return self._negated_pairs(path, graph)
        if isinstance(path, ZeroOrOnePath):
            return self._zero_or_one_pairs(path, graph, subject, obj)
        if isinstance(path, OneOrMorePath):
            return self._closure_pairs(path.path, graph, subject, obj, include_zero=False)
        if isinstance(path, ZeroOrMorePath):
            return self._closure_pairs(path.path, graph, subject, obj, include_zero=True)
        raise EvaluationError(f"unsupported property path {path!r}")

    def _negated_pairs(
        self, path: NegatedPropertySet, graph: Graph
    ) -> List[Tuple[Term, Term]]:
        forbidden_forward = set(path.forward)
        forbidden_inverse = set(path.inverse)
        results: List[Tuple[Term, Term]] = []
        if path.forward or not path.inverse:
            for triple in graph:
                if triple.predicate not in forbidden_forward:
                    results.append((triple.subject, triple.object))
        if path.inverse:
            for triple in graph:
                if triple.predicate not in forbidden_inverse:
                    results.append((triple.object, triple.subject))
        return results

    @staticmethod
    def _is_graph_node(graph: Graph, term: Term) -> bool:
        """True when ``term`` occurs in subject or object position."""
        return bool(
            graph.subject_cardinality(term) or graph.object_cardinality(term)
        )

    @staticmethod
    def _is_ground(part: Union[Term, Variable, None]) -> bool:
        """True for a bound term endpoint (``None`` marks a free position).

        ``_path_pairs`` threads endpoint *hints* down the operator tree;
        a sequence hands its halves ``None`` for the shared middle, which
        must read as "free", never as a bindable term.
        """
        return part is not None and not isinstance(part, Variable)

    def _zero_pairs(
        self,
        graph: Graph,
        subject: Union[Term, Variable, None],
        obj: Union[Term, Variable, None],
    ) -> Set[Tuple[Term, Term]]:
        """Zero-length path pairs, including bound endpoints not in the graph."""
        pairs: Set[Tuple[Term, Term]] = {(node, node) for node in graph.nodes()}
        subject_is_term = self._is_ground(subject)
        object_is_term = self._is_ground(obj)
        if subject_is_term and not object_is_term:
            pairs.add((subject, subject))
        if object_is_term and not subject_is_term:
            pairs.add((obj, obj))
        if subject_is_term and object_is_term and subject == obj:
            pairs.add((subject, subject))
        return pairs

    def _zero_or_one_pairs(
        self,
        path: ZeroOrOnePath,
        graph: Graph,
        subject: Union[Term, Variable],
        obj: Union[Term, Variable],
    ) -> List[Tuple[Term, Term]]:
        pairs = set(self._zero_pairs(graph, subject, obj))
        pairs.update(self._path_pairs(path.path, graph, subject, obj))
        return list(pairs)

    def _closure_pairs(
        self,
        inner: PropertyPath,
        graph: Graph,
        subject: Union[Term, Variable, None],
        obj: Union[Term, Variable, None],
        include_zero: bool,
    ) -> List[Tuple[Term, Term]]:
        """Evaluate ``inner+`` / ``inner*`` with set semantics.

        Per-node breadth-first expansion in the style of the spec's ALP
        procedure.  When the subject is bound we expand only from it —
        and when the object is *also* bound, the expansion stops at the
        first sighting of the target instead of materialising the full
        reachable set.  When only the object is bound we expand
        backwards; otherwise we expand from every node in the graph (the
        expensive two-variable case).  ``None`` endpoints (sequence
        middles) count as free, exactly like fresh variables.
        """
        successors = self._single_step_function(inner, graph)
        pairs: Set[Tuple[Term, Term]] = set()

        def expand(start: Term, target: Optional[Term] = None) -> Set[Term]:
            reached: Set[Term] = set()
            frontier = deque(successors(start))
            while frontier:
                current = frontier.popleft()
                if current in reached:
                    continue
                reached.add(current)
                if target is not None and current == target:
                    # The caller only asks whether ``target`` is
                    # reachable: the rest of the closure is never needed.
                    return reached
                frontier.extend(successors(current))
            return reached

        if self._is_ground(subject):
            if self._is_ground(obj):
                if include_zero and subject == obj:
                    return [(subject, obj)]
                reachable = expand(subject, target=obj)
                return [(subject, obj)] if obj in reachable else []
            reachable = expand(subject)
            if include_zero:
                reachable = reachable | {subject}
            return [(subject, end) for end in reachable]

        if self._is_ground(obj):
            inverse = InversePath(inner)
            inverted = self._closure_pairs(inverse, graph, obj, subject, include_zero)
            return [(end, start) for start, end in inverted]

        # Two unbound endpoints: expand from every node of the graph.
        start_nodes = graph.nodes()
        for start in start_nodes:
            reachable = expand(start)
            if include_zero:
                reachable = reachable | {start}
            for end in reachable:
                pairs.add((start, end))
        if include_zero:
            pairs.update(self._zero_pairs(graph, subject, obj))
        return list(pairs)

    def _single_step_function(self, path: PropertyPath, graph: Graph):
        """Return a function mapping a node to its one-step path successors."""
        if isinstance(path, LinkPath):
            predicate = path.iri

            def link_step(node: Term) -> List[Term]:
                return [t.object for t in graph.triples(node, predicate, None)]

            return link_step

        if isinstance(path, InversePath) and isinstance(path.path, LinkPath):
            predicate = path.path.iri

            def inverse_step(node: Term) -> List[Term]:
                return [t.subject for t in graph.triples(None, predicate, node)]

            return inverse_step

        def generic_step(node: Term) -> List[Term]:
            return [
                end
                for start, end in self._path_pairs(path, graph, node, None)
                if start == node
            ]

        return generic_step

    # ------------------------------------------------------------------
    # solution modifiers
    # ------------------------------------------------------------------
    def _apply_projection_expressions(
        self, query: SelectQuery, bindings: List[Binding]
    ) -> List[Binding]:
        """Evaluate (expr AS ?var) projection items for non-grouped queries."""
        expression_items = [
            item for item in query.projection if item.expression is not None
        ]
        if not expression_items:
            return bindings
        results: List[Binding] = []
        for binding in bindings:
            extended = binding
            for item in expression_items:
                try:
                    value = evaluate_expression(item.expression, binding)
                except ExpressionError:
                    continue
                extended = extended.extend(item.variable, value)
            results.append(extended)
        return results

    def _apply_grouping(
        self, query: SelectQuery, bindings: List[Binding]
    ) -> List[Binding]:
        group_keys = query.group_by
        groups: Dict[Tuple, List[Binding]] = defaultdict(list)
        for binding in bindings:
            key_parts = []
            for key_expression in group_keys:
                try:
                    key_parts.append(evaluate_expression(key_expression, binding))
                except ExpressionError:
                    key_parts.append(None)
            groups[tuple(key_parts)].append(binding)
        if not group_keys:
            groups = {(): bindings}

        results: List[Binding] = []
        for key_parts, group in groups.items():
            if not group and not bindings:
                continue
            mapping: Dict[Variable, Term] = {}
            for key_expression, value in zip(group_keys, key_parts):
                from repro.sparql.expressions import VariableExpr

                if isinstance(key_expression, VariableExpr) and value is not None:
                    mapping[key_expression.variable] = value
            for item in query.projection:
                if item.expression is None:
                    if group and item.variable in group[0]:
                        mapping[item.variable] = group[0][item.variable]
                    continue
                if isinstance(item.expression, Aggregate):
                    value = self._evaluate_aggregate(item.expression, group)
                else:
                    try:
                        value = evaluate_expression(item.expression, group[0]) if group else None
                    except ExpressionError:
                        value = None
                if value is not None:
                    mapping[item.variable] = value
            candidate = Binding(mapping)
            if query.having is not None and not satisfies(query.having, candidate):
                continue
            results.append(candidate)
        return results

    def _evaluate_aggregate(
        self, aggregate: Aggregate, group: List[Binding]
    ) -> Optional[Term]:
        values: List[Term] = []
        if aggregate.argument is None:
            values = [Literal.from_python(1) for _ in group]
        else:
            for binding in group:
                try:
                    values.append(evaluate_expression(aggregate.argument, binding))
                except ExpressionError:
                    continue
        if aggregate.distinct:
            seen = set()
            unique: List[Term] = []
            for value in values:
                if value not in seen:
                    seen.add(value)
                    unique.append(value)
            values = unique
        operation = aggregate.operation.upper()
        if operation == "COUNT":
            return Literal.from_python(len(values))
        if not values:
            return None
        if operation == "SAMPLE":
            return values[0]
        if operation in ("MIN", "MAX"):
            ordered = sorted(values, key=term_sort_key)
            return ordered[0] if operation == "MIN" else ordered[-1]
        numeric: List[float] = []
        for value in values:
            if isinstance(value, Literal):
                as_python = value.as_python()
                if isinstance(as_python, (int, float)) and not isinstance(as_python, bool):
                    numeric.append(as_python)
        if not numeric:
            return None
        if operation == "SUM":
            total = sum(numeric)
            return Literal.from_python(int(total) if float(total).is_integer() else total)
        if operation == "AVG":
            return Literal.from_python(sum(numeric) / len(numeric))
        raise EvaluationError(f"unsupported aggregate {operation}")

    def _apply_order_by(
        self, conditions: Sequence[OrderCondition], bindings: List[Binding]
    ) -> List[Binding]:
        return apply_order_by(conditions, bindings)


def apply_order_by(
    conditions: Sequence[OrderCondition], bindings: List[Binding]
) -> List[Binding]:
    """Sort bindings by the ORDER BY conditions.

    SPARQL ranks an unbound (or errored) key lowest, and DESC reverses
    the whole ordering — so unbound rows sort strictly *first* under ASC
    and strictly *last* under DESC, matching the reference engines (Jena
    ARQ, Virtuoso).  The bound/unbound flag therefore participates in the
    direction: ASC keeps ``(0, unbound) < (1, bound)`` while DESC flips
    the flag and wraps the bound part in the comparison inverter, giving
    ``(0, bound-descending) < (1, unbound)``.  Within one flag value the
    compared shapes are always identical (both unbound, or both wrapped
    the same way).  Shared by the reference evaluator and the
    translated-solution engine so both stay order-consistent.
    """

    def sort_key(binding: Binding):
        key = []
        for condition in conditions:
            try:
                value = evaluate_expression(condition.expression, binding)
            except ExpressionError:
                value = None
            if value is None:
                key.append((0, ()) if condition.ascending else (1, ()))
            else:
                part = term_sort_key(value)
                key.append(
                    (1, part) if condition.ascending else (0, _Reversed(part))
                )
        return key

    return sorted(bindings, key=sort_key)


class _Reversed:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed"):
        if not isinstance(other, _Reversed):
            return NotImplemented
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value
