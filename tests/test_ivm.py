"""Tests for incremental view maintenance and change capture.

Four layers:

* change-capture units — both store backends notify listeners of exactly
  the effective mutations, through every mutation path (``add``/``remove``,
  bulk loaders, Turtle streaming, snapshots bump the version stamp),
* delta-view units — O(|Δ|) maintenance matches fresh evaluation through
  add/remove churn, multiplicities, DISTINCT support transitions,
  subscriptions, subscriber fault containment and close(),
* loader regressions — a view can never serve stale rows after *any*
  loader touched its graph,
* a hypothesis differential — random add/remove churn against random
  BGP + FILTER views on both backends: the maintained Z-set equals the
  re-evaluated multiset at every step.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import create_engine
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Literal, Triple, Variable, XSD_INTEGER
from repro.rdf.turtle import parse_turtle
from repro.sparql.algebra import BGP, Filter, ProjectionItem, SelectQuery, TriplePatternNode
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.expressions import Comparison, FunctionCall, TermExpr, VariableExpr
from repro.sparql.parser import parse_query
from repro.store import EncodedGraph, bulk_load_ntriples, load_snapshot, save_snapshot
from repro.ivm import ViewRegistry, zset_diff, zset_from_rows, zset_merge

from tests.helpers import EX

BACKENDS = [Graph, EncodedGraph]


def tp(subject, predicate, obj):
    return TriplePatternNode(Triple(subject, predicate, obj))


def chain(a, b):
    return Triple(EX[f"n{a}"], EX.p, EX[f"n{b}"])


TWO_HOP = (
    "PREFIX ex: <http://ex.org/>\n"
    "SELECT ?a ?c WHERE { ?a ex:p ?b . ?b ex:p ?c . FILTER(?a != ?c) }"
)


def fresh_counter(evaluator, query):
    return Counter(tuple(row) for row in evaluator.evaluate(query).rows())


# ----------------------------------------------------------------------
# change capture
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestChangeCapture:
    def test_effective_mutations_notify_after_the_fact(self, backend):
        graph = backend()
        seen = []

        def listener(batch):
            # Post-mutation protocol: the graph already reflects the batch.
            for triple, weight in batch:
                assert (triple in graph) == (weight > 0)
            seen.extend(batch)

        graph.add_change_listener(listener)
        triple = chain(1, 2)
        graph.add(triple)
        graph.add(triple)  # duplicate: not an effective mutation
        graph.remove(triple)
        graph.remove(triple)  # already gone
        assert seen == [(triple, 1), (triple, -1)]

    def test_removed_listener_stops_receiving(self, backend):
        graph = backend()
        seen = []
        listener = seen.append
        graph.add_change_listener(listener)
        graph.add(chain(1, 2))
        graph.remove_change_listener(listener)
        graph.remove_change_listener(listener)  # idempotent
        graph.add(chain(2, 3))
        assert len(seen) == 1


class TestEncodedLoaderCapture:
    def test_bulk_load_fresh_notifies_per_insert(self):
        graph = EncodedGraph()
        seen = []
        graph.add_change_listener(seen.extend)
        bulk_load_ntriples(
            "<http://ex.org/n1> <http://ex.org/p> <http://ex.org/n2> .\n"
            "<http://ex.org/n2> <http://ex.org/p> <http://ex.org/n3> .\n"
            "<http://ex.org/n1> <http://ex.org/p> <http://ex.org/n2> .\n",
            graph,
        )
        assert seen == [(chain(1, 2), 1), (chain(2, 3), 1)]

    def test_bulk_load_incremental_notifies(self):
        graph = EncodedGraph([chain(1, 2)])
        seen = []
        graph.add_change_listener(seen.extend)
        bulk_load_ntriples(
            "<http://ex.org/n1> <http://ex.org/p> <http://ex.org/n2> .\n"
            "<http://ex.org/n5> <http://ex.org/p> <http://ex.org/n6> .\n",
            graph,
        )
        assert seen == [(chain(5, 6), 1)]

    def test_turtle_streaming_notifies(self):
        graph = EncodedGraph()
        seen = []
        graph.add_change_listener(seen.extend)
        parse_turtle(
            "@prefix ex: <http://ex.org/> . ex:n1 ex:p ex:n2 .", graph=graph
        )
        assert seen == [(chain(1, 2), 1)]

    def test_snapshot_load_bumps_version(self, tmp_path):
        target = tmp_path / "graph.snap"
        save_snapshot(EncodedGraph([chain(1, 2)]), target)
        loaded = load_snapshot(target)
        # A non-empty load is a mutation of the fresh graph: version-keyed
        # consumers (plan caches, views) must see a distinct stamp.
        assert loaded.version > EncodedGraph().version


# ----------------------------------------------------------------------
# delta views
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestDeltaViews:
    def _engine(self, backend, triples=()):
        return create_engine(backend(list(triples)))

    def test_two_hop_churn_matches_reference(self, backend):
        engine = self._engine(backend, [chain(1, 2), chain(2, 3)])
        view = engine.materialize(TWO_HOP)
        assert view.maintenance == "delta"
        query = parse_query(TWO_HOP)
        script = [
            ("add", chain(3, 4)),
            ("add", chain(4, 1)),
            ("remove", chain(2, 3)),
            ("add", chain(2, 3)),
            ("remove", chain(1, 2)),
            ("add", chain(5, 5)),  # self loop: killed by the FILTER
            ("remove", chain(4, 1)),
        ]
        for action, triple in script:
            getattr(engine.graph, action)(triple)
            assert Counter(view.rows()) == fresh_counter(engine.evaluator, query)

    def test_bag_multiplicities_maintained(self, backend):
        # SELECT ?a projects away ?b: two outgoing edges → multiplicity 2.
        engine = self._engine(backend, [chain(1, 2), chain(1, 3)])
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?a WHERE { ?a ex:p ?b }"
        )
        assert view.maintenance == "delta"
        assert view.rows() == [(EX.n1,), (EX.n1,)]
        engine.graph.remove(chain(1, 3))
        assert view.rows() == [(EX.n1,)]
        engine.graph.remove(chain(1, 2))
        assert view.rows() == []

    def test_distinct_view_reports_support_transitions(self, backend):
        engine = self._engine(backend, [chain(1, 2), chain(1, 3)])
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT DISTINCT ?a WHERE { ?a ex:p ?b }"
        )
        assert view.maintenance == "delta"
        events = []
        view.on_change(events.append)
        engine.graph.add(chain(1, 4))  # multiplicity 2 → 3: no transition
        assert events == []
        engine.graph.remove(chain(1, 2))
        engine.graph.remove(chain(1, 3))
        assert events == []  # still supported by n1 -> n4
        engine.graph.remove(chain(1, 4))
        assert events == [[((EX.n1,), -1)]]
        assert view.rows() == []

    def test_on_change_delivers_weighted_rows_and_unsubscribes(self, backend):
        engine = self._engine(backend, [chain(1, 2)])
        view = engine.materialize(TWO_HOP)
        events = []
        unsubscribe = view.on_change(events.append)
        engine.graph.add(chain(2, 3))
        assert events == [[((EX.n1, EX.n3), 1)]]
        unsubscribe()
        engine.graph.remove(chain(2, 3))
        assert len(events) == 1

    def test_raising_subscriber_is_contained(self, backend, caplog):
        # A subscriber that raises must neither fail the write that fed
        # it nor starve the subscribers of other views.
        engine = self._engine(backend, [chain(1, 2)])
        broken = engine.materialize(TWO_HOP)
        healthy = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?a WHERE { ?a ex:p ?b }"
        )

        def explode(events):
            raise RuntimeError("subscriber bug")

        broken.on_change(explode)
        received = []
        healthy.on_change(received.append)
        with caplog.at_level("ERROR", logger="repro.ivm.views"):
            for index in range(2, 5):
                engine.graph.add(chain(index, index + 1))
        assert received == [[((EX[f"n{index}"],), 1)] for index in range(2, 5)]
        assert engine.metrics()["ivm_callback_errors_total"] == 3
        failures = [r for r in caplog.records if r.name == "repro.ivm.views"]
        assert len(failures) == 3
        assert all(r.exc_info[0] is RuntimeError for r in failures)
        assert sorted(broken.rows()) == [
            (EX.n1, EX.n3), (EX.n2, EX.n4), (EX.n3, EX.n5)
        ]
        assert len(healthy.rows()) == 4

    def test_closed_view_detaches_and_refuses_reads(self, backend):
        engine = self._engine(backend, [chain(1, 2)])
        view = engine.materialize(TWO_HOP)
        assert len(engine.graph._delta_listeners) == 1
        view.close()
        assert engine.graph._delta_listeners == []
        engine.graph.add(chain(2, 3))  # must not blow up
        with pytest.raises(RuntimeError):
            view.rows()
        view.close()  # idempotent

    def test_engine_close_closes_views(self, backend):
        engine = self._engine(backend, [chain(1, 2)])
        view = engine.materialize(TWO_HOP)
        engine.close()
        assert view.closed
        assert engine.graph._delta_listeners == []
        with pytest.raises(RuntimeError):
            engine.materialize(TWO_HOP)

    def test_view_over_non_default_graph(self, backend):
        engine = self._engine(backend, [chain(1, 2)])
        other = backend([chain(7, 8)])
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?a WHERE { ?a ex:p ?b }",
            graph=other,
        )
        assert view.rows() == [(EX.n7,)]
        other.add(chain(8, 9))
        assert view.rows() == [(EX.n7,), (EX.n8,)]


# ----------------------------------------------------------------------
# re-evaluation fallback
# ----------------------------------------------------------------------
class TestReevalFallback:
    def test_path_query_falls_back_and_stays_fresh(self):
        engine = create_engine(EncodedGraph([chain(1, 2), chain(2, 3)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?x WHERE { ex:n1 ex:p+ ?x }"
        )
        assert view.maintenance == "reeval"
        engine.graph.add(chain(3, 4))
        assert view.rows() == [(EX.n2,), (EX.n3,), (EX.n4,)]
        engine.graph.remove(chain(2, 3))
        assert view.rows() == [(EX.n2,)]

    def test_cyclic_bgp_leapfrog_plan_falls_back(self):
        triangle = (
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?a ?b ?c WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a }"
        )
        engine = create_engine(EncodedGraph([chain(1, 2), chain(2, 3)]))
        view = engine.materialize(triangle)
        # The encoded backend lowers this cyclic BGP to LeapfrogJoin,
        # which does not differentiate.
        assert view.maintenance == "reeval"
        engine.graph.add(chain(3, 1))
        assert len(view.rows()) == 3

    def test_irrelevant_predicate_batches_are_gated(self):
        engine = create_engine(EncodedGraph([chain(1, 2), chain(2, 3)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?a ?c WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a }"
        )
        assert view.maintenance == "reeval"
        view.rows()
        before = engine.metrics()
        engine.graph.add(Triple(EX.n1, EX.unrelated, EX.n2))
        after = engine.metrics()
        assert (
            after["ivm_skipped_batches_total"]
            == before["ivm_skipped_batches_total"] + 1
        )
        assert (
            after["ivm_view_refreshes_total"] == before["ivm_view_refreshes_total"]
        )
        # The gate kept the view synchronised: reading does not refresh.
        view.rows()
        assert (
            engine.metrics()["ivm_view_refreshes_total"]
            == before["ivm_view_refreshes_total"]
        )

    def test_unsubscribed_fallback_defers_reevaluation_to_reads(self):
        engine = create_engine(EncodedGraph([chain(1, 2), chain(2, 3)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?x WHERE { ex:n1 ex:p+ ?x }"
        )
        baseline = engine.metrics()["ivm_view_refreshes_total"]
        engine.graph.add(chain(3, 4))
        engine.graph.add(chain(4, 5))
        engine.graph.add(chain(5, 6))
        # No subscriber: the three mutations cost zero re-evaluations ...
        assert engine.metrics()["ivm_view_refreshes_total"] == baseline
        # ... and the next read pays exactly one.
        assert len(view.rows()) == 5
        assert engine.metrics()["ivm_view_refreshes_total"] == baseline + 1

    def test_subscribed_fallback_notifies_on_mutation(self):
        engine = create_engine(EncodedGraph([chain(1, 2)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?x WHERE { ex:n1 ex:p+ ?x }"
        )
        events = []
        view.on_change(events.append)
        engine.graph.add(chain(2, 3))
        assert events == [[((EX.n3,), 1)]]

    def test_union_view_stays_fresh(self):
        engine = create_engine(Graph([chain(1, 2)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?s WHERE { { ?s ex:p ?o } UNION { ?o ex:p ?s } }"
        )
        assert view.maintenance == "reeval"
        assert view.rows() == [(EX.n1,), (EX.n2,)]
        engine.graph.add(chain(2, 3))
        assert view.rows() == [(EX.n1,), (EX.n2,), (EX.n2,), (EX.n3,)]


# ----------------------------------------------------------------------
# unsupported shapes
# ----------------------------------------------------------------------
class TestMaterializeValidation:
    def test_ask_queries_are_rejected(self):
        engine = create_engine(Graph())
        with pytest.raises(ValueError):
            engine.materialize("ASK { ?s ?p ?o }")

    def test_from_clauses_are_rejected(self):
        engine = create_engine(Graph())
        with pytest.raises(ValueError):
            engine.materialize(
                "SELECT ?s FROM <http://ex.org/g> WHERE { ?s ?p ?o }"
            )

    def test_graph_patterns_are_rejected(self):
        engine = create_engine(Graph())
        with pytest.raises(ValueError):
            engine.materialize(
                "SELECT ?s WHERE { GRAPH <http://ex.org/g> { ?s ?p ?o } }"
            )


# ----------------------------------------------------------------------
# loader regressions: a stale view is impossible
# ----------------------------------------------------------------------
class TestLoaderFreshness:
    QUERY = "PREFIX ex: <http://ex.org/>\nSELECT ?a ?b WHERE { ?a ex:p ?b }"

    def _view(self, graph):
        engine = create_engine(graph)
        return engine, engine.materialize(self.QUERY)

    def test_fresh_bulk_load_cannot_leave_a_stale_view(self):
        graph = EncodedGraph()
        engine, view = self._view(graph)
        assert view.rows() == []
        bulk_load_ntriples(
            "<http://ex.org/n1> <http://ex.org/p> <http://ex.org/n2> .", graph
        )
        assert view.rows() == [(EX.n1, EX.n2)]

    def test_incremental_bulk_load_cannot_leave_a_stale_view(self):
        graph = EncodedGraph([chain(1, 2)])
        engine, view = self._view(graph)
        assert view.rows() == [(EX.n1, EX.n2)]
        bulk_load_ntriples(
            "<http://ex.org/n2> <http://ex.org/p> <http://ex.org/n3> .", graph
        )
        assert view.rows() == [(EX.n1, EX.n2), (EX.n2, EX.n3)]

    def test_turtle_streaming_cannot_leave_a_stale_view(self):
        graph = EncodedGraph()
        engine, view = self._view(graph)
        assert view.rows() == []
        parse_turtle(
            "@prefix ex: <http://ex.org/> . ex:n1 ex:p ex:n2 .", graph=graph
        )
        assert view.rows() == [(EX.n1, EX.n2)]

    def test_hash_update_loop_cannot_leave_a_stale_view(self):
        graph = Graph()
        engine, view = self._view(graph)
        graph.update([chain(1, 2), chain(2, 3)])
        assert view.rows() == [(EX.n1, EX.n2), (EX.n2, EX.n3)]

    def test_snapshot_roundtrip_is_version_distinct(self, tmp_path):
        target = tmp_path / "graph.snap"
        save_snapshot(EncodedGraph([chain(1, 2)]), target)
        loaded = load_snapshot(target)
        engine, view = self._view(loaded)
        assert view.rows() == [(EX.n1, EX.n2)]
        # The load bumped the version, so evaluator plan caches keyed by
        # (graph id, version) can never alias a dead pre-load stamp.
        assert loaded.version > 0
        loaded.add(chain(2, 3))
        assert view.rows() == [(EX.n1, EX.n2), (EX.n2, EX.n3)]


# ----------------------------------------------------------------------
# registry bookkeeping
# ----------------------------------------------------------------------
class TestRegistry:
    def test_one_listener_per_graph_and_detach_on_last_close(self):
        graph = Graph([chain(1, 2)])
        registry = ViewRegistry(SparqlEvaluator(Dataset.from_graph(graph)))
        query = "PREFIX ex: <http://ex.org/>\nSELECT ?a WHERE { ?a ex:p ?b }"
        first = registry.materialize(query)
        second = registry.materialize(query)
        assert len(graph._delta_listeners) == 1
        first.close()
        assert len(graph._delta_listeners) == 1
        second.close()
        assert graph._delta_listeners == []

    def test_metrics_registered(self):
        engine = create_engine(Graph([chain(1, 2)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?a WHERE { ?a ex:p ?b }"
        )
        engine.graph.add(chain(2, 3))
        snapshot = engine.metrics()
        assert snapshot["ivm_views_active"] == 1
        assert snapshot["ivm_delta_batches_total"] == 1
        assert snapshot["ivm_delta_rows_total"] == 1
        view.close()
        assert engine.metrics()["ivm_views_active"] == 0


# ----------------------------------------------------------------------
# z-set primitives
# ----------------------------------------------------------------------
class TestZSets:
    def test_merge_drops_zeroed_entries(self):
        target = {"a": 1, "b": 2}
        zset_merge(target, {"a": -1, "b": 1, "c": -3})
        assert target == {"b": 3, "c": -3}

    def test_diff_roundtrips(self):
        old = zset_from_rows(["a", "a", "b"])
        new = zset_from_rows(["a", "c"])
        delta = zset_diff(new, old)
        assert delta == {"a": -1, "b": -1, "c": 1}
        zset_merge(old, delta)
        assert old == new


# ----------------------------------------------------------------------
# hypothesis differential: random churn vs random views
# ----------------------------------------------------------------------
_NODES = [EX[f"n{i}"] for i in range(5)]
_PREDICATES = [EX.p, EX.q]
_LITERALS = [Literal("1", XSD_INTEGER), Literal("2", XSD_INTEGER)]
_VARIABLES = [Variable(name) for name in ("x", "y", "z")]

_edge = st.tuples(
    st.sampled_from(_NODES),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_NODES + _LITERALS),
)
_pattern = st.tuples(
    st.sampled_from(_VARIABLES + _NODES[:2]),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_VARIABLES + _NODES[:2] + _LITERALS),
)
_operand = st.sampled_from(
    [VariableExpr(variable) for variable in _VARIABLES]
    + [TermExpr(term) for term in _NODES[:2] + _LITERALS]
)
_condition = st.one_of(
    st.builds(Comparison, st.sampled_from(["=", "!=", "<"]), _operand, _operand),
    st.builds(
        lambda left, right: FunctionCall("SAMETERM", (left, right)),
        _operand,
        _operand,
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    initial=st.lists(_edge, min_size=0, max_size=12),
    churn=st.lists(_edge, min_size=1, max_size=15),
    bgp=st.lists(_pattern, min_size=1, max_size=3),
    filter_conditions=st.lists(_condition, min_size=0, max_size=2),
    distinct=st.booleans(),
    backend_index=st.integers(min_value=0, max_value=1),
)
def test_differential_random_churn(
    initial, churn, bgp, filter_conditions, distinct, backend_index
):
    """Maintained views equal re-evaluation after every add/remove."""
    backend = BACKENDS[backend_index]
    pattern_node = BGP(tuple(tp(*parts) for parts in bgp))
    for condition in filter_conditions:
        pattern_node = Filter(pattern_node, condition)
    variables = sorted(pattern_node.variables(), key=lambda v: v.name)
    query = SelectQuery(
        projection=tuple(ProjectionItem(variable) for variable in variables),
        pattern=pattern_node,
        distinct=distinct,
    )
    engine = create_engine(backend(Triple(*edge) for edge in initial))
    view = engine.materialize(query)
    reference = SparqlEvaluator(engine.dataset)
    for edge in churn:
        triple = Triple(*edge)
        # Alternate adds and removes through membership: present → remove.
        if triple in engine.graph:
            engine.graph.remove(triple)
        else:
            engine.graph.add(triple)
        expected = Counter(tuple(row) for row in reference.evaluate(query).rows())
        assert Counter(view.rows()) == expected
    engine.close()
