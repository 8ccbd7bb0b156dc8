"""Seeded inputs of the three workloads.

Everything the measured process and the oracle feed the system comes
from here, as plain triples and SPARQL text, derived only from the
workload seed.  ``random.Random`` seeded with a string is independent of
``PYTHONHASHSEED``, so the same seed gives the same inputs in every
process.

* ``sp2bench`` — the DBLP-like graph of the SP2Bench generator at scale
  0.12 (generator seed 1) with the 17 SP2Bench queries,
  ``INSTANCES_SP2BENCH`` times.
* ``gmark`` — the gMark test scenario at scale 0.05 with its 50 generated
  path queries (generator seed 7), ``INSTANCES_GMARK`` times.

The data is fixed; the workload seed relabels each copy (a random
permutation of the person / node IRIs, applied to triples and query
constants alike) and shuffles triple and query order.  Drawing the data
from the seed instead makes the seed decide the costs: a gMark SparqLog
pass took 4.6 to 48 s over 16 seeds, and the SP2Bench Engine p90 (the
cheapest run of q5a, the second most costly query) spread by 0.29 of its
median over 10 seeds, wider than any allowed bound.
* ``live_views`` — a random graph of 3000 nodes and 6000 edges over two
  predicates, a pool of triples to toggle, and the operations of every
  pass, drawn from the seed and the pass index (not from the clock), so
  the oracle can replay exactly the passes the measured process ran.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import List, Tuple

from repro.rdf.terms import IRI, Triple

INSTANCES_SP2BENCH = 5
INSTANCES_GMARK = 3
SP2BENCH_SCALE = 0.12
GMARK_SCALE = 0.05

Query = Tuple[str, str]  # (query id, SPARQL text)


@dataclass
class Instance:
    """One dataset plus the queries run on it."""

    triples: List[Triple]
    queries: List[Query]


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(part) for part in parts))


_IRI_TOKEN = re.compile(r"<([^<>\s]+)>")


def _relabelled(triples: List[Triple], queries: List[Query], prefix: str,
                rng: random.Random) -> Instance:
    """An isomorphic copy: IRIs under ``prefix`` permuted, orders shuffled.

    The permutation applies to triples and query constants alike, so every
    answer keeps its size and shape; what moves is which term plays which
    role, hence every hash-table layout and iteration order.
    """
    names = sorted(
        {term for t in triples for term in (t.subject, t.object)
         if isinstance(term, IRI) and term.value.startswith(prefix)},
        key=lambda term: term.value,
    )
    shuffled = names[:]
    rng.shuffle(shuffled)
    relabel = dict(zip(names, shuffled))
    triples = [
        Triple(relabel.get(t.subject, t.subject), t.predicate, relabel.get(t.object, t.object))
        for t in triples
    ]
    rng.shuffle(triples)

    def swap(match) -> str:
        iri = IRI(match.group(1))
        return "<%s>" % relabel.get(iri, iri).value

    queries = [(qid, _IRI_TOKEN.sub(swap, text)) for qid, text in queries]
    rng.shuffle(queries)
    return Instance(triples, queries)


def sp2bench_instances(seed: int) -> List[Instance]:
    from repro.workloads.sp2bench import PERSON, SP2BenchWorkload

    base = SP2BenchWorkload(scale=SP2BENCH_SCALE, seed=1)
    triples = list(base.graph)
    queries = [(query.query_id, query.text) for query in base.queries()]
    return [
        _relabelled(triples, queries, PERSON[""].value, _rng("sp2bench", seed, index))
        for index in range(INSTANCES_SP2BENCH)
    ]


def gmark_instances(seed: int) -> List[Instance]:
    from repro.workloads.gmark import GMARK, GMarkWorkload, test_scenario

    base = GMarkWorkload(test_scenario(), scale=GMARK_SCALE, seed=7)
    triples = list(base.graph)
    queries = [(query.query_id, query.text) for query in base.queries()]
    return [
        _relabelled(triples, queries, GMARK["Node"].value, _rng("gmark", seed, index))
        for index in range(INSTANCES_GMARK)
    ]


# ----------------------------------------------------------------------
# live_views
# ----------------------------------------------------------------------
LIVE_NS = "http://example.org/live/"
LIVE_NODES = 3000
LIVE_EDGES_PER_PREDICATE = 3000
LIVE_POOL = 400
LIVE_ROUNDS_PER_PASS = 2
LIVE_BATCHES_PER_ROUND = 20
LIVE_CHANGES_PER_BATCH = 5
LIVE_POINT_QUERIES_PER_ROUND = 10

_PREFIX = f"PREFIX ex: <{LIVE_NS}>\n"
KNOWS = IRI(LIVE_NS + "knows")
LIKES = IRI(LIVE_NS + "likes")

#: Two-hop join with FILTER: delta-maintained, with a subscriber.
JOIN_VIEW = _PREFIX + (
    "SELECT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:likes ?c . FILTER(?a != ?c) }"
)
#: UNION: maintained by re-evaluation, polled without a subscriber.  It
#: reads only ex:likes, so ex:knows changes pass the relevance gate.
UNION_VIEW = _PREFIX + (
    "SELECT ?x ?y WHERE { { ?x ex:likes ?y } UNION { ?y ex:likes ?x } }"
)
_POINT_TEMPLATES = (
    _PREFIX + "SELECT ?b ?c WHERE { <%s> ex:knows ?b . ?b ex:likes ?c }",
    _PREFIX + "SELECT ?a WHERE { ?a ex:likes <%s> . ?a ex:knows ?x }",
)


def _node(index: int) -> IRI:
    return IRI(f"{LIVE_NS}n{index}")


@dataclass
class LiveInputs:
    triples: List[Triple]
    pool: List[Triple]


def live_inputs(seed: int) -> LiveInputs:
    rng = _rng("live_views", seed)
    edges = set()
    for predicate in (KNOWS, LIKES):
        count = 0
        while count < LIVE_EDGES_PER_PREDICATE:
            triple = Triple(
                _node(rng.randrange(LIVE_NODES)),
                predicate,
                _node(rng.randrange(LIVE_NODES)),
            )
            if triple not in edges:
                edges.add(triple)
                count += 1
    triples = sorted(edges, key=lambda t: (t.predicate.value, t.subject.value, t.object.value))
    # Half the pool starts present (toggling removes it), half absent.
    pool = rng.sample(triples, LIVE_POOL // 2)
    while len(pool) < LIVE_POOL:
        triple = Triple(
            _node(rng.randrange(LIVE_NODES)),
            rng.choice((KNOWS, LIKES)),
            _node(rng.randrange(LIVE_NODES)),
        )
        if triple not in edges and triple not in pool:
            pool.append(triple)
    rng.shuffle(triples)
    return LiveInputs(triples, pool)


@dataclass
class LiveRound:
    batches: List[List[int]]  # pool indices to toggle, one list per batch
    point_queries: List[Query]
    read_union: bool


def live_pass(seed: int, pass_index: int) -> List[LiveRound]:
    """The operations of one pass: two rounds, the second polls the UNION view."""
    rng = _rng("live_views", seed, "pass", pass_index)
    rounds = []
    for round_index in range(LIVE_ROUNDS_PER_PASS):
        batches = [
            [rng.randrange(LIVE_POOL) for _ in range(LIVE_CHANGES_PER_BATCH)]
            for _ in range(LIVE_BATCHES_PER_ROUND)
        ]
        point_queries = []
        for query_index in range(LIVE_POINT_QUERIES_PER_ROUND):
            template = query_index % len(_POINT_TEMPLATES)
            point_queries.append(
                (
                    f"point{template}",
                    _POINT_TEMPLATES[template] % _node(rng.randrange(LIVE_NODES)).value,
                )
            )
        rounds.append(
            LiveRound(batches, point_queries, round_index == LIVE_ROUNDS_PER_PASS - 1)
        )
    return rounds


def toggle(graph, triple: Triple) -> None:
    """Remove ``triple`` if present, add it otherwise."""
    if triple in graph:
        graph.remove(triple)
    else:
        graph.add(triple)
