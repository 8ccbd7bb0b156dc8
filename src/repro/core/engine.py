"""The SparqLog engine façade.

Ties the three translation methods together with the Datalog± engine:

1. the active dataset is assembled from FROM / FROM NAMED clauses,
2. T_D turns it into facts (cached per dataset until a graph changes),
3. ontology axioms (if any) are added as Datalog± rules,
4. T_Q translates the parsed query into rules,
5. the Datalog engine materialises the program,
6. T_S converts the answer relation into a SPARQL solution sequence.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple, Union

from repro.core.data_translation import DataTranslator
from repro.core.ontology import Ontology
from repro.core.query_translation import QueryTranslator, TranslationResult
from repro.core.solution_translation import SolutionTranslator
from repro.datalog.engine import DatalogEngine
from repro.datalog.rules import Program
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI
from repro.sparql.algebra import AskQuery, DatasetClause, Query, SelectQuery
from repro.sparql.parser import parse_query
from repro.sparql.solutions import SolutionSequence


def resolve_dataset_clauses(
    dataset: Dataset, clauses: Sequence[DatasetClause]
) -> Dataset:
    """Build the active dataset described by FROM / FROM NAMED clauses."""
    if not clauses:
        return dataset
    default = Graph()
    named: Dict[IRI, Graph] = {}
    for clause in clauses:
        graph = dataset.named_graphs.get(clause.graph)
        if graph is None:
            # Conventionally, FROM over an unknown IRI falls back to the
            # default graph so self-contained examples keep working.
            graph = dataset.default_graph
        if clause.named:
            named[clause.graph] = graph
        else:
            default.update(graph)
    return Dataset(default, named)


class SparqLogEngine:
    """Evaluate SPARQL 1.1 queries by translation to Warded Datalog±."""

    name = "SparqLog"

    def __init__(
        self,
        dataset: Dataset,
        ontology: Optional[Ontology] = None,
        timeout_seconds: Optional[float] = None,
        max_facts: int = 5_000_000,
    ) -> None:
        self.dataset = dataset
        self.ontology = ontology
        self.timeout_seconds = timeout_seconds
        self.max_facts = max_facts
        self._data_translator = DataTranslator()
        self._solution_translator = SolutionTranslator()
        self._cached_data_program: Optional[Program] = None
        #: Graph version stamps the cached T_D program was built from.
        self._cached_versions: Optional[Tuple] = None
        #: Semi-naive delta rounds of the most recent query's fixpoint —
        #: the Datalog-side observability hook (each query runs a fresh
        #: DatalogEngine, so the count is copied out here).
        self.last_fixpoint_iterations = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def load(self, dataset: Dataset) -> None:
        """Replace the dataset (invalidates the cached data translation)."""
        self.dataset = dataset
        self._cached_data_program = None

    def query(self, query: Union[str, Query]) -> Union[SolutionSequence, bool]:
        """Parse (if needed), translate and evaluate a SPARQL query."""
        parsed = parse_query(query) if isinstance(query, str) else query
        program, translation = self.translate(parsed)
        engine = DatalogEngine(
            max_facts=self.max_facts, timeout_seconds=self.timeout_seconds
        )
        relations = engine.evaluate(program)
        self.last_fixpoint_iterations = engine.fixpoint_iterations
        return self._solution_translator.translate(relations, translation)

    def translate(self, query: Union[str, Query]) -> Tuple[Program, TranslationResult]:
        """Return the full Datalog± program (data + ontology + query rules)."""
        parsed = parse_query(query) if isinstance(query, str) else query
        clauses = getattr(parsed, "dataset_clauses", ())
        data_program = self._data_program(clauses)

        program = Program()
        program.facts = list(data_program.facts)
        program.rules = list(data_program.rules)
        program.aggregate_rules = list(data_program.aggregate_rules)
        program.directives = list(data_program.directives)

        if self.ontology is not None and len(self.ontology):
            program.extend(self.ontology.to_rules())

        translator = QueryTranslator()
        translation = translator.translate(parsed)
        program.extend(translation.program)
        return program, translation

    def query_program(self, query: Union[str, Query]) -> Program:
        """Return only the rules generated by the query translation T_Q."""
        parsed = parse_query(query) if isinstance(query, str) else query
        return QueryTranslator().translate(parsed).program

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------
    def _dataset_versions(self) -> Tuple:
        """Identity and version stamp of every graph in the dataset."""
        dataset = self.dataset
        graphs = [(None, dataset.default_graph), *dataset.named_graphs.items()]
        return tuple(
            (name, id(graph), getattr(graph, "version", None)) for name, graph in graphs
        )

    def _data_program(self, clauses: Sequence[DatasetClause]) -> Program:
        if not clauses:
            versions = self._dataset_versions()
            if self._cached_data_program is None or versions != self._cached_versions:
                self._cached_data_program = self._data_translator.translate(self.dataset)
                self._cached_versions = versions
            return self._cached_data_program
        active = resolve_dataset_clauses(self.dataset, clauses)
        return self._data_translator.translate(active)
