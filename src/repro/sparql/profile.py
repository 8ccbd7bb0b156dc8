"""Named execution profiles for the SPARQL evaluator.

Every optimisation of the evaluation stack can be switched off for
differential testing and ablation benchmarks (``use_planner``,
``use_id_execution``, ``use_filter_pushdown``, ``use_id_paths``,
``use_wcoj``), but five independent booleans make 32 nominal
configurations of which only a handful are meaningful.
:class:`ExecutionProfile` packages the switches into one immutable value —
the only configuration :class:`~repro.sparql.evaluator.SparqlEvaluator`
takes — with three named presets:

``FULL``
    Everything on — the production configuration (cost-based planning,
    id-native joins, streaming filter pushdown, id-native paths, and the
    leapfrog-triejoin operator for cyclic BGPs).

``ID_NATIVE``
    The id-native binary-join pipeline with the WCOJ operator pinned off.
    Any divergence between ``FULL`` and ``ID_NATIVE`` isolates the
    leapfrog operator.

``BASELINE``
    Planned, decoded, post-filtered term-level evaluation — the
    differential-testing oracle.  Joins run over boxed terms, FILTERs
    apply after the join, property paths use the spec's term-level ALP
    procedure.

Profiles are plain frozen dataclasses: ablations needing an unnamed
configuration use :meth:`ExecutionProfile.with_options`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar


@dataclass(frozen=True)
class ExecutionProfile:
    """An immutable bundle of the evaluator's execution knobs."""

    name: str = "custom"
    #: Cost-based BGP planning (off recovers textual-order evaluation).
    use_planner: bool = True
    #: Execute planned BGPs over integer term ids on encoded backends.
    use_id_execution: bool = True
    #: Push FILTER conjuncts into the streaming join pipeline.
    use_filter_pushdown: bool = True
    #: Evaluate property paths through the id-native engine.
    use_id_paths: bool = True
    #: Allow the leapfrog-triejoin operator for cyclic all-triple BGPs.
    use_wcoj: bool = True

    BASELINE: ClassVar["ExecutionProfile"]
    ID_NATIVE: ClassVar["ExecutionProfile"]
    FULL: ClassVar["ExecutionProfile"]

    def with_options(self, **overrides) -> "ExecutionProfile":
        """Return a copy with the given knobs overridden.

        The derived profile is renamed ``custom`` unless an explicit
        ``name=`` override is part of ``overrides``.
        """
        overrides.setdefault("name", "custom")
        return replace(self, **overrides)

    def __str__(self) -> str:
        return self.name


ExecutionProfile.FULL = ExecutionProfile(name="full")
ExecutionProfile.ID_NATIVE = ExecutionProfile(name="id_native", use_wcoj=False)
ExecutionProfile.BASELINE = ExecutionProfile(
    name="baseline",
    use_id_execution=False,
    use_filter_pushdown=False,
    use_id_paths=False,
    use_wcoj=False,
)
