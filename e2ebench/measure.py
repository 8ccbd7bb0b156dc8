"""The measured process: set up, warm up, run one closed loop, report.

Run by ``run.py`` with a pinned environment; writes one JSON document
(metrics, answer digests, operation counts) to ``--out``.  One client
runs every operation on the main thread, each through
``repro.harness.timing.call_with_timeout``, and waits for it before the
next (a closed loop).  The loop runs whole passes until ``--seconds``
have elapsed.

The host's speed changes by tens of percent from one second to the
next, so every metric samples the whole window: the routes alternate
query by query, and the systems behind ``setup_s`` are built between
the operations of the loop (and dropped), not all at once before it.
Every time is also kept scaled to a reference host speed (see
``calibrate.py``); the gated metrics are the scaled ones.

With ``--trace 1`` the passes alternate between untraced and traced (with
the layer wrappers of ``layers.py`` installed).  The traced passes give
the per-layer numbers, and the two kinds together the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"repro imported from {repro.__file__}, not from this checkout's src/")

import repro.store as store  # noqa: E402
from repro import Dataset, SparqLogEngine, create_engine  # noqa: E402
from repro.harness.timing import call_with_timeout  # noqa: E402
from repro.obs.export import to_chrome_trace  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from common import (  # noqa: E402
    answer_digest,
    median,
    merge_answers,
    metric,
    peak_rss_mb,
    percentile,
    ratio,
    rows_digest,
)

#: Per-operation limit; the slowest operation of any workload takes ~2 s.
OPERATION_TIMEOUT_S = 30.0
#: A window runs on past ``--seconds`` until every kind of operation has
#: this many samples, so that ten lie beyond each reported p90.
MIN_SAMPLES = 100
#: live_views: compare the views with a fresh query every this many passes.
CHECK_EVERY = 40
#: live_views warm-up passes: every point query and UNION read misses the
#: plan caches (the graph version moves), so warm up until the caches of
#: 256 entries have filled (~21 misses a pass) and reads cost what they
#: cost in a long-running process.
LIVE_WARM_UP_PASSES = 15
#: live_views: build one more system, for ``setup_s``, every this many
#: passes (one build costs about as much as one pass).  Odd, so that with
#: ``--trace 1`` (untraced and traced passes alternate) both kinds build.
LIVE_SETUP_EVERY = 7


class Recorder:
    """Latencies, answers and failures of the operations of one window.

    Every latency and pass time is kept twice: as measured, and scaled to
    the reference host speed by the calibrator (see ``calibrate``).
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.scaled: Dict[str, List[float]] = defaultdict(list)
        #: (kind, query id or view) -> scaled latencies; copies are
        #: isomorphic, so the same key is the same work in every pass.
        self.by_key: Dict[tuple, List[float]] = defaultdict(list)
        self.pass_s: List[float] = []
        self.pass_scaled: List[float] = []
        self._pass = [0.0, 0.0]
        self.attempted = 0
        self.errors = 0
        self.error_samples: List[str] = []

    def run(self, kind: str, key: tuple, operation):
        """Time ``operation()``; return its result, or ``None`` if it failed."""
        scale = self.calibrator.tick()
        self.attempted += 1
        start = perf_counter()
        try:
            result = call_with_timeout(operation, OPERATION_TIMEOUT_S)
        except Exception as error:  # every failure counts, none stops the run
            elapsed = perf_counter() - start
            self.errors += 1
            if len(self.error_samples) < 5:
                self.error_samples.append(f"{kind} {key}: {type(error).__name__}: {error}")
            result = None
        else:
            elapsed = perf_counter() - start
        self.latency[kind].append(elapsed)
        self.scaled[kind].append(elapsed * scale)
        self.by_key[(kind,) + key].append(elapsed * scale)
        self._pass[0] += elapsed
        self._pass[1] += elapsed * scale
        return result

    def end_pass(self) -> None:
        """Close the current pass: its time is the sum of its operations'."""
        self.pass_s.append(self._pass[0])
        self.pass_scaled.append(self._pass[1])
        self._pass = [0.0, 0.0]


class SetupTimes:
    """Set-up time of every system built, as measured and scaled."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.raw: List[float] = []
        self.scaled: List[float] = []

    def build(self, system_class, source):
        """Build ``system_class(source)``, record its ``setup_s``, return it."""
        scale = self.calibrator.tick()
        system = system_class(source)
        self.raw.append(system.setup_s)
        self.scaled.append(system.setup_s * scale)
        return system


def overhead(untraced: Recorder, traced: Recorder, kinds) -> float:
    """Traced over untraced time for the same operations (count-weighted
    medians of host-scaled times)."""
    num = den = 0.0
    for key, samples in untraced.by_key.items():
        if key[0] in kinds and key in traced.by_key:
            num += len(samples) * median(traced.by_key[key])
            den += len(samples) * median(samples)
    return ratio(num, den)


def latency_metrics(prefix: str, samples: List[float], high: float) -> Dict[str, dict]:
    name = "p%d_ms" % round(high * 100)
    return {
        f"{prefix}.p50_ms": metric(percentile(samples, 0.5) * 1e3, "ms"),
        f"{prefix}.{name}": metric(percentile(samples, high) * 1e3, "ms"),
    }


def cache_counters(engines) -> Counter:
    totals: Counter = Counter()
    for engine in engines:
        for name, value in engine.metrics().items():
            if name.endswith("_total"):
                totals[name] += value
    return totals


# ----------------------------------------------------------------------
# sp2bench / gmark: both query routes over seeded instances
# ----------------------------------------------------------------------
class QuerySystem:
    def __init__(self, instance: inputs.Instance) -> None:
        start = perf_counter()
        graph = store.create_graph(triples=instance.triples)
        self.engine = create_engine(graph)
        self.sparqlog = SparqLogEngine(Dataset.from_graph(graph))
        self.sparqlog.translate(instance.queries[0][1])  # T_D, cached per dataset
        self.setup_s = perf_counter() - start
        self.queries = instance.queries
        self.texts = dict(instance.queries)
        self.routes = {"engine": self.engine.query, "sparqlog": self.sparqlog.query}


class QueryWorkload:
    routes = ("engine", "sparqlog")

    def __init__(self, name: str, seed: int) -> None:
        make = inputs.sp2bench_instances if name == "sp2bench" else inputs.gmark_instances
        self.instances = make(seed)
        self.answers: Dict[str, Dict[str, Dict[str, int]]] = {r: {} for r in self.routes}
        self.stale = 0
        self.next_pass = 0
        self.calibrator = Calibrator()

    def setup(self) -> None:
        self.setup_times = SetupTimes(self.calibrator)
        self.systems = [self.setup_times.build(QuerySystem, instance)
                        for instance in self.instances]

    def _sample_setup(self, clock=None) -> None:
        """Build one more system, timed, and drop it."""
        count = len(self.setup_times.raw)
        if clock is not None:
            clock.route, clock.qid = "setup", f"setup/{count}"
        self.setup_times.build(QuerySystem, self.instances[count % len(self.instances)])

    def engines(self):
        return [system.engine for system in self.systems]

    def warm_up(self) -> Recorder:
        """One pass of every query: Engine route on every copy, SparqLog on one."""
        recorder = Recorder(self.calibrator)
        legs = [("engine", index) for index in range(len(self.systems))] + [("sparqlog", 0)]
        for route, index in legs:
            for qid, _ in self.systems[index].queries:
                self._run(recorder, route, index, qid)
        return recorder

    def _run(self, recorder: Recorder, route: str, index: int, qid: str, clock=None) -> None:
        """Query ``qid`` of copy ``index`` once on ``route``."""
        system = self.systems[index]
        query, text = system.routes[route], system.texts[qid]
        if clock is not None:
            clock.route = route
            clock.qid = f"{route}/{index}/{qid}/{recorder.attempted}"
        result = recorder.run(route, (qid,), lambda: query(text))
        if result is not None:
            merge_answers(self.answers[route], f"{index}|{qid}", answer_digest(result))

    def run_pass(self, recorder: Recorder, clock=None) -> None:
        """Every query on the Engine route on every copy, then on SparqLog
        on this pass's copy.

        The Engine route is ~15x faster than SparqLog, and a query's cost
        differs from copy to copy by up to 2x (hash-table layouts differ),
        so it runs on every copy in every pass.  The routes alternate query
        by query rather than copy by copy: the host's speed changes from
        one second to the next, and each route's samples must spread over
        the whole window to average that out.
        """
        number = self.next_pass
        self.next_pass += 1
        first = number % len(self.systems)
        legs = [("engine", index) for index in range(len(self.systems))]
        legs.append(("sparqlog", first))
        for qid, _ in self.systems[first].queries:
            for route, index in legs:
                self._run(recorder, route, index, qid, clock)
            self._sample_setup(clock)
        recorder.end_pass()

    def end_window(self, clock=None) -> None:
        pass

    def end_to_end(self, latency: Dict[str, List[float]]) -> Dict[str, dict]:
        metrics = {}
        for route in self.routes:
            samples = latency[route]
            metrics[f"{route}.qps"] = metric(len(samples) / sum(samples), "queries/s")
            metrics.update(latency_metrics(route, samples, 0.9))
        return metrics

    def log(self) -> dict:
        return {"answers": self.answers}


# ----------------------------------------------------------------------
# live_views: writes beside reads on the Engine route
# ----------------------------------------------------------------------
class LiveSystem:
    def __init__(self, data: inputs.LiveInputs) -> None:
        start = perf_counter()
        self.graph = store.create_graph(triples=data.triples)
        self.engine = create_engine(self.graph)
        self.join = self.engine.materialize(inputs.JOIN_VIEW)
        self.union = self.engine.materialize(inputs.UNION_VIEW)
        self.events = 0
        self.join.on_change(self._on_change)
        self.setup_s = perf_counter() - start

    def _on_change(self, events) -> None:
        self.events += len(events)


class LiveWorkload:
    routes = ("engine",)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.data = inputs.live_inputs(seed)
        self.next_pass = 0
        self.calibrator = Calibrator()
        self.answers: Dict[str, Dict[str, Dict[str, int]]] = {"engine": {}, "views": {}}
        self.checkpoints: List[int] = []
        self.stale = 0
        self.system: Optional[LiveSystem] = None

    def setup(self) -> None:
        self.setup_times = SetupTimes(self.calibrator)
        self.system = self.setup_times.build(LiveSystem, self.data)

    def _sample_setup(self, clock=None) -> None:
        """Build one more system from the generated triples, timed, and drop it."""
        if clock is not None:
            clock.route, clock.qid = "setup", f"setup/{len(self.setup_times.raw)}"
        self.setup_times.build(LiveSystem, self.data).engine.close()

    def engines(self):
        return [self.system.engine]

    def warm_up(self) -> Recorder:
        recorder = Recorder(self.calibrator)
        for _ in range(LIVE_WARM_UP_PASSES):
            self.run_pass(recorder)
        self.end_window()
        return recorder

    def run_pass(self, recorder: Recorder, clock=None) -> None:
        system, pool = self.system, self.data.pool
        number = self.next_pass
        self.next_pass += 1

        def label(kind: str, key: str) -> None:
            if clock is not None:
                clock.route = kind
                clock.qid = f"{kind}/{number}/{key}/{recorder.attempted}"

        for round_index, live_round in enumerate(inputs.live_pass(self.seed, number)):
            for batch_index, batch in enumerate(live_round.batches):
                label("update", f"{round_index}.{batch_index}")
                recorder.run(
                    "update", (),
                    lambda: [inputs.toggle(system.graph, pool[i]) for i in batch],
                )
            reads = [("join", system.join)]
            if live_round.read_union:
                reads.append(("union", system.union))
            for name, view in reads:
                label("view_read", name)
                recorder.run("view_read", (name,), view.rows)
            for index, (qid, text) in enumerate(live_round.point_queries):
                label("engine", f"{round_index}.{index}")
                result = recorder.run("engine", (qid,), lambda: system.engine.query(text))
                if result is not None:
                    merge_answers(self.answers["engine"], f"{number}|{round_index}|{index}",
                                  answer_digest(result))
        recorder.end_pass()
        if self.next_pass % CHECK_EVERY == 0:
            self._checkpoint(clock)
        if self.next_pass % LIVE_SETUP_EVERY == 0:
            self._sample_setup(clock)

    def end_window(self, clock=None) -> None:
        self._checkpoint(clock)

    def _checkpoint(self, clock=None) -> None:
        """Compare both views with a fresh query (untraced); stale rows are failures."""
        number = self.next_pass - 1
        self.checkpoints.append(number)
        if clock is not None:
            clock.enabled = False
        try:
            for name, view, text in (("join", self.system.join, inputs.JOIN_VIEW),
                                     ("union", self.system.union, inputs.UNION_VIEW)):
                rows = view.rows()
                if Counter(rows) != Counter(self.system.engine.query(text).rows()):
                    self.stale += 1
                merge_answers(self.answers["views"], f"{number}|{name}", rows_digest(rows))
        finally:
            if clock is not None:
                clock.enabled = True

    def end_to_end(self, latency: Dict[str, List[float]]) -> Dict[str, dict]:
        metrics = {}
        queries = latency["engine"]
        metrics["engine.qps"] = metric(len(queries) / sum(queries), "queries/s")
        metrics.update(latency_metrics("engine", queries, 0.9))
        batches = latency["update"]
        metrics["update.changes_per_s"] = metric(
            len(batches) * inputs.LIVE_CHANGES_PER_BATCH / sum(batches), "changes/s"
        )
        metrics.update(latency_metrics("update", batches, 0.99))
        metrics.update(latency_metrics("view_read", latency["view_read"], 0.9))
        return metrics

    def log(self) -> dict:
        return {
            "answers": self.answers,
            "passes": self.next_pass,
            "checkpoints": self.checkpoints,
            "subscriber_events": self.system.events,
        }


# ----------------------------------------------------------------------
def window(workload, seconds: float) -> Recorder:
    """Whole passes until ``seconds`` have elapsed and every kind of
    operation has ``MIN_SAMPLES`` samples."""
    recorder = Recorder(workload.calibrator)
    start = perf_counter()
    while (
        not recorder.pass_s
        or perf_counter() - start < seconds
        or min(map(len, recorder.latency.values())) < MIN_SAMPLES
    ):
        workload.run_pass(recorder)
    workload.end_window()
    return recorder


def traced_window(workload, seconds: float, clock: layers.LayerClock):
    """Alternate untraced and traced passes until ``seconds`` have elapsed.

    The host's speed drifts by tens of percent over minutes; alternating
    pass by pass lets the drift cancel in the traced/untraced ratio.
    """
    untraced, traced = Recorder(workload.calibrator), Recorder(workload.calibrator)
    start = perf_counter()
    while not traced.pass_s or perf_counter() - start < seconds:
        workload.run_pass(untraced)
        restore = layers.install(clock)
        try:
            workload.run_pass(traced, clock)
        finally:
            restore()
    workload.end_window(clock)
    return untraced, traced


def per_layer(clock: layers.LayerClock, before: Counter, after: Counter,
              untraced: Recorder, traced: Recorder) -> Dict[str, dict]:
    delta = {name: after[name] - before[name] for name in after}
    lookups = delta.get("sparql_physical_cache_hits_total", 0) + delta.get(
        "sparql_physical_cache_misses_total", 0
    )
    fixpoints = clock.layer_calls("datalog.fixpoint")
    batches = delta.get("ivm_delta_batches_total", 0)
    c = clock.counts
    values = {
        "store.load_s": (clock.per_call("store.load", 1.0), "s"),
        "store.write_us": (clock.per_call("store.write", 1e6), "us"),
        "parser.ms": (clock.per_call("parser", 1e3), "ms"),
        "core.t_d_s": (clock.per_call("core.t_d", 1.0), "s"),
        "core.translate_ms": (clock.per_call("core.translate", 1e3), "ms"),
        "core.t_q_ms": (clock.per_call("core.t_q", 1e3), "ms"),
        "core.t_s_ms": (clock.per_call("core.t_s", 1e3), "ms"),
        "datalog.fixpoint_ms": (clock.per_call("datalog.fixpoint", 1e3), "ms"),
        "datalog.iterations": (ratio(c["datalog.iterations"], fixpoints), "count"),
        "datalog.facts": (ratio(c["datalog.facts"], fixpoints), "count"),
        "datalog.answer_ratio": (ratio(c["datalog.answers"], c["datalog.facts"]), "ratio"),
        "evaluator.self_ms": (clock.per_call("evaluator", 1e3), "ms"),
        "plan.ms": (clock.per_call("plan", 1e3), "ms"),
        "plan.cache_hit_ratio": (
            ratio(lookups - delta.get("sparql_plan_cache_misses_total", 0), lookups), "ratio"),
        "physical.lower_ms": (clock.per_call("physical.lower", 1e3), "ms"),
        "physical.execute_ms": (clock.per_call("physical.execute", 1e3), "ms"),
        "physical.cache_hit_ratio": (
            ratio(delta.get("sparql_physical_cache_hits_total", 0), lookups), "ratio"),
        "idpaths.ms": (clock.per_call("idpaths", 1e3), "ms"),
        "idpaths.rows": (ratio(c["idpaths.rows"], clock.layer_calls("idpaths")), "count"),
        "ivm.apply_ms": (clock.per_call("ivm.apply", 1e3), "ms"),
        "ivm.refresh_ms": (clock.per_call("ivm.refresh", 1e3), "ms"),
        "ivm.delta_rows": (ratio(delta.get("ivm_delta_rows_total", 0), batches), "count"),
        "ivm.skip_ratio": (ratio(delta.get("ivm_skipped_batches_total", 0), batches), "ratio"),
        "trace.overhead_ratio": (overhead(untraced, traced, set(untraced.latency)), "ratio"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def layer_shares(clock: layers.LayerClock, traced: Recorder) -> Dict[str, Dict[str, float]]:
    """Each layer's self time as a share of each route's measured time."""
    shares: Dict[str, Dict[str, float]] = {}
    for route, samples in traced.latency.items():
        total = sum(samples)
        per_layer = {
            layer: clock.layer_seconds(layer, route) / total
            for (key_route, layer) in clock.self_s
            if key_route == route
        }
        shares[route] = dict(sorted(per_layer.items(), key=lambda item: -item[1]))
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sp2bench", "gmark", "live_views"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--chrome-trace", default=None)
    args = parser.parse_args(argv)

    if args.workload == "live_views":
        workload = LiveWorkload(args.seed)
    else:
        workload = QueryWorkload(args.workload, args.seed)

    clock: Optional[layers.LayerClock] = None
    restore = None
    if args.trace:
        clock = layers.LayerClock(Tracer(f"e2ebench-{args.workload}"))
        restore = layers.install(clock)
    workload.setup()
    if restore is not None:
        restore()
    warm = workload.warm_up()

    report: Dict[str, object] = {"backend": store.default_backend()}
    if not args.trace:
        recorder = window(workload, args.seconds)

        def timings(latency, passes, setup) -> Dict[str, dict]:
            values = {
                "setup_s": metric(median(setup), "s"),
                "pass_s": metric(sum(passes) / len(passes), "s"),
            }
            values.update(workload.end_to_end(latency))
            return values

        metrics = timings(recorder.scaled, recorder.pass_scaled, workload.setup_times.scaled)
        raw = timings(recorder.latency, recorder.pass_s, workload.setup_times.raw)
        metrics.update({f"raw.{name}": entry for name, entry in raw.items()})
        metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
        kernel = workload.calibrator.samples
        report["calibration_kernel_ms"] = {
            "median": median(kernel) * 1e3, "min": min(kernel) * 1e3,
            "max": max(kernel) * 1e3, "samples": len(kernel),
        }
        report["passes"] = len(recorder.pass_s)
        report["setup_samples"] = len(workload.setup_times.raw)
        report["samples"] = {kind: len(v) for kind, v in recorder.latency.items()}
        windows = [warm, recorder]
    else:
        before = cache_counters(workload.engines())
        untraced, traced = traced_window(workload, args.seconds, clock)
        after = cache_counters(workload.engines())
        metrics = per_layer(clock, before, after, untraced, traced)
        report["overhead_by_route"] = {
            kind: overhead(untraced, traced, {kind}) for kind in untraced.latency
        }
        report["layer_share_by_route"] = layer_shares(clock, traced)
        report["layer_calls"] = {
            f"{route}:{layer}": n for (route, layer), n in sorted(clock.calls.items())
        }
        if args.chrome_trace:
            with open(args.chrome_trace, "w", encoding="utf-8") as handle:
                json.dump(to_chrome_trace(clock.tracer), handle)
            report["spans"] = len(clock.tracer.spans)
        windows = [warm, untraced, traced]

    result = {
        "metrics": metrics,
        "report": report,
        "attempted": sum(window.attempted for window in windows),
        "errors": sum(window.errors for window in windows),
        "error_samples": [line for window in windows for line in window.error_samples],
        "stale_views": workload.stale,
        "log": workload.log(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
