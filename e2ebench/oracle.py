"""The answer oracle: the same inputs through ``ExecutionProfile.BASELINE``.

A process of its own, run by ``run.py`` outside the measured one.  It
writes ``{answer key: [row count, checksum]}`` in the key space the
measured process uses:

* ``sp2bench`` / ``gmark`` — ``"<instance>|<query id>"`` for every query
  of every instance;
* ``live_views`` (``--replay`` names the measured process's output) —
  the passes that process ran, replayed from the seed on a fresh graph:
  ``"<pass>|<round>|<index>"`` for every point query and
  ``"<pass>|<view>"`` for both view queries at every checkpoint.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"repro imported from {repro.__file__}, not from this checkout's src/")

import repro.store as store  # noqa: E402
from repro import ExecutionProfile, create_engine  # noqa: E402

import inputs  # noqa: E402
from common import answer_digest, rows_digest  # noqa: E402


def baseline(graph):
    return create_engine(graph, profile=ExecutionProfile.BASELINE)


def query_answers(workload: str, seed: int) -> dict:
    make = inputs.sp2bench_instances if workload == "sp2bench" else inputs.gmark_instances
    expected = {}
    for index, instance in enumerate(make(seed)):
        engine = baseline(store.create_graph(triples=instance.triples))
        for qid, text in instance.queries:
            expected[f"{index}|{qid}"] = list(answer_digest(engine.query(text)))
    return expected


def live_answers(seed: int, passes: int, checkpoints) -> dict:
    data = inputs.live_inputs(seed)
    graph = store.create_graph(triples=data.triples)
    engine = baseline(graph)
    checkpoints = set(checkpoints)
    expected = {}
    for number in range(passes):
        for round_index, live_round in enumerate(inputs.live_pass(seed, number)):
            for batch in live_round.batches:
                for i in batch:
                    inputs.toggle(graph, data.pool[i])
            for index, (_, text) in enumerate(live_round.point_queries):
                expected[f"{number}|{round_index}|{index}"] = list(
                    answer_digest(engine.query(text))
                )
        if number in checkpoints:
            for name, text in (("join", inputs.JOIN_VIEW), ("union", inputs.UNION_VIEW)):
                expected[f"{number}|{name}"] = list(rows_digest(engine.query(text).rows()))
    return expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sp2bench", "gmark", "live_views"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--replay", help="measured-process output to replay (live_views)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.workload == "live_views":
        with open(args.replay, "r", encoding="utf-8") as handle:
            log = json.load(handle)["log"]
        expected = live_answers(args.seed, log["passes"], log["checkpoints"])
    else:
        expected = query_answers(args.workload, args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(expected, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
