"""End-to-end benchmark of both query routes: SparqLog and the Engine.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload sp2bench --seed 1 --seconds 25 --trace 0

Workloads: ``sp2bench``, ``gmark``, ``live_views`` (see ``README.md``).
``run.py`` runs the measured process (``measure.py``) and the answer
oracle (``oracle.py``) as child processes with a pinned environment:
``PYTHONHASHSEED=0``, ``REPRO_STORE_BACKEND`` unset (so the shipped
default backend is measured) and ``PYTHONPATH`` set to this checkout's
``src``.  It compares every answer with the oracle's, prints every
metric it measured with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the ``end_to_end`` ones of ``BENCHMARK.json``
(``--trace 0``) or its ``per_layer`` ones (``--trace 1``).  Outputs go
to ``.bench_out/``; oracle answers are cached in ``.bench_cache/``,
keyed by workload, seed and a digest of the source files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Every child gets what is left of this budget; the run must end in 180 s.
BUDGET_S = 170.0


def fail(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_STORE_BACKEND"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(script: str, arguments, deadline: float) -> None:
    """Run a sibling script; its stdout goes to our stderr."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for {script}")
    subprocess.run(
        [sys.executable, os.path.join(HERE, script), *arguments],
        cwd=ROOT,
        env=child_env(),
        stdout=sys.stderr,
        check=True,
        timeout=remaining,
    )


def source_digest() -> str:
    """Digest of every source file the answers depend on."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirectories, files in os.walk(top):
            subdirectories[:] = sorted(d for d in subdirectories if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sp2bench", "gmark", "live_views"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return fail(f"no src/repro under {ROOT}: run from the root of a checkout")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return fail(f"no BENCHMARK.json under {ROOT}")
    wanted = [m["name"] for m in load(spec_path)["per_layer" if args.trace else "end_to_end"]]

    out_dir = os.path.join(ROOT, ".bench_out")
    cache_dir = os.path.join(ROOT, ".bench_cache")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(cache_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        if args.workload != "live_views":
            oracle_path = os.path.join(
                cache_dir, f"{args.workload}-seed{args.seed}-{source_digest()}.json"
            )
            if not os.path.isfile(oracle_path):
                run_child("oracle.py", common + ["--out", oracle_path + ".tmp"], deadline)
                os.replace(oracle_path + ".tmp", oracle_path)
        measured = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", stem + ".json"]
        if args.trace:
            measured += ["--chrome-trace", stem + ".chrome.json"]
        run_child("measure.py", common + measured, deadline)
        result = load(stem + ".json")
        if args.workload == "live_views":
            oracle_path = stem + ".oracle.json"
            run_child("oracle.py", common + ["--replay", stem + ".json", "--out", oracle_path],
                      deadline)
    except (subprocess.SubprocessError, TimeoutError) as error:
        return fail(f"run failed: {error}")
    expected = load(oracle_path)

    from common import mismatches

    wrong = sum(mismatches(observed, expected) for observed in result["log"]["answers"].values())
    failed = result["errors"] + result["stale_views"] + wrong
    attempted = result["attempted"]
    metrics = result["metrics"]
    checked = sum(sum(slot.values()) for answers in result["log"]["answers"].values()
                  for slot in answers.values())

    print(f"workload {args.workload}  seed {args.seed}  backend {result['report']['backend']}"
          f"  trace {args.trace}")
    for name, entry in sorted(metrics.items()):
        print(f"  {name:28s} {entry['value']:14.6f} {entry['unit']}")
    print(f"  {'error_ratio':28s} {failed / attempted:14.6f} fraction")
    print(f"  answers checked {checked}, wrong {wrong}, stale views {result['stale_views']},"
          f" errors {result['errors']}")
    answers = result["log"]["answers"]
    def order(key):
        return [(0, int(part), "") if part.isdigit() else (1, 0, part) for part in key.split("|")]

    for key in sorted(expected, key=order):
        routes = [route for route in answers if key in answers[route]]
        if args.workload == "live_views" and routes != ["views"]:
            continue  # point queries: counted above, listed in the details file
        rows, checksum = expected[key]
        verdicts = " ".join(
            f"{route}={'ok' if set(answers[route][key]) == {f'{rows}:{checksum}'} else 'WRONG'}"
            for route in routes
        )
        print(f"  answer {key:14s} rows={rows:<6d} checksum={checksum} {verdicts}")
    for line in result["error_samples"]:
        print(f"  error: {line}")
    for name, value in sorted(result["report"].items()):
        if name != "backend":
            print(f"  {name}: {json.dumps(value, sort_keys=True)}")
    print(f"  details: {os.path.relpath(stem, ROOT)}.json")

    missing = [name for name in wanted if name not in metrics]
    if missing:
        return fail(f"metrics not measured on {args.workload}: {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
