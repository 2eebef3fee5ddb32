"""The repository's benchmark: both user paths, end to end and per layer.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload suite-profile --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times the workload's user requests and prints the
end-to-end metrics; ``--trace 1`` replays one request of the workload
in this process with a span around every call into a layer and prints
the per-layer metrics (``perfbench/README.md`` defines them all).  The
last line of standard output is the JSON result; the lines before it
name every figure with its unit and sample count.  The span trace of
``--trace 1`` is written to ``.bench_build/perfbench/`` as JSONL that
``python -m repro trace`` renders.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite-profile", "service-mix")

#: Share of a traced request's wall time its layer spans must cover.
COVERAGE = (0.9, 1.1)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true",
                        help="regenerate perfbench/refs.json and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_refs:
        parser.error("--workload is required")
    return args


def _measure(args, work) -> dict:
    if args.trace:
        import traced
        return traced.run(args.workload, args.seed, work)
    if args.workload == "service-mix":
        import service_mix
        return service_mix.run(args.seed, args.seconds, work)
    import cli_paths
    return cli_paths.run(args.seed, args.seconds, work)


def _declared_metrics(trace: int) -> set:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]
            for metric in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              f"from a complete checkout", file=sys.stderr)
        return 2
    # Byte code of this process goes to the ignored build directory, so
    # importing the program leaves the checkout untouched.
    sys.pycache_prefix = str(ROOT / ".bench_build" / "perfbench"
                             / "pycache-self")
    sys.path.insert(0, str(ROOT / "src"))
    from harness import CheckoutGuard, WorkDir, host_record
    guard = CheckoutGuard()
    work = WorkDir(args.workload or "refs", args.seed)
    host = {"before": host_record()}
    try:
        if args.write_refs:
            import inputs
            inputs.write_refs(work)
            return 0
        result = _measure(args, work)
    finally:
        work.close()
    host["after"] = host_record()
    changes = guard.changes()
    metrics = result["per_layer" if args.trace else "end_to_end"]
    declared = _declared_metrics(args.trace)
    uncovered = args.trace and not (
        COVERAGE[0] <= metrics["trace.coverage"][0] <= COVERAGE[1])
    correct = (result["failed"] == 0 and not changes
               and set(metrics) == declared and not uncovered)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    for name, value, unit, note in result["named"]:
        print(f"{args.workload:<14} {name:<44} {value:>14.6g} {unit:<8} "
              f"({note})")
    for note in result.get("notes", ()):
        print(note)
    if changes:
        print(f"checkout changed by the run: {changes[:10]}")
    if uncovered:
        print(f"trace.coverage {metrics['trace.coverage'][0]:.3f} is "
              f"outside {COVERAGE[0]}-{COVERAGE[1]}: the layer spans do "
              f"not account for the request's wall time")
    if set(metrics) != declared:
        print(f"metrics differ from BENCHMARK.json: missing "
              f"{sorted(declared - set(metrics))}, undeclared "
              f"{sorted(set(metrics) - declared)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
