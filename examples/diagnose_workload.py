#!/usr/bin/env python
"""Diagnose a full workload the way the paper's case studies did.

Runs the eclipse-analogue workload under the profiler and prints the
tool reports a developer would read: the object cost-benefit ranking,
the per-method cost summary, write/read imbalances, and always-true
predicates.  The Figure-6 pattern (a list built by directoryList and
only null-checked by isPackage) surfaces in the ranking.

The observability flags mirror the CLI's (`docs/OBSERVABILITY.md`):
``--telemetry PATH`` records the run's JSONL event stream and
``--self-profile`` reports the tracker's overhead over an untracked
baseline.

Usage: python examples/diagnose_workload.py [workload_name]
           [--telemetry PATH] [--self-profile]
"""

import argparse

from repro.analyses import (analyze_cost_benefit, constant_predicates,
                            format_cost_benefit_report,
                            format_method_costs,
                            format_write_read_report, method_costs,
                            write_read_imbalances)
from repro.observability import (NULL, JsonlSink, Telemetry, current,
                                 emit_tracker_stats, measure_overhead,
                                 set_current)
from repro.profiler import CostTracker
from repro.vm import VM
from repro.workloads import get_workload


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", default="eclipse_like")
    parser.add_argument("--telemetry", metavar="PATH",
                        help="write run telemetry (JSONL) to PATH")
    parser.add_argument("--self-profile", action="store_true",
                        help="also report tracker overhead vs an "
                             "untracked run")
    args = parser.parse_args()

    spec = get_workload(args.workload)
    print(f"workload: {spec.name} — {spec.description}")
    print(f"paper analogue: {spec.paper_analogue}")
    print()

    if args.telemetry:
        set_current(Telemetry(sink=JsonlSink(args.telemetry)))

    program = spec.build("unopt", spec.small_scale)
    tracker = CostTracker(slots=16)
    vm = VM(program, tracer=tracker)
    vm.run()
    graph = tracker.graph

    print(f"executed {vm.instr_count} instructions; graph has "
          f"{graph.num_nodes} nodes / {graph.num_edges} edges")
    print()

    if args.self_profile:
        print(measure_overhead(program, slots=16).format())
        print()

    print("== object cost-benefit ranking (Definition 7, n = 4) ==")
    reports = analyze_cost_benefit(graph, program)
    print(format_cost_benefit_report(reports, top=8))
    print()

    print("== method-level costs ==")
    print(format_method_costs(method_costs(graph, program), top=8))
    print()

    print("== write/read imbalances (derby-style symptoms) ==")
    print(format_write_read_report(write_read_imbalances(graph), top=6))
    print()

    print("== always-true / always-false predicates ==")
    for entry in constant_predicates(graph, tracker.branch_outcomes,
                                     program)[:6]:
        print(f"  line {entry.line}: always {entry.always} "
              f"({entry.executions} executions, condition cost "
              f"{entry.condition_cost:.0f})")

    if args.telemetry:
        emit_tracker_stats(current(), tracker)
        current().close()
        set_current(NULL)
        print()
        print(f"telemetry events written to {args.telemetry}")


if __name__ == "__main__":
    main()
