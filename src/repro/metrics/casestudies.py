"""Case-study harness (§4.2): unoptimized vs optimized workloads.

For each workload the harness

1. runs both variants and checks their program output is identical
   (the fixes are semantics-preserving),
2. reports the reduction in executed instructions, wall-clock time,
   and objects allocated,
3. profiles the unoptimized variant and checks the tool's cost-benefit
   report actually points at the bloat (the culprit allocation sites
   rank near the top) — the paper's workflow of reading the report and
   fixing what it names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..analyses import analyze_cost_benefit
from ..profiler import CostTracker
from ..vm import VM
from ..workloads import all_workloads


@dataclass
class CaseStudyResult:
    name: str
    paper_analogue: str
    unopt_instructions: int
    opt_instructions: int
    unopt_seconds: float
    opt_seconds: float
    unopt_allocations: int
    opt_allocations: int
    outputs_match: bool
    expected_band: tuple
    #: Ranked cost-benefit report of the unoptimized run (top entries).
    top_sites: list = field(default_factory=list)

    @property
    def instruction_reduction(self) -> float:
        if self.unopt_instructions == 0:
            return 0.0
        return 1.0 - self.opt_instructions / self.unopt_instructions

    @property
    def time_reduction(self) -> float:
        if self.unopt_seconds == 0:
            return 0.0
        return 1.0 - self.opt_seconds / self.unopt_seconds

    @property
    def allocation_reduction(self) -> float:
        if self.unopt_allocations == 0:
            return 0.0
        return 1.0 - self.opt_allocations / self.unopt_allocations

    @property
    def in_expected_band(self) -> bool:
        lo, hi = self.expected_band
        return lo <= self.instruction_reduction <= hi


def run_case_study(spec, scale=None, top: int = 10,
                   profile_slots: int = 16) -> CaseStudyResult:
    unopt = spec.build("unopt", scale)
    opt = spec.build("opt", scale)

    start = time.perf_counter()
    unopt_vm = VM(unopt)
    unopt_vm.run()
    unopt_seconds = time.perf_counter() - start

    start = time.perf_counter()
    opt_vm = VM(opt)
    opt_vm.run()
    opt_seconds = time.perf_counter() - start

    tracker = CostTracker(slots=profile_slots)
    VM(unopt, tracer=tracker).run()
    reports = analyze_cost_benefit(tracker.graph, unopt)[:top]

    return CaseStudyResult(
        name=spec.name,
        paper_analogue=spec.paper_analogue,
        unopt_instructions=unopt_vm.instr_count,
        opt_instructions=opt_vm.instr_count,
        unopt_seconds=unopt_seconds,
        opt_seconds=opt_seconds,
        unopt_allocations=unopt_vm.heap.total_allocated,
        opt_allocations=opt_vm.heap.total_allocated,
        outputs_match=unopt_vm.stdout() == opt_vm.stdout(),
        expected_band=spec.expected_speedup,
        top_sites=reports,
    )


def run_all_case_studies(scale=None, specs=None):
    if specs is None:
        specs = all_workloads()
    return [run_case_study(spec, scale) for spec in specs]


def format_case_studies(results) -> str:
    lines = [
        "workload        instr-red  time-red  alloc-red  match  "
        "paper analogue",
        "-" * 88,
    ]
    for result in sorted(results, key=lambda r: -r.instruction_reduction):
        lines.append(
            f"{result.name:<15}"
            f"{result.instruction_reduction * 100:>8.1f}% "
            f"{result.time_reduction * 100:>8.1f}% "
            f"{result.allocation_reduction * 100:>9.1f}% "
            f"{'yes' if result.outputs_match else 'NO':>6} "
            f" {result.paper_analogue}")
    return "\n".join(lines)
