"""repro — reproduction of "Finding Low-Utility Data Structures"
(Xu, Mitchell, Arnold, Rountev, Schonberg, Sevitsky; PLDI 2010).

The package provides:

* :mod:`repro.lang` — the MiniJ language frontend (the Java substitute),
* :mod:`repro.ir` — the three-address-code program representation,
* :mod:`repro.vm` — the interpreting virtual machine with tracer hooks,
* :mod:`repro.profiler` — abstract dynamic thin slicing / Gcost,
* :mod:`repro.analyses` — cost-benefit, dead-value, and the Figure-2
  client analyses,
* :mod:`repro.workloads` — the synthetic DaCapo-analogue suite,
* :mod:`repro.metrics` — the Table-1 and case-study harnesses.

Quickstart::

    from repro import compile_source, profile
    program = compile_source(source_text)
    result = profile(program)            # runs under the CostTracker
    for row in result.top_offenders(5):
        print(row.what, row.ratio)

Public names resolve lazily: importing a package runs none of its
submodules, and each name imports its own module on first use (see
:func:`_lazy_surface`), so a command pays only for what it runs.
"""

from __future__ import annotations

__version__ = "1.0.0"


def _lazy_surface(package: str, table: dict):
    """``(__getattr__, __dir__, __all__)`` of a package whose public
    names live in its submodules.

    ``table`` maps each submodule (relative, possibly dotted) to the
    names it exports; a name resolves by importing its submodule on
    first access and is then cached in the package namespace.  The
    first component of every key also resolves as an attribute, so
    ``repro.profiler.supervisor`` works before anything imported it.
    """
    import sys
    from importlib import import_module

    namespace = sys.modules[package].__dict__
    owner = {name: module for module, names in table.items()
             for name in names}
    submodules = {module.split(".")[0] for module in table}

    def __getattr__(name):
        if name in owner:
            value = getattr(import_module(f"{package}.{owner[name]}"),
                            name)
            namespace[name] = value
            return value
        if name in submodules:
            return import_module(f"{package}.{name}")
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(set(namespace) | set(owner) | submodules)

    return __getattr__, __dir__, list(owner)


class ProfileResult:
    """Everything produced by one profiled run."""

    def __init__(self, vm, tracker, program):
        self.vm = vm
        self.tracker = tracker
        self.program = program

    @property
    def graph(self):
        return self.tracker.graph

    @property
    def output(self) -> str:
        return self.vm.stdout()

    def top_offenders(self, top: int = 10, **kwargs):
        from .analyses import analyze_cost_benefit
        return analyze_cost_benefit(self.graph, self.program,
                                    **kwargs)[:top]

    def bloat_metrics(self):
        from .analyses import measure_bloat
        return measure_bloat(self.graph, self.vm.instr_count)

    def report(self, top: int = 10) -> str:
        from .analyses import format_cost_benefit_report
        return format_cost_benefit_report(self.top_offenders(top), top)


def profile(program, slots: int = 16, phases=None,
            max_steps: int = 2_000_000_000) -> ProfileResult:
    """Run ``program`` under the cost tracker and return the results."""
    from .profiler.tracker import CostTracker
    from .vm.interpreter import VM
    tracker = CostTracker(slots=slots, phases=phases)
    vm = VM(program, tracer=tracker, max_steps=max_steps)
    vm.run()
    return ProfileResult(vm=vm, tracker=tracker, program=program)


def run(program, max_steps: int = 2_000_000_000) -> VM:
    """Run ``program`` without instrumentation."""
    from .vm.interpreter import VM
    vm = VM(program, max_steps=max_steps)
    vm.run()
    return vm


__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "lang.codegen": ("compile_source",),
    "profiler.tracker": ("CostTracker",),
    "vm.interpreter": ("VM",),
    "analyses": (), "ir": (), "metrics": (), "observability": (),
    "service": (), "stdlib": (), "testing": (), "workloads": (),
})

__all__ += ["profile", "run", "ProfileResult", "__version__"]
