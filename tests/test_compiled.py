"""Compiled dispatch tier + adaptive burst sampling.

Two contracts pin the compiled tier and burst sampling:

* **tier equivalence** — with sampling off, the compiled tier is
  observationally identical to the reference interpreter: same
  output, same instruction count, same phase windows, and a
  ``canonical_form``-identical profile (Gcost plus the tracker's CR
  contexts, branch outcomes and return nodes), on every registered
  workload plus the analysis-stress program, for every
  ``CostTracker`` configuration the tracked template covers.  Each
  equivalence test also asserts ``exec_tier == "compiled"`` and that
  the expected template variant ran, so a silent fallback cannot
  turn the suite into a vacuous pass.
* **sampling estimation** — the burst schedule is a pure function of
  the instruction count, so sampled runs replay deterministically
  (across repeats *and* across tiers), and scaled frequencies are
  unbiased estimates with bounded per-site error.  Deadness (IPD) is
  *not* estimable from sampled graphs — the test asserts the
  documented direction of that bias rather than pretending it away.
"""

import pytest

from repro.profiler import (CostTracker, ProfileJob, SampleSchedule,
                            SupervisedProfiler, aggregate_factor,
                            apply_sampling_scale, canonical_form,
                            jobs_fingerprint, parse_sample_spec,
                            profile_jobs_sequential)
from repro.vm import EXEC_COMPILED, EXEC_INTERP, VM
from repro.vm.compiled import VARIANT_TRACKED, compiled_tier, precompile
from repro.vm.interpreter import resolve_exec_mode
from repro.workloads import all_workloads, get_workload
from repro.workloads.stress import build_stress

WORKLOADS = sorted(spec.name for spec in all_workloads())

#: Deterministic small schedule: toggles often enough to exercise the
#: window machinery on test-sized runs.
SMALL_SPEC = "1024:8192:1024:1.0"


def _programs():
    for name in WORKLOADS:
        spec = get_workload(name)
        yield name, spec.build("unopt", spec.small_scale)
    yield "stress", build_stress(stages=24, chain=8, rounds=3)


#: The CostTracker configurations one tracked template must cover:
#: slots 8/16 x track_cr on/off, phase-restricted tracking (enabled ->
#: disabled -> enabled on trade_like, the workload with phases), and
#: the control-dependence ablation.
TRACKER_CONFIGS = [{"slots": slots, "track_cr": track_cr}
                   for slots in (8, 16) for track_cr in (True, False)] + [
    {"slots": 16, "phases": ("main", "steady")},
    {"slots": 16, "track_control": True},
]


#: A program that dereferences null on its 32nd loop iteration.
NULL_DEREF_SOURCE = """
class Box { int v; Box next; }
class Main { static void main() {
    Box b = new Box();
    int acc = 0;
    for (int i = 0; i < 40; i++) {
        b.next = new Box();
        b.next.v = i * 3;
        acc = acc + b.next.v;
        if (i == 31) { b = b.next.next; }
    }
    Sys.printInt(acc);
} }"""


#: A loop that calls ``f(i)`` 40 times; each ``f`` faults at i == 31.
_FAULT_LOOP = """
class Box { int v; int get() { return v; } }
class Main {
    static int f(int i) { %s }
    static void main() {
        int acc = 0;
        for (int i = 0; i < 40; i++) { acc = acc + f(i); }
        Sys.printInt(acc);
    }
}"""

#: The faulting runs both tiers must contain alike ("budget" runs a
#: workload out of its instruction budget instead).
FAULT_SOURCES = {
    "budget": None,
    "null": NULL_DEREF_SOURCE,
    "div": _FAULT_LOOP % "return 100 / (31 - i);",
    "mod": _FAULT_LOOP % "return 100 % (31 - i);",
    "bounds": _FAULT_LOOP % "int[] a = new int[32]; a[i] = i; "
                            "return a[i + 1];",
    "negsize": _FAULT_LOOP % "int[] a = new int[30 - i]; return a.length;",
    "nullrecv": _FAULT_LOOP % "Box b = new Box(); b.v = i; "
                              "if (i == 31) { b = null; } return b.get();",
}


def _run(program, exec_mode, tracer=None, sampling=None):
    vm = VM(program, tracer=tracer, exec_mode=exec_mode,
            sampling=sampling)
    vm.run()
    return vm


def _profile(vm):
    """The run's whole profile: Gcost plus the tracker state."""
    return canonical_form(vm.tracer.graph, vm.tracer.state())


def _assert_tracked_template_ran(program):
    assert len(compiled_tier(program, VARIANT_TRACKED)) > 0


class TestTierEquivalence:
    @pytest.mark.parametrize("name,program", list(_programs()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_untraced_equivalence(self, name, program):
        interp = _run(program, EXEC_INTERP)
        compiled = _run(program, EXEC_COMPILED)
        assert interp.exec_tier == EXEC_INTERP
        assert compiled.exec_tier == EXEC_COMPILED
        assert compiled.stdout() == interp.stdout()
        assert compiled.instr_count == interp.instr_count
        assert compiled.phase_counts == interp.phase_counts

    @pytest.mark.parametrize("name,program", list(_programs()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_tracked_gcost_equivalence(self, name, program):
        for params in TRACKER_CONFIGS:
            interp = _run(program, EXEC_INTERP,
                          tracer=CostTracker(**params))
            compiled = _run(program, EXEC_COMPILED,
                            tracer=CostTracker(**params))
            assert interp.exec_tier == EXEC_INTERP
            assert compiled.exec_tier == EXEC_COMPILED
            assert compiled.stdout() == interp.stdout()
            assert compiled.instr_count == interp.instr_count
            assert _profile(compiled) == _profile(interp), params
        _assert_tracked_template_ran(program)

    @pytest.mark.parametrize("fault", sorted(FAULT_SOURCES))
    def test_faulting_run_leaves_the_same_partial_profile(self, fault):
        # Fault containment: the tracker's graph-so-far is a salvageable
        # partial profile, and it is the same on both tiers.
        from repro.lang import compile_source
        from repro.vm import VMError
        if fault == "budget":
            spec = get_workload("bloat_like")
            program = spec.build("unopt", spec.small_scale)
            max_steps = 30_000
        else:
            program = compile_source(FAULT_SOURCES[fault])
            max_steps = 2_000_000_000
        runs, errors = {}, {}
        for tier in (EXEC_INTERP, EXEC_COMPILED):
            vm = VM(program, tracer=CostTracker(slots=16), exec_mode=tier,
                    max_steps=max_steps)
            with pytest.raises(VMError) as info:
                vm.run()
            assert vm.exec_tier == tier
            runs[tier] = vm
            errors[tier] = (type(info.value), info.value.where)
        interp, compiled = runs[EXEC_INTERP], runs[EXEC_COMPILED]
        assert errors[EXEC_COMPILED] == errors[EXEC_INTERP]
        assert compiled.instr_count == interp.instr_count
        assert compiled.phase_counts == interp.phase_counts
        assert compiled.tracer.graph.num_nodes > 0
        assert _profile(compiled) == _profile(interp)
        _assert_tracked_template_ran(program)

    def test_default_mode_is_compiled(self):
        program = build_stress(stages=6, chain=6, rounds=2)
        vm = _run(program, None)
        assert vm.exec_mode == EXEC_COMPILED
        assert vm.exec_tier == EXEC_COMPILED

    def test_resolve_exec_mode_rejects_unknown(self):
        from repro.vm import VMError
        with pytest.raises(VMError):
            resolve_exec_mode("jit")

    def test_unsupported_shape_falls_back_to_interp(self):
        # The compiled tier emits (and shape-checks) every method's
        # source up front, though it compiles each one only on its
        # first call; a method the template cannot express (empty
        # body) poisons the whole tier even though it is never called
        # and the interpreter, which only executes what is reached,
        # runs the program fine.
        from repro.lang import compile_source
        source = """
class Dead { int unused() { return 1; } }
class Main { static void main() { Sys.printInt(7); } }
"""
        program = compile_source(source)
        reference = _run(program, EXEC_INTERP)
        program.classes["Dead"].methods["unused"].body = []
        broken = _run(program, EXEC_COMPILED)
        assert broken.exec_tier == EXEC_INTERP
        assert broken.stdout() == reference.stdout() == "7"
        assert broken.instr_count == reference.instr_count


def _methods(program):
    return {method for cls in program.classes.values()
            for method in cls.methods.values()}


#: ``rec`` recurses 25 deep, is called from compiled ``start`` and calls
#: compiled ``Acc.add``; ``BASE`` is the argument of its base case.
MIXED_SOURCE = """
class Acc {
    int total;
    int add(int x) { total = total + x; return total; }
}
class Main {
    static int rec(Acc acc, int n) {
        if (n <= 0) { return acc.add(BASE); }
        int here = acc.add(n * n);
        return rec(acc, n - 1) + here % 7;
    }
    static int start(int n) {
        Acc acc = new Acc();
        Sys.phase("deep");
        int r = rec(acc, n);
        Sys.printInt(acc.total);
        return r;
    }
    static void main() { Sys.printInt(start(25)); }
}"""


class TestMixedTiers:
    """``VM._drive`` runs any mix of activation functions: a
    run in which only ``Main.rec`` runs the reference loop and every
    other method its template (or the inverse) matches the all-compiled
    and all-interpreted runs, untracked and tracked."""

    def _runs(self, base):
        from repro.lang import compile_source
        from repro.vm import VMError
        from repro.vm.compiled import VARIANT_PLAIN
        from repro.vm.interpreter import interpret
        program = compile_source(MIXED_SOURCE.replace("BASE", base))
        rec = program.classes["Main"].methods["rec"]
        interpreted = []

        def spy(rt, frame, count, limit):
            interpreted.append(frame.method)
            return interpret(rt, frame, count, limit)

        plain = compiled_tier(program, VARIANT_PLAIN)
        tier = {method: spy if method is rec else plain[method]
                for method in _methods(program)}
        runs, errors = {}, {}
        for name in (EXEC_INTERP, EXEC_COMPILED, "mixed"):
            vm = VM(program, exec_mode=name if name != "mixed" else None)
            try:
                if name == "mixed":
                    vm._drive(tier, tier)
                else:
                    vm.run()
                    assert vm.exec_tier == name
            except VMError as error:
                errors[name] = (type(error), error.where)
            runs[name] = vm
        assert interpreted == [rec] * 26
        return runs, errors

    def test_one_method_interpreted_among_compiled(self):
        runs, errors = self._runs("1")
        assert not errors
        mixed = runs.pop("mixed")
        assert mixed.finished
        for vm in runs.values():
            assert mixed.stdout() == vm.stdout()
            assert mixed.instr_count == vm.instr_count
            assert mixed.phase_counts == vm.phase_counts
            assert mixed.result == vm.result
        assert "deep" in mixed.phase_counts

    def test_fault_inside_the_interpreted_method(self):
        runs, errors = self._runs("1 / (n - n)")
        assert len(errors) == 3
        assert len(set(errors.values())) == 1
        assert len({vm.instr_count for vm in runs.values()}) == 1
        assert len({tuple(sorted(vm.phase_counts.items()))
                    for vm in runs.values()}) == 1

    @pytest.mark.parametrize("sampling", [None, "16:64:16"],
                             ids=["exact", "sampled"])
    @pytest.mark.parametrize("rec_interpreted", [True, False],
                             ids=["rec-interpreted", "rec-compiled"])
    def test_tracked_mix_equals_both_tiers(self, rec_interpreted, sampling):
        """Shadows cross the tiers both ways: the template caller's entry
        tuple reaches an interpreted callee's hooks, the hooks' tuple a
        template, and each side's returned node the other's caller.
        Under burst sampling the untracked bursts run the same mix of
        reference loop and plain templates.  Growth samples count the
        same live shadows on every tier."""
        from repro.lang import compile_source
        from repro.observability import Telemetry
        from repro.vm.compiled import VARIANT_PLAIN, _bind_tracked
        from repro.vm.interpreter import interpret
        program = compile_source(MIXED_SOURCE.replace("BASE", "1"))
        rec = program.classes["Main"].methods["rec"]
        interpreted = set()

        def spy(rt, frame, count, limit):
            interpreted.add(frame.method)
            return interpret(rt, frame, count, limit)

        def mix(templates):
            return {method: spy if (method is rec) == rec_interpreted
                    else templates[method] for method in _methods(program)}

        runs = {}
        for name in (EXEC_INTERP, EXEC_COMPILED, "mixed"):
            vm = VM(program, tracer=CostTracker(slots=16, track_control=True),
                    exec_mode=name if name != "mixed" else None,
                    sampling=parse_sample_spec(sampling),
                    telemetry=Telemetry(sample_interval=16))
            if name == "mixed":
                vm._drive(mix(compiled_tier(program, VARIANT_TRACKED)),
                          mix(compiled_tier(program, VARIANT_PLAIN)),
                          _bind_tracked)
            else:
                vm.run()
                assert vm.exec_tier == name
            runs[name] = vm
        assert (interpreted == {rec}) == rec_interpreted
        assert interpreted and (rec in interpreted) == rec_interpreted
        mixed = runs.pop("mixed")
        assert mixed.finished
        if sampling is not None:
            assert mixed.sampling_stats()["toggles"] > 0
        for vm in runs.values():
            assert mixed.stdout() == vm.stdout()
            assert mixed.instr_count == vm.instr_count
            assert mixed.phase_counts == vm.phase_counts
            assert mixed.sampling_stats() == vm.sampling_stats()
            assert _profile(mixed) == _profile(vm)
            assert _growth(mixed) == _growth(vm)
        assert any(shadow for _, shadow in _growth(mixed))


def _growth(vm):
    """The run's telemetry growth samples: instructions and shadows."""
    return [(event["i"], event["shadow"]) for event in vm.telemetry.sink.events
            if event["ev"] == "sample"]


class _EntryRecorder(CostTracker):
    """Records every method activation it sees.  A subclass, so it runs
    on the interpreter."""

    def __init__(self, **params):
        super().__init__(**params)
        self.entered = set()

    def on_entry_frame(self, frame):
        super().on_entry_frame(frame)
        self.entered.add(frame.method)

    def trace_call(self, instr, caller_frame, callee_frame, recv_obj):
        super().trace_call(instr, caller_frame, callee_frame, recv_obj)
        self.entered.add(callee_frame.method)


class TestFaultingRunTier:
    """``exec_tier`` is set when a tier is chosen, so a run that a
    VMError ends records the tier that ran, and so does the meta of
    the partial shard the supervisor salvages from it."""

    @pytest.mark.parametrize("exec_mode,tracer,tier", [
        (EXEC_INTERP, CostTracker, EXEC_INTERP),
        (EXEC_COMPILED, CostTracker, EXEC_COMPILED),
        (EXEC_COMPILED, _EntryRecorder, EXEC_INTERP)],
        ids=["interp", "compiled", "subclass"])
    def test_faulting_run_records_its_tier(self, exec_mode, tracer, tier):
        from repro.lang import compile_source
        from repro.vm import VMError
        vm = VM(compile_source(NULL_DEREF_SOURCE), tracer=tracer(slots=16),
                exec_mode=exec_mode)
        with pytest.raises(VMError):
            vm.run()
        assert vm.exec_tier == tier

    @pytest.mark.parametrize("exec_mode,unsupported,tier", [
        (EXEC_INTERP, False, EXEC_INTERP),
        (EXEC_COMPILED, False, EXEC_COMPILED),
        (EXEC_COMPILED, True, EXEC_INTERP)],
        ids=["interp", "compiled", "fallback"])
    def test_salvaged_shard_meta_records_its_tier(self, exec_mode,
                                                  unsupported, tier):
        from repro.lang import compile_source
        from repro.profiler.supervisor import _run_job_salvaging
        source = "class Dead { int unused() { return 1; } }\n" \
            + NULL_DEREF_SOURCE
        program = compile_source(source)
        if unsupported:     # as in test_unsupported_shape_falls_back
            program.classes["Dead"].methods["unused"].body = []
        job = ProfileJob.from_source(source, exec_mode=exec_mode)
        job.build = lambda: program
        doc = _run_job_salvaging(job, 16, None, True, False)
        assert doc["meta"]["partial"] is True
        assert doc["meta"]["error_type"] == "VMNullError"
        assert doc["meta"]["exec_mode"] == tier


class TestLazyTier:
    def test_tracked_run_compiles_only_methods_that_ran(self):
        spec = get_workload("trade_like")
        program = spec.build("unopt", spec.small_scale)
        entered = _run(program, EXEC_INTERP,
                       tracer=_EntryRecorder(slots=16)).tracer.entered
        # A built tier with nothing compiled yet is an empty mapping;
        # it must still be served as a tier, not as "unsupported".
        tier = compiled_tier(program, VARIANT_TRACKED)
        assert len(tier) == 0
        assert compiled_tier(program, VARIANT_TRACKED) is tier
        vm = _run(program, EXEC_COMPILED, tracer=CostTracker(slots=16))
        assert vm.exec_tier == EXEC_COMPILED
        assert set(tier) == entered
        assert len(tier) < len(_methods(program))
        assert all(callable(fn) for fn in tier.values())

    def test_precompile_compiles_every_method(self):
        # tracer=True stands for a CostTracker: its tracked template.
        spec = get_workload("trade_like")
        program = spec.build("unopt", spec.small_scale)
        assert precompile(program, tracer=True)
        tier = compiled_tier(program, VARIANT_TRACKED)
        assert set(tier) == _methods(program)
        assert all(callable(fn) for fn in tier.values())

    @pytest.mark.parametrize("tracer_cls,compiles", [
        (CostTracker, True), (_EntryRecorder, False)],
        ids=["cost-tracker", "subclass"])
    def test_precompile_follows_the_tracer_type(self, tracer_cls, compiles):
        # Only an exact CostTracker has a template (the tracked one);
        # any other tracer runs on the interpreter and compiles nothing.
        spec = get_workload("trade_like")
        program = spec.build("unopt", spec.small_scale)
        assert precompile(program, tracer=tracer_cls(slots=16)) is compiles
        vm = _run(program, EXEC_COMPILED, tracer=tracer_cls(slots=16))
        assert vm.exec_tier == (EXEC_COMPILED if compiles else EXEC_INTERP)
        tiers = getattr(program, "_compiled_tiers", {})
        compiled = {method for tier in tiers.values() if tier
                    for method in tier}
        assert compiled == (_methods(program) if compiles else set())


class TestSampling:
    def test_parse_sample_spec(self):
        assert parse_sample_spec(None) is None
        assert parse_sample_spec("off") is None
        assert parse_sample_spec("") is None
        default = parse_sample_spec("on")
        assert isinstance(default, SampleSchedule)
        custom = parse_sample_spec("1024:8192:512:1.5")
        assert (custom.window, custom.period) == (1024, 8192)
        assert custom.warmup == 512
        assert custom.growth_pct == 150
        with pytest.raises(ValueError):
            parse_sample_spec("1024")

    def test_cursor_accounting_is_exact(self):
        schedule = parse_sample_spec(SMALL_SPEC)
        program = build_stress(stages=24, chain=8, rounds=4)
        vm = _run(program, EXEC_COMPILED, tracer=CostTracker(slots=16),
                  sampling=schedule)
        stats = vm.sampling_stats()
        assert stats["total_instructions"] == vm.instr_count
        assert 0 < stats["tracked_instructions"] < vm.instr_count
        assert stats["toggles"] > 0
        assert stats["factor"] == pytest.approx(
            vm.instr_count / stats["tracked_instructions"])

    def test_sampled_replay_is_deterministic(self):
        schedule = parse_sample_spec(SMALL_SPEC)
        program = build_stress(stages=24, chain=8, rounds=4, seed=3)
        runs = [_run(program, EXEC_COMPILED,
                     tracer=CostTracker(slots=16), sampling=schedule)
                for _ in range(2)]
        assert runs[0].sampling_stats() == runs[1].sampling_stats()
        assert canonical_form(runs[0].tracer.graph) == \
            canonical_form(runs[1].tracer.graph)

    def test_sampled_graph_identical_across_tiers(self):
        # The window schedule depends only on the instruction count,
        # which both tiers advance identically, and both tiers leave an
        # activation spawned during a burst untracked until it returns
        # -- so even the *sampled* (lossy) profiles must agree exactly.
        schedule = parse_sample_spec(SMALL_SPEC)
        programs = [program for _, program in _programs()]
        programs[-1] = build_stress(stages=24, chain=8, rounds=4, seed=5)
        for program in programs:
            interp = _run(program, EXEC_INTERP,
                          tracer=CostTracker(slots=16), sampling=schedule)
            compiled = _run(program, EXEC_COMPILED,
                            tracer=CostTracker(slots=16), sampling=schedule)
            assert compiled.exec_tier == EXEC_COMPILED
            assert interp.sampling_stats() == compiled.sampling_stats()
            assert interp.sampling_stats()["toggles"] > 0
            assert _profile(interp) == _profile(compiled)
            _assert_tracked_template_ran(program)

    @pytest.fixture(scope="class")
    def stress_pair(self):
        """An exact and a sampled tracked run of one stress program,
        the sampled graph scaled by its factor; the two estimate tests
        below read the same pair, so it is built once."""
        program = build_stress(stages=96, chain=24, rounds=40, seed=7)
        exact_vm = _run(program, EXEC_COMPILED,
                        tracer=CostTracker(slots=16))
        sampled_vm = _run(program, EXEC_COMPILED,
                          tracer=CostTracker(slots=16),
                          sampling=parse_sample_spec(SMALL_SPEC))
        apply_sampling_scale(sampled_vm.tracer.graph,
                             sampled_vm.sampling_stats()["factor"])
        return exact_vm, sampled_vm

    def test_frequency_estimates_are_bounded(self, stress_pair):
        exact_vm, sampled_vm = stress_pair
        estimated = sampled_vm.tracer.graph

        def site_freqs(graph):
            sites = {}
            for (iid, _), freq in zip(graph.node_keys, graph.freq):
                sites[iid] = sites.get(iid, 0) + freq
            return sites

        exact = site_freqs(exact_vm.tracer.graph)
        est = site_freqs(estimated)
        hottest = sorted(exact, key=exact.get, reverse=True)[:20]
        errors = [abs(est.get(iid, 0) - exact[iid]) / exact[iid]
                  for iid in hottest]
        # Measured ~0.20 mean error at this schedule/size (see
        # BENCH_PR7.json); bound with headroom but tight enough to
        # catch a broken scale factor (which shows up as ~1.0+).
        assert sum(errors) / len(errors) < 0.35
        assert max(errors) < 0.6

    def test_ipd_bias_direction_is_overapproximation(self, stress_pair):
        # Untracked bursts sever the shadow heap, so reachability-based
        # deadness over-approximates on sampled graphs.  This is the
        # documented reason bloat classification requires exact runs;
        # if it ever stops holding, the docs (and the CLI banner) are
        # wrong and need revisiting.
        from repro.analyses.deadvalues import measure_bloat
        exact_vm, sampled_vm = stress_pair
        exact = measure_bloat(exact_vm.tracer.graph,
                              exact_vm.instr_count)
        est = measure_bloat(sampled_vm.tracer.graph,
                            sampled_vm.instr_count)
        assert est.ipd >= exact.ipd

    def test_apply_sampling_scale_returns_raw(self):
        program = build_stress(stages=6, chain=6, rounds=2)
        vm = _run(program, EXEC_COMPILED, tracer=CostTracker(slots=16),
                  sampling=parse_sample_spec(SMALL_SPEC))
        graph = vm.tracer.graph
        raw = apply_sampling_scale(graph, 2.0)
        assert graph.freq == [f * 2 for f in raw]
        graph.freq = raw


class TestProfilerIntegration:
    def _jobs(self, sampling=None, exec_mode=None):
        return [ProfileJob.stress(stages=24, chain=8, rounds=3, seed=s,
                                  exec_mode=exec_mode, sampling=sampling)
                for s in range(3)]

    def test_sampled_parallel_merge_matches_sequential(self):
        jobs = self._jobs(sampling=SMALL_SPEC)
        seq = profile_jobs_sequential(jobs, slots=16)
        par = SupervisedProfiler(workers=2, slots=16).profile(jobs).profile
        assert canonical_form(par.graph, par.state) == \
            canonical_form(seq.graph, seq.state)
        assert par.sampled
        assert par.sampling_factor == pytest.approx(
            aggregate_factor(seq.metas))
        for meta in par.metas:
            assert meta["exec_mode"] == EXEC_COMPILED
            assert meta["sampling"]["toggles"] > 0

    def test_unsampled_metas_stay_lean(self):
        jobs = self._jobs()
        seq = profile_jobs_sequential(jobs, slots=16)
        assert not seq.sampled
        assert seq.sampling_factor == 1.0
        for meta in seq.metas:
            assert meta.get("sampling") is None

    def test_fingerprint_binds_exec_mode_and_sampling(self):
        plain = jobs_fingerprint(self._jobs(), 16, None, False, False)
        sampled = jobs_fingerprint(self._jobs(sampling=SMALL_SPEC),
                                   16, None, False, False)
        other = jobs_fingerprint(
            self._jobs(sampling="2048:8192:1024:1.0"),
            16, None, False, False)
        interp = jobs_fingerprint(self._jobs(exec_mode=EXEC_INTERP),
                                  16, None, False, False)
        assert len({plain, sampled, other, interp}) == 4
        assert plain == jobs_fingerprint(self._jobs(), 16, None,
                                         False, False)
