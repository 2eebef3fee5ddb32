"""Compiled dispatch tier + adaptive burst sampling.

Two contracts pin the PR-7 performance work:

* **tier equivalence** — with sampling off, the compiled closure tier
  is observationally identical to the reference interpreter: same
  output, same instruction count, same phase windows, and a
  ``canonical_form``-identical Gcost, on every registered workload
  plus the analysis-stress program.  Each equivalence test also
  asserts ``exec_tier == "compiled"`` so a silent interpreter
  fallback cannot turn the suite into a vacuous pass.
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


def _run(program, exec_mode, tracer=None, sampling=None):
    vm = VM(program, tracer=tracer, exec_mode=exec_mode,
            sampling=sampling)
    vm.run()
    return vm


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
        interp = _run(program, EXEC_INTERP, tracer=CostTracker(slots=16))
        compiled = _run(program, EXEC_COMPILED,
                        tracer=CostTracker(slots=16))
        assert compiled.exec_tier == EXEC_COMPILED
        assert compiled.stdout() == interp.stdout()
        assert compiled.instr_count == interp.instr_count
        assert canonical_form(compiled.tracer.graph) == \
            canonical_form(interp.tracer.graph)

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
        # The compiled tier compiles every method up front; a method
        # the template cannot express (empty body) poisons the whole
        # tier even though the interpreter, which only executes what
        # is reached, runs the program fine.
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
        # which both tiers advance identically — so even the *sampled*
        # (lossy) graphs must agree exactly.
        schedule = parse_sample_spec(SMALL_SPEC)
        program = build_stress(stages=24, chain=8, rounds=4, seed=5)
        interp = _run(program, EXEC_INTERP, tracer=CostTracker(slots=16),
                      sampling=schedule)
        compiled = _run(program, EXEC_COMPILED,
                        tracer=CostTracker(slots=16), sampling=schedule)
        assert compiled.exec_tier == EXEC_COMPILED
        assert interp.sampling_stats() == compiled.sampling_stats()
        assert canonical_form(interp.tracer.graph) == \
            canonical_form(compiled.tracer.graph)

    def test_frequency_estimates_are_bounded(self):
        program = build_stress(stages=96, chain=24, rounds=40, seed=7)
        exact_vm = _run(program, EXEC_COMPILED,
                        tracer=CostTracker(slots=16))
        sampled_vm = _run(program, EXEC_COMPILED,
                          tracer=CostTracker(slots=16),
                          sampling=parse_sample_spec(SMALL_SPEC))
        factor = sampled_vm.sampling_stats()["factor"]
        estimated = sampled_vm.tracer.graph
        apply_sampling_scale(estimated, factor)

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

    def test_ipd_bias_direction_is_overapproximation(self):
        # Untracked bursts sever the shadow heap, so reachability-based
        # deadness over-approximates on sampled graphs.  This is the
        # documented reason bloat classification requires exact runs;
        # if it ever stops holding, the docs (and the CLI banner) are
        # wrong and need revisiting.
        from repro.analyses.deadvalues import measure_bloat
        program = build_stress(stages=96, chain=24, rounds=40, seed=7)
        exact_vm = _run(program, EXEC_COMPILED,
                        tracer=CostTracker(slots=16))
        sampled_vm = _run(program, EXEC_COMPILED,
                          tracer=CostTracker(slots=16),
                          sampling=parse_sample_spec(SMALL_SPEC))
        apply_sampling_scale(sampled_vm.tracer.graph,
                             sampled_vm.sampling_stats()["factor"])
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
