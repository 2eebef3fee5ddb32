"""Parallel profiling runtime: exact-merge equivalence and unit tests.

The correctness claim of `repro.profiler.parallel` is that merging the
Gcost graphs of independently profiled shards is *exact*: because
nodes live in the bounded abstract domain ``(iid, h(context))``, the
merged graph equals the graph a single tracker builds running the
shards back to back (`profile_jobs_sequential`, the oracle).  The
suite checks that claim canonically (node-numbering independent) and
structurally (the in-order merge even reproduces the oracle's node
numbering bit for bit) across workloads, context-domain sizes, seeded
stress shards, and one or two concurrent supervised workers.
"""

import pytest

from conftest import reference_conflict_ratio
from repro.profiler import (CONTEXTLESS, AggregateProfile, CostTracker,
                            DependenceGraph, ProfileInputError,
                            ProfileJob, SupervisedProfiler, TrackerState,
                            canonical_form, graph_from_dict,
                            graph_to_dict, merge_graphs,
                            profile_jobs_sequential,
                            tracker_state_from_dict)
from repro.vm import VM
from repro.workloads import get_workload

#: ≥ 3 workloads, as the acceptance criteria require; chosen small.
EQUIVALENCE_WORKLOADS = ("chart_like", "trade_like", "xalan_like",
                         "eclipse_like")
SLOTS = (8, 16)


def supervised(jobs, workers=1, **params) -> AggregateProfile:
    """Profile ``jobs`` through the shard supervisor; the merged
    profile of a clean run."""
    run = SupervisedProfiler(workers=workers, **params).profile(jobs)
    assert run.report.ok
    return run.profile


def workload_jobs(name):
    """Three shards of one workload: two unopt runs plus an opt run.

    Mixing variants makes the merge non-trivial — the shard graphs
    differ in nodes and edges, not only in frequencies.
    """
    spec = get_workload(name)
    scale = spec.small_scale
    return [ProfileJob.workload(name, "unopt", scale, label="u0"),
            ProfileJob.workload(name, "unopt", scale, label="u1"),
            ProfileJob.workload(name, "opt", scale, label="o0")]


def assert_profiles_identical(seq: AggregateProfile,
                              par: AggregateProfile):
    """Structural equality — including node numbering — plus the
    canonical (numbering-independent) form the criteria name."""
    left, right = seq.graph, par.graph
    assert left.node_keys == right.node_keys
    assert left.freq == right.freq
    assert left.flags == right.flags
    assert left.preds == right.preds
    assert left.succs == right.succs
    assert left.effects == right.effects
    assert left.ref_edges == right.ref_edges
    assert left.points_to == right.points_to
    assert left.control_deps == right.control_deps
    assert left.num_edges == right.num_edges
    assert seq.state.branch_outcomes == par.state.branch_outcomes
    assert seq.state.return_nodes == par.state.return_nodes
    padded = lambda gs, n: list(gs) + [None] * (n - len(gs))  # noqa: E731
    size = max(len(seq.state.node_gs), len(par.state.node_gs))
    assert padded(seq.state.node_gs, size) == \
        padded(par.state.node_gs, size)
    assert canonical_form(left, seq.state) == \
        canonical_form(right, par.state)


class TestShardedWorkloadEquivalence:
    @pytest.mark.parametrize("slots", SLOTS)
    @pytest.mark.parametrize("name", EQUIVALENCE_WORKLOADS)
    def test_merge_matches_sequential(self, name, slots):
        jobs = workload_jobs(name)
        seq = profile_jobs_sequential(jobs, slots=slots)
        par = supervised(jobs, slots=slots)
        assert_profiles_identical(seq, par)
        assert seq.instructions == par.instructions
        assert seq.outputs == par.outputs

    @pytest.mark.parametrize("slots", SLOTS)
    def test_seeded_stress_shards(self, slots):
        jobs = [ProfileJob.stress(stages=6, chain=6, rounds=2, seed=s)
                for s in range(3)]
        seq = profile_jobs_sequential(jobs, slots=slots)
        par = supervised(jobs, slots=slots)
        assert_profiles_identical(seq, par)
        # Seeds change the data, not the structure: the merged graph
        # has the same node set as one shard, at 3x the frequency.
        single = supervised(jobs[:1], slots=slots)
        assert sorted(par.graph.node_keys) == \
            sorted(single.graph.node_keys)
        assert par.graph.total_frequency() == \
            3 * single.graph.total_frequency()

    def test_control_deps_merge(self):
        jobs = workload_jobs("chart_like")[:2]
        seq = profile_jobs_sequential(jobs, slots=8, track_control=True)
        par = supervised(jobs, slots=8, track_control=True)
        assert seq.graph.control_deps  # the mode actually recorded some
        assert_profiles_identical(seq, par)

    def test_conflict_ratio_matches(self):
        jobs = workload_jobs("trade_like")
        seq = profile_jobs_sequential(jobs, slots=8)
        par = supervised(jobs, slots=8)
        assert par.conflict_ratio() == pytest.approx(
            seq.conflict_ratio())


class TestWorkerCount:
    def test_two_workers_match_one(self):
        jobs = [ProfileJob.stress(stages=5, chain=5, rounds=2, seed=s)
                for s in range(4)]
        one = supervised(jobs, workers=1, slots=16)
        two = supervised(jobs, workers=2, slots=16)
        assert_profiles_identical(one, two)  # canonical_form included
        for profile in (one, two):
            assert [m["label"] for m in profile.metas] == \
                [job.label for job in jobs]

    def test_workload_job_two_workers(self):
        spec = get_workload("pmd_like")
        jobs = [ProfileJob.workload("pmd_like", "unopt",
                                    spec.small_scale)] * 2
        two = supervised(jobs, workers=2, slots=8)
        seq = profile_jobs_sequential(jobs, slots=8)
        assert_profiles_identical(seq, two)


class TestMergeOperator:
    def _tracked(self, source):
        from repro.lang import compile_source
        tracker = CostTracker(slots=8)
        VM(compile_source(source), tracer=tracker).run()
        return tracker

    def test_empty_merge_rejected(self):
        # ProfileInputError subclasses ValueError, so pre-PR-4 callers
        # catching ValueError still work; new code gets the typed error.
        with pytest.raises(ProfileInputError, match="at least one"):
            merge_graphs([])

    def test_slots_mismatch_rejected(self):
        with pytest.raises(ProfileInputError, match="slots"):
            merge_graphs([DependenceGraph(slots=8),
                          DependenceGraph(slots=16)])

    def test_state_count_mismatch_rejected(self):
        with pytest.raises(ProfileInputError, match="one state per graph"):
            merge_graphs([DependenceGraph(slots=8)], states=[])

    def test_typed_errors_remain_valueerrors(self):
        assert issubclass(ProfileInputError, ValueError)
        with pytest.raises(ValueError):
            profile_jobs_sequential([])

    def test_single_graph_identity(self):
        tracker = self._tracked("""
class Main { static void main() {
    int x = 1; for (int i = 0; i < 4; i++) { x = x + i; }
    Sys.printInt(x);
} }""")
        merged = merge_graphs([tracker.graph])
        assert merged.node_keys == tracker.graph.node_keys
        assert merged.freq == tracker.graph.freq
        assert merged.succs == tracker.graph.succs
        assert merged.num_edges == tracker.graph.num_edges

    def test_overlapping_nodes_sum_and_or(self):
        left = DependenceGraph(slots=8)
        right = DependenceGraph(slots=8)
        for graph, flag in ((left, 1), (right, 2)):
            a = graph.node(10, 0, flag)
            b = graph.node(11, CONTEXTLESS)
            graph.add_edge(a, b)
        right.node(12, 3)   # only in the right shard
        merged = merge_graphs([left, right])
        assert merged.node_keys == [(10, 0), (11, CONTEXTLESS), (12, 3)]
        assert merged.freq == [2, 2, 1]
        assert merged.flags[0] == 1 | 2
        assert merged.succs[0] == {1}
        assert merged.num_edges == 1

    def test_merge_does_not_alias_state(self):
        shard = TrackerState(node_gs=[{5}],
                             branch_outcomes={7: [1, 2]},
                             return_nodes={9: {0}})
        graph = DependenceGraph(slots=8)
        graph.node(1, 0)
        merged, state = merge_graphs([graph], states=[shard])
        state.node_gs[0].add(99)
        state.branch_outcomes[7][0] += 10
        state.return_nodes[9].add(42)
        assert shard.node_gs[0] == {5}
        assert shard.branch_outcomes[7] == [1, 2]
        assert shard.return_nodes[9] == {0}
        assert merged.num_nodes == 1

    def test_state_fold_reads_context_columns(self):
        """The context sets arrive as a count column and one flat
        column: nodes with several contexts, with none, new to the
        state and already in it."""
        state = TrackerState(node_gs=[{1}, None])
        state.fold([2, 0, 1, 3], [5, 6, 7, 8, 9, 1], [], [], [1, 0, 2, 0])
        assert state.node_gs == [{1, 8, 9}, {5, 6}, {7}]

    def test_last_shard_wins_effects(self):
        left = DependenceGraph(slots=8)
        right = DependenceGraph(slots=8)
        for graph, field in ((left, "f"), (right, "g")):
            node = graph.node(20, 1)
            graph.effects[node] = ("B", (3, 0), field)
        merged = merge_graphs([left, right])
        assert merged.effects[0] == ("B", (3, 0), "g")


class TestAggregatedAnalyses:
    """Merged profiles feed the downstream clients unchanged."""

    def test_batched_engine_consumes_merged_graph(self):
        from repro.analyses.batch import engine_for
        from repro.analyses.relative import field_racs
        jobs = workload_jobs("chart_like")
        par = supervised(jobs, slots=8)
        engine = engine_for(par.graph)
        racs = engine.field_racs()
        assert racs == field_racs(par.graph)
        assert racs

    def test_reports_run_on_merged_profile(self):
        from repro.analyses import (constant_predicates, measure_bloat,
                                    return_costs)
        spec = get_workload("trade_like")
        jobs = [ProfileJob.workload("trade_like", "unopt",
                                    spec.small_scale)] * 2
        par = supervised(jobs, slots=8)
        program = spec.build("unopt", spec.small_scale)
        metrics = measure_bloat(par.graph, par.instructions)
        assert 0.0 <= metrics.ipd <= 1.0
        assert return_costs(par.graph, par.state.return_nodes, program)
        constant_predicates(par.graph, par.state.branch_outcomes,
                            program)


class TestIncrementalConflictRatio:
    """CR queried on a profile that grows run by run, and queried
    again without change."""

    def test_cache_matches_fresh_tracker(self):
        jobs = [ProfileJob.stress(stages=4, chain=5, rounds=2, seed=s)
                for s in range(3)]
        tracker = CostTracker(slots=8)
        ratios = []
        for job in jobs:
            tracker.begin_run()
            VM(job.build(), tracer=tracker).run()
            ratios.append(tracker.conflict_ratio())
        oracle = profile_jobs_sequential(jobs, slots=8)
        # The value taken on the grown tracker equals a fresh profile's.
        assert ratios[-1] == oracle.conflict_ratio()

    def test_state_cache_extends(self):
        jobs = workload_jobs("xalan_like")[:2]
        seq = profile_jobs_sequential(jobs, slots=8)
        first = seq.state.conflict_ratio(seq.graph)
        assert seq.state.conflict_ratio(seq.graph) == first
        assert first == reference_conflict_ratio(seq.graph, seq.state)


class TestConflictRatio:
    def test_one_pass_equals_reference_between_runs(self):
        """On a tracker growing run by run, the one-pass CR taken
        between runs is exactly the reference regrouping's, and the
        last equals the sequential oracle's."""
        jobs = workload_jobs("trade_like")
        tracker = CostTracker(slots=2)
        ratios = []
        for job in jobs:
            tracker.begin_run()
            VM(job.build(), tracer=tracker).run()
            ratios.append(tracker.conflict_ratio())
            assert ratios[-1] == reference_conflict_ratio(
                tracker.graph, tracker.state())
            assert tracker.conflict_ratio() == ratios[-1]
        assert any(ratios)
        oracle = profile_jobs_sequential(jobs, slots=2)
        assert ratios[-1] == oracle.conflict_ratio()

    def test_empty_context_set_counts_in_the_denominator(self):
        """Every iid with a context set counts, an empty set too; only
        iids with a slot of two or more contexts add to the sum."""
        graph = DependenceGraph(slots=2)
        for key in ((0, 0), (0, 1), (1, 0), (2, 0), (3, 0)):
            graph.node(*key)
        state = TrackerState(node_gs=[{1, 3}, {2}, set(), {4}, None])
        assert state.conflict_ratio(graph) == (2 / 3) / 3
        assert state.conflict_ratio(graph) == \
            reference_conflict_ratio(graph, state)


class TestSerializedShards:
    """Workers ship v2 profile dicts; round-trip them through merge."""

    def test_merge_of_serialized_shards(self):
        jobs = [ProfileJob.stress(stages=4, chain=4, rounds=2, seed=s)
                for s in range(2)]
        shards = []
        for job in jobs:
            tracker = CostTracker(slots=16)
            VM(job.build(), tracer=tracker).run()
            shards.append(graph_to_dict(tracker.graph, tracker=tracker))
        graphs = [graph_from_dict(shard) for shard in shards]
        states = [tracker_state_from_dict(shard) for shard in shards]
        merged, state = merge_graphs(graphs, states)
        oracle = profile_jobs_sequential(jobs, slots=16)
        assert canonical_form(merged, state) == \
            canonical_form(oracle.graph, oracle.state)
