"""Serializer round-trip equality on every suite workload graph.

Format v2 must preserve the complete profile — graph structure *and*
the tracker-side state (CR context sets, branch outcomes, return
nodes) — for each workload's Gcost, so any profiled run can be
analyzed offline or merged by the parallel runtime without loss.
"""

import pytest

from conftest import as_v3_columns, in_layout
from repro.profiler import (CostTracker, DependenceGraph, ProfileJob,
                            TrackerState, fold_document, graph_from_dict,
                            graph_to_dict, load_profile, save_graph,
                            tracker_state_from_dict)
from repro.vm import VM
from repro.workloads import all_workloads, get_workload

WORKLOADS = [spec.name for spec in all_workloads()]


@pytest.fixture(scope="module")
def profiled():
    """name -> (vm, tracker) for every workload, profiled once."""
    runs = {}
    for spec in all_workloads():
        tracker = CostTracker(slots=8, track_control=True)
        vm = VM(spec.build("unopt", spec.small_scale), tracer=tracker)
        vm.run()
        runs[spec.name] = (vm, tracker)
    return runs


@pytest.mark.parametrize("name", WORKLOADS)
def test_graph_roundtrip(profiled, name):
    _, tracker = profiled[name]
    graph = tracker.graph
    clone = graph_from_dict(graph_to_dict(graph, tracker=tracker))
    assert clone.node_keys == graph.node_keys
    assert clone.freq == graph.freq
    assert clone.flags == graph.flags
    assert clone.preds == graph.preds
    assert clone.succs == graph.succs
    assert clone.num_edges == graph.num_edges
    assert clone.effects == graph.effects
    assert clone.ref_edges == graph.ref_edges
    assert clone.points_to == graph.points_to
    assert clone.control_deps == graph.control_deps
    assert clone.slots == graph.slots


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracker_state_roundtrip(profiled, name):
    _, tracker = profiled[name]
    state = tracker_state_from_dict(
        graph_to_dict(tracker.graph, tracker=tracker))
    assert state.branch_outcomes == tracker.branch_outcomes
    assert state.return_nodes == tracker.return_nodes
    restored = state.node_gs
    original = tracker._node_gs
    assert len(restored) == len(original)
    assert restored == original
    # The carried contexts reproduce the online CR exactly.
    assert state.conflict_ratio(tracker.graph) == pytest.approx(
        tracker.conflict_ratio())


def test_file_roundtrip_with_state(profiled, tmp_path):
    vm, tracker = profiled[WORKLOADS[0]]
    path = tmp_path / "profile.json"
    save_graph(tracker.graph, path,
               meta={"instructions": vm.instr_count}, tracker=tracker)
    graph, meta, state = load_profile(path)
    assert graph.node_keys == tracker.graph.node_keys
    assert meta["instructions"] == vm.instr_count
    assert state is not None
    assert state.branch_outcomes == tracker.branch_outcomes


def test_v1_documents_still_load(profiled, layout="v2rows"):
    _, tracker = profiled[WORKLOADS[0]]
    data = in_layout(as_v3_columns(graph_to_dict(tracker.graph)), layout)
    if layout == "v2rows":
        data["version"] = 1      # a pre-PR-2 document: graph only
    clone = graph_from_dict(data)
    assert clone.node_keys == tracker.graph.node_keys
    assert tracker_state_from_dict(data) is None


def test_graph_only_v3_documents_load(profiled):
    test_v1_documents_still_load(profiled, layout="v3")


def test_graph_only_v4_documents_load(profiled):
    test_v1_documents_still_load(profiled, layout="v4")


@pytest.mark.parametrize("name", WORKLOADS)
def test_replicated_runs_ship_one_shape(name):
    """Two ``--runs`` replicas of a suite program ship shards whose
    packed shape columns are byte-identical, tracker context columns
    included: a Gcost node is an (instruction, context slot) pair, so
    the program, not the run, bounds the shape.  This is the traffic
    property the shape memo of ``fold_document`` relies on, so the
    second replica folds reusing the first one's shape."""
    from repro.profiler.supervisor import _run_job_salvaging
    scale = get_workload(name).small_scale
    docs = [_run_job_salvaging(ProfileJob.workload(name, scale=scale,
                                                   label=f"run{index}"),
                               16, None, True, False)
            for index in range(2)]
    first, second = docs
    for key in ("nodes", "edges", "ref_edges"):
        assert type(first[key]) is str and first[key] == second[key], key
    for key in ("context_counts", "contexts"):
        assert first["tracker"][key] == second["tracker"][key], key
    graph, state = DependenceGraph(slots=16), TrackerState()
    assert not fold_document(graph, state, first)
    assert fold_document(graph, state, second)
