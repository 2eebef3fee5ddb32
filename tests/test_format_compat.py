"""Profiles written in the v2 layout still load, exactly.

``tests/compat`` holds files written by the last v2 writer for
``tests/compat/demo.mj`` (see its README): a merged profile from
``profile --jobs 2 --runs 2 --save-graph``, the checkpoint of the same
campaign, and a daemon spill file of tenant ``compat`` fed that run.
Each must read back as the graph and state a fresh v3 run of the
program builds, and serve the same report; an unknown version gets a
typed error that names it.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.profiler import (DependenceGraph, ProfileFormatError,
                            TrackerState, canonical_form, fold_document,
                            graph_to_dict, load_checkpoint, load_profile,
                            read_document, save_graph, write_document)
from repro.service import AnalysisDaemon, TenantRegistry, spill_filename

COMPAT = Path(__file__).parent / "compat"
SOURCE = COMPAT / "demo.mj"
PROFILE = COMPAT / "demo.v2.gcost.json"
CHECKPOINT = COMPAT / "demo.v2.ckpt.json"
SPILL = COMPAT / "compat.v2.tenant.json"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """``(path, graph, state)`` of a v3 profile of the same run."""
    path = tmp_path_factory.mktemp("v3") / "demo.gcost.json"
    assert main(["profile", str(SOURCE), "--no-stdlib", "--jobs", "2",
                 "--runs", "2", "--save-graph", str(path)]) == 0
    graph, _, state = load_profile(str(path))
    return path, graph, state


def report_json(profile, out, capsys) -> bytes:
    assert main(["report", str(profile), str(SOURCE), "--no-stdlib",
                 "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    return out.read_bytes()


def test_fixtures_are_v2():
    assert read_document(str(PROFILE))["version"] == 2
    assert read_document(str(SPILL), kind="spill")["shards"]["0"][
        "version"] == 2
    assert {shard["version"]
            for shard in load_checkpoint(str(CHECKPOINT)).values()} == {2}


def test_v2_profile_loads_as_a_fresh_v3_run(fresh):
    _, fresh_graph, fresh_state = fresh
    graph, meta, state = load_profile(str(PROFILE))
    assert meta["runs"] == 2
    assert graph.node_keys == fresh_graph.node_keys
    assert canonical_form(graph, state) == \
        canonical_form(fresh_graph, fresh_state)


def test_report_on_v2_equals_report_on_its_v3_save(tmp_path, capsys):
    graph, meta, state = load_profile(str(PROFILE))
    resaved = tmp_path / "resaved.gcost.json"
    save_graph(graph, str(resaved), meta=meta, tracker=state)
    assert read_document(str(resaved))["version"] == 3
    assert report_json(PROFILE, tmp_path / "v2.json", capsys) == \
        report_json(resaved, tmp_path / "v3.json", capsys)


def test_v2_checkpoint_shards_fold_as_the_merge(fresh):
    _, fresh_graph, fresh_state = fresh
    graph, state = DependenceGraph(slots=16), TrackerState()
    shards = load_checkpoint(str(CHECKPOINT))
    for index in sorted(shards):
        fold_document(graph, state, shards[index])
    assert canonical_form(graph, state) == \
        canonical_form(fresh_graph, fresh_state)


def test_v2_checkpoint_resumes(fresh, tmp_path, monkeypatch, capsys):
    _, fresh_graph, fresh_state = fresh
    # A campaign's fingerprint holds the program path as given.
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(SOURCE, "demo.mj")
    shutil.copyfile(CHECKPOINT, "ckpt.json")
    assert main(["profile", "demo.mj", "--no-stdlib", "--jobs", "2",
                 "--runs", "2", "--resume", "ckpt.json",
                 "--save-graph", "resumed.gcost.json"]) == 0
    assert "2 resumed" in capsys.readouterr().out
    graph, _, state = load_profile("resumed.gcost.json")
    assert canonical_form(graph, state) == \
        canonical_form(fresh_graph, fresh_state)


def test_v2_spill_file_reloads_and_serves_the_batch_report(tmp_path,
                                                           capsys):
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    shutil.copyfile(SPILL, spill_dir / spill_filename("compat"))
    daemon = AnalysisDaemon(TenantRegistry(spill_dir=str(spill_dir)))
    response = daemon._handle({
        "type": "query", "tenant": "compat", "kind": "report",
        "program": {"source": SOURCE.read_text(), "use_stdlib": False}})
    assert response["type"] == "ok", response
    assert daemon.registry.tenant("compat").shards == 2
    batch = json.loads(report_json(PROFILE, tmp_path / "batch.json",
                                   capsys))
    assert response["result"] == batch


def test_unknown_version_names_it(tmp_path):
    doc = read_document(str(PROFILE))
    doc["version"] = 4
    path = tmp_path / "v4.gcost.json"
    write_document(str(path), doc)
    with pytest.raises(ProfileFormatError, match="version 4"):
        load_profile(str(path))
    with pytest.raises(ProfileFormatError, match="version 4"):
        fold_document(DependenceGraph(slots=16), TrackerState(), doc)


#: Damage to one v3 column that no node-range check would see.
COLUMN_DAMAGE = {
    "odd-length": lambda column: column.append(0),
    "float": lambda column: column.__setitem__(0, 0.5),
    "row": lambda column: column.__setitem__(0, [0, 0]),
}


@pytest.mark.parametrize("damage", sorted(COLUMN_DAMAGE))
@pytest.mark.parametrize("section", ["nodes", "edges", "ref_edges"])
def test_malformed_v3_column_is_refused(section, damage):
    graph, meta, state = load_profile(str(PROFILE))
    doc = graph_to_dict(graph, meta, tracker=state)
    COLUMN_DAMAGE[damage](doc[section])
    target, target_state = DependenceGraph(slots=16), TrackerState()
    with pytest.raises(ProfileFormatError, match=section):
        fold_document(target, target_state, doc)
    assert target.num_nodes == 0 and target_state.node_gs == []
