"""Profiles written in the v2 and v3 layouts still load, exactly.

``tests/compat`` holds files written by the last v2 writer and by the
last v3 writer for ``tests/compat/demo.mj`` (see its README): a merged
profile from ``profile --jobs 2 --runs 2 --save-graph``, the
checkpoint of the same campaign, and a daemon spill file of tenant
``compat`` fed that run.  Each must read back as the graph and state a
fresh v4 run of the program builds, and serve the same report; an
unknown version gets a typed error that names it, and a packed column
that does not decode is refused before anything is folded.
"""

import json
import shutil
from pathlib import Path

import pytest

from conftest import as_v3_columns, as_v4
from repro.cli import main
from repro.profiler import (DependenceGraph, ProfileFormatError,
                            TrackerState, canonical_form, fold_document,
                            graph_to_dict, load_checkpoint, load_profile,
                            read_document, save_graph, write_document)
from repro.profiler.serialize import (FORMAT_VERSION, pack_column,
                                      unpack_column)
from repro.service import AnalysisDaemon, TenantRegistry, spill_filename
from repro.service.protocol import E_BAD_SHARD, ServiceError

COMPAT = Path(__file__).parent / "compat"
SOURCE = COMPAT / "demo.mj"
PROFILE = COMPAT / "demo.v2.gcost.json"
CHECKPOINT = COMPAT / "demo.v2.ckpt.json"
SPILL = COMPAT / "compat.v2.tenant.json"
V3_PROFILE = COMPAT / "demo.v3.gcost.json"
V3_CHECKPOINT = COMPAT / "demo.v3.ckpt.json"
V3_SPILL = COMPAT / "compat.v3.tenant.json"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """``(path, graph, state)`` of a v4 profile of the same run."""
    path = tmp_path_factory.mktemp("v4") / "demo.gcost.json"
    assert main(["profile", str(SOURCE), "--no-stdlib", "--jobs", "2",
                 "--runs", "2", "--save-graph", str(path)]) == 0
    graph, _, state = load_profile(str(path))
    return path, graph, state


def report_json(profile, out, capsys) -> bytes:
    assert main(["report", str(profile), str(SOURCE), "--no-stdlib",
                 "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    return out.read_bytes()


def fixture_versions(profile, checkpoint, spill) -> set:
    return ({read_document(str(profile))["version"],
             read_document(str(spill), kind="spill")["shards"]["0"][
                 "version"]}
            | {shard["version"]
               for shard in load_checkpoint(str(checkpoint)).values()})


def check_profile_loads_as_fresh(profile, fresh):
    _, fresh_graph, fresh_state = fresh
    graph, meta, state = load_profile(str(profile))
    assert meta["runs"] == 2
    assert graph.node_keys == fresh_graph.node_keys
    assert canonical_form(graph, state) == \
        canonical_form(fresh_graph, fresh_state)


def check_report_equals_resaved(profile, tmp_path, capsys):
    graph, meta, state = load_profile(str(profile))
    resaved = tmp_path / "resaved.gcost.json"
    save_graph(graph, str(resaved), meta=meta, tracker=state)
    assert read_document(str(resaved))["version"] == FORMAT_VERSION
    assert report_json(profile, tmp_path / "old.json", capsys) == \
        report_json(resaved, tmp_path / "new.json", capsys)


def check_checkpoint_folds_as_the_merge(checkpoint, fresh):
    _, fresh_graph, fresh_state = fresh
    graph, state = DependenceGraph(slots=16), TrackerState()
    shards = load_checkpoint(str(checkpoint))
    for index in sorted(shards):
        fold_document(graph, state, shards[index])
    assert canonical_form(graph, state) == \
        canonical_form(fresh_graph, fresh_state)


def check_checkpoint_resumes(checkpoint, fresh, tmp_path, monkeypatch,
                             capsys):
    _, fresh_graph, fresh_state = fresh
    # A campaign's fingerprint holds the program path as given.
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(SOURCE, "demo.mj")
    shutil.copyfile(checkpoint, "ckpt.json")
    assert main(["profile", "demo.mj", "--no-stdlib", "--jobs", "2",
                 "--runs", "2", "--resume", "ckpt.json",
                 "--save-graph", "resumed.gcost.json"]) == 0
    assert "2 resumed" in capsys.readouterr().out
    graph, _, state = load_profile("resumed.gcost.json")
    assert canonical_form(graph, state) == \
        canonical_form(fresh_graph, fresh_state)


def check_spill_serves_the_batch_report(spill, profile, tmp_path, capsys):
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    shutil.copyfile(spill, spill_dir / spill_filename("compat"))
    daemon = AnalysisDaemon(TenantRegistry(spill_dir=str(spill_dir)))
    response = daemon._handle({
        "type": "query", "tenant": "compat", "kind": "report",
        "program": {"source": SOURCE.read_text(), "use_stdlib": False}})
    assert response["type"] == "ok", response
    assert daemon.registry.tenant("compat").shards == 2
    batch = json.loads(report_json(profile, tmp_path / "batch.json",
                                   capsys))
    assert response["result"] == batch


def test_fixtures_are_v2():
    assert fixture_versions(PROFILE, CHECKPOINT, SPILL) == {2}


def test_v2_profile_loads_as_a_fresh_v3_run(fresh):
    check_profile_loads_as_fresh(PROFILE, fresh)


def test_report_on_v2_equals_report_on_its_v3_save(tmp_path, capsys):
    check_report_equals_resaved(PROFILE, tmp_path, capsys)


def test_v2_checkpoint_shards_fold_as_the_merge(fresh):
    check_checkpoint_folds_as_the_merge(CHECKPOINT, fresh)


def test_v2_checkpoint_resumes(fresh, tmp_path, monkeypatch, capsys):
    check_checkpoint_resumes(CHECKPOINT, fresh, tmp_path, monkeypatch,
                             capsys)


def test_v2_spill_file_reloads_and_serves_the_batch_report(tmp_path,
                                                           capsys):
    check_spill_serves_the_batch_report(SPILL, PROFILE, tmp_path, capsys)


def test_fixtures_are_v3():
    assert fixture_versions(V3_PROFILE, V3_CHECKPOINT, V3_SPILL) == {3}


def test_v3_profile_loads_as_a_fresh_v4_run(fresh):
    check_profile_loads_as_fresh(V3_PROFILE, fresh)


def test_report_on_v3_equals_report_on_its_v4_save(tmp_path, capsys):
    check_report_equals_resaved(V3_PROFILE, tmp_path, capsys)


def test_v3_checkpoint_shards_fold_as_the_merge(fresh):
    check_checkpoint_folds_as_the_merge(V3_CHECKPOINT, fresh)


def test_v3_checkpoint_resumes(fresh, tmp_path, monkeypatch, capsys):
    check_checkpoint_resumes(V3_CHECKPOINT, fresh, tmp_path, monkeypatch,
                             capsys)


def test_v3_spill_file_reloads_and_serves_the_batch_report(tmp_path,
                                                           capsys):
    check_spill_serves_the_batch_report(V3_SPILL, V3_PROFILE, tmp_path,
                                        capsys)


def test_unknown_version_names_it(tmp_path):
    for profile in (PROFILE, V3_PROFILE):
        doc = read_document(str(profile))
        doc["version"] = 5
        path = tmp_path / "v5.gcost.json"
        write_document(str(path), doc)
        with pytest.raises(ProfileFormatError, match="version 5"):
            load_profile(str(path))
        with pytest.raises(ProfileFormatError, match="version 5"):
            fold_document(DependenceGraph(slots=16), TrackerState(), doc)


def fixture_profile():
    """``(graph, meta, state)`` of the v2 fixture's profile."""
    return load_profile(str(PROFILE))


def fresh_v3_doc() -> dict:
    """The v2 fixture's profile written by today's writer, then
    rendered in the v3 layout."""
    graph, meta, state = fixture_profile()
    return as_v3_columns(graph_to_dict(graph, meta, tracker=state))


#: Damage to one v3 column that no node-range check would see.
COLUMN_DAMAGE = {
    "odd-length": lambda column: column.append(0),
    "float": lambda column: column.__setitem__(0, 0.5),
    "row": lambda column: column.__setitem__(0, [0, 0]),
}


@pytest.mark.parametrize("damage", sorted(COLUMN_DAMAGE))
@pytest.mark.parametrize("section", ["nodes", "edges", "ref_edges"])
def test_malformed_v3_column_is_refused(section, damage):
    doc = fresh_v3_doc()
    COLUMN_DAMAGE[damage](doc[section])
    target, target_state = DependenceGraph(slots=16), TrackerState()
    with pytest.raises(ProfileFormatError, match=section):
        fold_document(target, target_state, doc)
    assert target.num_nodes == 0 and target_state.node_gs == []


@pytest.mark.parametrize("entry", [5, [0.5], "ctx"],
                         ids=["int", "float-context", "string"])
def test_malformed_v3_context_row_is_refused(entry):
    doc = fresh_v3_doc()
    doc["tracker"]["node_gs"][0] = entry
    target, target_state = DependenceGraph(slots=16), TrackerState()
    with pytest.raises(ProfileFormatError, match="node_gs"):
        fold_document(target, target_state, doc)
    assert target.num_nodes == 0 and target_state.node_gs == []


def stray_character(column):
    """A ``!`` between two base64 quads: a lenient decoder skips it and
    reads the column as it was, so only the canonical check sees it."""
    return column[:7] + "!" + column[7:]


def overrun_contexts(counts):
    """One context count more than the contexts column holds."""
    counts = unpack_column(counts)
    counts[0] += 1
    return pack_column(counts)


#: Packed-column damage to a valid v4 document: ``name -> (section
#: named by the error, key of the top level or of the tracker, the
#: key's new value or a function of its old one)``.
PACKED_DAMAGE = {
    "bad-base64": ("freq", "freq", stray_character),
    "bad-base64-quad": ("edges", "edges", "i2:AQ!D"),
    "bad-base64-padding": ("freq", "freq", "i1:AQ="),
    "unknown-width-tag": ("flags", "flags", "i3:AQID"),
    "ragged-byte-count": ("ref_edges", "ref_edges", "i2:AQID"),
    "odd-node-count": ("nodes", "nodes", pack_column([1, 0, 2])),
    "not-a-column": ("edges", "edges", {"i2": "AQID"}),
    "context-counts-overrun": ("tracker", "context_counts",
                               overrun_contexts),
    "contexts-not-base64": ("tracker", "contexts", "i1:A A="),
}


def packed_defect(name) -> dict:
    graph, meta, state = fixture_profile()
    doc = graph_to_dict(graph, meta, tracker=state)
    _, key, value = PACKED_DAMAGE[name]
    owner = doc if key in doc else doc["tracker"]
    owner[key] = value(owner[key]) if callable(value) else value
    return doc


@pytest.mark.parametrize("name", sorted(PACKED_DAMAGE))
def test_packed_column_defect_is_refused(name, tmp_path):
    """A v4 document whose packed column does not decode, or does not
    hold what its section needs, is refused as a whole: the loader
    names the section, the target graph and state stay empty, and a
    push is answered ``E_BAD_SHARD`` with the tenant untouched."""
    section = PACKED_DAMAGE[name][0]
    doc = packed_defect(name)
    target, target_state = DependenceGraph(slots=16), TrackerState()
    with pytest.raises(ProfileFormatError, match=section):
        fold_document(target, target_state, doc)
    assert target.num_nodes == 0 and target_state.node_gs == []
    path = tmp_path / "damaged.gcost.json"
    write_document(str(path), doc)
    with pytest.raises(ProfileFormatError, match=section):
        load_profile(str(path))
    graph, meta, state = fixture_profile()
    registry = TenantRegistry()
    registry.ingest("t", graph_to_dict(graph, meta, tracker=state))
    tenant = registry.tenant("t")
    before = canonical_form(tenant.graph, tenant.state)
    with pytest.raises(ServiceError) as err:
        registry.ingest("t", doc)
    assert err.value.code == E_BAD_SHARD
    assert tenant.shards == 1
    assert canonical_form(tenant.graph, tenant.state) == before


def test_v4_renders_every_v3_column_packed():
    graph, meta, state = fixture_profile()
    doc = as_v4(fresh_v3_doc())
    assert doc == graph_to_dict(graph, meta, tracker=state)
    assert all(doc[key].startswith("i") for key in
               ("nodes", "freq", "flags", "edges", "ref_edges"))


def test_column_outside_int64_stays_a_list():
    column = [0, 1 << 63]
    assert pack_column(column) == column
    assert pack_column([-(1 << 63), (1 << 63) - 1]).startswith("i8:")
    graph, meta, state = fixture_profile()
    graph.freq[0] += 1 << 70
    doc = graph_to_dict(graph, meta, tracker=state)
    assert type(doc["freq"]) is list and doc["nodes"].startswith("i")
    loaded = DependenceGraph(slots=16)
    fold_document(loaded, TrackerState(), doc)
    assert loaded.freq == graph.freq


def test_packed_column_worked_example():
    """The example docs/SERVICE.md gives to writers in other
    languages."""
    assert pack_column([1, -2, 300]) == "i2:AQD+/ywB"
