"""A saved profile names its own sites, methods and lines.

``profile --save-graph`` writes a ``names`` section
(:mod:`repro.profiler.names`), and ``report``/``analyze`` read a
profile that carries one without compiling the program.  Checked on
the twelve suite programs as perfbench's suite-profile workload runs
them (unopt, ``suite_scale``, ``--jobs 2 --runs 2``):

- the JSON and Markdown reports are byte-identical with the program
  argument, without it, with a *different* program's, and through the
  compile path; and equal to what the code before the ``names``
  section rendered (pinned digests);
- the cost-benefit allocation counts equal the heap's per-site counts;
- a hostile ``names`` section gets a typed error, never a traceback;
- a frozen graph's edge column (read off its CSR) is the sorted one.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

import repro
from repro.analyses import analyze_cost_benefit
from repro.cli import EXIT_BAD_INPUT, main
from repro.observability import bloat_report_data, render_bloat_report
from repro.profiler import (CostTracker, ProfileFormatError,
                            load_named_profile, load_profile,
                            program_names)
from repro.profiler.serialize import (graph_to_dict, pack_column,
                                      read_document, unpack_column,
                                      write_document)
from repro.stdlib import compile_with_stdlib
from repro.vm import VM
from repro.workloads import all_workloads
from repro.workloads.stress import stress_source

SRC = Path(repro.__file__).resolve().parent.parent

#: The suite-profile workload's scale: this fraction of the way from
#: each workload's small scale to its default one.
SUITE_FRACTION = 0.35

#: SHA-256 of ``report --format json`` and of the Markdown report of
#: each suite program's ``--jobs 2 --runs 2`` profile, as rendered by
#: the code before profiles carried names (through the compile path).
PINNED = {
    "antlr_like": (
        "cda0b597e61bf6a4658a9843083aa7177225941fe25a786df81e606e8039844e",
        "e51d2f6541d8466fc5503f0dca568a5064bdc551a2aa56babd23dc7b40fdc733"),
    "bloat_like": (
        "605b452c1b85342997424118c74b4628c63cf2a673efc73d62c207510042075c",
        "dfd1f133ceac5baa49dc0fb49f55c2a552ef8bb46f6fe3d6b905a8767be0ac63"),
    "chart_like": (
        "11c7b81d1ca3c79fb543961c14dc4f59331483a0be1b6af545aabe8b6cd226d0",
        "00e936af5b40a244d695a4107ad820ab61043489c17116ca0347f3d5a8c2d506"),
    "derby_like": (
        "cb6167417ee05f0594d0dfcdfba8b338336fbd83d4212c2122af71ce4bf6960b",
        "ec4697b34faabf7ea17e3a63ed6e5fe30fa9b56925201ba2549b50fbeca82f7e"),
    "eclipse_like": (
        "e2bb53ba2762dc6e16dc512e22ccf030554483f87f0bcafe55176771c34eeee4",
        "7721b523ae20c451ffe39331eadcd6c3e728d370322e714ab411850d0850c792"),
    "luindex_like": (
        "950cbdcf174b353d6cf02b5e64a580a752ec334eba851c1fed6e4ba009fcb617",
        "5cd7de2680435b98735fa0a6bb838ec43faff19bd811065f57fa7c3c3aefe5db"),
    "lusearch_like": (
        "df77033af8053beb80cfaeaffe47cded2aad01db2cf1eae1657c00b76d3e3dcb",
        "560507bc02c7285aec560815eab2c7f9f4f5b6d8db2f515490813a21d6689407"),
    "pmd_like": (
        "1a96d4e1bdcc4df68cbd6f582cfef4d2b5415cdf9f94f61521f825f2cd084bda",
        "2234c5549e635b5a04e11ed1e2a32bd74a2870c1134b1ffb9330717617daf9c2"),
    "sunflow_like": (
        "565686e2579915a9549d96792a58f1c70c5cc080008bfda21f10b5a8c8102210",
        "d701509380f6d95077d7964e64a27b85f5392360710338515376a6c53f8d22ba"),
    "tomcat_like": (
        "a18da690a2dad575ac2229a97b0f64f9a760fca4328c10bd5a62e3bcfab316c0",
        "3682ed538253c59fdfd6282c5c17c76f415f9fdb558a7a63150229800813ffdb"),
    "trade_like": (
        "f26bb3b4c40bb0351228c8ff605047f25dcc31d5d15c0db6322a1ff49022b647",
        "143d86b9a4c69b0c07b60cae626822f73ee2bf56e9e6ad55c4b8e836a77cdcef"),
    "xalan_like": (
        "6db9253fbd2c8893466082e11bc7ea4f16dc55fa6e1fa6f0229a63d02ca907e8",
        "04aceafdcc483e3b04672df1f4ac45058734c5ea8ca1a38cb55537f4ae5afd83"),
}


def suite_scale(spec) -> dict:
    return {key: round(spec.small_scale.get(key, default)
                       + (default - spec.small_scale.get(key, default))
                       * SUITE_FRACTION)
            for key, default in spec.default_scale.items()}


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """name -> (program path, profile path) of the twelve suite
    programs, profiled as suite-profile does."""
    work = tmp_path_factory.mktemp("suite")
    profiles = {}
    for spec in all_workloads():
        source = work / f"{spec.name}.mj"
        source.write_text(spec.source("unopt", suite_scale(spec)))
        profile = work / f"{spec.name}.gcost.json"
        assert main(["profile", str(source), "--jobs", "2", "--runs",
                     "2", "--report", "bloat", "--save-graph",
                     str(profile)]) == 0
        profiles[spec.name] = (source, profile)
    return profiles


def report_bytes(capsys, out, *args) -> bytes:
    assert main(["report", *map(str, args), "--out", str(out)]) == 0
    capsys.readouterr()
    return out.read_bytes()


def test_suite_reports_are_the_same_with_or_without_the_program(
        suite, tmp_path, capsys):
    names = sorted(suite)
    for position, name in enumerate(names):
        source, profile = suite[name]
        other = suite[names[position - 1]][0]
        graph, meta, state = load_profile(str(profile))
        program = compile_with_stdlib(source.read_text())
        for fmt, render in (("json", lambda: json.dumps(bloat_report_data(
                graph, meta, state, program, top=10), indent=2)),
                            ("md", lambda: render_bloat_report(
                                graph, meta, state, program, top=10))):
            out = tmp_path / f"{name}.{fmt}"
            given = report_bytes(capsys, out, profile, source,
                                 "--format", fmt)
            assert report_bytes(capsys, out, profile, "--format",
                                fmt) == given, (name, fmt)
            assert report_bytes(capsys, out, profile, other, "--format",
                                fmt) == given, (name, fmt)
            assert render().encode() == given, (name, fmt)
            digest = hashlib.sha256(given).hexdigest()
            assert digest == PINNED[name][fmt == "md"], (name, fmt)


def test_a_saved_profile_names_every_iid_it_references(suite):
    for name, (source, profile) in sorted(suite.items()):
        graph, _, state, names = load_named_profile(str(profile))
        program = program_names(compile_with_stdlib(source.read_text()))
        referenced = {iid for iid, _ in graph.node_keys}
        referenced |= set(state.branch_outcomes) | set(state.return_nodes)
        assert referenced <= names.method_of.keys(), name
        for iid in names.method_of:
            assert names.method_of[iid] == program.method_of[iid]
            assert names.line_of[iid] == program.line_of[iid]
        assert names.descriptions == {
            iid: program.descriptions[iid] for iid in names.sites}, name
        sites = {iid for iid, _ in graph.alloc_nodes()}
        assert sites <= names.sites.keys(), name


# -- allocation counts -------------------------------------------------------


def test_single_run_allocation_counts_equal_the_heap():
    for spec in all_workloads():
        program = spec.build("unopt", spec.small_scale)
        tracker = CostTracker(slots=16)
        vm = VM(program, tracer=tracker)
        vm.run()
        reports = analyze_cost_benefit(tracker.graph, program,
                                       include_zero=True)
        assert reports, spec.name
        for report in reports:
            assert report.allocations == \
                vm.heap.site_counts[report.iid], (spec.name, report)


def test_sharded_allocation_counts_equal_the_heap(suite):
    """Two runs merged count each site's objects twice over."""
    for name, (source, profile) in sorted(suite.items()):
        graph, _, _, names = load_named_profile(str(profile))
        vm = VM(compile_with_stdlib(source.read_text()))
        vm.run()
        reports = analyze_cost_benefit(graph, names, include_zero=True)
        assert reports, name
        for report in reports:
            assert report.allocations == \
                2 * vm.heap.site_counts[report.iid], (name, report)


#: A cost-benefit row's allocation count and where: the two last
#: columns of ``format_cost_benefit_report``.
ROW = re.compile(r" (\d+)  (\S+) \(line (\d+)\)$")


def printed_allocations(text: str) -> dict:
    counts = {}
    for line in text.splitlines():
        match = ROW.search(line)
        if match and line.lstrip()[:1].isdigit():
            what = line[6:42].strip()
            key = (what, match.group(2), int(match.group(3)))
            counts[key] = counts.get(key, 0) + int(match.group(1))
    return counts


def test_printed_allocation_counts_equal_the_heap(tmp_path, capsys):
    """``profile`` (one run and sharded) and ``analyze`` print the
    same allocation counts: the heap's, times the runs."""
    source = tmp_path / "smoke.mj"
    source.write_text((SRC.parent / "examples" / "smoke.mj").read_text())
    program = compile_with_stdlib(source.read_text())
    vm = VM(program)
    vm.run()
    descriptions = program_names(program).descriptions
    expected = {}
    for iid, count in vm.heap.site_counts.items():
        key = descriptions[iid]
        expected[key] = expected.get(key, 0) + count
    profile = tmp_path / "smoke.gcost.json"
    for runs, jobs in ((1, 1), (2, 2)):
        assert main(["profile", str(source), "--jobs", str(jobs),
                     "--runs", str(runs), "--report", "cost-benefit",
                     "--top", "100", "--save-graph", str(profile)]) == 0
        printed = printed_allocations(capsys.readouterr().out)
        assert printed, runs
        for key, count in printed.items():
            assert count == runs * expected[key], (runs, key)
    assert main(["analyze", str(profile), "--top", "100"]) == 0
    assert printed_allocations(capsys.readouterr().out) == printed


# -- hostile names sections --------------------------------------------------


def _set(key, value):
    def damage(section):
        section[key] = value
    return damage


#: Damage to a valid ``names`` section: name -> (the key its error
#: names, a function that damages the section in place).
HOSTILE = {
    "not-an-object": ("names", None),
    "methods-not-a-list": ("names.methods", _set("methods", "Main.main")),
    "method-name-not-a-string": ("names.methods",
                                 lambda s: s["methods"].append(7)),
    "iids-not-a-column": ("names.iids", _set("iids", {"i1": "AA=="})),
    "iids-missing": ("names.iids", lambda s: s.pop("iids")),
    "non-int-iid": ("names.iids", _set("iids", [0.5])),
    "duplicate-iid": ("names.iids", lambda s: s.update(
        iids=pack_column([0, 0]), method=pack_column([0, 0]),
        line=pack_column([1, 1]), sites=pack_column([]), site_text=[])),
    "misaligned-lines": ("names.iids", lambda s: s.update(
        line=pack_column([1]))),
    "method-index-out-of-range": ("names.method", lambda s: s.update(
        method=pack_column([len(s["methods"])]
                           + unpack_column(s["method"])[1:]))),
    "negative-method-index": ("names.method", lambda s: s.update(
        method=pack_column([-1] + unpack_column(s["method"])[1:]))),
    "misaligned-sites": ("names.sites", lambda s: s["site_text"].pop()),
    "duplicate-site": ("names.sites", lambda s: s.update(
        sites=pack_column(unpack_column(s["iids"])[:1] * 2),
        site_text=["new A", "new A"])),
    "site-not-an-iid": ("names.sites", lambda s: s.update(
        sites=pack_column([-5]), site_text=["new A"])),
    "site-text-not-a-string": ("names.site_text", lambda s: s.update(
        site_text=[None] * len(s["site_text"]))),
    "bad-base64": ("names.line", lambda s: s.update(
        line=s["line"][:6] + "!" + s["line"][6:])),
}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """``(program path, named profile path)`` of ``examples/smoke.mj``."""
    work = tmp_path_factory.mktemp("demo")
    source = work / "smoke.mj"
    source.write_text((SRC.parent / "examples" / "smoke.mj").read_text())
    profile = work / "smoke.gcost.json"
    assert main(["profile", str(source), "--no-stdlib", "--jobs", "2",
                 "--runs", "2", "--report", "bloat", "--save-graph",
                 str(profile)]) == 0
    return source, profile


def hostile_profile(demo, name, tmp_path) -> Path:
    doc = read_document(str(demo[1]))
    damage = HOSTILE[name][1]
    if damage is None:
        doc["names"] = ["not", "an", "object"]
    else:
        damage(doc["names"])
    path = tmp_path / f"{name}.gcost.json"
    write_document(str(path), doc)
    return path


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_names_get_a_typed_error(demo, name, tmp_path, capsys):
    path = hostile_profile(demo, name, tmp_path)
    key = HOSTILE[name][0]
    with pytest.raises(ProfileFormatError, match=re.escape(key)):
        load_named_profile(str(path))
    capsys.readouterr()
    for command in (["report", str(path), "--format", "json"],
                    ["report", str(path), str(demo[0]), "--no-stdlib"],
                    ["analyze", str(path)]):
        assert main(command) == EXIT_BAD_INPUT, command
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and err.count("\n") == 1, err
        assert key in err


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_salvage_drops_hostile_names(demo, name, tmp_path, capsys):
    """``--salvage`` drops a damaged section, says so, and names the
    sites from the program when it is given; without it the salvaged
    profile gets the typed no-names error."""
    path = hostile_profile(demo, name, tmp_path)
    expected = report_bytes(capsys, tmp_path / "clean.json", demo[1],
                            "--format", "json")
    out = tmp_path / "salvaged.json"
    assert main(["report", str(path), str(demo[0]), "--no-stdlib",
                 "--salvage", "--format", "json", "--out", str(out)]) == 0
    assert "dropped: names=1" in capsys.readouterr().err
    assert out.read_bytes() == expected
    for command in ("report", "analyze"):
        assert main([command, str(path), "--salvage"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "dropped: names=1" in err
        assert err.splitlines()[-1].startswith("repro: ")
        assert "carries no names" in err


def test_salvage_keeps_names_after_damage_before_them(demo, tmp_path,
                                                      capsys):
    """Truncation repair reads every section after the damage by its
    key, the ``names`` section after the tracker included."""
    text = demo[1].read_text()
    start = text.index('"effects": ') + len('"effects": ')
    damaged = tmp_path / "damaged.gcost.json"
    damaged.write_text(text[:start] + "@" + text[start + 1:])
    assert main(["report", str(damaged), "--format", "json"]) \
        == EXIT_BAD_INPUT
    capsys.readouterr()
    assert main(["analyze", str(damaged), "--salvage"]) == 0
    assert "CR:" in capsys.readouterr().out


# -- the edge column ---------------------------------------------------------


def test_edge_column_from_the_csr_equals_the_sorted_one(suite):
    """A frozen graph's edge column is read off its CSR; it must be
    the column sorting the successor sets gives, so every saved
    profile, spill and worker shard keeps its bytes."""
    wide = repro.compile_source(stress_source(seed=3, stages=64,
                                              chain=24, rounds=2))
    tracker = CostTracker(slots=16)
    VM(wide, tracer=tracker, exec_mode="interp").run()
    graphs = [("wide", tracker.graph)]
    graphs += [(name, load_profile(str(profile))[0])
               for name, (_, profile) in sorted(suite.items())]
    for name, graph in graphs:
        assert not graph.frozen, name
        sorted_doc = graph_to_dict(graph)
        graph.freeze()
        assert graph.frozen, name
        assert graph_to_dict(graph) == sorted_doc, name
