"""Profile integrity: checksums, typed load failures, and salvage.

A profiling campaign's output is only as durable as its files: these
tests damage saved profiles in every way the resilience layer
claims to handle — version skew, checksum mismatch, truncation at
several depths — and check the loaders fail with typed errors while
:func:`salvage_profile` recovers an internally consistent subset.
"""

import json

import pytest

from conftest import as_v3_columns, in_layout
from repro.profiler import (CostTracker, ProfileChecksumError,
                            ProfileFormatError, ProfileTruncatedError,
                            canonical_form, content_checksum,
                            load_profile, salvage_profile, save_graph)
from repro.profiler.serialize import pack_column, unpack_column
from repro.vm import VM
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory):
    """A real saved profile (graph + tracker state + meta)."""
    spec = get_workload("chart_like")
    tracker = CostTracker(slots=16)
    vm = VM(spec.build("unopt", spec.small_scale), tracer=tracker)
    vm.run()
    path = tmp_path_factory.mktemp("profiles") / "gcost.json"
    save_graph(tracker.graph, str(path),
               meta={"instructions": vm.instr_count},
               tracker=tracker)
    return str(path)


class TestChecksums:

    def test_saved_profile_carries_valid_checksum(self, profile_path):
        data = json.loads(open(profile_path).read())
        assert data["checksum"] == content_checksum(data)
        load_profile(profile_path)  # verifies without raising

    def test_tampered_content_detected(self, profile_path, tmp_path):
        data = json.loads(open(profile_path).read())
        freq = unpack_column(data["freq"])
        freq[0] += 1
        data["freq"] = pack_column(freq)
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ProfileChecksumError, match="checksum"):
            load_profile(str(bad))

    def test_pre_checksum_files_still_load(self, profile_path, tmp_path):
        data = json.loads(open(profile_path).read())
        del data["checksum"]
        old = tmp_path / "prechecksum.json"
        old.write_text(json.dumps(data))
        graph, meta, state = load_profile(str(old))
        assert graph.num_nodes > 0 and state is not None


class TestTypedLoadFailures:

    def test_version_mismatch(self, profile_path, tmp_path):
        data = json.loads(open(profile_path).read())
        data["version"] = 99
        del data["checksum"]
        bad = tmp_path / "v99.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ProfileFormatError, match="version"):
            load_profile(str(bad))

    def test_not_json(self, tmp_path):
        bad = tmp_path / "noise.json"
        bad.write_text("definitely not json")
        with pytest.raises(ProfileTruncatedError, match="truncated"):
            load_profile(str(bad))

    def test_not_an_object(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ProfileFormatError, match="object"):
            load_profile(str(bad))

    def test_truncation(self, profile_path, tmp_path):
        text = open(profile_path).read()
        cut = tmp_path / "cut.json"
        cut.write_text(text[:len(text) // 2])
        with pytest.raises(ProfileTruncatedError):
            load_profile(str(cut))

    def test_errors_are_valueerrors(self):
        # Typed errors stay catchable by pre-PR-4 except ValueError.
        for cls in (ProfileFormatError, ProfileChecksumError,
                    ProfileTruncatedError):
            assert issubclass(cls, ValueError)


class TestSalvage:

    def test_intact_file_salvages_exactly(self, profile_path):
        graph, meta, state, report = salvage_profile(profile_path)
        oracle_graph, oracle_meta, oracle_state = \
            load_profile(profile_path)
        assert report.clean and report.checksum_verified
        assert meta == oracle_meta
        assert canonical_form(graph, state) == \
            canonical_form(oracle_graph, oracle_state)

    @pytest.mark.parametrize("fraction", [0.9, 0.6, 0.3])
    def test_truncation_recovers_consistent_subset(self, profile_path,
                                                   tmp_path, fraction):
        text = open(profile_path).read()
        cut = tmp_path / f"cut{int(fraction * 100)}.json"
        cut.write_text(text[:int(len(text) * fraction)])
        graph, meta, state, report = salvage_profile(str(cut))
        full_graph, _, _ = load_profile(profile_path)
        assert report.repaired and not report.checksum_verified
        assert 0 < graph.num_nodes <= full_graph.num_nodes
        # Recovered nodes are a prefix of the full document's nodes.
        assert graph.node_keys == full_graph.node_keys[:graph.num_nodes]
        # Every surviving edge references recovered nodes (the graph
        # would throw on out-of-range ids; reaching here proves it).
        assert graph.num_edges <= full_graph.num_edges
        assert "nodes recovered" in report.format()

    def test_internal_damage_dropped_not_fatal(self, profile_path,
                                               tmp_path, layout="v3"):
        data = as_v3_columns(json.loads(open(profile_path).read()))
        data["edges"] += [999999, 0]           # dangling edge
        data["edges"] += ["garbage", 0]        # malformed pair
        data.pop("checksum", None)             # plain internal damage
        bad = tmp_path / "damaged.json"
        bad.write_text(json.dumps(in_layout(data, layout)))
        graph, meta, state, report = salvage_profile(str(bad))
        assert report.dropped.get("edges") == 2
        full_graph, _, _ = load_profile(profile_path)
        assert graph.num_edges == full_graph.num_edges

    def test_internal_damage_dropped_not_fatal_in_v2_rows(self,
                                                          profile_path,
                                                          tmp_path):
        self.test_internal_damage_dropped_not_fatal(profile_path, tmp_path,
                                                    layout="v2rows")

    def test_internal_damage_dropped_not_fatal_in_v4(self, profile_path,
                                                     tmp_path):
        """In v4 the edge column holds a non-int, so it stays a JSON
        list; the damage is dropped as in the other layouts."""
        self.test_internal_damage_dropped_not_fatal(profile_path, tmp_path,
                                                    layout="v4")

    def test_internal_damage_in_a_packed_column_dropped(self,
                                                        profile_path,
                                                        tmp_path):
        data = as_v3_columns(json.loads(open(profile_path).read()))
        data["edges"] += [999999, 0]           # dangling edge
        bad = tmp_path / "damaged.json"
        bad.write_text(json.dumps(in_layout(data, "v4")))
        graph, meta, state, report = salvage_profile(str(bad))
        assert report.dropped == {"edges": 1}
        full_graph, _, full_state = load_profile(profile_path)
        assert canonical_form(graph, state) == \
            canonical_form(full_graph, full_state)

    @pytest.mark.parametrize("layout", ["v3", "v2rows", "v4"])
    def test_cut_column_drops_its_odd_value(self, profile_path, tmp_path,
                                            layout):
        """A column cut inside a pair loses that pair and counts it,
        as a v2 rows table cut inside a row does; a packed column cut
        inside a value keeps its whole values."""
        saved = json.loads(open(profile_path).read())
        doc = in_layout(as_v3_columns(saved), layout)
        text = json.dumps(doc)
        if layout == "v4":
            # Five whole values, and part of the sixth when the values
            # are wider than a byte: ceil(5 * width * 4 / 3) base64
            # characters.
            width = int(doc["edges"][1])
            cut = text.index('"edges": "i') + len('"edges": "i2:')
            cut += -(-20 * width // 3)
        else:
            # In both layouts the fifth ", " of the edge section
            # follows the first value of the third pair: cut just
            # after it.
            cut = text.index('"edges": [')
            for _ in range(5):
                cut = text.index(", ", cut) + 2
        damaged = tmp_path / "cut.json"
        damaged.write_text(text[:cut])
        graph, meta, state, report = salvage_profile(str(damaged))
        assert report.repaired
        assert report.dropped.get("edges") == 1
        assert graph.num_edges == 2

    def test_cut_context_column_keeps_whole_nodes(self, profile_path,
                                                  tmp_path):
        """A v4 ``contexts`` column cut short keeps the context sets of
        the nodes whose contexts all precede the cut, and drops the
        rest."""
        text = open(profile_path).read()
        full_graph, _, full_state = load_profile(profile_path)
        counts = unpack_column(json.loads(text)["tracker"]["context_counts"])
        start = text.index('"contexts": "i') + len('"contexts": "')
        width = int(text[start + 1])
        # 4 * width base64 characters hold the first three values.
        cut = tmp_path / "cut.json"
        cut.write_text(text[:start + 3 + 4 * width])
        graph, _, state, report = salvage_profile(str(cut))
        assert report.repaired
        assert graph.node_keys == full_graph.node_keys
        kept, covered = 0, 0
        while covered + counts[kept] <= 3:
            covered += counts[kept]
            kept += 1
        assert covered == 3
        assert state.node_gs[:kept] == full_state.node_gs[:kept]
        assert not any(state.node_gs[kept:])

    def test_hopeless_truncation_raises(self, tmp_path):
        stub = tmp_path / "stub.json"
        stub.write_text('{"version": 2, "meta": {"instr')
        with pytest.raises(ProfileTruncatedError, match="beyond salvage"):
            salvage_profile(str(stub))
