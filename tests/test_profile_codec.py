"""The profile-file codec: one atomic, checksummed writer and one reader.

Every profile, checkpoint and spill file is written by
``write_document`` and read by ``read_document``.  These tests pin what
that pair promises beyond the format itself: a save that fails leaves
the previous file byte-for-byte intact, bytes that do not decode get a
typed error on every path that reads a file — ``report``, ``analyze
--salvage``, ``client push`` and checkpoint resume — and so do rows
that point outside the node list, even under a valid checksum.
"""

import os

import pytest

from conftest import (PAIR_SECTIONS, as_v3_columns, in_layout,
                      layout_params)
from repro.cli import EXIT_BAD_INPUT, main
from repro.profiler import (CheckpointError, ProfileChecksumError,
                            ProfileFormatError, ProfileTruncatedError,
                            canonical_form, load_checkpoint, load_profile,
                            read_document, salvage_profile, save_graph,
                            write_checkpoint, write_document)

DEMO = """
class Entry {
    int a;
    Entry(int x) { a = x * 7 + 3; }
}
class Main {
    static void main() {
        Entry[] kept = new Entry[10];
        for (int i = 0; i < 10; i++) { kept[i] = new Entry(i); }
        Sys.printInt(kept[9].a);
    }
}
"""


def flip_byte(path, offset, value=0xFF):
    data = bytearray(path.read_bytes())
    data[offset] = value
    path.write_bytes(bytes(data))


@pytest.fixture
def saved(tmp_path, capsys):
    """``(profile, source)`` paths of a profile saved by the CLI."""
    source = tmp_path / "demo.mj"
    source.write_text(DEMO)
    profile = tmp_path / "demo.gcost.json"
    assert main(["profile", str(source), "--no-stdlib",
                 "--save-graph", str(profile)]) == 0
    capsys.readouterr()
    return profile, source


@pytest.fixture
def undecodable(saved, tmp_path):
    """The saved profile with byte 40 set to 0xff, which is not UTF-8."""
    profile, source = saved
    bad = tmp_path / "bad.gcost.json"
    bad.write_bytes(profile.read_bytes())
    flip_byte(bad, 40)
    return bad, source


class TestUndecodableBytes:

    def test_report_is_bad_input(self, undecodable, capsys):
        bad, source = undecodable
        assert main(["report", str(bad), str(source),
                     "--no-stdlib"]) == EXIT_BAD_INPUT
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro:")
        assert "truncated" in lines[0]

    def test_salvage_recovers_past_the_damage(self, saved, undecodable,
                                              capsys):
        bad, source = undecodable
        assert main(["analyze", str(bad), str(source), "--no-stdlib",
                     "--salvage"]) == 0
        assert "loaded graph" in capsys.readouterr().out
        graph, _, state, report = salvage_profile(str(bad))
        assert not report.clean and not report.checksum_verified
        # Byte 40 lies in the meta section; every graph section after
        # it decodes on its own.
        oracle_graph, _, oracle_state = load_profile(str(saved[0]))
        assert canonical_form(graph, state) == \
            canonical_form(oracle_graph, oracle_state)

    def test_salvage_flags_bad_byte_inside_a_string(self, saved):
        # The damaged document still parses (U+FFFD lands in a string),
        # but the report must not call it intact.
        profile, _ = saved
        flip_byte(profile, profile.read_bytes().index(b'"output": "') + 11)
        graph, meta, state, report = salvage_profile(str(profile))
        assert not report.clean and "�" in meta["output"]

    def test_client_push_refused_before_connecting(self, undecodable,
                                                   tmp_path, capsys):
        bad, _ = undecodable
        nobody = str(tmp_path / "nobody-home.sock")
        assert main(["client", "push", str(bad), "--addr", nobody,
                     "--tenant", "t"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "truncated" in err and "cannot reach" not in err

    def test_checkpoint_with_flipped_byte_refused(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        write_checkpoint(str(ckpt), "f" * 64, 16, 1, {0: {"fake": True}})
        flip_byte(ckpt, 40)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(ckpt))


#: Row damage a checksum cannot catch (the file is re-stamped after
#: it): ``(section, column of the section's first row, new value)``,
#: where ``None`` stands for the node count, one past the last node.
#: In a v3 column of pairs the first row is the first two values.
DAMAGED_ROWS = {
    "edge-past-node-list": ("edges", 1, None),
    "negative-edge": ("edges", 0, -1),
    "negative-effect-node": ("effects", 0, -1),
}


@pytest.fixture(params=layout_params(sorted(DAMAGED_ROWS)))
def damaged_rows(request, saved, tmp_path):
    """``(path, source, section)``: the saved profile with one row
    pointing outside the node list, in the v3 layout or rendered as v2
    rows or v4 packed columns, written with a valid checksum."""
    profile, source = saved
    name, layout = request.param
    section, column, value = DAMAGED_ROWS[name]
    doc = as_v3_columns(read_document(str(profile)))
    value = len(doc["nodes"]) // 2 if value is None else value
    if section in PAIR_SECTIONS:
        doc[section][column] = value
    else:
        doc[section][0][column] = value
    bad = tmp_path / "rows.gcost.json"
    write_document(str(bad), in_layout(doc, layout))
    return bad, source, section


class TestDamagedRows:

    def test_load_is_a_format_error(self, damaged_rows):
        bad, _, section = damaged_rows
        with pytest.raises(ProfileFormatError, match=section):
            load_profile(str(bad))

    def test_report_is_bad_input(self, damaged_rows, capsys):
        bad, source, section = damaged_rows
        assert main(["report", str(bad), str(source),
                     "--no-stdlib"]) == EXIT_BAD_INPUT
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro:")
        assert section in lines[0]

    def test_salvage_drops_the_row(self, damaged_rows, saved):
        bad, _, section = damaged_rows
        graph, _, state, report = salvage_profile(str(bad))
        assert report.dropped == {section: 1}
        full_graph, _, _ = load_profile(str(saved[0]))
        assert graph.node_keys == full_graph.node_keys


class TestAtomicSave:

    def test_unencodable_meta_keeps_previous_file(self, saved, tmp_path):
        profile, _ = saved
        before = profile.read_bytes()
        graph, meta, state = load_profile(str(profile))
        with pytest.raises(TypeError):
            save_graph(graph, str(profile), meta={"bad": object()},
                       tracker=state)
        assert profile.read_bytes() == before
        load_profile(str(profile))
        assert [name for name in os.listdir(tmp_path)
                if ".tmp." in name] == []

    def test_failure_mid_write_keeps_previous_file(self, saved, tmp_path,
                                                   monkeypatch):
        # A write that dies after encoding (here: the fsync) is the
        # kill-mid-save case; the rename never happens.
        profile, _ = saved
        before = profile.read_bytes()
        graph, meta, state = load_profile(str(profile))

        def failing_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk gone"):
            save_graph(graph, str(profile), meta=dict(meta, runs=2),
                       tracker=state)
        monkeypatch.undo()
        assert profile.read_bytes() == before
        assert [name for name in os.listdir(tmp_path)
                if ".tmp." in name] == []


class TestDocumentPair:

    def test_round_trip_stamps_checksum(self, tmp_path):
        path = tmp_path / "doc.json"
        write_document(str(path), {"version": 1, "rows": [[1, 2]]})
        data = read_document(str(path))
        assert data["rows"] == [[1, 2]] and len(data["checksum"]) == 64

    @pytest.mark.parametrize("content, error", [
        (b'{"version": 1, "rows": [[1,', ProfileTruncatedError),
        (b'{"version": 1, "rows": "\xff"}', ProfileTruncatedError),
        (b'{"rows": ' + b'[' * 100_000, ProfileTruncatedError),
        (b'[1, 2]', ProfileFormatError),
        (b'{"version": 1, "checksum": "00"}', ProfileChecksumError),
    ])
    def test_typed_errors(self, tmp_path, content, error):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(error):
            read_document(str(path))
