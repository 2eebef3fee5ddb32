"""The benchmark's output checks fire on corrupted results.

Run from the checkout root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from repro.observability import bloat_report_data  # noqa: E402
from repro.profiler import save_graph  # noqa: E402
from repro.stdlib import compile_with_stdlib  # noqa: E402
from repro.service import TenantRegistry  # noqa: E402

import inputs  # noqa: E402
import service_mix  # noqa: E402
from cli_paths import ProfileChecker  # noqa: E402
from harness import Finished  # noqa: E402

SOURCE = """
class Box { int v; Box(int v) { this.v = v; } }
class Main {
    static void main() {
        int total = 0;
        for (int i = 0; i < 20; i++) {
            Box b = new Box(i);
            total = total + b.v;
        }
        Sys.printInt(total);
    }
}
"""


class _Work:
    def __init__(self, path):
        self.path = path

    def file(self, name):
        return self.path / name


def _saved_profile(tmp_path):
    """A saved profile as ``profile --save-graph`` writes it, and the
    profile request's stdout."""
    (tmp_path / "p.mj").write_text(SOURCE)
    profile = inputs.oracle(tmp_path / "p.mj")
    meta = {"instructions": profile.instructions, "slots": 16,
            "runs": inputs.RUNS, "output": profile.outputs[0]}
    stdout = f"output: {profile.outputs[0]!r}\n"
    return profile, meta, Finished(1.0, 0, stdout, 10.0)


def test_profile_check_fires_on_a_corrupted_graph(tmp_path):
    profile, meta, finished = _saved_profile(tmp_path)
    saved = tmp_path / "p.gcost.json"
    save_graph(profile.graph, saved, meta=meta, tracker=profile.state)
    checker = ProfileChecker(_Work(tmp_path), "p",
                             inputs.reference_of(tmp_path / "p.mj"))
    assert checker.profile_ok(finished)

    profile.graph.freq[0] += 1          # one corrupted node frequency
    save_graph(profile.graph, saved, meta=meta, tracker=profile.state)
    assert not checker.profile_ok(finished)


def test_profile_check_fires_on_wrong_output_or_exit(tmp_path):
    profile, meta, finished = _saved_profile(tmp_path)
    save_graph(profile.graph, tmp_path / "p.gcost.json", meta=meta,
               tracker=profile.state)
    checker = ProfileChecker(_Work(tmp_path), "p",
                             inputs.reference_of(tmp_path / "p.mj"))
    assert not checker.profile_ok(
        Finished(1.0, 0, "output: 'something else'\n", 10.0))
    assert not checker.profile_ok(Finished(1.0, 3, finished.stdout, 10.0))


def test_report_check_fires_on_a_corrupted_report(tmp_path):
    profile, meta, finished = _saved_profile(tmp_path)
    checker = ProfileChecker(_Work(tmp_path), "p",
                             inputs.reference_of(tmp_path / "p.mj"))
    report = bloat_report_data(profile.graph, meta, profile.state,
                               compile_with_stdlib(SOURCE), top=10)
    served = tmp_path / "p.report.json"
    served.write_text(json.dumps(report, indent=2))
    assert checker.report_ok(finished)

    report["summary"]["edges"] += 1     # one wrong figure
    served.write_text(json.dumps(report, indent=2))
    assert not checker.report_ok(finished)


def _box_tenant():
    shard = service_mix.make_shard(SOURCE, True, "box/run0")
    return service_mix.Tenant("box", SOURCE, True, [shard])


def test_service_check_fires_on_a_corrupted_report():
    tenant = _box_tenant()
    registry = TenantRegistry()
    served = []
    for _ in range(2):
        state = registry.ingest("box", tenant.shards[0])
        report = bloat_report_data(state.graph, state.report_meta(),
                                   state.state, tenant.compile(), top=10)
        served.append(json.dumps(json.loads(json.dumps(report)),
                                 sort_keys=True))
    assert service_mix.check_reports([tenant], {"box": served}) == 0

    corrupted = json.loads(served[1])
    corrupted["summary"]["nodes"] += 1
    served[1] = json.dumps(corrupted, sort_keys=True)
    assert service_mix.check_reports([tenant], {"box": served}) == 1


def test_pinned_reports_catch_a_fold_that_agrees_with_itself(monkeypatch):
    tenant = _box_tenant()
    tenant.pinned = [inputs.report_digest(report) for report
                     in service_mix.expected_reports(tenant, 2)]

    def fold_that_drops_the_shard(graph, other, state, other_state):
        pass

    # Served reports and their recomputation share the wrong fold.
    monkeypatch.setattr(service_mix, "fold_graph",
                        fold_that_drops_the_shard)
    served = list(service_mix.expected_reports(tenant, 2))
    assert service_mix.check_reports([tenant], {"box": served}) == 1
