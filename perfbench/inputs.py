"""Seeded inputs of the workloads and their reference results.

The program under test only ever sees the files and shards made here.
References come from the sequential merge oracle
(``profile_jobs_sequential``) run on the reference interpreter tier, so
they share neither the shard supervisor, the merge of shard files, nor
the compiled tier with the requests they check.  Report references are
digests of the reports the seed code gave on those profiles, so a
faster but wrong analysis or report path fails the check.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.profiler import ProfileJob
from repro.profiler.parallel import canonical_form, profile_jobs_sequential
from repro.observability import bloat_report_data
from repro.stdlib import compile_with_stdlib
from repro.workloads import all_workloads

from harness import digest

#: Suite programs run at this fraction of the way from each workload's
#: small scale to its default scale, so that one pass over all twelve
#: CLI requests fits in one run.
SUITE_FRACTION = 0.35

#: The suite tenants of service-mix (small shards).
SERVICE_PROGRAMS = ("eclipse_like", "trade_like")

#: The stress tenant of service-mix (large shards).
SERVICE_WIDE_SHAPE = {"stages": 64, "chain": 24, "rounds": 2}

#: Runs (shards) per profile request, as in ``--runs 2``.
RUNS = 2

#: Served reports pinned per suite tenant of service-mix: the first
#: this many, one after each push.
SERVICE_PINNED = 4

#: Stored references, valid while the program sources match.
REFS_PATH = Path(__file__).with_name("refs.json")


def suite_scale(spec) -> dict:
    scale = {}
    for key, default in spec.default_scale.items():
        small = spec.small_scale.get(key, default)
        scale[key] = round(small + (default - small) * SUITE_FRACTION)
    return scale


def suite_sources() -> dict:
    """name -> MiniJ source of the twelve suite programs (``unopt``)."""
    return {spec.name: spec.source("unopt", suite_scale(spec))
            for spec in all_workloads()}


def suite_order(seed: int) -> list:
    names = sorted(suite_sources())
    random.Random(seed).shuffle(names)
    return names


def oracle(path: str, runs: int = RUNS):
    """The sequential reference profile of ``runs`` runs of a file."""
    jobs = [ProfileJob.from_file(str(path), label=f"run{i}",
                                 exec_mode="interp") for i in range(runs)]
    return profile_jobs_sequential(jobs, slots=16)


def canonical_digest(graph, state) -> str:
    return digest(canonical_form(graph, state))


def report_digest(report) -> str:
    """Digest of a report as a dict or as served JSON text.

    ``summary.memory_bytes`` is left out: it is the size of the graph's
    representation, not an analysis answer, and a leaner graph changes
    it legitimately.
    """
    if not isinstance(report, str):
        report = json.dumps(report)
    data = json.loads(report)
    data["summary"] = {key: value for key, value in data["summary"].items()
                       if key != "memory_bytes"}
    return digest(data)


def reference_of(path: str) -> dict:
    """Output, graph and report of the oracle profile of a file."""
    profile = oracle(path)
    program = compile_with_stdlib(Path(path).read_text())
    meta = {"instructions": profile.instructions, "runs": RUNS}
    return {"output": profile.outputs[0],
            "canonical": canonical_digest(profile.graph, profile.state),
            "report": report_digest(bloat_report_data(
                profile.graph, meta, profile.state, program, top=10))}


def stored_refs(section: str) -> dict:
    """``suite`` or ``service`` entries of ``refs.json``."""
    if not REFS_PATH.exists():
        return {}
    return json.loads(REFS_PATH.read_text()).get(section, {})


def suite_references(work, sources: dict) -> dict:
    """References for the suite files in ``work``: stored ones where the
    source is unchanged, otherwise recomputed (outside any timing)."""
    stored = stored_refs("suite")
    refs = {}
    for name, source in sources.items():
        entry = stored.get(name)
        if entry is not None and entry["source"] == digest(source):
            refs[name] = entry
        else:
            refs[name] = dict(reference_of(work.file(f"{name}.mj")),
                              source=digest(source))
    return refs


def write_refs(work) -> None:
    """Regenerate ``refs.json`` (``python3 perfbench/run.py
    --write-refs``) after a deliberate change to the suite programs or
    to what a report contains.  Run it on code whose reports are known
    to be right: the digests pin them."""
    import service_mix
    suite = {}
    for name, source in sorted(suite_sources().items()):
        file = work.file(f"{name}.mj")
        file.write_text(source)
        suite[name] = dict(reference_of(file), source=digest(source))
    service = {}
    for tenant in service_mix.suite_tenants():
        service[tenant.name] = {
            "source": digest(tenant.program_spec["source"]),
            "reports": [report_digest(report) for report in
                        service_mix.expected_reports(tenant,
                                                     SERVICE_PINNED)]}
    REFS_PATH.write_text(json.dumps({"suite": suite, "service": service},
                                    indent=1, sort_keys=True) + "\n")
