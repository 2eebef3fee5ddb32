"""suite-profile: the CLI ``profile`` -> ``report`` path.

Each request is a fresh ``python -m repro`` process, timed from launch
to exit.  Every profile request is checked against the sequential
oracle (program output and ``canonical_form`` of the saved merged
graph); every report request against the digest of the report the seed
code gave on the oracle's profile.
"""

from __future__ import annotations

import ast
import time
from statistics import mean

from repro.profiler import load_profile

import inputs
from harness import class_floors, median, run_program

#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPEATS = 3


def profile_argv(name: str) -> list:
    return ["profile", "--jobs", "2", "--runs", str(inputs.RUNS),
            f"{name}.mj", "--save-graph", f"{name}.gcost.json",
            "--flight-record", "flight.jsonl"]


def report_argv(name: str) -> list:
    return ["report", f"{name}.gcost.json", f"{name}.mj", "--format",
            "json", "--out", f"{name}.report.json"]


def cold_setup(work) -> list:
    """Cold program start-ups: ``--help`` with an empty byte-code cache
    each time; the last cache stays warm for the timed requests.  An
    untimed start first brings the sources into the page cache and the
    CPUs out of idle."""
    run_program(work, "--help")
    walls = []
    for _ in range(SETUP_REPEATS):
        work.fresh_pycache()
        walls.append(run_program(work, "--help").wall_s)
    return walls


def printed_output(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("output: "):
            return ast.literal_eval(line[len("output: "):])
    return None


class ProfileChecker:
    """Checks one program's requests against its reference."""

    def __init__(self, work, name: str, reference: dict):
        self.work = work
        self.name = name
        self.reference = reference
        self.instructions = 0

    def profile_ok(self, finished) -> bool:
        if finished.exit_code != 0:
            return False
        if printed_output(finished.stdout) != self.reference["output"]:
            return False
        graph, meta, state = load_profile(
            self.work.file(f"{self.name}.gcost.json"))
        self.instructions = meta["instructions"]
        return (inputs.canonical_digest(graph, state)
                == self.reference["canonical"])

    def report_ok(self, finished) -> bool:
        served = self.work.file(f"{self.name}.report.json")
        if finished.exit_code != 0 or not served.is_file():
            return False
        return (inputs.report_digest(served.read_text())
                == self.reference["report"])


def run_cli(work, names, references, seconds: float) -> dict:
    """Timed loop: whole passes of profile+report over ``names`` for as
    long as another pass still fits in ``seconds``."""
    checkers = {name: ProfileChecker(work, name, references[name])
                for name in names}
    walls = {"profile": {name: [] for name in names},
             "report": {name: [] for name in names}}
    rss = []
    instructions = attempted = failed = passes = 0
    start = time.perf_counter()
    last_pass = 0.0
    while not passes or \
            time.perf_counter() - start + last_pass <= seconds:
        pass_start = time.perf_counter()
        for name in names:
            checker = checkers[name]
            finished = run_program(work, *profile_argv(name))
            walls["profile"][name].append(finished.wall_s)
            rss.append(finished.peak_rss_mb)
            attempted += 1
            if checker.profile_ok(finished):
                instructions += checker.instructions
            else:
                failed += 1
            finished = run_program(work, *report_argv(name))
            walls["report"][name].append(finished.wall_s)
            rss.append(finished.peak_rss_mb)
            attempted += 1
            failed += not checker.report_ok(finished)
        passes += 1
        last_pass = time.perf_counter() - pass_start
    return {"walls": walls, "passes": passes, "rss": rss,
            "instructions": instructions, "attempted": attempted,
            "failed": failed}


def metrics_of(setup_walls, loop) -> tuple:
    """(end-to-end metrics, the named figures printed before the result)
    of one run.  The gated timings are means over the twelve programs of
    each program's fastest request in the run (``class_floors``)."""
    walls = loop["walls"]
    profile = [wall for name in walls["profile"]
               for wall in walls["profile"][name]]
    report = [wall for name in walls["report"]
              for wall in walls["report"][name]]
    floors = {kind: list(class_floors(walls[kind]).values())
              for kind in walls}
    every_floor = floors["profile"] + floors["report"]
    end_to_end = {
        "setup_s": (median(setup_walls), "s"),
        "record_ms": (mean(floors["profile"]) * 1000, "ms"),
        "read_ms": (mean(floors["report"]) * 1000, "ms"),
        "ops_per_s": (len(every_floor) / sum(every_floor), "1/s"),
        "peak_rss_mb": (max(loop["rss"]), "MB"),
    }
    per_program = (f"{len(floors['profile'])} programs x "
                   f"{loop['passes']} passes")
    named = [
        ("setup_s", median(setup_walls), "s",
         f"median of {len(setup_walls)} cold starts"),
        ("profile_s", median(profile), "s",
         f"median of {len(profile)} requests; max {max(profile):.3f} s"),
        ("profile_floor_s", mean(floors["profile"]), "s",
         f"record_ms: mean of each program's fastest; {per_program}"),
        ("profile_instr_per_s", loop["instructions"] / sum(profile),
         "instr/s", f"{loop['instructions']} instructions"),
        ("report_s", median(report), "s",
         f"median of {len(report)} requests; max {max(report):.3f} s"),
        ("report_floor_s", mean(floors["report"]), "s",
         f"read_ms: mean of each program's fastest; {per_program}"),
        ("requests_per_s", (len(profile) + len(report))
         / (sum(profile) + sum(report)), "1/s",
         "requests over summed request wall"),
        ("peak_rss_mb", max(loop["rss"]), "MB",
         f"max over {len(loop['rss'])} process trees"),
        ("error_ratio", loop["failed"] / loop["attempted"], "ratio",
         f"{loop['failed']}/{loop['attempted']}"),
    ]
    return end_to_end, named


def prepare(seed: int, work) -> tuple:
    """Write the suite's program files; return (names, references)."""
    sources = inputs.suite_sources()
    for name, source in sources.items():
        work.file(f"{name}.mj").write_text(source)
    return inputs.suite_order(seed), inputs.suite_references(work, sources)


def run(seed: int, seconds: float, work) -> dict:
    names, references = prepare(seed, work)
    setup_walls = cold_setup(work)
    loop = run_cli(work, names, references, seconds)
    end_to_end, named = metrics_of(setup_walls, loop)
    return {"end_to_end": end_to_end, "named": named,
            "attempted": loop["attempted"], "failed": loop["failed"]}
