"""Deterministic fault injection for the supervised profiling runtime.

Reliability code is only as trustworthy as the failures it was tested
against, and real worker crashes are miserable to reproduce.  This
module makes them data: a :class:`FaultPlan` maps ``(shard index,
attempt)`` to a :class:`FaultSpec`, the supervisor ships the matching
spec into each worker it launches, and :func:`apply_fault` acts it out
*inside* the worker — a hard ``os._exit`` (crash), a sleep the parent
must time out (hang), a delay (slow), a raised exception (error) — or
around it (``corrupt`` mangles the shard's output dict so the parent's
validation must catch it, ``vmlimit`` shrinks the instruction budget
so the VM's own :class:`~repro.vm.errors.VMLimitError` containment
path fires).

Plans are plain picklable/JSON-able data, so the same plan drives unit
tests, the CLI (via the ``REPRO_FAULT_PLAN`` environment variable; see
``docs/RESILIENCE.md``), and the CI smoke job, and
:meth:`FaultPlan.seeded` derives a reproducible random plan from a
seed.  Everything here is inert unless a plan is explicitly supplied —
production runs never consult this module.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field

#: Every fault kind a plan may request.
FAULT_KINDS = ("crash", "hang", "slow", "error", "corrupt", "vmlimit")

#: Instruction budget the ``vmlimit`` fault clamps a job to.
VMLIMIT_BUDGET = 50


class InjectedFault(RuntimeError):
    """The exception the ``error`` fault kind raises inside a worker."""


class SimulatedKill(RuntimeError):
    """Parent-side simulated crash (``FaultPlan.abort_after``).

    Raised by the supervisor after the configured number of shard
    completions have been checkpointed — the deterministic stand-in
    for ``kill -9`` mid-run that the checkpoint-resume tests use.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what to do and how hard."""

    kind: str
    #: Sleep for the ``slow`` kind (seconds).
    delay_s: float = 0.01
    #: Exit code for the ``crash`` kind.
    exit_code: int = 13
    #: Sleep for the ``hang`` kind; the parent's shard timeout must
    #: fire first, so keep this much larger than any test timeout.
    hang_s: float = 3600.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {FAULT_KINDS})")

    def as_dict(self) -> dict:
        return {"kind": self.kind, "delay_s": self.delay_s,
                "exit_code": self.exit_code, "hang_s": self.hang_s}


@dataclass
class FaultPlan:
    """A deterministic schedule of faults for one supervised run.

    ``faults`` maps ``(shard index, attempt number)`` to the
    :class:`FaultSpec` to inject on that attempt; attempts without an
    entry run clean, which is how "crash then succeed" plans are
    written.  ``abort_after`` additionally asks the *parent* to die
    (raise :class:`SimulatedKill`) once that many shards have
    completed this run — checkpoints written up to that point are what
    ``profile --resume`` picks up.
    """

    faults: dict = field(default_factory=dict)
    abort_after: int = None

    def get(self, shard: int, attempt: int):
        """The fault for this attempt, or ``None`` to run clean."""
        return self.faults.get((shard, attempt))

    # -- constructors --------------------------------------------------------

    @classmethod
    def single(cls, shard: int, kind: str, attempts=(0,),
               **spec_fields) -> "FaultPlan":
        """Fault one shard on the given attempt numbers."""
        spec = FaultSpec(kind, **spec_fields)
        return cls({(shard, attempt): spec for attempt in attempts})

    @classmethod
    def seeded(cls, seed: int, shards: int, rate: float = 0.3,
               kinds=("crash", "error", "slow"),
               attempts: int = 1) -> "FaultPlan":
        """A reproducible random plan: same seed, same faults.

        Each of the first ``attempts`` attempts of each shard draws
        independently; with the default ``attempts=1`` every injected
        fault is followed by a clean retry, so a supervisor with a
        retry budget always recovers.
        """
        rng = random.Random(seed)
        faults = {}
        for shard in range(shards):
            for attempt in range(attempts):
                if rng.random() < rate:
                    faults[(shard, attempt)] = FaultSpec(rng.choice(kinds))
        return cls(faults)

    # -- JSON (environment-variable / CLI transport) -------------------------

    def to_json(self) -> str:
        rows = [dict(shard=shard, attempt=attempt, **spec.as_dict())
                for (shard, attempt), spec in sorted(self.faults.items())]
        return json.dumps({"faults": rows, "abort_after": self.abort_after})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse :meth:`to_json` output (also the hand-written form:
        only ``shard`` and ``kind`` are required per row)."""
        data = json.loads(text)
        faults = {}
        for row in data.get("faults", []):
            key = (int(row["shard"]), int(row.get("attempt", 0)))
            spec_fields = {name: row[name]
                           for name in ("delay_s", "exit_code", "hang_s")
                           if name in row}
            faults[key] = FaultSpec(row["kind"], **spec_fields)
        return cls(faults, abort_after=data.get("abort_after"))

    @classmethod
    def from_env(cls, variable: str = "REPRO_FAULT_PLAN"):
        """The plan in ``$REPRO_FAULT_PLAN``, or ``None`` if unset."""
        raw = os.environ.get(variable)
        return cls.from_json(raw) if raw else None


# -- worker-side enactment ---------------------------------------------------


def apply_fault(spec: FaultSpec) -> None:
    """Act out a pre-run fault inside the worker process.

    ``corrupt`` and ``vmlimit`` are not handled here — they wrap the
    run itself (output mangling / budget clamping) and are applied by
    the supervisor's worker body.
    """
    if spec.kind == "crash":
        os._exit(spec.exit_code)
    elif spec.kind == "hang":
        time.sleep(spec.hang_s)
    elif spec.kind == "slow":
        time.sleep(spec.delay_s)
    elif spec.kind == "error":
        raise InjectedFault("injected worker error")


def corrupt_shard(shard: dict) -> dict:
    """Deterministically mangle a worker's serialized profile dict.

    Re-packs the first half of the frequency column so the node
    arrays disagree — the exact misalignment the supervisor's shard
    validation must reject (and then retry) rather than merge.
    """
    from ..profiler.serialize import pack_column, unpack_column
    freq = unpack_column(shard["freq"], "freq")
    shard["freq"] = pack_column(freq[:len(freq) // 2])
    return shard
