"""Checkpoint-resume for supervised profiling runs.

Because shard profiles are idempotent (a :class:`ProfileJob` rebuilds
and re-runs deterministically) and the merge is exact, a profiling
campaign interrupted at shard *k* loses nothing if the first *k* shard
profiles survive on disk.  The supervisor therefore rewrites one small
checkpoint document after every successful shard; ``profile --resume
PATH`` reloads it, skips the shards it already holds, and — because
shards are merged in job order regardless of which run produced them —
yields a graph ``canonical_form``-identical to an uninterrupted run.

Document layout (version 1)::

    {"version": 1,
     "fingerprint": "<sha256 of the job list + profiler config>",
     "slots": 16, "total": 8,
     "shards": {"0": <v4 profile dict>, "3": ...},
     "checksum": "<sha256 of every other key>"}

Checkpoints go through :func:`~repro.profiler.serialize.write_document`
(atomic, so a kill mid-write leaves the previous checkpoint intact)
and its reader, whose typed errors for a torn, undecodable or
bit-flipped file surface as
:class:`~repro.profiler.errors.CheckpointError` rather than a silently
wrong resume.  The fingerprint binds a checkpoint to the
exact job list and profiler configuration that produced it; resuming
with different jobs, slots, or tracking flags is refused.
"""

from __future__ import annotations

import json

from .errors import CheckpointError, ProfileFormatError
from .serialize import read_document, write_document

CHECKPOINT_VERSION = 1


def jobs_fingerprint(jobs, slots: int, phases, track_cr: bool,
                     track_control: bool) -> str:
    """Identity of a profiling campaign: jobs + tracker configuration.

    Execution mode and sampling schedule are part of a job's identity:
    resuming a sampled campaign with a different schedule (or tier)
    would merge shards whose window sequences disagree, so such a
    resume must miss the fingerprint and start fresh.  Jobs with
    neither set serialize exactly as before, keeping pre-existing
    checkpoint fingerprints valid.
    """
    import hashlib
    entries = []
    for job in jobs:
        entry = [job.kind, job.spec, job.label, job.max_steps]
        if job.exec_mode is not None or job.sampling is not None:
            entry.append({"exec_mode": job.exec_mode,
                          "sampling": job.sampling})
        entries.append(entry)
    recipe = {
        "jobs": entries,
        "slots": slots,
        "phases": sorted(phases) if phases is not None else None,
        "track_cr": track_cr,
        "track_control": track_control,
    }
    return hashlib.sha256(
        json.dumps(recipe, sort_keys=True).encode()).hexdigest()


def write_checkpoint(path, fingerprint: str, slots: int, total: int,
                     shards: dict) -> None:
    """Atomically persist the completed shards (``index -> profile``)."""
    data = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "slots": slots,
        "total": total,
        "shards": {str(index): shard
                   for index, shard in sorted(shards.items())},
    }
    write_document(path, data)


def load_checkpoint(path, fingerprint: str = None) -> dict:
    """Validate and return the checkpointed shards (``index -> dict``).

    Raises :class:`~repro.profiler.errors.CheckpointError` when the
    file does not decode or parse, lacks or fails its checksum,
    carries an unsupported version, or (with ``fingerprint`` given)
    was written for a different campaign.
    """
    try:
        data = read_document(path, kind="checkpoint")
    except ProfileFormatError as error:
        raise CheckpointError(str(error)) from error
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {data.get('version')!r} "
            f"in {path!r}")
    if "checksum" not in data:
        raise CheckpointError(
            f"checkpoint {path!r} failed checksum validation")
    if fingerprint is not None and data.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path!r} was written for a different job "
            f"list or profiler configuration; refusing to resume")
    return {int(index): shard
            for index, shard in data.get("shards", {}).items()}
