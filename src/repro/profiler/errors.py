"""Typed failure taxonomy for the profiling runtime.

The resilience layer (``profiler/supervisor.py``, the checkpoint
store, and the serializer's validation path) needs callers — and the
CLI's exit-code mapping — to distinguish *bad input* (a malformed
request or an unreadable file) from a *runtime failure* (a shard that
died despite valid input).  Every error below therefore subclasses
:class:`ProfilerError` plus the builtin the pre-typed code raised
(``ValueError`` / ``RuntimeError``), so existing ``except ValueError``
callers keep working while new code can match precisely.
"""

from __future__ import annotations


class ProfilerError(Exception):
    """Base class for profiling-runtime failures."""


class ProfileInputError(ProfilerError, ValueError):
    """A profiling entry point was called with invalid input.

    Raised for the documented contract violations of
    :func:`~repro.profiler.parallel.merge_graphs` and the job-list
    entry points: an empty graph/job list, mismatched context-domain
    sizes (``slots``), or a ``states`` list whose length differs from
    the graph list.
    """


class ProfileFormatError(ProfilerError, ValueError):
    """A saved profile document cannot be decoded.

    Covers unsupported format versions and structurally malformed
    documents; see the subclasses for checksum and truncation
    failures.
    """


class ProfileChecksumError(ProfileFormatError):
    """The profile's content checksum does not match its payload.

    The file parsed as JSON but its bytes are not the bytes the writer
    hashed — silent corruption, not truncation.
    """


class ProfileTruncatedError(ProfileFormatError):
    """The file's bytes do not decode as UTF-8 or parse as JSON.

    :func:`~repro.profiler.serialize.salvage_profile` offers a
    best-effort recovery path for this case.
    """


class CheckpointError(ProfilerError, ValueError):
    """A checkpoint file is unusable for resuming.

    Raised for checksum mismatches, unsupported checkpoint versions,
    and fingerprint mismatches (the checkpoint was written for a
    different job list or profiler configuration).
    """


class ShardFailedError(ProfilerError, RuntimeError):
    """Strict-mode supervision: a shard exhausted its retry budget.

    Carries the structured :class:`~repro.profiler.supervisor.ShardResult`
    of the failed shard as ``shard`` (``None`` when raised outside the
    supervisor).
    """

    def __init__(self, message: str, shard=None):
        super().__init__(message)
        self.shard = shard
