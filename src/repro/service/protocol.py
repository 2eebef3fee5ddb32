"""Wire protocol of the profiling service: framing, messages, errors.

One frame = one JSON message, in either direction.  The framing is
deliberately dumb — length-prefixed, checksummed, no negotiation — so
a push client can be written in a few lines of any language:

.. code-block:: text

    +----------+----------------+---------------------+=============+
    |  magic   | payload length |  SHA-256(payload)   |   payload   |
    | 4 bytes  | 4 bytes, big-  |      32 bytes       |  UTF-8 JSON |
    | b"RPRO"  |     endian     |                     |   object    |
    +----------+----------------+---------------------+=============+

The checksum extends the profile-integrity story of
:mod:`repro.profiler.serialize` onto the wire: a shard that survives
the frame check is bit-identical to what the client sent, and a frame
cut short by a dying client can never be half-applied — the daemon
folds a shard only after the full payload arrived and verified
(``docs/SERVICE.md`` documents the protocol for operators).

Messages are JSON objects with a ``type`` key (:data:`MESSAGE_TYPES`);
responses are ``{"type": "ok", ...}`` or ``{"type": "error", "code":
<int>, "name": "E_...", "error": "..."}`` with codes from
:data:`ERROR_CODES`.  Protocol violations raise :class:`FrameError`;
request-level failures raise :class:`ServiceError` — both carry the
numeric code the daemon puts on the wire.
"""

from __future__ import annotations

import hashlib
import json
import struct

#: Frame magic: rejects stray connections and endianness confusion.
MAGIC = b"RPRO"

#: Frame header layout: magic + big-endian payload length + SHA-256.
HEADER = struct.Struct(">4sI32s")
HEADER_SIZE = HEADER.size

#: Default per-frame payload ceiling (a merged stress-workload shard is
#: well under 10 MiB; anything larger than this is damage or abuse).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

#: Request message types the daemon accepts.  ``stats`` returns the
#: live metrics snapshot (``docs/OBSERVABILITY.md`` documents its
#: schema); ``health`` a small liveness/degradation summary.
MESSAGE_TYPES = ("push", "query", "status", "ping", "shutdown",
                 "stats", "health")

#: ``query`` kinds (``report`` is the full ``report --format json``
#: document; ``rac``/``rab`` are its field tables; ``bloat`` the
#: dead-value metrics; ``summary`` the run-summary section; ``trace``
#: the shard trace records pushed with the shards).
QUERY_KINDS = ("report", "bloat", "rac", "rab", "summary", "trace")

# -- error codes -------------------------------------------------------------

E_BAD_FRAME = 1        #: magic/length/checksum violation (conn closes)
E_BAD_MESSAGE = 2      #: not a JSON object / unknown type / bad field
E_BAD_SHARD = 3        #: profile dict invalid, wrong version, no tracker
E_SLOTS_MISMATCH = 4   #: shard slots differ from the tenant's domain
E_NO_TENANT = 5        #: query/status for a tenant never pushed to
E_NO_PROGRAM = 6       #: query kind needs program source, none given
E_SPILL = 7            #: tenant spill/reload failed (disk trouble)
E_QUERY_FAILED = 8     #: analysis/compile failure answering a query

#: name -> numeric code, the authoritative table ``docs/SERVICE.md``
#: mirrors (``tools/check_docs.py`` cross-checks it).
ERROR_CODES = {
    "E_BAD_FRAME": E_BAD_FRAME,
    "E_BAD_MESSAGE": E_BAD_MESSAGE,
    "E_BAD_SHARD": E_BAD_SHARD,
    "E_SLOTS_MISMATCH": E_SLOTS_MISMATCH,
    "E_NO_TENANT": E_NO_TENANT,
    "E_NO_PROGRAM": E_NO_PROGRAM,
    "E_SPILL": E_SPILL,
    "E_QUERY_FAILED": E_QUERY_FAILED,
}

_CODE_NAMES = {code: name for name, code in ERROR_CODES.items()}


def code_name(code: int) -> str:
    """The symbolic name of a numeric error code (``"E_?"`` if unknown)."""
    return _CODE_NAMES.get(code, "E_?")


class ServiceError(Exception):
    """A request the daemon (or client) rejects, with a wire code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def __str__(self):
        return f"{code_name(self.code)}({self.code}): {self.message}"


class FrameError(ServiceError):
    """A violation of the frame layer itself (bad magic, oversize
    length, checksum mismatch, non-JSON payload).  The daemon answers
    with an :data:`E_BAD_FRAME` error frame — best-effort, the stream
    may be garbage — and closes the connection."""

    def __init__(self, message: str):
        super().__init__(E_BAD_FRAME, message)


# -- framing -----------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    """Serialize one message into a framed byte string."""
    payload = json.dumps(message, check_circular=False).encode("utf-8")
    return HEADER.pack(MAGIC, len(payload),
                       hashlib.sha256(payload).digest()) + payload


def parse_header(header: bytes, max_frame: int = DEFAULT_MAX_FRAME):
    """Validate a frame header; returns ``(length, digest)``.

    Raises :class:`FrameError` for bad magic or an unbelievable
    length — both mean the stream is not speaking this protocol (or is
    damaged) and must be dropped.
    """
    if len(header) != HEADER_SIZE:
        raise FrameError(
            f"short frame header ({len(header)}/{HEADER_SIZE} bytes)")
    magic, length, digest = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (want {MAGIC!r})")
    if length > max_frame:
        raise FrameError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit")
    return length, digest


def decode_payload(payload: bytes, digest: bytes) -> dict:
    """Verify and parse a frame payload into a message dict.

    Raises :class:`FrameError` on checksum mismatch, undecodable
    JSON, or a payload that is not a JSON object.
    """
    if hashlib.sha256(payload).digest() != digest:
        raise FrameError("frame payload failed its SHA-256 checksum")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"frame payload is not JSON ({error})") from error
    if not isinstance(message, dict):
        raise FrameError(
            f"frame payload is {type(message).__name__}, not an object")
    return message


async def read_frame(reader, max_frame: int = DEFAULT_MAX_FRAME) -> dict:
    """Read one complete frame from an asyncio stream reader.

    Raises :class:`FrameError` for protocol violations and lets
    ``asyncio.IncompleteReadError`` (a client that died mid-frame)
    propagate — the caller drops the connection; nothing was applied.
    """
    header = await reader.readexactly(HEADER_SIZE)
    length, digest = parse_header(header, max_frame)
    payload = await reader.readexactly(length)
    return decode_payload(payload, digest)


# -- responses ---------------------------------------------------------------


def ok_response(**fields) -> dict:
    response = {"type": "ok"}
    response.update(fields)
    return response


def error_response(code: int, message: str) -> dict:
    return {"type": "error", "code": code, "name": code_name(code),
            "error": message}


def raise_for_error(response: dict) -> dict:
    """Client-side: turn an error response into a :class:`ServiceError`."""
    if not isinstance(response, dict):
        raise FrameError(
            f"response is {type(response).__name__}, not an object")
    if response.get("type") == "error":
        raise ServiceError(response.get("code", E_BAD_MESSAGE),
                           response.get("error", "unspecified error"))
    return response
