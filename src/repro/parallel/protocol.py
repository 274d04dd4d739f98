"""Length-prefixed JSON socket protocol for the remote-worker fabric.

Frames are ``8-byte big-endian length || UTF-8 JSON object``; every
object carries a ``"type"``.  The conversation between a
:class:`~repro.parallel.remote.RemoteRunner` (client) and a
``parole worker serve`` process (server):

1. client → ``hello`` — protocol version, environment fingerprint
   (python/numpy/platform), **source-tree digest**
   (:func:`repro.store.code_fingerprint`) and the store schema version;
2. server → ``welcome`` (advertising its parallelism ``slots``) or
   ``reject`` with a human-readable reason.  A worker running different
   code or a different numpy **refuses the work** — silently divergent
   floats would break the byte-identity contract, so the handshake
   fails closed;
3. client → ``chunk`` frames (task entries encoded with the store's
   tagged JSON codec, functions by qualified name); server → ``result``
   frames, plus ``ping``/``pong`` heartbeats in both directions.

Values cross the wire through :mod:`repro.store.codec` — the exact
round-trip codec the result store already uses — so a value computed
remotely decodes bit-identical to one computed locally.  Function
references resolve through the same import allow-list as the codec;
anything outside ``repro.``/``tests.``/``benchmarks.`` is refused.

**Trust model.**  The handshake proves *compatibility* (same code,
same numeric stack), not *identity*: every field in the ``hello``
frame is a non-secret fact anyone with a repo checkout can produce,
and the allow-list still spans every test/benchmark callable.  A
worker must therefore only listen on loopback or a trusted private
network — or be given a shared secret: set ``PAROLE_FABRIC_TOKEN``
(or pass ``token=`` / ``--token``) on both sides and the server
refuses any ``hello`` whose token does not match
(constant-time compare, never echoed back).
:class:`~repro.store.ResultStore` handles in task kwargs encode to
``null`` (a store handle must not cross hosts; tasks treat a missing
store as "run without checkpointing", which never changes results).
"""

from __future__ import annotations

import hmac
import importlib
import json
import os
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..store import STORE_SCHEMA_VERSION, code_fingerprint
from ..store.codec import CodecError, decode, encode
from ..telemetry.manifest import env_fingerprint
from .worker import TaskError

__all__ = [
    "AUTH_TOKEN_ENV",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "fabric_token",
    "ProtocolError",
    "ConnectionClosed",
    "HandshakeRefused",
    "send_frame",
    "recv_frame",
    "hello_message",
    "handshake_mismatch",
    "encode_entries",
    "decode_entries",
    "encode_outcomes",
    "decode_outcomes",
    "resolve_fn",
]

#: Bump on any frame-shape change; mismatched peers refuse each other.
PROTOCOL_VERSION = 1

#: Environment variable carrying the optional shared-secret fabric
#: token; when set on a server, every client must present it.
AUTH_TOKEN_ENV = "PAROLE_FABRIC_TOKEN"


def fabric_token() -> Optional[str]:
    """The shared-secret token from the environment, or None."""
    return os.environ.get(AUTH_TOKEN_ENV) or None

#: Upper bound on a single frame (tasks ship arguments, results ship
#: whole experiment payloads — generous, but a garbage length prefix
#: must not allocate gigabytes).
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">Q")

_ALLOWED_FN_PREFIXES = (
    "repro.",
    "tests.",
    "benchmarks.",
    "test_",
    "bench_",
    "conftest",
)


class ProtocolError(ReproError):
    """A malformed or oversized frame, or an unresolvable reference."""


class ConnectionClosed(ProtocolError):
    """The peer closed the socket (mid-frame or between frames)."""


class HandshakeRefused(ProtocolError):
    """The worker refused the handshake (env/source mismatch)."""


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialize ``message`` and write one length-prefixed frame."""
    data = json.dumps(message, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"outgoing frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    sock.sendall(_LENGTH.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        piece = sock.recv(min(remaining, 1 << 20))
        if not piece:
            raise ConnectionClosed(
                f"peer closed with {remaining} of {count} byte(s) unread"
            )
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Read one frame; raises :class:`ConnectionClosed` on EOF."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame claims {length} bytes "
            f"(limit {MAX_FRAME_BYTES}); refusing to allocate"
        )
    payload = _recv_exact(sock, int(length))
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame is not an object with a 'type' field")
    return message


# -- handshake -------------------------------------------------------


#: The environment facts that must match for bit-identical floats.
#: ``cpu_count`` is deliberately absent: it never changes a result.
_HANDSHAKE_ENV_KEYS = ("python_version", "python_impl", "numpy_version", "machine")


def _env_summary() -> Dict[str, Any]:
    """The handshake's slice of :func:`~repro.telemetry.manifest.env_fingerprint`."""
    fingerprint = env_fingerprint()
    return {key: fingerprint[key] for key in _HANDSHAKE_ENV_KEYS}


def hello_message(
    source_digest: Optional[str] = None, token: Optional[str] = None
) -> Dict[str, Any]:
    """The client's opening frame.

    ``token`` defaults to ``$PAROLE_FABRIC_TOKEN``; it is only included
    when set, so tokenless deployments keep the v1 frame shape.
    """
    message = {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "env": _env_summary(),
        "source_digest": source_digest or code_fingerprint(),
        "store_schema": STORE_SCHEMA_VERSION,
    }
    token = token if token is not None else fabric_token()
    if token:
        message["token"] = token
    return message


def handshake_mismatch(
    hello: Dict[str, Any], token: Optional[str] = None
) -> Optional[str]:
    """Why this host must refuse ``hello``, or None when compatible.

    ``token`` is the shared secret this host requires (default:
    ``$PAROLE_FABRIC_TOKEN``); when set, a missing or different client
    token is refused before anything else, and the reason never echoes
    either value.
    """
    expected = token if token is not None else fabric_token()
    if expected:
        presented = hello.get("token")
        if not isinstance(presented, str) or not hmac.compare_digest(
            presented, expected
        ):
            return "authentication token missing or mismatched"
    if hello.get("protocol") != PROTOCOL_VERSION:
        return (
            f"protocol version {hello.get('protocol')!r} != "
            f"{PROTOCOL_VERSION}"
        )
    if hello.get("store_schema") != STORE_SCHEMA_VERSION:
        return (
            f"store schema {hello.get('store_schema')!r} != "
            f"{STORE_SCHEMA_VERSION!r}"
        )
    local_digest = code_fingerprint()
    if hello.get("source_digest") != local_digest:
        return (
            f"source-tree digest {str(hello.get('source_digest'))[:16]}… "
            f"!= local {local_digest[:16]}… (sync the code first)"
        )
    local_env = _env_summary()
    remote_env = hello.get("env") or {}
    for key, local_value in local_env.items():
        remote_value = remote_env.get(key)
        if remote_value != local_value:
            return (
                f"environment mismatch on {key}: "
                f"{remote_value!r} != {local_value!r}"
            )
    return None


# -- task / result payloads ------------------------------------------


def _fn_ref(fn: Any) -> str:
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not qualname or not module or "<" in qualname:
        raise ProtocolError(
            f"cannot ship non-module-level callable {fn!r} to a remote "
            "worker"
        )
    return f"{module}:{qualname}"


def resolve_fn(ref: str) -> Any:
    """Import-restricted resolution of a ``module:qualname`` reference."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ProtocolError(f"malformed function reference {ref!r}")
    if not module_name.startswith(_ALLOWED_FN_PREFIXES):
        raise ProtocolError(
            f"refusing to import {module_name!r}: outside the allowed "
            "namespaces"
        )
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise ProtocolError(f"cannot resolve {ref!r}: {exc}") from exc
    if not callable(obj):
        raise ProtocolError(f"{ref!r} resolved to a non-callable")
    return obj


def _encode_value(value: Any) -> Any:
    from ..store.result_store import ResultStore

    if isinstance(value, ResultStore):
        # A store handle never crosses hosts: remote tasks run without
        # it (store handles are key-neutral and results-neutral — they
        # only enable mid-task checkpointing).
        return None
    return encode(value)


def encode_entries(
    entries: Sequence[Tuple[int, Any, tuple, Dict[str, Any], Optional[int]]],
) -> List[Dict[str, Any]]:
    """Task entries → JSON-able chunk payload."""
    encoded = []
    for index, fn, args, kwargs, seed in entries:
        try:
            encoded.append(
                {
                    "index": index,
                    "fn": _fn_ref(fn),
                    "args": [_encode_value(a) for a in args],
                    "kwargs": {k: _encode_value(v) for k, v in kwargs.items()},
                    "seed": seed,
                }
            )
        except CodecError as exc:
            raise ProtocolError(
                f"task #{index} has arguments the wire codec cannot "
                f"carry: {exc}"
            ) from exc
    return encoded


def decode_entries(
    payload: Sequence[Dict[str, Any]],
) -> List[Tuple[int, Any, tuple, Dict[str, Any], Optional[int]]]:
    """Chunk payload → task entries ready for ``run_chunk``."""
    entries = []
    for item in payload:
        entries.append(
            (
                int(item["index"]),
                resolve_fn(item["fn"]),
                tuple(decode(a) for a in item["args"]),
                {k: decode(v) for k, v in item["kwargs"].items()},
                item["seed"],
            )
        )
    return entries


def encode_outcomes(
    outcomes: Sequence[Tuple[int, Any, Optional[TaskError]]],
) -> List[Dict[str, Any]]:
    """Per-task outcomes → JSON.  Unencodable values become errors."""
    encoded = []
    for index, value, error in outcomes:
        if error is not None:
            encoded.append(
                {
                    "index": index,
                    "error": {
                        "exc_type": error.exc_type,
                        "message": error.message,
                        "traceback": error.traceback,
                    },
                }
            )
            continue
        try:
            encoded.append({"index": index, "value": encode(value)})
        except CodecError as exc:
            encoded.append(
                {
                    "index": index,
                    "error": {
                        "exc_type": "CodecError",
                        "message": (
                            f"task result not wire-encodable: {exc}"
                        ),
                        "traceback": "",
                    },
                }
            )
    return encoded


def decode_outcomes(
    payload: Sequence[Dict[str, Any]],
) -> List[Tuple[int, Any, Optional[TaskError]]]:
    outcomes: List[Tuple[int, Any, Optional[TaskError]]] = []
    for item in payload:
        error_payload = item.get("error")
        if error_payload is not None:
            outcomes.append(
                (
                    int(item["index"]),
                    None,
                    TaskError(
                        exc_type=str(error_payload.get("exc_type", "Error")),
                        message=str(error_payload.get("message", "")),
                        traceback=str(error_payload.get("traceback", "")),
                    ),
                )
            )
        else:
            outcomes.append((int(item["index"]), decode(item["value"]), None))
    return outcomes
