"""Lazy compiler/loader for the replay C kernel.

``_batch_replay.c`` holds the replay step loops: ``parole_resume``
scores one ordering by resuming from the prefix it shares with the
previous one (the K=1 path of ``IncrementalOVM``), and
``parole_batch_replay`` steps K orderings in lockstep (the
``BatchReplayEngine`` path).  Both run one shared transition in
``OVM.replay``'s exact IEEE-754 operation order.  This module loads
the compiled kernel on first use (once per process), binds it through
:mod:`ctypes`, and mirrors the kernel's two structs (:class:`Tables`,
:class:`Cursor`).

The library is cached across processes at
``<tempfile.gettempdir()>/repro-kernel-<uid>/_batch_replay-<key>.so``,
where ``<key>`` is a sha256 over the C source, the resolved path of the
compiler (``CC``, else ``cc``, ``gcc`` or ``clang``), that file's size
and modification time, and the compiler flags.  A miss compiles into a
fresh build directory inside the cache and renames the result onto the
cached name, so a concurrent process never loads a partial file; a
cached file that fails to load is rebuilt once.  The cache is used only
when ``os.lstat`` shows a real directory owned by this user with no
group or other permission bits; otherwise (or with no ``os.getuid``)
each process builds the same way into its own temporary directory,
removed at exit.  A different compiler is a different key, so
``CC=false`` still misses and falls back as below.

Loading can fail: no compiler, a failed compile, or a platform whose
``intp`` is narrower than the kernel's 64-bit index ABI.  The failure is
loud but not fatal: :func:`load_kernel` emits one ``RuntimeWarning``
naming the reason, :func:`kernel_backend` reports ``"python"``,
:func:`require_kernel` (what ``BatchReplayEngine`` calls) raises
:class:`~repro.errors.KernelUnavailableError`, and ``IncrementalOVM``
scores every ordering with a from-scratch ``OVM.replay`` instead —
bit-identical, just slower.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import KernelUnavailableError

_SOURCE = Path(__file__).with_name("_batch_replay.c")
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]
_loaded = False
_kernel: Optional[ctypes.CDLL] = None
_failure: Optional[KernelUnavailableError] = None


class Tables(ctypes.Structure):
    """``parole_tables``: one pre-state's compiled roles (read-only)."""

    _fields_ = [
        ("roles", ctypes.c_void_p),
        ("fees", ctypes.c_void_p),
        ("table", ctypes.c_void_p),
        ("initial_price", ctypes.c_double),
        ("max_supply", ctypes.c_int64),
        ("strict", ctypes.c_int64),
        ("charge", ctypes.c_int64),
        ("pool_row", ctypes.c_int64),
        ("n_tx", ctypes.c_int64),
        ("n_rows", ctypes.c_int64),
        ("n_real", ctypes.c_int64),
    ]


class Cursor(ctypes.Structure):
    """``parole_cursor``: the K=1 working state and last call's results."""

    _fields_ = [
        ("bal", ctypes.c_void_p),
        ("inv", ctypes.c_void_p),
        ("rem0", ctypes.c_int64),
        ("rem", ctypes.c_int64),
        ("length", ctypes.c_int64),
        ("order", ctypes.c_void_p),
        ("exec", ctypes.c_void_p),
        ("price", ctypes.c_void_p),
        ("rem_after", ctypes.c_void_p),
        ("undo", ctypes.c_void_p),
        ("wealth_rows", ctypes.c_void_p),
        ("n_wealth", ctypes.c_int64),
        ("prefix", ctypes.c_int64),
        ("undone", ctypes.c_int64),
        ("executed", ctypes.c_int64),
        ("executed_count", ctypes.c_int64),
        ("consistent", ctypes.c_int64),
        ("final_price", ctypes.c_double),
        ("wealth", ctypes.c_void_p),
    ]


def _cache_dir() -> Optional[str]:
    """This user's kernel cache directory, or ``None`` when it is not safe."""
    getuid = getattr(os, "getuid", None)
    if getuid is None:
        return None
    uid = getuid()
    path = os.path.join(tempfile.gettempdir(), f"repro-kernel-{uid}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError:
        return None
    try:
        info = os.lstat(path)
    except OSError:
        return None
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != uid
        or info.st_mode & 0o077
    ):
        return None
    return path


def _cache_key(compiler: str) -> str:
    """sha256 over the source, the compiler's file and the flags."""
    found = shutil.which(compiler)
    if found is None:
        raise KernelUnavailableError(f"C compiler {compiler!r} not found")
    resolved = os.path.realpath(found)
    info = os.stat(resolved)
    digest = hashlib.sha256(_SOURCE.read_bytes())
    for part in (resolved, info.st_size, info.st_mtime_ns, *_CFLAGS):
        digest.update(f"\0{part}".encode())
    return digest.hexdigest()


def _build(compiler: str, lib_path: str) -> None:
    """Compile the source into ``lib_path``, or raise naming why not."""
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", lib_path, str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
    except subprocess.CalledProcessError as exc:
        raise KernelUnavailableError(
            f"compiling {_SOURCE.name} with {compiler!r} failed "
            f"(exit status {exc.returncode})"
        ) from None
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelUnavailableError(
            f"compiling {_SOURCE.name} with {compiler!r} failed: {exc}"
        ) from None


def _load(lib_path: str) -> ctypes.CDLL:
    """Open the library at ``lib_path``, or raise naming why not."""
    try:
        return ctypes.CDLL(lib_path)
    except OSError as exc:
        raise KernelUnavailableError(
            f"loading the compiled {_SOURCE.name} failed: {exc}"
        ) from None


def _library(compiler: str) -> ctypes.CDLL:
    """The cached library, built on a miss (in a private cache if need be)."""
    cache_dir = _cache_dir()
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-batch-kernel-")
        atexit.register(shutil.rmtree, cache_dir, ignore_errors=True)
    lib_path = os.path.join(
        cache_dir, f"_batch_replay-{_cache_key(compiler)}.so"
    )
    if os.path.exists(lib_path):
        try:
            return ctypes.CDLL(lib_path)
        except OSError:
            pass  # a damaged entry: rebuilt once below
    try:
        build_dir = tempfile.mkdtemp(prefix="build-", dir=cache_dir)
    except OSError as exc:
        raise KernelUnavailableError(
            f"cannot build {_SOURCE.name} in {cache_dir}: {exc}"
        ) from None
    try:
        built = os.path.join(build_dir, "_batch_replay.so")
        _build(compiler, built)
        os.replace(built, lib_path)
    except OSError as exc:
        raise KernelUnavailableError(
            f"cannot cache the compiled {_SOURCE.name}: {exc}"
        ) from None
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
    return _load(lib_path)


def _compile() -> ctypes.CDLL:
    """Load (building if need be) and bind the kernel, or raise naming why."""
    if np.dtype(np.intp).itemsize != 8:
        raise KernelUnavailableError(
            "the kernel's index ABI needs a 64-bit intp"
        )
    if not _SOURCE.exists():
        raise KernelUnavailableError(f"kernel source {_SOURCE.name} is missing")
    compiler = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if compiler is None:
        raise KernelUnavailableError("no C compiler found (set CC)")
    lib = _library(compiler)
    batch = lib.parole_batch_replay
    batch.restype = ctypes.c_int64
    batch.argtypes = (
        [ctypes.c_void_p]             # tables
        + [ctypes.c_int64] * 2        # length, k
        + [ctypes.c_void_p] * 7       # orders, bal, inv, rem, exec, price, rem_mat
    )
    resume = lib.parole_resume
    resume.restype = ctypes.c_int64
    resume.argtypes = (
        [ctypes.c_void_p] * 3         # tables, cursor, order
        + [ctypes.c_int64]            # length
    )
    return lib


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or ``None`` when it cannot load.

    Loading (and compiling, on a cache miss) is attempted at most once
    per process; the result (including failure) is kept, and a failure
    warns exactly once.
    """
    global _loaded, _kernel, _failure
    if not _loaded:
        _loaded = True
        try:
            _kernel = _compile()
        except KernelUnavailableError as exc:
            _failure = exc
            warnings.warn(
                f"replay C kernel unavailable: {exc}; orderings are "
                "scored by from-scratch OVM.replay instead",
                RuntimeWarning,
                stacklevel=2,
            )
    return _kernel


def require_kernel() -> ctypes.CDLL:
    """The compiled kernel, or :class:`KernelUnavailableError` with the reason."""
    kernel = load_kernel()
    if kernel is None:
        raise KernelUnavailableError(
            f"replay C kernel unavailable: {_failure}"
        )
    return kernel


def kernel_backend() -> str:
    """``"c"`` when the compiled step loop loads, else ``"python"``."""
    return "c" if load_kernel() is not None else "python"


def _reset_for_tests() -> None:
    """Forget the cached load decision (test hook)."""
    global _loaded, _kernel, _failure
    _loaded = False
    _kernel = None
    _failure = None
