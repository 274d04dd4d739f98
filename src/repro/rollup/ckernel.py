"""Lazy compiler/loader for the batch replay C kernel.

``_batch_replay.c`` is the step loop of the columnar batch replay
engine: it walks each candidate's steps as sequential scalar IEEE-754
operations in ``OVM.replay``'s exact order.  This module compiles it
with the system C compiler on first use (once per process, into a
temporary directory; ``CC`` names the compiler) and binds it through
:mod:`ctypes`.

Loading can fail: no compiler, a failed compile, or a platform whose
``intp`` is narrower than the kernel's 64-bit index ABI.  The failure is
loud but not fatal: :func:`load_kernel` emits one ``RuntimeWarning``
naming the reason, :func:`kernel_backend` reports ``"python"``,
:func:`require_kernel` (what ``BatchReplayEngine`` calls) raises
:class:`~repro.errors.KernelUnavailableError`, and
``ReorderEnv.evaluate_orders`` scores every miss through the K=1
``IncrementalOVM`` path instead — bit-identical, just slower.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
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


def _compile() -> ctypes.CDLL:
    """Build and bind the kernel, or raise naming why it cannot load."""
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
    build_dir = tempfile.mkdtemp(prefix="repro-batch-kernel-")
    atexit.register(shutil.rmtree, build_dir, ignore_errors=True)
    lib_path = os.path.join(build_dir, "_batch_replay.so")
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", lib_path, str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        lib = ctypes.CDLL(lib_path)
    except subprocess.CalledProcessError as exc:
        raise KernelUnavailableError(
            f"compiling {_SOURCE.name} with {compiler!r} failed "
            f"(exit status {exc.returncode})"
        ) from None
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelUnavailableError(
            f"compiling or loading {_SOURCE.name} with {compiler!r} failed: {exc}"
        ) from None
    fn = lib.parole_batch_replay
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        [ctypes.c_int64] * 3          # length, k, n_rows
        + [ctypes.c_void_p] * 11      # orders .. table
        + [ctypes.c_double] * 2       # max_supply_f, initial_price
        + [ctypes.c_int64] * 4        # max_supply, strict, charge, pool_row
        + [ctypes.c_void_p] * 6       # bal, inv, rem, exec, price, rem_mat
    )
    return lib


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or ``None`` when it cannot load.

    Compilation is attempted at most once per process; the result
    (including failure) is cached, and a failure warns exactly once.
    """
    global _loaded, _kernel, _failure
    if not _loaded:
        _loaded = True
        try:
            _kernel = _compile()
        except KernelUnavailableError as exc:
            _failure = exc
            warnings.warn(
                f"batch replay C kernel unavailable: {exc}; population "
                "scoring falls back to the K=1 IncrementalOVM path",
                RuntimeWarning,
                stacklevel=2,
            )
    return _kernel


def require_kernel() -> ctypes.CDLL:
    """The compiled kernel, or :class:`KernelUnavailableError` with the reason."""
    kernel = load_kernel()
    if kernel is None:
        raise KernelUnavailableError(
            f"batch replay C kernel unavailable: {_failure}"
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
