"""Optional C acceleration for the incremental evaluation subsystem.

``_kernels.c`` (same directory) holds dependency-free scalar kernels for the
Costas hot paths — swap scoring, swap application, error projection, table
rebuilds and reset-candidate scoring — plus the compiled walk engine
(``as_walk_init``/``as_walk_run``) that runs the whole Adaptive Search inner
loop in C for the Costas, queens and all-interval families.  This module
compiles the source on first use with the system C compiler (plain ``cc -O3
-shared -fPIC``; no Python headers or build system involved) into a
content-addressed cache under ``$XDG_CACHE_HOME/repro-ckernels`` and exposes
it through :mod:`ctypes`.

The kernels are an *acceleration*, never a requirement: every entry point has
a bit-exact NumPy twin (:mod:`repro.models.costas` for the delta kernels, the
RNG mirror in :mod:`repro.core.cwalk_mirror` for the walk engine), and
:func:`load` degrades to ``None`` — selecting the NumPy path — when no
compiler is available, compilation fails, or ``REPRO_NO_CKERNELS`` is set
(the equivalence test-suite uses that switch to cover both paths).  The
outcome of the first load is reported once through :mod:`logging` (including
the compiler's stderr on failure) so a silent fallback to NumPy is visible in
server logs; :func:`mode` exposes the same verdict programmatically for
``/stats``, ``/healthz`` and the CLI.

``REPRO_CKERNEL_CFLAGS`` appends extra compiler flags (whitespace-separated)
— the CI sanitiser job uses it to build the kernels with
``-fsanitize=address,undefined``.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

__all__ = ["load", "available", "mode"]

_SOURCE = Path(__file__).with_name("_kernels.c")

_log = logging.getLogger("repro.ckernels")

_i64 = ctypes.c_int64
_p64 = ctypes.c_void_p  # int64 array base addresses (numpy .ctypes.data)
_pdbl = ctypes.c_void_p  # float64 array base addresses

#: argtypes/restype per exported kernel.
_SIGNATURES = {
    "costas_swap_deltas": (
        [_p64, _p64, _p64, _i64, _i64, _i64, _i64, _p64, _i64, _p64],
        None,
    ),
    "costas_swap_delta": (
        [_p64, _p64, _p64, _i64, _i64, _i64, _i64, _p64, _i64, _i64],
        _i64,
    ),
    "costas_apply": (
        [_p64, _p64, _p64, _i64, _i64, _i64, _i64, _p64, _i64, _i64],
        _i64,
    ),
    "costas_rebuild": (
        [_p64, _p64, _p64, _i64, _i64, _i64, _i64, _i64, _p64],
        _i64,
    ),
    "costas_errors": ([_p64, _i64, _i64, _p64, _p64, _i64, _p64], None),
    "costas_batch_costs": (
        [_p64, _i64, _i64, _i64, _i64, _p64, _p64, _i64, _p64],
        None,
    ),
    # --- compiled walk engine ---
    "walk_rng_stream": ([_i64, _i64, _p64], None),
    "walk_rng_draws": ([_i64, _i64, _i64, _p64, _pdbl], None),
    "gen_rng_draws": ([_p64, _p64, _i64, _p64, _pdbl], None),
    "gen_rng_shuffle": ([_p64, _p64, _i64], None),
    "gen_rng_choice": ([_p64, _i64, _i64, _p64, _p64], None),
    "as_walk_init": (
        [_p64, _p64, _i64, _p64, _i64, _p64, _p64, _p64, _p64, _p64, _p64],
        None,
    ),
    "as_walk_run": (
        [
            _p64,  # pi: int parameter block
            _pdbl,  # pd: double parameter block
            _p64,  # wd: costas distance weights
            _p64,  # consts: costas reset constants
            _i64,  # W
            _i64,  # steps
            _p64,  # state (W, WS_NSLOTS)
            _p64,  # perm (W, n)
            _p64,  # tabu (W, n)
            _p64,  # errs (W, n)
            _p64,  # best (W, n)
            _p64,  # tbl1
            _p64,  # tbl2
            _p64,  # scratch
            _p64,  # gen: numpy generator block, NULL = xoshiro
        ],
        _i64,
    ),
}

_lib: Optional[ctypes.CDLL] = None
_loaded = False


def _build() -> ctypes.CDLL:
    source = _SOURCE.read_bytes()
    extra_flags = os.environ.get("REPRO_CKERNEL_CFLAGS", "").split()
    tag_input = source + b"\0" + " ".join(extra_flags).encode()
    tag = hashlib.sha256(tag_input).hexdigest()[:16]
    cache_root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    cache_dir = Path(cache_root) / "repro-ckernels"
    cache_dir.mkdir(parents=True, exist_ok=True)
    shared_object = cache_dir / f"kernels-{tag}.so"
    if not shared_object.exists():
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        os.close(fd)
        try:
            compiler = os.environ.get("CC", "cc")
            subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC"]
                + extra_flags
                + ["-o", tmp, str(_SOURCE)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, shared_object)  # atomic: racing processes agree
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(shared_object))
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or ``None`` when unavailable.

    The first call compiles (or reuses the cached build of) ``_kernels.c``;
    the outcome — library handle or ``None`` after any failure — is memoised
    for the life of the process and logged once.
    """
    global _lib, _loaded
    if _loaded:
        return _lib
    _loaded = True
    if os.environ.get("REPRO_NO_CKERNELS"):
        _lib = None
        _log.info("C kernels disabled by REPRO_NO_CKERNELS; using NumPy path")
        return None
    try:
        _lib = _build()
        _log.info("C kernels loaded (compiled walk engine available)")
    except subprocess.CalledProcessError as exc:
        _lib = None
        stderr = (exc.stderr or b"").decode(errors="replace").strip()
        _log.warning(
            "C kernel compilation failed; falling back to NumPy path.\n%s",
            stderr or "(no compiler output)",
        )
    except Exception as exc:  # no compiler, read-only FS, odd toolchain...
        _lib = None
        _log.warning("C kernels unavailable (%s); falling back to NumPy path", exc)
    return _lib


def available() -> bool:
    """Whether the C kernels can be (or have been) loaded."""
    return load() is not None


def mode() -> str:
    """The kernel path this process resolved to: ``"c"`` or ``"numpy"``."""
    return "c" if available() else "numpy"
