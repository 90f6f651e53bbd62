"""Build and load the native kernels in ``_kernels.c`` through ctypes.

The shared object is compiled with gcc into this package's
``__pycache__``, under a name that carries the SHA-256 of the source and
the compiler flags, so it is built once per source version and reused
by every later import. ``LIB`` is the kernels loaded once, when this
module is first imported, so no timed call pays the build or the
``dlopen``. Each build writes to a per-process temporary name
and is moved into place with ``os.replace``, so processes that build at
the same moment never load a half-written file. A failed build raises
with gcc's stderr; there is no fallback.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")


def build() -> Path:
    """Path of the compiled kernels, compiling them first if no build of
    this source with these flags exists yet."""
    digest = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode()).hexdigest()
    out = SOURCE.parent / "__pycache__" / f"_kernels-{digest[:16]}.so"
    if out.exists():
        return out
    out.parent.mkdir(exist_ok=True)
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    proc = subprocess.run(["gcc", *FLAGS, "-o", str(tmp), str(SOURCE)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise ImportError(f"compiling {SOURCE.name} failed:\n{proc.stderr}")
    os.replace(tmp, out)
    return out


def load() -> ctypes.CDLL:
    """Load the kernels, building them if needed, with every function's
    argument and result types declared."""
    lib = ctypes.CDLL(str(build()))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.stream_edges.argtypes = [ptr, i64, ptr, ptr, i64, i64, ptr, i64, ctypes.c_int, f64, f64,
                                 ptr, ptr, ptr]
    lib.stream_edges.restype = ctypes.c_int
    lib.edge_degrees.argtypes = [ptr, i64, i64, ptr]
    lib.edge_degrees.restype = ctypes.c_int
    lib.csr_count.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr]
    lib.csr_count.restype = i64
    lib.csr_fill.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, i64]
    lib.csr_fill.restype = ctypes.c_int
    lib.nepp.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, i64, ptr, ptr, ptr,
                         ptr, ptr, ptr, ptr, ptr, i64, ptr, ptr]
    lib.nepp.restype = ctypes.c_int
    return lib


LIB = load()
