"""Build cache and warning hygiene of the native kernels (``core/_native.py``)."""
import subprocess

import pytest

from repro.core import _native


def test_second_load_reuses_cached_build(monkeypatch):
    """A second load finds the build of this source and these flags and
    loads it from the same path without running the compiler again."""
    first = _native.build()
    mtime = first.stat().st_mtime_ns

    def no_compile(*args, **kwargs):
        raise AssertionError("the kernels were compiled again")

    monkeypatch.setattr(_native.subprocess, "run", no_compile)
    _native.load()
    assert _native.build() == first
    assert first.stat().st_mtime_ns == mtime


def test_failed_build_raises_with_compiler_output(tmp_path, monkeypatch):
    """A source that does not compile fails the load with gcc's message,
    and leaves no partial build behind."""
    broken = tmp_path / "_kernels.c"
    broken.write_text("int stream_edges(void) { return undeclared_name; }\n")
    monkeypatch.setattr(_native, "SOURCE", broken)
    with pytest.raises(ImportError, match="undeclared_name"):
        _native.load()
    assert not list((tmp_path / "__pycache__").iterdir())


def test_kernels_compile_without_warnings():
    """The kernels are warning-free under -Wall -Wextra (sign compares,
    uninitialised reads, unused values); syntax check only, nothing is
    built or run."""
    proc = subprocess.run(
        ["gcc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(_native.SOURCE)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
