"""Smoke tests: every jobs/ entrypoint harness runs at tiny scale and
produces the expected row schema, and the entrypoints refuse bad
arguments before doing any work."""
import os
import pathlib
import subprocess
import sys

import pytest

from repro.harness import (
    print_rows,
    run_fig8,
    run_fig9,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
)


def test_table1_rows():
    rows = run_table1(sizes=(0.01, 0.02), ks=(2, 4), base_graph="LJ")
    assert {r["axis"] for r in rows} == {"|E|", "k"}
    assert all(r["seconds"] >= 0 for r in rows)


def test_table2_rows(spark):
    rows = run_table2(spark, names=("LJ", "OK"), scale=0.02)
    assert [r["graph"] for r in rows] == ["LJ", "OK"]
    for r in rows:
        assert r["footprint_tau_min"] <= r["footprint_tau_max"]
        assert r["seconds"] > 0


def test_table3_rows():
    rows = run_table3(names=("LJ", "IT"), scale=0.02)
    assert rows[0]["type"] == "Social" and rows[1]["type"] == "Web"
    for r in rows:
        assert r["vertices"] > 0 and r["edges"] > 0


def test_table4_rows(spark):
    rows = run_table4(
        spark,
        names=("OK",),
        scale=0.01,
        k=4,
        partitioners=("HEP-10", "DBH"),
        pr_iters=1,
        bfs_sources=1,
        cc_max_iter=3,
    )
    assert len(rows) == 2
    for r in rows:
        assert r["rf"] >= 1.0
        assert r["pr_comm"] > 0 and r["bfs_comm"] >= 0 and r["cc_comm"] > 0
        assert r["load_s"] > 0


def test_table5_rows():
    rows = run_table5(names=("OK",), scale=0.02, taus=(10.0, 1.0))
    assert len(rows) == 2
    for r in rows:
        assert 0 <= r["vertex_balance"]


def test_table6_rows():
    rows = run_table6(name="LJ", scale=0.02, k=8, fractions=(1.0, 0.5))
    assert rows[-1]["limit_frac"] == "HEP-1"
    faults = [r["hard_faults"] for r in rows[:-1]]
    assert faults[0] <= faults[1]
    assert rows[-1]["hard_faults"] == 0


def test_fig8_rows():
    rows = run_fig8(names=("LJ",), scale=0.02, k=8)
    names = {r["partitioner"] for r in rows}
    assert {"HEP-100", "NE", "HDRF", "DBH", "Random"} <= names
    for r in rows:
        assert r["mem_model_mib"] > 0


def test_fig9_rows():
    rows = run_fig9(name="OK", scale=0.02, k=8, taus=(10.0, 1.0))
    assert len(rows) == 2
    for r in rows:
        assert r["rf_ratio"] > 0


def test_print_rows_smoke(capsys):
    print_rows("t", [dict(a=1, b="x"), dict(a=22, b="yy")])
    out = capsys.readouterr().out
    assert "== t" in out and "22" in out


def test_print_rows_empty(capsys):
    print_rows("t", [])
    assert "no rows" in capsys.readouterr().out


def test_job_modules_importable():
    """jobs/*.py import cleanly (spark-submit entry contract)."""
    import importlib.util
    import pathlib
    import sys

    jobs = pathlib.Path(__file__).resolve().parents[1] / "jobs"
    sys.path.insert(0, str(jobs))
    try:
        for f in sorted(jobs.glob("*.py")):
            spec = importlib.util.spec_from_file_location(f"job_{f.stem}", f)
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            if f.stem != "_session":
                assert hasattr(mod, "main")
    finally:
        sys.path.remove(str(jobs))


JOBS = pathlib.Path(__file__).resolve().parents[1] / "jobs"


@pytest.fixture
def run_main(monkeypatch):
    monkeypatch.syspath_prepend(str(JOBS))
    from _session import run_main

    return run_main


@pytest.mark.parametrize("argv", [
    ["abc"], ["0"], ["-1"], ["nan"], ["inf"],
    ["0.3", "0"], ["0.3", "-2"], ["0.3", "2.5"], ["0.3", "x"],
    ["0.3", "8", "9"],
])
def test_bad_job_arguments_exit_2(run_main, argv, capsys):
    """A non-number, a scale <= 0, a k < 1 or an extra argument exits
    with status 2 and a usage line, and ``main`` never runs."""
    calls = []

    def main(scale: float = 0.5, k: int = 32) -> None:
        calls.append((scale, k))

    with pytest.raises(SystemExit) as exc:
        run_main(main, argv)
    assert exc.value.code == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("usage: ")


def test_job_arguments_and_defaults(run_main):
    calls = []

    def main(scale: float = 0.5, k: int = 32) -> None:
        calls.append((scale, k))

    run_main(main, [])
    run_main(main, ["0.25"])
    run_main(main, ["1e-2", "8"])
    assert calls == [(0.5, 32), (0.25, 32), (0.01, 8)]
    assert [type(v) for v in calls[-1]] == [float, int]


def test_job_refuses_bad_k_before_work():
    """The real entrypoint: k=0 ends with status 2 and a usage line, no
    traceback, before any graph is generated or Spark starts."""
    src = str(JOBS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, str(JOBS / "table4_processing.py"), "0.3", "0"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 2
    assert out.stderr.startswith("usage: table4_processing.py")
    assert "Traceback" not in out.stderr and out.stdout == ""
