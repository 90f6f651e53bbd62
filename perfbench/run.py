"""HEP benchmark: partition time, peak memory and quality, and warm gasx
processing cost, for one named workload.

Usage:
    python3 perfbench/run.py --workload nepp-web --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from
``src/``. Progress goes to stderr. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones. README.md in this directory says what
each metric is and which end-to-end metric each layer metric moves.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from speed import REFERENCE_S, reference_cpu_s
from tracing import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

K = 32
PR_ITERS = 5
CC_MAX_ITER = 50
SWEEP_TAUS = [0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
# A round times partition_hep in two blocks, before and after its Spark
# calls, so that its calls sample two stretches of the host's speed.
PARTITIONS_PER_BLOCK = 3
# The Spark calls of a round, in order. setup_s is the median of the
# first set-up and the round's.
SPARK_SEQUENCE = ("pagerank", "setup", "cc", "setup")
MIN_ROUNDS = 1
MIB = float(1 << 20)

END_TO_END = {
    "setup_s": "s",
    "partition_s": "s",
    "partition_peak_mib": "MiB",
    "rf": "ratio",
    "edge_balance": "ratio",
    "pagerank_cpu_s": "s",
    "cc_iter_cpu_s": "s",
    "pagerank_shuffle_mib": "MiB",
    "pagerank_comm_rows": "rows",
}

PER_LAYER = {
    "setup.wall_s": "s",
    "setup.cold_s": "s",
    "partition.wall_s": "s",
    "partition.cpu_s": "s",
    "gasx.pagerank.wall_s": "s",
    "gasx.cc.wall_s": "s",
    "gasx.cc.cpu_s": "s",
    "machine.steal_share": "ratio",
    "machine.reference_s": "s",
    "generators.s": "s",
    "csr.build_s": "s",
    "csr.col_entries": "count",
    "csr.h2h_edges": "count",
    "nepp.s": "s",
    "nepp.edges": "count",
    "nepp.cleaned_entries": "count",
    "nepp.col_reads": "count",
    "nepp.col_read_mib": "MiB",
    "streaming.s": "s",
    "streaming.edges": "count",
    "streaming.us_per_edge": "us",
    "hep.other_s": "s",
    "memory_model.hep_mib": "MiB",
    "memory_model.peak_ratio": "ratio",
    "tau.sweep_s": "s",
    "degrees.split_s": "s",
    "degrees.h2h_edges": "count",
    "metrics.ingest_s": "s",
    "spark.start_s": "s",
    "gasx.warmup_s": "s",
    "gasx.pagerank.iter_s": "s",
    "gasx.pagerank.agg_s": "s",
    "gasx.pagerank.stage_s": "s",
    "gasx.pagerank.driver_s": "s",
    "gasx.pagerank.stages": "count",
    "gasx.pagerank.tasks": "count",
    "gasx.pagerank.task_run_s": "s",
    "gasx.pagerank.shuffle_read_mib": "MiB",
    "gasx.pagerank.shuffle_write_mib": "MiB",
    "gasx.cc.iterations": "count",
    "gasx.cc.comm_rows": "rows",
    "gasx.cc.stage_s": "s",
    "gasx.cc.driver_s": "s",
    "gasx.cc.stages": "count",
    "gasx.cc.task_run_s": "s",
    "gasx.cc.shuffle_write_mib": "MiB",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    tau: float
    graph: Callable[[int], object]  # seed -> EdgeList


def _it_analog(seed: int):
    """IT web analog at 0.1× its bench size: hosts, edges and p_intra
    of the IT entry in ``repro.graphs.generators``."""
    from repro.graphs.generators import web_locality

    return web_locality(n_hosts=400, mean_host_size=16.0, n_edges=55_000, p_intra=0.92, seed=seed)


def _ok_analog(seed: int):
    """OK social analog at 0.1× its bench size (RMAT, id space 2^11)."""
    from repro.graphs.generators import rmat

    return rmat(scale=11, n_edges=40_000, a=0.57, seed=seed)


WORKLOADS = {
    # τ=100: almost no vertex is high-degree, so NE++ does nearly all the work
    "nepp-web": Workload(tau=100.0, graph=_it_analog),
    # τ=1: about two thirds of the edges join two high-degree vertices
    # and go through informed HDRF
    "stream-social": Workload(tau=1.0, graph=_ok_analog),
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def median(xs) -> float:
    return float(statistics.median(xs))


class Ops:
    """Counts operations; an operation whose check fails is a failed one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, fn: Callable[[], None]) -> None:
        self.attempted += 1
        try:
            fn()
        except oracle.CheckFailed as e:
            self.failed += 1
            log(f"check failed: {what}: {e}")


@dataclass
class Inputs:
    el: object
    sweep: list
    spark_h2h: int
    res: object
    adf: object


def set_up(w: Workload, seed: int, spark, tr) -> Inputs:
    """Everything the timed calls consume: graph, Spark load, §4.4 τ sweep,
    Spark τ split, one HEP partitioning and its ingest into Spark."""
    from repro.core.hep import partition_hep
    from repro.core.metrics import assignment_to_spark
    from repro.graphs.degrees import degrees_df, high_vertices, split_edges
    from repro.graphs.generators import to_spark
    from repro.tau.precompute import footprint_sweep

    with tr.span("setup"):
        with tr.span("generators"):
            el = w.graph(seed)
        with tr.span("load"):
            edges = to_spark(spark, el).localCheckpoint()
        with tr.span("tau.sweep"):
            sweep = footprint_sweep(edges, taus=SWEEP_TAUS, k=K)
        with tr.span("degrees.split"):
            _, h2h = split_edges(edges, high_vertices(degrees_df(edges), w.tau))
            spark_h2h = h2h.count()
        with tr.span("partition"):
            res = partition_hep(el, k=K, tau=w.tau)
        with tr.span("metrics.ingest"):
            adf = assignment_to_spark(spark, res).localCheckpoint()
    return Inputs(el, sweep, spark_h2h, res, adf)


def check_setup(inp: Inputs, first: Inputs, w: Workload) -> None:
    el, res = inp.el, inp.res
    oracle.require(np.array_equal(el.edges, first.el.edges), "same seed generated another graph")
    oracle.check_assignment(el.edges, res.assignment, K)
    oracle.require(
        np.array_equal(res.assignment, first.res.assignment), "repetition returned another assignment"
    )
    want = oracle.h2h_count(el.edges, el.n, w.tau)
    oracle.require(
        inp.spark_h2h == want == res.stats["n_h2h"],
        f"|E_h2h|: Spark split {inp.spark_h2h}, numpy {want}, HEP {res.stats['n_h2h']}",
    )
    deg = np.bincount(el.edges.ravel(), minlength=el.n)
    fixed = 6 * el.n * 4 + -(-el.n * (K + 1) // 8)
    for tau, got in inp.sweep:
        low = int(deg[deg <= tau * deg[deg > 0].mean()].sum())
        oracle.require(got == 4 * low + fixed, f"τ={tau:g} footprint {got}, want {4 * low + fixed}")


def start_probe(el, w: Workload) -> tuple[subprocess.Popen, Path]:
    """Start the peak-memory probe on a copy of the graph written to a file."""
    path = WORK / f"edges-{os.getpid()}.npz"
    np.savez(path, edges=el.edges, n=el.n)
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), str(path), str(w.tau), str(K)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True), path


def finish_probe(proc: subprocess.Popen) -> float:
    out, _ = proc.communicate(timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-memory probe exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])["peak_growth_mib"]


def stop_probe(proc: subprocess.Popen, path: Path) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    path.unlink(missing_ok=True)


class Meter:
    """Wall and CPU seconds of a block of code.

    CPU seconds are those of this process plus the Spark JVM, or of the
    calling thread alone for a call that runs only in it. The kernel
    accounts time the hypervisor takes from a virtual CPU as steal, not
    as the process's CPU time, so these do not grow with steal as wall
    time does.
    """

    def __init__(self, jvm_pid: int):
        self._stat = Path(f"/proc/{jvm_pid}/stat")
        self._tick = os.sysconf("SC_CLK_TCK")

    def jvm_cpu(self) -> float:
        fields = self._stat.read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / self._tick  # utime + stime

    def cpu(self, thread_only: bool) -> float:
        return time.thread_time() if thread_only else time.process_time() + self.jvm_cpu()

    def measure(self, fn: Callable, thread_only: bool = False):
        """(fn(), wall seconds, CPU seconds)."""
        c, w = self.cpu(thread_only), time.perf_counter()
        out = fn()
        w, c = time.perf_counter() - w, self.cpu(thread_only) - c
        return out, w, c


def cpu_jiffies() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import repro.core.hep as hep_mod
    import repro.gasx.algorithms as gasx_alg
    from repro.core.memory_model import hep_footprint_bytes
    from repro.graphs.csr import build_pruned_csr
    from sparkio import StageReader, collect_garbage, jvm_pid, start_session, stop_session

    w = WORKLOADS[workload]
    tr = Tracer(on=trace)
    ops = Ops()

    el0 = w.graph(seed)
    probe, edge_file = start_probe(el0, w)
    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_session(WORK)
        spark_start_s = time.perf_counter() - t0
        peak_mib = finish_probe(probe)
        log(f"{workload} seed={seed}: m={el0.m} n={el0.n} spark start {spark_start_s:.1f}s, "
            f"peak {peak_mib:.2f} MiB")
        meter = Meter(jvm_pid())

        setups: list[Inputs] = []
        setup_wall, setup_cpu = [], []

        def set_up_once() -> None:
            collect_garbage(spark)
            inp, dw, dc = meter.measure(lambda: set_up(w, seed, spark, tr))
            setup_wall.append(dw)
            setup_cpu.append(dc)
            setups.append(inp)
            ops.check("setup", lambda: check_setup(inp, setups[0], w))

        set_up_once()  # the first set-up pays the JVM's first-use costs
        el, ref, adf = setups[0].el, setups[0].res, setups[0].adf

        t0 = time.perf_counter()
        gasx_alg.pagerank(adf, n_iter=1)
        gasx_alg.connected_components(adf, max_iter=1)
        warmup_s = time.perf_counter() - t0

        want_rank = oracle.pagerank(el.edges, el.n, PR_ITERS)
        want_lbl = oracle.min_labels(el.edges, el.n)
        pairs = oracle.replica_pairs(ref.assignment)
        norm: list[float] = []  # normalized CPU seconds of each untraced partition_hep call
        ref_cpu: list[float] = []  # CPU seconds of each reference loop
        stages = StageReader(spark)
        first_out: dict = {}
        layer: dict = {}
        samples: dict = {}  # per-layer samples from traced calls
        wall: dict = {}  # (call, traced) -> wall seconds per call
        cpu: dict = {}  # (call, traced) -> CPU seconds per call
        stage_stats: dict = {}  # (call, traced) -> StageStats per call
        comm = {"pagerank": [], "cc": []}
        iters = {"pagerank": [], "cc": []}

        def add(d: dict, key, value) -> None:
            d.setdefault(key, []).append(value)

        def same_as_first(key: str, value) -> None:
            # ranks are compared to 1e-12 relative: Spark may add partial sums in another order
            first_out.setdefault(key, value)
            oracle.require(np.allclose(first_out[key], value, rtol=1e-12, atol=0),
                           f"{key}: output differs between calls")

        def partition(traced: bool) -> None:
            if not traced:
                res, dw, dc = meter.measure(
                    lambda: hep_mod.partition_hep(el, k=K, tau=w.tau), thread_only=True
                )
            else:
                reads = [0, 0]

                def touch(lo: int, hi: int) -> None:
                    reads[0] += 1
                    reads[1] += hi - lo

                def traced_call():
                    with tr.span("partition.traced"):
                        with tr.span("csr.build"):
                            csr = build_pruned_csr(el, tau=w.tau)
                        layer["csr.col_entries"] = csr.col_entries
                        layer["csr.h2h_edges"] = len(csr.h2h)
                        csr.touch = touch
                        with patched(hep_mod, "partition_nepp", tr.wrap(hep_mod.partition_nepp, "nepp")), \
                                patched(hep_mod, "stream_edges", tr.wrap(hep_mod.stream_edges, "streaming")):
                            return hep_mod.partition_hep(el, k=K, tau=w.tau, csr=csr)

                res, dw, dc = meter.measure(traced_call, thread_only=True)
                root = tr.last("partition.traced")
                spans = {n: tr.seconds_under(root, n) for n in ("csr.build", "nepp", "streaming")}
                for n, x in spans.items():
                    add(samples, n, x)
                add(samples, "hep.other", root.seconds - sum(spans.values()))
                layer["nepp.col_reads"] = reads[0]
                layer["nepp.col_read_mib"] = reads[1] / MIB
                layer["nepp.cleaned_entries"] = res.stats["cleaned_entries"]
                layer["nepp.edges"] = el.m - res.stats["n_h2h"]
                layer["streaming.edges"] = res.stats["n_h2h"]
            add(wall, ("partition", traced), dw)
            add(cpu, ("partition", traced), dc)

            def check() -> None:
                oracle.require(np.array_equal(res.assignment, ref.assignment),
                               "repetition returned another assignment")
                if traced:
                    oracle.require(layer["csr.h2h_edges"] == res.stats["n_h2h"],
                                   "csr.h2h_edges differs from HEP's |E_h2h|")

            ops.check("partition", check)
            return dc

        def gasx(name: str, traced: bool) -> None:
            call = {
                "pagerank": lambda: gasx_alg.pagerank(adf, n_iter=PR_ITERS),
                "cc": lambda: gasx_alg.connected_components(adf, max_iter=CC_MAX_ITER),
            }[name]
            collect_garbage(spark)
            mark = stages.mark()
            if traced:
                def traced_call():
                    with tr.span(f"gasx.{name}"), patched(
                        gasx_alg, "two_stage_agg", tr.wrap(gasx_alg.two_stage_agg, "gasx.agg")
                    ):
                        return call()

                (out, st), dw, dc = meter.measure(traced_call)
            else:
                (out, st), dw, dc = meter.measure(call)
            add(wall, (name, traced), dw)
            add(cpu, (name, traced), dc)
            if traced or name == "pagerank":
                ss = stages.since(mark)
                add(stage_stats, (name, traced), ss)
            if traced:
                add(samples, f"{name}.agg", tr.seconds_under(tr.last(f"gasx.{name}"), "gasx.agg"))
                add(samples, f"{name}.driver", dw - ss.stage_s)
            comm[name].append(st.comm_rows)
            iters[name].append(st.iterations)
            pdf = out.toPandas()
            v = pdf["v"].to_numpy()
            val = pdf.iloc[:, 1].to_numpy()

            def check() -> None:
                if name == "pagerank":
                    oracle.require(st.iterations == PR_ITERS, f"PageRank ran {st.iterations} iterations")
                    oracle.check_ranks(v, val, want_rank)
                else:
                    oracle.check_labels(v, val, want_lbl)
                oracle.require(
                    st.comm_rows == st.iterations * pairs,
                    f"{name} comm_rows {st.comm_rows} != {st.iterations} × Σ|V(p_i)| {pairs}",
                )
                same_as_first(name, val[np.argsort(v)])

            ops.check(name, check)

        spark_calls = {
            "setup": set_up_once,
            "pagerank": lambda: gasx("pagerank", False),
            "cc": lambda: gasx("cc", False),
        }

        def partition_block() -> None:
            # Each untraced partition_hep call runs between two runs of the
            # reference loop (speed.py); its normalized time is its CPU
            # seconds over their mean.
            collect_garbage(spark)
            before = reference_cpu_s()
            ref_cpu.append(before)
            for _ in range(PARTITIONS_PER_BLOCK):
                dc = partition(False)
                after = reference_cpu_s()
                ref_cpu.append(after)
                norm.append(dc * REFERENCE_S * 2 / (before + after))
                before = after

        def timed_round() -> None:
            partition_block()
            for name in SPARK_SEQUENCE:
                spark_calls[name]()
            partition_block()
            if trace:
                for _ in range(PARTITIONS_PER_BLOCK):
                    partition(True)
                for name in ("pagerank", "cc"):
                    gasx(name, True)

        jiffies0 = cpu_jiffies()
        t_run = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - t_run < seconds:
            timed_round()
            rounds += 1
        jiffies = [b - a for a, b in zip(jiffies0, cpu_jiffies())]
        steal_share = jiffies[7] / sum(jiffies)  # /proc/stat: 8th column is steal
        log("setup wall " + " ".join("%.2f" % x for x in setup_wall)
            + " cpu " + " ".join("%.2f" % x for x in setup_cpu))
        log(f"{rounds} rounds in {time.perf_counter() - t_run:.1f}s, steal {100 * steal_share:.0f}%, "
            f"reference loop {median(ref_cpu):.4f}s; partition normalized "
            + " ".join("%.3f" % x for x in norm))
        log("raw: "
            + ", ".join(f"{n}{'*' if t else ''} wall {median(wall[(n, t)]):.3f} cpu {median(cpu[(n, t)]):.3f}"
                        for (n, t) in wall))
    finally:
        stop_probe(probe, edge_file)
        if spark is not None:
            stop_session(spark)

    if not trace:
        metrics = {
            "setup_s": median(setup_cpu),
            "partition_s": median(norm),
            "partition_peak_mib": peak_mib,
            "rf": oracle.replication_factor(ref.assignment),
            "edge_balance": oracle.edge_balance(ref.assignment, K),
            "pagerank_cpu_s": median(cpu[("pagerank", False)]),
            # per iteration: the seed's graph decides whether CC needs 5 or 6
            "cc_iter_cpu_s": median(c / i for c, i in zip(cpu[("cc", False)], iters["cc"])),
            "pagerank_shuffle_mib": median(s.shuffle_write_mib for s in stage_stats[("pagerank", False)]),
            "pagerank_comm_rows": median(comm["pagerank"]),
        }
        units = END_TO_END
    else:
        tr.dump(WORK / f"trace-{workload}-{seed}.json")
        model_mib = hep_footprint_bytes(np.bincount(el.edges.ravel(), minlength=el.n), tau=w.tau, k=K) / MIB
        streaming_s = median(samples["streaming"])
        overhead = sum(median(wall[(n, True)]) - median(wall[(n, False)]) for n in ("partition", "pagerank", "cc"))

        def setup_median(name: str) -> float:
            return median(s.seconds for s in tr.spans if s.name == name)

        def stage_median(name: str, field: str) -> float:
            return median(getattr(s, field) for s in stage_stats[(name, True)])

        metrics = {
            **layer,
            "setup.wall_s": median(setup_wall),
            "setup.cold_s": setup_wall[0],
            "generators.s": setup_median("generators"),
            "partition.wall_s": median(wall[("partition", False)]),
            "partition.cpu_s": median(cpu[("partition", False)]),
            "csr.build_s": median(samples["csr.build"]),
            "nepp.s": median(samples["nepp"]),
            "streaming.s": streaming_s,
            "streaming.us_per_edge": 1e6 * streaming_s / max(1, layer["streaming.edges"]),
            "hep.other_s": median(samples["hep.other"]),
            "memory_model.hep_mib": model_mib,
            "memory_model.peak_ratio": peak_mib / model_mib,
            "tau.sweep_s": setup_median("tau.sweep"),
            "degrees.split_s": setup_median("degrees.split"),
            "degrees.h2h_edges": setups[0].spark_h2h,
            "metrics.ingest_s": setup_median("metrics.ingest"),
            "spark.start_s": spark_start_s,
            "gasx.warmup_s": warmup_s,
            "gasx.pagerank.wall_s": median(wall[("pagerank", False)]),
            "gasx.pagerank.iter_s": median(wall[("pagerank", True)]) / PR_ITERS,
            "gasx.pagerank.agg_s": median(samples["pagerank.agg"]),
            "gasx.pagerank.stage_s": stage_median("pagerank", "stage_s"),
            "gasx.pagerank.driver_s": median(samples["pagerank.driver"]),
            "gasx.pagerank.stages": stage_median("pagerank", "stages"),
            "gasx.pagerank.tasks": stage_median("pagerank", "tasks"),
            "gasx.pagerank.task_run_s": stage_median("pagerank", "task_run_s"),
            "gasx.pagerank.shuffle_read_mib": stage_median("pagerank", "shuffle_read_mib"),
            "gasx.pagerank.shuffle_write_mib": stage_median("pagerank", "shuffle_write_mib"),
            "gasx.cc.wall_s": median(wall[("cc", False)]),
            "gasx.cc.cpu_s": median(cpu[("cc", False)]),
            "gasx.cc.iterations": median(iters["cc"]),
            "gasx.cc.comm_rows": median(comm["cc"]),
            "gasx.cc.stage_s": stage_median("cc", "stage_s"),
            "gasx.cc.driver_s": median(samples["cc.driver"]),
            "gasx.cc.stages": stage_median("cc", "stages"),
            "gasx.cc.task_run_s": stage_median("cc", "task_run_s"),
            "gasx.cc.shuffle_write_mib": stage_median("cc", "shuffle_write_mib"),
            "trace.overhead_s": overhead,
            "machine.steal_share": steal_share,
            "machine.reference_s": median(ref_cpu),
        }
        units = PER_LAYER
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names out of step: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items()},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}; run from the root of a checkout")

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")  # Spark's launcher and Arrow files
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
