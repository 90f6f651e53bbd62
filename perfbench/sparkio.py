"""The benchmark's Spark session and its reader of Spark's stage metrics.

Stage metrics come from Spark's own status store, which is filled with
the UI disabled. Stage ids grow monotonically and ``stageList`` returns
them newest first, so the stages of one call are those with an id above
the newest id seen before it.
"""
from __future__ import annotations

import gc
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path

MIB = float(1 << 20)


# One task slot. The graphs are small, so gasx's cost is Spark's per-job
# and per-stage work, which parallel tasks do not shorten: with four slots
# a warm 3-iteration PageRank call took the same wall time (3.2-3.8 s)
# but 6.3-7.6 CPU-seconds against 3.8-4.6.
TASK_SLOTS = 1


# The client compiler compiles a method after 10-20 calls instead of
# 200: gasx's CPU time per call then levels out after fewer calls (PageRank
# 3.4 s, 3.1 s, then 2.6 s, against 3.7 s, 3.5 s, then 3.0 s with the
# defaults), so the timed calls sit on a flatter part of the JVM's warm-up.
_EARLY_COMPILE = (
    "-XX:Tier3InvocationThreshold=20 -XX:Tier3MinInvocationThreshold=10 "
    "-XX:Tier3CompileThreshold=100 -XX:Tier3BackEdgeThreshold=2000"
)


def start_session(work: Path):
    """A local SparkSession whose scratch files stay under ``work``.

    UI and broadcast joins are off, so every join shuffles. Adaptive
    execution is off so the number of shuffle partitions, and with it
    the shuffle bytes, does not depend on run-time statistics. The
    driver JVM uses the client compiler and the serial collector, which
    roughly halve its first-use cost for the many short Spark jobs of a
    run (README.md).
    """
    from pyspark.sql import SparkSession

    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # -XX:-UsePerfData: the JVMs would otherwise write /tmp/hsperfdata_<user>
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    slots = TASK_SLOTS
    spark = (
        SparkSession.builder.master(f"local[{slots}]")
        .appName("perfbench")
        .config("spark.driver.memory", "1g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config(
            "spark.driver.extraJavaOptions",
            f"-XX:TieredStopAtLevel=1 {_EARLY_COMPILE} -XX:+UseSerialGC -XX:-UsePerfData "
            f"-Djava.io.tmpdir={tmp}",
        )
        .config("spark.local.dir", str(tmp))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(slots))
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def collect_garbage(spark) -> None:
    """Collect garbage in this process and in the JVM, so that a timed
    call does not pay for the garbage of the calls before it."""
    gc.collect()
    spark.sparkContext._jvm.System.gc()


def jvm_pid() -> int:
    """Process id of the Spark driver JVM that PySpark launched."""
    from pyspark import SparkContext

    return SparkContext._gateway.proc.pid


def stop_session(spark) -> None:
    """Stop Spark and wait for its JVM process to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None


@dataclass
class StageStats:
    """Spark stages completed during one call."""

    stages: int
    tasks: int
    task_run_s: float  # Σ executor run time of the tasks
    stage_s: float  # union of the stages' [submitted, completed] intervals
    shuffle_read_mib: float
    shuffle_write_mib: float


class StageReader:
    def __init__(self, spark):
        self._sc = spark.sparkContext
        jvm = self._sc._jvm
        self._store = self._sc._jsc.sc().statusStore()
        self._args = (
            jvm.java.util.ArrayList(),
            False,
            False,
            self._sc._gateway.new_array(jvm.double, 0),
            jvm.java.util.ArrayList(),
        )

    def _stages(self):
        self._sc._jsc.sc().listenerBus().waitUntilEmpty()
        return self._store.stageList(*self._args)

    def mark(self) -> int:
        """Newest stage id so far (-1 before the first stage)."""
        lst = self._stages()
        return lst.apply(0).stageId() if lst.length() else -1

    def since(self, mark: int) -> StageStats:
        """Metrics of the completed stages newer than ``mark``."""
        lst = self._stages()
        tasks, run_ms, rd, wr = 0, 0, 0, 0
        spans = []
        for i in range(lst.length()):
            d = lst.apply(i)
            if d.stageId() <= mark:
                break
            if d.status().toString() != "COMPLETE":
                continue  # skipped stages reuse earlier shuffle output
            tasks += d.numTasks()
            run_ms += d.executorRunTime()
            rd += d.shuffleReadBytes()
            wr += d.shuffleWriteBytes()
            spans.append((d.submissionTime().get().getTime(), d.completionTime().get().getTime()))
        return StageStats(
            stages=len(spans),
            tasks=tasks,
            task_run_s=run_ms / 1e3,
            stage_s=_union_ms(spans) / 1e3,
            shuffle_read_mib=rd / MIB,
            shuffle_write_mib=wr / MIB,
        )


def _union_ms(spans: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for s, e in sorted(spans):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total
