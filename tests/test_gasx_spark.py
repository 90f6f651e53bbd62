"""gasx engine + algorithms: correctness against dense references and
partitioning-invariance (the partitioning changes cost, never results).
"""
import gc
import re
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

import repro.gasx.algorithms as gasx_alg
from repro.core.hashing import dbh_np
from repro.core.hep import partition_hep
from repro.core.metrics import assignment_to_spark
from repro.gasx.algorithms import bfs, connected_components, pagerank
from repro.gasx.engine import SQL_CONF, compiled_classes, edge_table
from repro.gasx.reference import bfs_ref, cc_ref, pagerank_ref
from repro.graphs.degrees import degrees_df, high_vertices, split_edges
from repro.graphs.generators import to_spark

from .conftest import tiny_graph, two_triangles

GRAPH = "OK"
SCALE = 0.01


@pytest.fixture(scope="module")
def el():
    return tiny_graph(GRAPH, SCALE)


@pytest.fixture(scope="module")
def hep(el):
    return partition_hep(el, k=4, tau=10.0)


@pytest.fixture(scope="module")
def dbh(el):
    return dbh_np(el, k=4)


@pytest.fixture(scope="module")
def adf_hep(spark, hep):
    return assignment_to_spark(spark, hep).cache()


@pytest.fixture(scope="module")
def adf_dbh(spark, dbh):
    return assignment_to_spark(spark, dbh).cache()


def test_edge_table_doubles_edges(adf_hep, el):
    assert edge_table(adf_hep).count() == 2 * el.m


def test_vertices_count(adf_hep, el):
    """The edge table's vertices are its distinct src: every vertex."""
    assert edge_table(adf_hep).select("src").distinct().count() == el.n


def test_pagerank_matches_reference(el, hep, adf_hep):
    ranks, stats = pagerank(adf_hep, n_iter=3)
    ref = pagerank_ref(el, n_iter=3)
    rows = ranks.collect()
    assert len(rows) == el.n  # every vertex (all are incident to an edge)
    for r in rows:
        assert r["rank"] == pytest.approx(ref[r["v"]], abs=1e-9)
    assert stats.iterations == 3
    # every replica pair receives a message in every iteration
    assert stats.comm_rows == 3 * hep.covered().sum()
    a = hep.assignment
    pairs = len(np.unique(np.concatenate([a[:, 2] * hep.n + a[:, 0], a[:, 2] * hep.n + a[:, 1]])))
    assert stats.sync_rows == (pairs,) * 3


def test_pagerank_partitioning_invariant(el, adf_hep, adf_dbh):
    """Different partitionings, identical ranks."""
    r1, _ = pagerank(adf_hep, n_iter=2)
    r2, _ = pagerank(adf_dbh, n_iter=2)
    m1 = {r["v"]: r["rank"] for r in r1.collect()}
    m2 = {r["v"]: r["rank"] for r in r2.collect()}
    assert m1.keys() == m2.keys()
    for v in m1:
        assert m1[v] == pytest.approx(m2[v], abs=1e-9)


def test_pagerank_comm_tracks_partition_quality(hep, dbh, adf_hep, adf_dbh):
    """Lower replication factor ⇒ lower per-iteration sync volume —
    the mechanism behind Table 4's processing times."""
    if hep.replication_factor() < dbh.replication_factor() * 0.95:
        _, s_hep = pagerank(adf_hep, n_iter=2)
        _, s_dbh = pagerank(adf_dbh, n_iter=2)
        assert s_hep.comm_rows < s_dbh.comm_rows


def test_bfs_matches_reference(el, hep, adf_hep):
    dist, stats = bfs(adf_hep, source=0)
    ref = bfs_ref(el, source=0)
    got = {r["v"]: r["dist"] for r in dist.collect()}
    assert len(got) == int((ref >= 0).sum())
    for v, d in got.items():
        assert ref[v] == d
    # level d ships one row per distinct (pid, dst) reached from a
    # vertex at distance d; the last level finds nothing new
    a = hep.assignment
    pid = np.concatenate([a[:, 2], a[:, 2]])
    src = np.concatenate([a[:, 0], a[:, 1]])
    dst = np.concatenate([a[:, 1], a[:, 0]])
    want = sum(
        len(np.unique(pid[ref[src] == d] * el.n + dst[ref[src] == d]))
        for d in range(ref.max() + 1)
    )
    assert stats.iterations == ref.max() + 1
    assert stats.comm_rows == want


def test_bfs_source_only_component(spark):
    el = two_triangles()
    adf = assignment_to_spark(spark, dbh_np(el, k=2))
    dist, _ = bfs(adf, source=3)
    got = {r["v"]: r["dist"] for r in dist.collect()}
    assert got == {3: 0, 4: 1, 5: 1}
    assert dist.schema.simpleString() == "struct<v:bigint,dist:bigint>"
    # a source without edges sends nothing: Spark prunes the empty
    # aggregation, observer included, and that counts as zero rows
    dist, stats = bfs(adf, source=9)
    assert {r["v"]: r["dist"] for r in dist.collect()} == {9: 0}
    assert (stats.iterations, stats.comm_rows) == (1, 0)


def test_cc_matches_reference(el, hep, adf_hep):
    lbl, stats = connected_components(adf_hep, max_iter=40)
    ref = cc_ref(el)
    for r in lbl.collect():
        assert ref[r["v"]] == r["lbl"]
    assert stats.comm_rows == stats.iterations * hep.covered().sum()


def test_cc_stops_at_max_iter(hep, adf_hep):
    """Capped before its fixpoint, CC reports the cap and one sync of
    every replica pair."""
    _, stats = connected_components(adf_hep, max_iter=1)
    assert stats.iterations == 1
    assert stats.comm_rows == hep.covered().sum()


def test_bfs_stops_at_max_iter(el, adf_hep, monkeypatch):
    """Capped before its fixpoint, BFS reports the cap and the vertices
    reached so far: the source and its neighbours."""
    monkeypatch.setattr(gasx_alg, "BFS_MAX_ITER", 1)
    dist, stats = bfs(adf_hep, source=0)
    ref = bfs_ref(el, source=0)
    assert stats.iterations == 1
    got = {r["v"]: r["dist"] for r in dist.collect()}
    assert got == {v: int(ref[v]) for v in np.flatnonzero((ref >= 0) & (ref <= 1))}


def test_cc_partitioning_invariant(spark):
    el = two_triangles()
    a1 = assignment_to_spark(spark, dbh_np(el, k=2))
    lbl, _ = connected_components(a1)
    got = {r["v"]: r["lbl"] for r in lbl.collect()}
    assert got == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 3}


@contextmanager
def _with_conf(spark, conf):
    old = {k: spark.conf.get(k) for k in conf}
    for k, v in conf.items():
        spark.conf.set(k, v)
    try:
        yield
    finally:
        for k, v in old.items():
            spark.conf.set(k, v)


@pytest.fixture
def bench_session(spark):
    """The benchmark's settings: one shuffle partition, in which a plan
    that reads a single partition would satisfy every later distribution,
    and no adaptive execution, under which a checkpoint keeps its
    partitioning."""
    with _with_conf(
        spark, {"spark.sql.shuffle.partitions": "1", "spark.sql.adaptive.enabled": "false"}
    ):
        yield


@pytest.fixture
def job_session(spark):
    """gasx's settings, which ``jobs/_session.get_spark`` gives the jobs/
    entrypoints."""
    with _with_conf(spark, SQL_CONF):
        yield


def _partitioning(table):
    return table._jdf.queryExecution().executedPlan().outputPartitioning()


def test_edge_table_hash_partitioned_on_src(adf_hep, bench_session):
    """Hash-partitioned on src, not a single partition (what
    ``repartition("src")`` plans with one shuffle partition)."""
    part = _partitioning(edge_table(adf_hep))
    assert part.getClass().getSimpleName() == "HashPartitioning"
    assert re.fullmatch(r"hashpartitioning\(src#\d+L?, 1\)", part.toString())


def test_edge_table_built_once_per_frame(adf_hep):
    assert edge_table(adf_hep) is edge_table(adf_hep)


def test_edge_table_rebuilt_under_other_plan_conf(spark, adf_hep, bench_session):
    """A table planned under other shuffle settings is rebuilt, not
    reused: its partitioning follows the settings of the call."""
    one = edge_table(adf_hep)
    with _with_conf(spark, {"spark.sql.shuffle.partitions": "16"}):
        sixteen = edge_table(adf_hep)
        assert sixteen is not one
        assert re.fullmatch(r"hashpartitioning\(src#\d+L?, 16\)",
                            _partitioning(sixteen).toString())
        with _with_conf(spark, {"spark.sql.adaptive.enabled": "true"}):
            assert edge_table(adf_hep) is not sixteen


def test_edge_table_goes_with_its_frame(spark, hep):
    adf = assignment_to_spark(spark, hep)
    frame, table = weakref.ref(adf), weakref.ref(edge_table(adf))
    assert table() is not None
    del adf
    gc.collect()
    assert frame() is None and table() is None


def _job_ids(spark) -> set[int]:
    """Ids of the Spark jobs run so far outside a job group."""
    sc = spark.sparkContext
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return set(sc.statusTracker().getJobIdsForGroup(None))


def test_warm_pagerank_reuses_edge_table(spark, hep, job_session):
    """A second PageRank call on one frame runs one Spark job fewer than
    the first, the edge table's, so only its initial state's and its
    supersteps', and gives the same ranks and sync rows."""
    adf = assignment_to_spark(spark, hep).cache()
    jobs, ranks, sync_rows = [], [], []
    for _ in range(2):
        before = _job_ids(spark)
        out, stats = pagerank(adf, n_iter=2)
        jobs.append(len(_job_ids(spark) - before))
        ranks.append({r["v"]: r["rank"] for r in out.collect()})
        sync_rows.append(stats.sync_rows)
    assert jobs[1] == jobs[0] - 1 == 3
    assert ranks[0] == ranks[1]
    assert sync_rows[0] == sync_rows[1]


def _storage_levels(spark) -> dict[int, str]:
    """The storage level of every persisted RDD, by RDD id."""
    rdds = spark.sparkContext._jsc.sc().getPersistentRDDs().values().iterator()
    levels = {}
    while rdds.hasNext():
        rdd = rdds.next()
        levels[rdd.id()] = rdd.getStorageLevel().description()
    return levels


def _rdd_id(checkpointed) -> int:
    return checkpointed._jdf.logicalPlan().rdd().id()


def test_state_checkpoints_stored_serialized(spark, hep, job_session):
    """The initial state and every superstep's state are stored
    serialized, in memory and on disk; the edge table keeps Spark's
    default, deserialized level."""
    adf = assignment_to_spark(spark, hep)
    before = _storage_levels(spark)
    out, _ = pagerank(adf, n_iter=2)
    new = {i: level for i, level in _storage_levels(spark).items() if i not in before}
    assert new.pop(_rdd_id(edge_table(adf))) == "Disk Memory Deserialized 1x Replicated"
    assert _rdd_id(out) in new
    assert set(new.values()) == {"Disk Memory Serialized 1x Replicated"}


def _superstep_plans(adf, algo, monkeypatch) -> list[str]:
    """The executed plan of every superstep's replica-sync aggregate."""
    totals = []
    two_stage_agg = gasx_alg.two_stage_agg

    def recording(msgs, agg_col, how):
        total, obs = two_stage_agg(msgs, agg_col, how)
        totals.append(total)
        return total, obs

    monkeypatch.setattr(gasx_alg, "two_stage_agg", recording)
    run = {
        "pagerank": lambda: pagerank(adf, n_iter=2),
        "cc": lambda: connected_components(adf, max_iter=2),
        "bfs": lambda: bfs(adf, source=0),
    }[algo]
    run()
    assert len(totals) >= 2
    return [total._jdf.queryExecution().executedPlan().toString() for total in totals]


@pytest.mark.parametrize("algo", ["pagerank", "cc", "bfs"])
def test_superstep_keeps_both_sync_exchanges(adf_hep, bench_session, monkeypatch, algo):
    """Each superstep shuffles the partial rows to (pid, dst) and then to
    dst, the two replica-sync steps, and moves no edge."""
    for plan in _superstep_plans(adf_hep, algo, monkeypatch):
        found = re.findall(r"Exchange hashpartitioning\((.*?), 1\)", plan)
        keys = [re.sub(r"#\d+L?", "", k) for k in found]
        assert keys == ["dst", "pid, dst"]  # the executed plan lists the later one first


def _normalized(plan: str) -> str:
    """``plan`` without what differs between two plans of one shape:
    expression ids, plan ids and observation names."""
    plan = re.sub(r"#\d+", "#", plan)
    plan = re.sub(r"plan_id=\d+", "plan_id=", plan)
    return re.sub(r"CollectMetrics [0-9a-f-]{36}", "CollectMetrics", plan)


@pytest.mark.parametrize("algo", ["pagerank", "cc", "bfs"])
def test_every_superstep_has_one_plan(adf_hep, bench_session, monkeypatch, algo):
    """Every superstep, the first included, runs the same physical plan,
    so Spark compiles one superstep's classes once per run."""
    plans = {_normalized(p) for p in _superstep_plans(adf_hep, algo, monkeypatch)}
    assert len(plans) == 1


@pytest.mark.parametrize("algo", ["pagerank", "cc", "bfs"])
def test_job_superstep_shuffles_no_edges(adf_hep, job_session, monkeypatch, algo):
    """Under the jobs' settings (16 shuffle partitions, no adaptive
    execution) a superstep's plan holds the two sync exchanges and no
    other: the checkpointed edge table keeps its partitioning, so the
    vertex→replica ship moves no edge."""
    for plan in _superstep_plans(adf_hep, algo, monkeypatch):
        found = re.findall(r"\bExchange (\w+\([^)]*\))", plan)
        keys = [re.sub(r"#\d+L?", "", k) for k in found]
        assert keys == ["hashpartitioning(dst, 16)", "hashpartitioning(pid, dst, 16)"]


# Generated classes Spark may compile for one pass of the τ split and
# the assignment ingest (as the benchmark set-up runs them), PageRank,
# CC and BFS. A pass in a fresh JVM compiled 89 classes; without the
# ingest, and with the high set still classified in Spark, it compiled
# 91; before the shared edge table and the broadcast split, 184, so
# every warm call evicted and recompiled.
PASS_CLASS_BUDGET = 100


def test_one_pass_compiles_within_budget(spark, el, hep, adf_hep, bench_session):
    """One pass's working set of generated classes stays within 100,
    Spark's default code-cache size (this session's and the benchmark's;
    the jobs raise theirs to 1000). The default cache is four LRU
    segments of 25, so a working set near 100 can still overflow one
    segment; the bound guards the working set's size, not a miss-free
    cache. An upper bound, so it holds whatever ran before in this JVM."""
    c0 = compiled_classes(spark)
    edges = to_spark(spark, el)
    split_edges(edges, high_vertices(degrees_df(edges), 10.0))[1].count()
    assignment_to_spark(spark, hep).localCheckpoint()
    pagerank(adf_hep, n_iter=2)
    connected_components(adf_hep)
    bfs(adf_hep, source=0)
    assert compiled_classes(spark) - c0 <= PASS_CLASS_BUDGET
