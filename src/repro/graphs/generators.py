"""Synthetic power-law graph corpus — analogs of the paper's Table 3 graphs.

The paper evaluates on seven real-world graphs (social networks, web
graphs, one biological graph) of up to 64 B edges. Those are not
available offline and would not fit this machine, so we generate
*structural analogs* at laptop scale (see DESIGN.md §3, substitution 1):

* social analogs (OK/TW/LJ/FR)  — RMAT with skewed quadrant
  probabilities: power-law degrees, weak locality, hard to partition
  (replication factor well above 1 even for NE).
* web analogs (IT/WI/UK)        — host-locality model: Zipf-sized host
  blocks with mostly intra-host edges plus a sparse power-law inter-host
  hub graph: excellent partitionability (RF near 1), mirroring the
  paper's observation that web graphs partition well.
* biological analog (BR)        — few vertices, very high mean degree,
  dense overlapping communities.

All generators are deterministic in ``seed`` and return an
:class:`EdgeList` (numpy ``(m, 2)`` uint32 array of directed input
edges, deduplicated as *undirected* pairs, self-loops removed, vertex
ids compact ``0..n-1``). Direction of each edge is the generated
direction — the pruned CSR's out/in split (paper §3.2.2) depends on it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import functions as F


@dataclass(frozen=True)
class EdgeList:
    """An undirected graph stored as a directed edge array.

    ``edges[i] = (u, v)`` is the i-th input edge as it would appear in
    the paper's binary edge-list file; the graph itself is undirected,
    and each unordered pair occurs exactly once.
    """

    edges: np.ndarray  # (m, 2) uint32
    n: int  # number of vertices (compact ids 0..n-1)

    def __post_init__(self):
        """Refuse what the partitioners cannot take: ``edges`` not an
        (m, 2) uint32 array, an id ≥ n, a self-loop or a repeated
        unordered pair. The last needs a sort of the m pair keys."""
        e, n = self.edges, self.n
        if not (isinstance(e, np.ndarray) and e.dtype == np.uint32 and e.ndim == 2
                and e.shape[1] == 2):
            raise ValueError(f"EdgeList.edges must be an (m, 2) uint32 array, got "
                             f"{getattr(e, 'dtype', type(e).__name__)} {np.shape(e)}")
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise ValueError(f"EdgeList.n must be an integer >= 0, got {n!r}")
        if not len(e):
            return
        src, dst = e[:, 0], e[:, 1]
        top = int(e.max())
        if top >= n:
            raise ValueError(f"EdgeList has vertex id {top} >= n={n}")
        loops = np.flatnonzero(src == dst)
        if len(loops):
            raise ValueError(f"EdgeList has a self-loop at vertex {int(src[loops[0]])}")
        key = pair_keys(src, dst)
        key.sort()
        dup = np.flatnonzero(key[1:] == key[:-1])
        if len(dup):
            k = int(key[dup[0]])
            raise ValueError(f"EdgeList repeats the unordered pair ({k >> 32}, {k & 0xFFFFFFFF})")

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.edges.shape[0])

    @property
    def size_bytes(self) -> int:
        """Size of the binary edge list with 32-bit vertex ids (Table 3)."""
        return self.m * 8

    def degrees(self) -> np.ndarray:
        """Per-vertex undirected degree, shape (n,) int64: both endpoints
        of every edge counted in one pass of the C kernel
        ``edge_degrees``. An id changed to n or more after the list was
        checked is refused."""
        from ..core._native import LIB  # repro.core imports this module: not at the top

        edges = np.ascontiguousarray(self.edges, dtype=np.uint32)
        degrees = np.zeros(self.n, dtype=np.int64)
        if LIB.edge_degrees(edges.ctypes.data, len(edges), self.n, degrees.ctypes.data) != 0:
            raise ValueError(f"edge ids must be < n={self.n}")
        return degrees


def pair_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The uint64 key ``min << 32 | max`` of each unordered pair {src,
    dst} of ids < 2³², built in place (one 8-byte array per pair)."""
    key = np.minimum(src, dst).astype(np.uint64)
    key <<= np.uint64(32)
    np.bitwise_or(key, np.maximum(src, dst), out=key, dtype=np.uint64, casting="unsafe")
    return key


def _dedup_compact(src: np.ndarray, dst: np.ndarray) -> EdgeList:
    """Drop self-loops, dedup unordered pairs (keep first direction), relabel."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = pair_keys(src, dst)
    # keep the first occurrence of each unordered pair, preserving input
    # order (return_index sorts stably, so it gives first occurrences)
    keep_idx = np.sort(np.unique(key, return_index=True)[1])
    src, dst = src[keep_idx], dst[keep_idx]
    # compact relabel
    verts, inverse = np.unique(np.concatenate([src, dst]), return_inverse=True)
    m = len(src)
    edges = np.empty((m, 2), dtype=np.uint32)
    edges[:, 0] = inverse[:m]
    edges[:, 1] = inverse[m:]
    return EdgeList(edges=edges, n=int(len(verts)))


def rmat(
    *,
    scale: int,
    n_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> EdgeList:
    """RMAT power-law graph (Graph500-style quadrant recursion).

    ``scale`` is log2 of the vertex-id space; ``n_edges`` edges are
    sampled (fewer survive dedup). Default (a,b,c,d)=(.57,.19,.19,.05)
    gives the skew typical of social networks.
    """
    g = np.random.default_rng(seed)
    d = 1.0 - a - b - c
    src = np.zeros(n_edges, dtype=np.uint64)
    dst = np.zeros(n_edges, dtype=np.uint64)
    probs = np.array([a, b, c, d])
    cum = np.cumsum(probs)
    for _bit in range(scale):
        r = g.random(n_edges)
        quad = np.searchsorted(cum, r)
        src = (src << np.uint64(1)) | (quad >= 2).astype(np.uint64)
        dst = (dst << np.uint64(1)) | (quad % 2).astype(np.uint64)
    # permute ids so the RMAT hub structure is not aligned with id order
    perm = g.permutation(1 << scale).astype(np.uint64)
    return _dedup_compact(perm[src], perm[dst])


def web_locality(
    *,
    n_hosts: int,
    mean_host_size: float,
    n_edges: int,
    p_intra: float = 0.9,
    seed: int = 0,
) -> EdgeList:
    """Web-graph analog: Zipf-sized hosts, mostly intra-host edges.

    Intra-host edges use preferential attachment within the host block
    (each host has a local hub: its index page). Inter-host edges run
    between host hubs with power-law host popularity. A good partitioner
    can cut almost only on the hub vertices, so the replication factor
    approaches 1 — the paper's web-graph regime.
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n_hosts + 1, dtype=np.float64)
    w = ranks ** (-1.3)  # Zipf exponent of host sizes and popularity
    w /= w.sum()
    sizes = np.maximum(1, g.poisson(w * mean_host_size * n_hosts)).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])

    n_intra = int(n_edges * p_intra)
    n_inter = n_edges - n_intra
    # intra-host: pick a host ∝ size, then an edge between a random page
    # and a page biased toward low local index (local hubs).
    host_w = sizes / sizes.sum()
    h = g.choice(n_hosts, size=n_intra, p=host_w)
    hs = sizes[h].astype(np.float64)
    u_local = np.floor(g.random(n_intra) ** 2.0 * hs).astype(np.int64)  # hub-biased
    v_local = np.floor(g.random(n_intra) * hs).astype(np.int64)
    src_i = offsets[h] + u_local
    dst_i = offsets[h] + v_local
    # inter-host: hub (local index 0) to hub, hosts ∝ popularity
    h1 = g.choice(n_hosts, size=n_inter, p=w)
    h2 = g.choice(n_hosts, size=n_inter, p=w)
    src_x = offsets[h1]
    dst_x = offsets[h2]
    src = np.concatenate([src_i, src_x]).astype(np.uint64)
    dst = np.concatenate([dst_i, dst_x]).astype(np.uint64)
    return _dedup_compact(src, dst)


def dense_communities(
    *,
    n: int,
    n_comms: int,
    n_edges: int,
    seed: int = 0,
) -> EdgeList:
    """Brain-graph analog: few vertices, very high mean degree, dense
    overlapping communities (each vertex belongs to a primary community;
    most edges are intra-community)."""
    g = np.random.default_rng(seed)
    comm = g.integers(0, n_comms, n)
    order = np.argsort(comm, kind="stable")
    # positions grouped by community
    pos_of = np.empty(n, dtype=np.int64)
    pos_of[order] = np.arange(n)
    starts = np.searchsorted(comm[order], np.arange(n_comms))
    counts = np.bincount(comm, minlength=n_comms)
    n_in = int(n_edges * 0.95)  # intra-community share of the edges
    c = g.integers(0, n_comms, n_in)
    cs = np.maximum(counts[c], 1)
    u = starts[c] + np.floor(g.random(n_in) * cs).astype(np.int64)
    v = starts[c] + np.floor(g.random(n_in) * cs).astype(np.int64)
    n_out = n_edges - n_in
    u2 = g.integers(0, n, n_out)
    v2 = g.integers(0, n, n_out)
    src = np.concatenate([order[u], u2]).astype(np.uint64)
    dst = np.concatenate([order[v], v2]).astype(np.uint64)
    return _dedup_compact(src, dst)


# --- Named analog corpus (Table 3) -------------------------------------
# ``scale`` multiplies the target edge count and the id space; 1.0 is
# bench scale, tests use ~0.02-0.1. Entries mirror Table 3's ordering & types.

_SPECS = {
    # name: (kind, params at scale=1.0, type label)
    "LJ": ("rmat", dict(scale=15, n_edges=220_000, a=0.57, seed=11), "Social"),
    "OK": ("rmat", dict(scale=15, n_edges=400_000, a=0.57, seed=12), "Social"),
    "BR": (
        "dense",
        dict(n=4_000, n_comms=40, n_edges=450_000, seed=13),
        "Biological",
    ),
    "WI": (
        "web",
        dict(n_hosts=2_500, mean_host_size=18.0, n_edges=420_000, p_intra=0.85, seed=14),
        "Web",
    ),
    "IT": (
        "web",
        dict(n_hosts=4_000, mean_host_size=16.0, n_edges=550_000, p_intra=0.92, seed=15),
        "Web",
    ),
    "TW": ("rmat", dict(scale=16, n_edges=500_000, a=0.65, b=0.15, c=0.15, seed=16), "Social"),
    "FR": ("rmat", dict(scale=17, n_edges=600_000, a=0.55, seed=17), "Social"),
    "UK": (
        "web",
        dict(n_hosts=6_000, mean_host_size=17.0, n_edges=700_000, p_intra=0.93, seed=18),
        "Web",
    ),
}

GRAPH_NAMES = tuple(_SPECS)


def graph_type(name: str) -> str:
    """Table 3 'Type' column for an analog graph."""
    return _SPECS[name][2]


def graph(name: str, *, scale: float = 1.0) -> EdgeList:
    """Generate the named analog graph at ``scale`` × its bench-size."""
    kind, params, _ = _SPECS[name]
    p = dict(params)
    p["n_edges"] = max(16, int(p["n_edges"] * scale))
    # the id space scales with the edge count, so the mean degree stays about level
    if kind == "rmat":
        p["scale"] = max(8, p["scale"] + int(np.floor(np.log2(max(scale, 1e-6)))))
        return rmat(**p)
    if kind == "web":
        p["n_hosts"] = max(16, int(p["n_hosts"] * scale))
        return web_locality(**p)
    if kind == "dense":
        p["n"] = max(64, int(p["n"] * scale))
        p["n_comms"] = max(4, int(p["n_comms"] * scale))
        return dense_communities(**p)
    raise ValueError(f"unknown graph kind {kind!r}")


def to_pandas(el: EdgeList) -> pd.DataFrame:
    """Edge list as a pandas frame with int64 ``src``/``dst`` columns."""
    return pd.DataFrame(
        {"src": el.edges[:, 0].astype("int64"), "dst": el.edges[:, 1].astype("int64")}
    )


def to_spark(spark, el: EdgeList):
    """Edge list as a Spark DataFrame (src: long, dst: long)."""
    return arrays_to_spark(spark, {"src": el.edges[:, 0], "dst": el.edges[:, 1]})


LIFT_CHUNK = 4096  # array indices per Arrow list row in arrays_to_spark


def arrays_to_spark(spark, columns: dict[str, np.ndarray]):
    """Named equal-length integer arrays as a Spark DataFrame of nullable
    ``long`` columns, one row per index, in order; the inverse of
    :func:`from_spark`'s Arrow read.

    Spark holds a driver-side frame as a local relation whose rows every
    analyzer pass walks and whose task Java-serializes them, so the
    arrays go in as ⌈m / LIFT_CHUNK⌉ rows of ``list<int64>`` columns,
    and ``inline(arrays_zip(...))`` makes the m rows on the executor.
    """
    m = len(next(iter(columns.values())))
    if any(len(col) != m for col in columns.values()):
        raise ValueError(f"arrays_to_spark: columns differ in length: "
                         f"{ {name: len(col) for name, col in columns.items()} }")
    offsets = pa.array(np.append(np.arange(0, m, LIFT_CHUNK), m).astype(np.int32))
    table = pa.table({
        name: pa.ListArray.from_arrays(offsets, np.ascontiguousarray(col, dtype=np.int64))
        for name, col in columns.items()
    })
    return spark.createDataFrame(table).select(F.inline(F.arrays_zip(*columns)))


def from_spark(df) -> EdgeList:
    """Inverse of :func:`to_spark`: the ``src``/``dst`` columns as an
    EdgeList, in one Arrow transfer. Ids must be integers in [0, 2³²)
    (checked before the uint32 cast would wrap them); n is the largest
    id + 1, and EdgeList refuses self-loops and repeated pairs."""
    table = df.select("src", "dst").toArrow()
    edges = np.empty((table.num_rows, 2), dtype=np.uint32)
    for j, name in enumerate(("src", "dst")):
        ids = table.column(name).to_numpy()
        if ids.dtype.kind not in "iu" or len(ids) and not 0 <= ids.min() <= ids.max() < 2**32:
            raise ValueError(f"from_spark: every {name} id must be an integer in [0, 2**32)")
        edges[:, j] = ids
    return EdgeList(edges=edges, n=int(edges.max()) + 1 if len(edges) else 0)
