"""Shared types for partitioner results and driver-side validity checks."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.generators import EdgeList, pair_keys


@dataclass
class PartitionResult:
    """Outcome of an edge partitioning run.

    ``assignment`` is an ``(m, 3)`` int64 array of ``(src, dst, pid)``
    rows, one per input edge, with ``(src, dst)`` in the input edge
    list's orientation. ``replicas`` is the ``(k, n)`` boolean covered-
    vertex matrix maintained by the partitioner itself: NE++ and NE fill
    it to seed the hybrids' informed streaming phase, and the streaming
    partitioners and both hybrids return their stream state in it. DBH
    and SNE leave it ``None``. The quality metrics below recompute
    coverage from ``assignment`` so the two can be cross-checked in
    tests. ``loads`` is the ``(k,)`` int64 edge count per partition that
    NE++ kept as it assigned, which HEP's streaming phase starts from;
    the other partitioners leave it ``None``. ``sizes`` recounts it from
    ``assignment``.
    """

    assignment: np.ndarray
    k: int
    n: int
    replicas: np.ndarray | None = None
    stats: dict = field(default_factory=dict)
    loads: np.ndarray | None = None

    @property
    def sizes(self) -> np.ndarray:
        """Edges per partition, shape (k,)."""
        return np.bincount(self.assignment[:, 2], minlength=self.k)

    def covered(self) -> np.ndarray:
        """(k, n) bool: vertex v is covered by partition p (from assignment)."""
        cov = np.zeros((self.k, self.n), dtype=bool)
        cov[self.assignment[:, 2], self.assignment[:, 0]] = True
        cov[self.assignment[:, 2], self.assignment[:, 1]] = True
        return cov

    def _require_edges(self) -> None:
        if not len(self.assignment):
            raise ValueError("the partitioning result has no edges; its quality metrics are undefined")

    def replication_factor(self) -> float:
        """RF = (1/|V|) Σ_i |V(p_i)| over vertices incident to ≥1 edge."""
        self._require_edges()
        cov = self.covered()
        return float(cov.sum() / cov.any(axis=0).sum())

    def edge_balance(self) -> float:
        """max_i |p_i| / (|E|/k) — 1.0 is perfect balance."""
        self._require_edges()
        return float(self.sizes.max()) / (self.assignment.shape[0] / self.k)

    def vertex_balance(self) -> float:
        """Std-deviation / average of per-partition covered-vertex counts
        (Table 5's metric; population std over the k partitions)."""
        self._require_edges()
        per = self.covered().sum(axis=1).astype(np.float64)
        return float(per.std() / per.mean())


def check_k(k) -> None:
    """Raise ``ValueError`` unless the partition count ``k`` is an
    integer ≥ 1; every partitioner's entry point calls this first."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")


def assignment_array(src, dst, pid) -> np.ndarray:
    """The ``(m, 3)`` int64 ``(src, dst, pid)`` array of a result.

    Filled one column at a time into a preallocated array, so no
    full-width int64 copy of the inputs is made on the way.
    """
    assignment = np.empty((len(pid), 3), dtype=np.int64)
    assignment[:, 0] = src
    assignment[:, 1] = dst
    assignment[:, 2] = pid
    return assignment


def check_valid(el: EdgeList, res: PartitionResult, *, alpha: float | None = None) -> None:
    """Assert ``res`` is a *valid* edge partitioning of ``el``.

    Every input undirected edge must be assigned to exactly one
    partition, pids must be in range, and (optionally) the balancing
    constraint |p_i| ≤ α·|E|/k must hold. Raises AssertionError.
    """
    a = res.assignment
    assert a.shape == (el.m, 3), f"assigned {a.shape[0]} of {el.m} edges"
    assert not len(a) or 0 <= a[:, 2].min() <= a[:, 2].max() < res.k, "pid out of range"
    want = np.sort(pair_keys(el.edges[:, 0], el.edges[:, 1]))
    got = np.sort(pair_keys(a[:, 0], a[:, 1]))
    assert np.array_equal(want, got), "assigned edge set differs from input edge set"
    if alpha is not None:
        cap = alpha * el.m / res.k
        assert res.sizes.max() <= np.ceil(cap), (
            f"balance violated: max |p_i|={res.sizes.max()} > {cap:.1f}"
        )
