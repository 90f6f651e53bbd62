"""The host's current speed, read from a fixed reference loop.

This host's CPU runs at different speeds from one second to the next:
the same ``partition_hep`` call on the same graph took 0.57 s and then
1.03 s of CPU in one process, and ten-run sets an hour apart had
medians 1.7x apart. CPU time does not remove this, because the slowdown
is in the core, not in time taken away from it.

``reference_cpu_s`` times a fixed loop of the same make-up as the
partitioner's hot loops (a Python loop over single edges that scores
k=32 partitions with small numpy operations, plus heap and dict
traffic). The loop does not touch the program, so a change to the
program cannot move it. Dividing a call's CPU seconds by the loop's,
measured just before and just after the call, cancels most of the
host's speed; ``REFERENCE_S`` turns the ratio back into seconds.
"""
from __future__ import annotations

import heapq
import time

import numpy as np

# CPU seconds of one reference loop at this host's usual speed; a
# normalized time is the call's CPU seconds over the loop's, times this.
REFERENCE_S = 0.12
_STEPS = 4000
_K = 32


def _loop() -> int:
    rng = np.random.default_rng(12345)
    sizes = rng.integers(0, 100, _K).astype(np.int64)
    replicas = rng.random((_K, 64)) < 0.3
    heap: list = []
    counts: dict = {}
    acc = 0
    for i in range(_STEPS):
        u = i % 64
        mx, mn = sizes.max(), sizes.min()
        score = replicas[:, u] * 1.5 + (mx - sizes) / (1.0 + mx - mn)
        p = int(np.flatnonzero(score == score.max())[0])
        sizes[p] += 1
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if len(heap) > 200:
            heapq.heappop(heap)
        counts[i % 500] = counts.get(i % 500, 0) + p
        acc += p
    return acc


_WANT = _loop()


def reference_cpu_s() -> float:
    """CPU seconds of this thread for one reference loop."""
    t = time.thread_time()
    got = _loop()
    t = time.thread_time() - t
    if got != _WANT:
        raise RuntimeError("reference loop returned another result")
    return t



