"""Bench-scale knobs (env-overridable).

REPRO_BENCH_SCALE scales every bench graph's edge count and id space;
1.0 is the corpus' nominal bench size, a few hundred thousand edges per
graph. On one core of a Xeon VM, HEP partitions the OK analog at 1.0
(k=32, τ from 1 to 100) in about 0.1 s, and NE and SNE in 3.5–4 s.
"""
import os

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
# Table 4 drives ~20 full gasx workloads; run its graphs a bit smaller.
T4_SCALE = float(os.environ.get("REPRO_T4_SCALE", str(0.3 * BENCH_SCALE)))
K = int(os.environ.get("REPRO_BENCH_K", "32"))
