"""Table 1 bench: empirical run-time scaling vs |E| and vs k.

Shape to verify (paper Table 1): DBH ~Θ(|E|), flat in k; HDRF ~Θ(|E|·k);
HEP ~O(|E|(log|V|+k)) dominated by the NE++ term — so HEP's k-scaling
is much weaker than HDRF's.
"""
from repro.harness import print_rows, run_table1

from ._scales import BENCH_SCALE


def test_bench_table1(benchmark):
    rows = benchmark.pedantic(
        lambda: run_table1(
            sizes=(0.1 * BENCH_SCALE, 0.2 * BENCH_SCALE, 0.4 * BENCH_SCALE),
            ks=(4, 16, 64),
        ),
        rounds=1,
        iterations=1,
    )
    print_rows("Table 1 (empirical complexity scaling)", rows)
    by = {(r["axis"], r["partitioner"], r.get("m"), r.get("k")): r["seconds"] for r in rows}
    # |E| axis: every partitioner scales ~linearly in |E| — the largest
    # size must cost clearly more than the smallest for the stateful
    # partitioners (4× the edges ⇒ ≥2× the time).
    for p in ("HEP-10", "HDRF"):
        ts = [v for (ax, q, _, _), v in sorted(by.items()) if ax == "|E|" and q == p]
        assert max(ts) > 2 * min(ts), (p, ts)
    # k axis: DBH is Θ(|E|), flat in k. HDRF scores every partition per
    # edge in a compiled loop, so its Θ(|E|·k) k-term surfaces as wall
    # time; HEP's k-term (bitsets/clean-up) is visible but sub-linear.
    dbh_k = [v for (ax, p, _, k), v in by.items() if ax == "k" and p == "DBH"]
    assert max(dbh_k) < 20 * max(min(dbh_k), 1e-4)
    hdrf_k = [v for (ax, p, _, k), v in sorted(by.items()) if ax == "k" and p == "HDRF"]
    assert hdrf_k[-1] > 2 * hdrf_k[0], ("HDRF's time should grow with k", hdrf_k)
    hep_k = [v for (ax, p, _, k), v in sorted(by.items()) if ax == "k" and p == "HEP-10"]
    assert hep_k[-1] < 16 * max(hep_k[0], 1e-3), "HEP k-growth should be far sub-linear"
