"""Fig. 9 / §5.4 bench (extra): HEP vs simple hybrid (NE + random)."""
from repro.harness import print_rows, run_fig9

from ._scales import BENCH_SCALE, K


def test_bench_fig9(benchmark):
    rows = benchmark.pedantic(
        lambda: run_fig9(scale=0.5 * BENCH_SCALE, k=K), rounds=1, iterations=1
    )
    print_rows(f"Fig. 9 (HEP vs simple hybrid, OK analog, k={K})", rows)
    by = {r["tau"]: r for r in rows}
    # claim (1), weakened to parity: the paper's up-to-20× NE++-vs-NE
    # run-time gap is a design effect that this comparison cannot show
    # yet, because NE++ runs in C and NE is still a Python loop, so the
    # measured gap is mostly the substrate's (ROADMAP item 2,
    # EXPERIMENTS.md); we require NE++ to stay within 2× of NE at τ=100
    # and to win at τ=1, where the pruned graph is genuinely smaller.
    assert by[100.0]["t_inmem_hep_s"] < 2.0 * by[100.0]["t_inmem_simple_s"]
    assert by[1.0]["t_inmem_hep_s"] < by[1.0]["t_inmem_simple_s"]
    # claim (3): at τ=1 informed HDRF clearly beats random streaming
    assert by[1.0]["rf_ratio"] > 1.1
