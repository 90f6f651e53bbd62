"""Table 4 reproduction: partitioning time, replication factor and
PageRank/BFS/CC processing cost on the gasx engine per partitioner.
"""
from _session import get_spark, run_main

from repro.harness import print_rows, run_table4


def main(scale: float = 0.5, k: int = 32) -> None:
    spark = get_spark("table4")
    rows = run_table4(spark, scale=scale, k=k)
    print_rows(f"Table 4 (graph processing, k={k})", rows)


if __name__ == "__main__":
    run_main(main)
