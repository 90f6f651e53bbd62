"""Table 2 reproduction: run-time of the τ memory-footprint pre-compute.
"""
from _session import get_spark, run_main

from repro.harness import print_rows, run_table2


def main(scale: float = 1.0) -> None:
    spark = get_spark("table2")
    rows = run_table2(spark, scale=scale)
    print_rows("Table 2 (τ pre-compute run-time)", rows)


if __name__ == "__main__":
    run_main(main)
