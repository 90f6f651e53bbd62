"""Table 1 reproduction: empirical complexity scaling of partitioners.

(No Spark computation — the partitioner cores are driver-side — but the
entrypoint keeps the one-job-per-table convention.)
"""
from _session import run_main

from repro.harness import print_rows, run_table1


def main(base_scale: float = 0.1) -> None:
    rows = run_table1(sizes=(base_scale, 2 * base_scale, 4 * base_scale))
    print_rows("Table 1 (empirical complexity scaling)", rows)


if __name__ == "__main__":
    run_main(main)
