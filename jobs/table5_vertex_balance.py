"""Table 5 reproduction: HEP vertex balancing (std/avg replicas per
partition) vs τ at k=32.
"""
from _session import run_main

from repro.harness import print_rows, run_table5


def main(scale: float = 1.0) -> None:
    rows = run_table5(scale=scale)
    print_rows("Table 5 (vertex balancing, k=32)", rows)


if __name__ == "__main__":
    run_main(main)
