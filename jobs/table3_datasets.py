"""Table 3 reproduction: the analog graph corpus and its statistics.
"""
from _session import run_main

from repro.harness import print_rows, run_table3


def main(scale: float = 1.0) -> None:
    rows = run_table3(scale=scale)
    print_rows("Table 3 (analog graph corpus)", rows)


if __name__ == "__main__":
    run_main(main)
