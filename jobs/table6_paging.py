"""Table 6 reproduction: paged NE++ under memory limits (LRU page-cache
simulation) vs HEP at τ=1 on the OK analog, k=32.
"""
from _session import run_main

from repro.harness import print_rows, run_table6


def main(scale: float = 1.0) -> None:
    rows = run_table6(scale=scale)
    print_rows("Table 6 (paging on OK analog, k=32)", rows)


if __name__ == "__main__":
    run_main(main)
