"""Fig. 9 / §5.4 reproduction (extra): HEP vs the simple hybrid
baseline (NE + random streaming), normalized ratios.
"""
from _session import run_main

from repro.harness import print_rows, run_fig9


def main(scale: float = 0.5) -> None:
    rows = run_fig9(scale=scale)
    print_rows("Fig. 9 (HEP vs simple hybrid, OK analog, k=32)", rows)


if __name__ == "__main__":
    run_main(main)
