"""Fig. 8 reproduction (extra): RF / run-time / memory-model across all
implemented partitioners on the analog corpus.
"""
from _session import run_main

from repro.harness import print_rows, run_fig8


def main(scale: float = 0.5, k: int = 32) -> None:
    rows = run_fig8(scale=scale, k=k)
    print_rows(f"Fig. 8 (partitioner comparison, k={k})", rows)


if __name__ == "__main__":
    run_main(main)
