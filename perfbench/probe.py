"""Peak-memory probe: one ``partition_hep`` call in a fresh process.

Usage: python3 perfbench/probe.py EDGES.npz TAU K

Loads the edge array written at set-up, records the resident set size,
runs one call and prints, as JSON, how far the process's peak resident
set size (``ru_maxrss``) rose above that starting point, in MiB.
"""
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.hep import partition_hep  # noqa: E402
from repro.graphs.generators import EdgeList  # noqa: E402


def rss_kib() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() // 1024


def main(path: str, tau: str, k: str) -> None:
    with np.load(path) as z:
        el = EdgeList(edges=z["edges"], n=int(z["n"]))
    before = rss_kib()
    partition_hep(el, k=int(k), tau=float(tau))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"peak_growth_mib": (peak - before) / 1024}))


if __name__ == "__main__":
    main(*sys.argv[1:])
