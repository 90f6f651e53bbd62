"""HEP's memory-overhead model (paper §4.2) and analogs for baselines.

The paper derives HEP's footprint in closed form and uses it to choose
τ; we use the same formula wherever the paper reports maximum resident
set size (DESIGN.md substitution 4 — Python RSS is interpreter-
dominated at laptop scale, so the model is the meaningful quantity).

    HEP(τ):  Σ_{v ∈ V_l} d(v)·b_id  +  6·|V|·b_id  +  |V|·(k+1)/8
    NE:      full column array (2·|E| entries) + per-edge validity byte
             + the same index/size/bitset machinery
    stream:  replica bitsets + sizes only (no column array)

b_id = 4 (32-bit vertex ids).
"""
from __future__ import annotations

import numpy as np

from ..graphs.csr import ID_BYTES
from ..graphs.degrees import high_mask_np


def hep_fixed_bytes(n: int, *, k: int) -> int:
    """§4.2's τ-independent terms: 6·|V|·b_id + ⌈|V|·(k+1)/8⌉."""
    return 6 * n * ID_BYTES + -(-n * (k + 1) // 8)


def hep_footprint_bytes(deg: np.ndarray, *, tau: float, k: int) -> int:
    """§4.2 formula for HEP at threshold τ with k partitions."""
    high = high_mask_np(deg, tau)
    col = int(deg.sum(where=~high)) * ID_BYTES
    return col + hep_fixed_bytes(len(deg), k=k)


def ne_footprint_bytes(deg: np.ndarray, *, k: int) -> int:
    """NE baseline: full column array + eager per-edge validity array."""
    m = int(deg.sum()) // 2
    col = int(deg.sum()) * ID_BYTES  # 2·|E| entries
    eids = int(deg.sum()) * 8  # parallel 64-bit edge-id array
    valid = m  # 1 byte per edge
    return col + eids + valid + hep_fixed_bytes(len(deg), k=k)


def streaming_footprint_bytes(n: int, *, k: int) -> int:
    """Stateful streaming (HDRF): replica bitsets + degrees + loads."""
    return int(np.ceil(n * k / 8)) + n * ID_BYTES + k * 8
