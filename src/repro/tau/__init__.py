"""τ pre-computation: HEP's degree pass over a Spark edge table (Table 2, §4.4)."""
from .precompute import footprint_sweep  # noqa: F401
