"""Partitioner cores: HEP (NE++ + informed HDRF) and every baseline of
the paper's evaluation tables, plus the §4.2 memory model."""
from .common import PartitionResult, check_valid  # noqa: F401
from .hashing import dbh_np  # noqa: F401
from .hep import partition_hep, partition_simple_hybrid, partition_streaming  # noqa: F401
from .ne import partition_ne  # noqa: F401
from .nepp import partition_nepp  # noqa: F401
from .sne import partition_sne  # noqa: F401
