"""Streaming connected components on a ring of bounded-memory processors."""

from .aging import (
    CustomPredicate,
    ReservoirSample,
    TimestampThreshold,
    min_bandwidth_expansion,
    required_free_space,
)
from .model import (
    Age,
    Arrival,
    AutoAge,
    Connectivity,
    DumpLabels,
    EdgeCount,
    IDLE,
    LabeledEdge,
    MaxComponent,
    SmallComponents,
    SpanningTree,
    canonical_key,
)
from .multipass import multipass_labels, partition, run_multipass, static_cc
from .pipeline import ThreadedRing, run_pipelined
from .ring import Ring, RingConfig, SystemFailed, Transcript
from .unionfind import CapacityExhausted, LocalComponents

__all__ = [
    "Age", "Arrival", "AutoAge", "CapacityExhausted", "Connectivity",
    "CustomPredicate", "DumpLabels", "EdgeCount", "IDLE", "LabeledEdge",
    "LocalComponents", "MaxComponent", "ReservoirSample", "Ring",
    "RingConfig", "SmallComponents", "SpanningTree", "SystemFailed",
    "ThreadedRing", "TimestampThreshold", "Transcript", "canonical_key",
    "min_bandwidth_expansion", "multipass_labels", "partition",
    "required_free_space", "run_multipass", "run_pipelined", "static_cc",
]
