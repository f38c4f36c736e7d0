"""Streaming connected components on a ring of bounded-memory processors.

`import ringcc` loads the lockstep engine only; the threaded engine
(`pipeline`) and the multipass reference (`multipass`) load on first use of
one of their exports.
"""

from importlib import import_module

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

# export -> submodule, imported when the export is first read (PEP 562)
_LAZY = {
    "ThreadedRing": "pipeline", "run_pipelined": "pipeline",
    "multipass_labels": "multipass", "partition": "multipass",
    "run_multipass": "multipass", "static_cc": "multipass",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
