"""Replicated state machines on tiles: zero-data-loss stateful serving.

The cluster package's :class:`~repro.cluster.frontend.FrontEnd` keeps a
service *available* across board failures; this package keeps its state
*correct*.  Each shard of a chained service is a van Renesse–Schneider
replication chain of :class:`ChainNodeService` members across distinct
FPGAs: writes append to a per-shard write-ahead log at the head and are
acknowledged only after the tail commits, reads are served linearizably
at the tail, and configuration epochs fence stale members so a
partitioned ex-head can never split the brain.  The
:class:`ReplicationManager` control plane configures chains, detects
failures (kernel fault reports + stat probes), and repairs unattended —
promote on member loss, checkpoint-stream a fresh replica to splice the
chain back to full replication, all without stopping the service.

R2 proves the claim as the :mod:`repro.loadgen` library scenario
``replication_chaos``: board kill + fabric partition under sustained
load, checked by :class:`HistoryChecker` for zero acknowledged-write
loss and zero linearizability violations.
"""

from repro.replic.chain import LOG_APPEND_CYCLES, STREAM_CHUNK, ChainNodeService
from repro.replic.history import HistoryChecker, ReadRecord, WriteRecord
from repro.replic.log import LogEntry, WriteAheadLog
from repro.replic.machine import KvMachine
from repro.replic.manager import RepairEvent, ReplicationManager

__all__ = [
    "ChainNodeService",
    "LOG_APPEND_CYCLES",
    "STREAM_CHUNK",
    "HistoryChecker",
    "WriteRecord",
    "ReadRecord",
    "LogEntry",
    "WriteAheadLog",
    "KvMachine",
    "RepairEvent",
    "ReplicationManager",
]
