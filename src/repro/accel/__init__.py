"""Accelerator model library.

Behavioural accelerator models programmed against the Apiary shell: the
Section 2 workloads (video encoder, third-party compressor, KV store), a
crypto stage for pipelines, measurement probes (echo, sink), and the
misbehaving accelerators the isolation experiments need.
"""

from repro.accel.base import Accelerator
from repro.accel.compress import COMPRESS_CYCLES_PER_KB, Compressor
from repro.accel.crypto import CRYPTO_CYCLES_PER_BLOCK, CryptoAccel
from repro.accel.echo import EchoAccel, SinkAccel
from repro.accel.faulty import (
    CrashingAccel,
    FloodingAccel,
    SnoopingAccel,
    WildWriterAccel,
)
from repro.accel.kvstore import KV_HASH_CYCLES, KvStore
from repro.accel.video import (
    ENCODE_CYCLES_PER_FRAME,
    PreemptibleVideoEncoder,
    VideoEncoder,
)

__all__ = [
    "Accelerator",
    "EchoAccel",
    "SinkAccel",
    "VideoEncoder",
    "PreemptibleVideoEncoder",
    "ENCODE_CYCLES_PER_FRAME",
    "Compressor",
    "COMPRESS_CYCLES_PER_KB",
    "KvStore",
    "KV_HASH_CYCLES",
    "CryptoAccel",
    "CRYPTO_CYCLES_PER_BLOCK",
    "FloodingAccel",
    "SnoopingAccel",
    "CrashingAccel",
    "WildWriterAccel",
]
