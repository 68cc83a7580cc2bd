"""Video encoding accelerator — the motivating workload of Section 2.

"Consider customizing a video encoding service to accelerate part of a
video processing pipeline.  Requests to the service are a chunk of video,
which the service processes and then sends to the next stage."

The model encodes chunks (cost proportional to frame count), keeps
per-stream encoder state between invocations (the paper's point that
microservices are stateful), and optionally forwards output to a
``downstream`` endpoint — which is how the encode→compress pipeline of the
composition experiment (D9) is assembled.

:class:`PreemptibleVideoEncoder` additionally externalizes its per-stream
contexts, enabling the preempt fault model (Section 4.4 / D6).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.accel.base import Accelerator
from repro.hw.resources import ResourceVector

__all__ = ["VideoEncoder", "PreemptibleVideoEncoder", "ENCODE_CYCLES_PER_FRAME"]

#: Encoding cost per frame at the model's granularity: a hardware encoder
#: pipeline processes a frame in tens of microseconds; ~6000 fabric cycles.
ENCODE_CYCLES_PER_FRAME = 6000

#: Output bytes per input byte after encoding.
ENCODE_RATIO = 0.12


class VideoEncoder(Accelerator):
    """Encodes video chunks; stateful per stream; optionally pipelined.

    Request: op ``encode``, payload
    ``{"stream": id, "seq": n, "frames": f, "bytes": b}``.
    Reply: ``{"stream", "seq", "bytes": encoded_size}``.

    If ``downstream`` is set, the encoded chunk is also forwarded there as
    an ``encode.out`` request (and the reply to the client is sent after
    the downstream stage accepted it, keeping end-to-end backpressure).
    """

    COST = ResourceVector(logic_cells=120_000, bram_kb=1024, dsp_slices=400)
    PRIMITIVES = {"lut_logic": 90_000, "bram": 256, "dsp": 400}
    TOGGLE_RATE = 0.4

    def __init__(self, name: str, downstream: Optional[str] = None):
        super().__init__(name)
        self.downstream = downstream
        #: per-stream encoder contexts: last seq + rate-control state
        self.streams: Dict[Any, Dict[str, Any]] = {}
        self.chunks_encoded = 0
        self.out_of_order = 0

    def main(self, shell):
        while True:
            msg = yield shell.recv()
            if msg.op != "encode":
                yield shell.reply(msg, payload=f"unknown op {msg.op!r}",
                                  error=True)
                continue
            yield from self._encode(shell, msg)

    def _encode(self, shell, msg):
        body = msg.payload
        if not isinstance(body, dict) or "frames" not in body:
            yield shell.reply(msg, payload="bad encode request", error=True)
            return
        stream = body.get("stream", 0)
        ctx = self.streams.setdefault(
            stream, {"last_seq": -1, "rate_state": 0.5, "chunks": 0}
        )
        seq = body.get("seq", ctx["last_seq"] + 1)
        if seq <= ctx["last_seq"]:
            self.out_of_order += 1
        ctx["last_seq"] = max(ctx["last_seq"], seq)
        ctx["chunks"] += 1
        # rate control adapts slowly toward the stream's complexity
        complexity = min(1.0, body["bytes"] / max(1, body["frames"]) / 100_000)
        ctx["rate_state"] = 0.9 * ctx["rate_state"] + 0.1 * complexity

        yield from self._work(body["frames"] * ENCODE_CYCLES_PER_FRAME)
        out_bytes = max(64, int(body["bytes"] * ENCODE_RATIO
                                * (0.8 + 0.4 * ctx["rate_state"])))
        self.chunks_encoded += 1
        result = {"stream": stream, "seq": seq, "bytes": out_bytes}
        if self.downstream is not None:
            yield shell.call(self.downstream, "encode.out", payload=result,
                             payload_bytes=out_bytes)
        yield shell.reply(msg, payload=result, payload_bytes=32)


class PreemptibleVideoEncoder(VideoEncoder):
    """A video encoder built for the preemptible execution model.

    Declares :attr:`preemptible` and externalizes its per-stream contexts,
    so the fault manager can kill one stream's context without draining the
    tile (Section 4.4: "other independent processes on the accelerator can
    keep running").
    """

    preemptible = True
    # SYNERGY-style state externalization costs fabric: ~15% logic overhead
    COST = ResourceVector(logic_cells=138_000, bram_kb=1152, dsp_slices=400)

    def externalize_state(self) -> Dict[str, Any]:
        return {
            stream: dict(ctx) for stream, ctx in self.streams.items()
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.streams.update({k: dict(v) for k, v in state.items()})

    def main(self, shell):
        """Serve each stream in its own context process.

        A context killed by the fault manager is *respawned* when the next
        message for its stream arrives, restoring the externalized state
        the fault manager saved — the paper's preemption payoff: the tile
        never drains, and even the faulted stream recovers.
        """
        self._shell = shell
        self._stream_queues: Dict[Any, Any] = {}
        self._stream_procs: Dict[Any, Any] = {}
        while True:
            msg = yield shell.recv()
            if msg.op != "encode":
                yield shell.reply(msg, payload=f"unknown op {msg.op!r}",
                                  error=True)
                continue
            stream = msg.payload.get("stream", 0) if isinstance(msg.payload, dict) else 0
            queue = self._stream_queues.get(stream)
            if queue is None:
                from repro.sim import Channel

                queue = Channel(shell.engine, capacity=None,
                                name=f"{self.name}.s{stream}")
                self._stream_queues[stream] = queue
            proc = self._stream_procs.get(stream)
            if proc is None or not proc.alive:
                if proc is not None:
                    self._recover_stream_state(stream)
                self._spawn_context(shell, stream, queue)
            queue.try_put(msg)

    def _recover_stream_state(self, stream) -> None:
        """Restore the stream's context from the fault manager's save."""
        tile = getattr(self, "tile", None)
        if tile is None:
            return
        saved = tile.saved_contexts.pop(f"stream{stream}", None)
        tile.saved_context_owners.pop(f"stream{stream}", None)
        if saved and stream in saved:
            self.streams[stream] = dict(saved[stream])

    def _spawn_context(self, shell, stream, queue):
        def context():
            while True:
                msg = yield queue.get()
                yield from self._encode(shell, msg)

        # contexts run inside the tile fault domain via Tile.spawn_context
        # (system-managed tiles) so the fault manager sees them; plain
        # shell.spawn is the standalone fallback.
        tile = getattr(self, "tile", None)
        if tile is not None:
            proc = tile.spawn_context(f"stream{stream}", context())
        else:
            proc = shell.spawn(f"stream{stream}", context())
        self._stream_procs[stream] = proc
        return proc
